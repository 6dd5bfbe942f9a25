"""The seeded workloads of the qasym benchmark.

A workload runs two of the four parts below in each pass.  Each part has:

- ``params(seed, index)``: the seeded numbers that define input set
  ``index`` of a run (plain numbers, so two draws can be compared; each
  part draws from its own stream);
- ``build(params)``: the library objects built from them, which is the
  input-building part of set-up;
- ``run_pass(inputs)``: one timed pass through the public qasym API,
  returning the outputs, and ``check(inputs, out)``: the oracle checks
  on those outputs, run outside the timed region.  ``check`` returns
  ``(name, ok)`` pairs; every failed check counts, none is dropped;
- ``counts(inputs)``: counts that the inputs themselves keep (the
  jump evaluations of the split part), read around a traced pass.

Library functions are looked up on the ``qasym`` package or module at
call time, so the trace wrappers installed by ``tracing.Tracer`` see
every call the benchmark makes.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

import numpy as np

import qasym
from qasym.model import residue_closed_form


def _rng(tag: int, seed: int, index: int) -> np.random.Generator:
    """Independent stream per workload and input set."""
    return np.random.default_rng([tag, seed, index])


# --- two_level_demo -----------------------------------------------------------

DEMO_JS = range(3, 9)          # the ranges of `qasym demo --fast`
DEMO_N_RANGE = range(0, 5)
RESIDUE_REL_TOL = 1e-9         # fast difference vs residue closed form


def demo_params(seed: int, index: int) -> dict:
    rng = _rng(1, seed, index)
    scale = lambda: (float(2.0 ** rng.uniform(-1.0, 1.0)),      # noqa: E731
                     float(rng.uniform(0.0, 2.0 * math.pi)))
    return {"amp": scale(), "poles": [scale(), scale()],
            "residue_j": [float(x) for x in rng.uniform(3.0, 8.0, size=2)]}


@dataclass
class DemoInputs:
    scn: object
    p_fast: int
    residue_T: list


def demo_build(params: dict) -> DemoInputs:
    base = qasym.default_scenario()
    poles = tuple(replace(pl, strength=pl.strength * s * cmath.exp(1j * a))
                  for pl, (s, a) in zip(base.poles, params["poles"]))
    s, a = params["amp"]
    scn = replace(base, kernel_amp=base.kernel_amp * s * cmath.exp(1j * a),
                  poles=poles)
    p_fast = scn.levels().index(2)
    mid = scn.mid_direction(p_fast)
    Ts = [2.0 ** (-j) * cmath.exp(1j * mid) for j in params["residue_j"]]
    return DemoInputs(scn=scn, p_fast=p_fast, residue_T=Ts)


def demo_pass(inp: DemoInputs):
    return qasym.verify_two_level_theorem(inp.scn, js=DEMO_JS,
                                          N_range=DEMO_N_RANGE)


def demo_check(inp: DemoInputs, rep) -> list:
    checks = [("covering_ok", bool(rep.covering_ok))]
    checks += [(f"dichotomy p={e[0]}", bool(e[4] <= rep.dichotomy.tolerance))
               for e in rep.dichotomy.entries]
    checks += [("fast_fit certified", bool(rep.fast_fit.certified)),
               ("slow_fit certified", bool(rep.slow_fit.certified)),
               ("corollary_fit certified", bool(rep.corollary_fit.certified)),
               ("report ok", bool(rep.ok))]
    for T in inp.residue_T:
        d = qasym.consecutive_difference(inp.scn, inp.p_fast, T, "decomposed")
        oracle = residue_closed_form(inp.scn, inp.p_fast, T)
        checks.append((f"residue |T|={abs(T):.4g}",
                       bool(abs(d.total - oracle) <= RESIDUE_REL_TOL * abs(oracle))))
    return checks


# --- residual_sweep -----------------------------------------------------------

SWEEP_POINTS = 25
RESIDUAL_TOL = 1e-8            # the acceptance threshold of the residual gate


def sweep_params(seed: int, index: int) -> dict:
    rng = _rng(2, seed, index)
    n = SWEEP_POINTS
    # the ranges of the 125-point acceptance sweep
    t = rng.uniform(0.08, 0.16, n) * np.exp(1j * rng.uniform(-0.35, 0.9, n))
    z = rng.uniform(-0.7, 0.7, n)
    eps = rng.uniform(0.06, 0.18, n) * np.exp(1j * rng.uniform(-0.7, 2.0, n))
    return {"points": [(complex(a), complex(b), complex(c))
                       for a, b, c in zip(t, z, eps)]}


@dataclass
class SweepInputs:
    spec: object
    U: object
    profile_U: object
    series: object
    points: list


def sweep_build(params: dict) -> SweepInputs:
    spec = qasym.default_spec()
    U, profile_U, series = qasym.manufactured_problem(spec, a=0)
    return SweepInputs(spec=spec, U=U, profile_U=profile_U, series=series,
                       points=params["points"])


def sweep_pass(inp: SweepInputs) -> list:
    return [qasym.apply_equation_operator(inp.spec, inp.series, inp.U,
                                          inp.profile_U, t, z, eps)
            for t, z, eps in inp.points]


def sweep_check(inp: SweepInputs, residuals: list) -> list:
    return [(f"residual {i}", bool(abs(r) <= RESIDUAL_TOL))
            for i, r in enumerate(residuals)]


# --- cauchy_heine_split -------------------------------------------------------

SPLIT_Q, SPLIT_K1, SPLIT_K2, SPLIT_A = 2.0, 1.0, 2.0, 1.3
SPLIT_J_MAX = 5
SPLIT_TOL = 1e-9               # spread and realization, as in `qasym split`
DIRECT_REL_TOL = 1e-9          # mid-sector probes against the direct integral
RAY_FRACTION = 0.9             # Cocycle's default cut length


class CountedJump:
    """A jump Delta(t, xi) that counts the xi points it is evaluated at,
    so a traced run can report the cocycle layer's jump evaluations."""

    def __init__(self, fn):
        self.fn = fn
        self.points = 0

    def __call__(self, t, xi):
        self.points += np.size(xi)
        return self.fn(t, xi)


def _jump_table():
    """(overlap, level k, cut direction, amplitude) of the synthetic
    two-level cocycle of `qasym split`."""
    cuts = [math.radians(d) for d in (0.0, 90.0, 180.0, 270.0)]
    slow = [(1, SPLIT_K1, cuts[1], 0.7), (3, SPLIT_K1, cuts[3], 0.4j)]
    fast = [(0, SPLIT_K2, cuts[0], 0.9), (2, SPLIT_K2, cuts[2], -0.6)]
    return slow, fast


def split_params(seed: int, index: int) -> dict:
    rng = _rng(3, seed, index)
    t = float(rng.uniform(0.02, 0.1)) * cmath.exp(1j * rng.uniform(-0.3, 0.3))
    return {"t": complex(t),
            "probe_frac": [float(x) for x in rng.uniform(0.2, 0.8, size=4)]}


@dataclass
class SplitInputs:
    t: complex
    covering: object
    slow: object
    fast: object
    G: list
    opts: object
    jumps: list
    probes: list               # (sector, eps) at mid-sector angles


def _entire(eps):
    return np.exp(0.3 * np.asarray(eps, dtype=complex))


def split_build(params: dict) -> SplitInputs:
    cov = qasym.make_cyclic_covering(4, 0.4, math.radians(60), math.radians(45))
    slow_t, fast_t = _jump_table()
    jumps = []

    def cocycle(table):
        deltas = [None] * cov.n
        for p, k, cut, amp in table:
            deltas[p] = CountedJump(qasym.ladder_jump(SPLIT_Q, k, SPLIT_A, cut, amp))
            jumps.append(deltas[p])
        return qasym.Cocycle(cov, deltas=tuple(deltas))

    slow, fast = cocycle(slow_t), cocycle(fast_t)
    opts = qasym.CHOptions(tol=1e-12)

    def branch(p):
        def G(t, eps):
            e = np.atleast_1d(np.asarray(eps, dtype=complex))
            sec = np.full(e.shape, p, dtype=int)
            vals = (_entire(e) + qasym.cauchy_heine_many(slow, t, e, sec, opts)
                    + qasym.cauchy_heine_many(fast, t, e, sec, opts))
            return vals[0] if np.ndim(eps) == 0 else vals
        return G

    r_min = RAY_FRACTION * min(cov.overlap_radius(p) for p in range(cov.n))
    probes = [(p, frac * r_min * cmath.exp(1j * cov.sector(p).bisector))
              for p, frac in enumerate(params["probe_frac"])]
    return SplitInputs(t=params["t"], covering=cov, slow=slow, fast=fast,
                       G=[branch(p) for p in range(cov.n)], opts=opts,
                       jumps=jumps, probes=probes)


def split_counts(inp: SplitInputs) -> dict:
    return {"cocycle.jump_points": sum(j.points for j in inp.jumps)}


def split_pass(inp: SplitInputs):
    return qasym.multilevel_split(inp.G, inp.slow, inp.fast, inp.t,
                                  opts=inp.opts, j_max=SPLIT_J_MAX)


def _jump_longhand(k: float, cut: float, amp: complex):
    """The ladder jump amp * exp(-(2k/log q) Log t (log A + log xi)),
    with log xi measured from the cut direction, written out here so the
    oracle shares no code with the library."""
    def delta(t, xi):
        rel = xi * cmath.exp(-1j * cut)
        ell = math.log(abs(xi)) + 1j * math.atan2(rel.imag, rel.real)
        return amp * cmath.exp(-(2.0 * k / math.log(SPLIT_Q)) * cmath.log(t)
                               * (math.log(SPLIT_A) + ell))
    return delta


def direct_cauchy(t: complex, eps: complex, cov) -> complex:
    """Sum over both cocycles of (1/2 pi i) int_ray Delta(t, xi)/(xi - eps) dxi
    on the linear parametrization xi = s e^{ic}, by scipy quad on the real
    and imaginary parts.  At a mid-sector eps no Plemelj correction
    applies, so this is the sectorial sum there."""
    from scipy.integrate import quad   # not at import: set-up is timed
    slow_t, fast_t = _jump_table()
    total = 0j
    for p, k, cut, amp in slow_t + fast_t:
        delta = _jump_longhand(k, cut, amp)
        c = cmath.exp(1j * cov.overlap_bisector(p))
        length = RAY_FRACTION * cov.overlap_radius(p)

        def f(s):
            return delta(t, s * c) * c / (s * c - eps) if s > 0.0 else 0j

        re = quad(lambda s: f(s).real, 0.0, length, epsabs=1e-14,
                  epsrel=1e-13, limit=400)[0]
        im = quad(lambda s: f(s).imag, 0.0, length, epsabs=1e-14,
                  epsrel=1e-13, limit=400)[0]
        total += (re + 1j * im) / (2j * math.pi)
    return total


def split_check(inp: SplitInputs, split) -> list:
    checks = [("spread", bool(split.max_spread <= SPLIT_TOL)),
              ("realization", bool(split.max_realization_err <= SPLIT_TOL))]
    for p, eps in inp.probes:
        lib = complex(inp.G[p](inp.t, eps)) - complex(_entire(eps))
        ref = direct_cauchy(inp.t, eps, inp.covering)
        checks.append((f"direct Cauchy sector {p}",
                       bool(abs(lib - ref) <= DIRECT_REL_TOL * abs(ref))))
    return checks


# --- qlaplace_theta -----------------------------------------------------------

THETA_PAIRS = ((2.0, 1.0), (3.0, 0.5), (2.0, 2.0))
LOWER_BOUND_DLT = 0.3
N_BOUND_POINTS = 30
N_RESIDUAL_POINTS = 10
RESIDUAL_MS = range(-3, 4)
THETA_RESIDUAL_TOL = 1e-10
# The value-relative residual is conditioned in double precision only
# for log-lattice pitch log(q)/k >= 0.6 (see the functional-equation
# acceptance gate); every pair is judged on the scale-relative residual.
CONDITIONED_PITCH = 0.6
MONOMIAL_REL_TOL = 1e-9


def qlt_params(seed: int, index: int) -> dict:
    rng = _rng(4, seed, index)
    out = []
    for q, k in THETA_PAIRS:
        out.append({
            "q": q, "k": k,
            # |z| over three radial periods, as in the lower-bound gate
            "bound_u": [(float(a), float(b)) for a, b in rng.random((3 * N_BOUND_POINTS, 2))],
            # fundamental annulus, as in the functional-equation gate
            "residual_u": [(float(a), float(b)) for a, b in rng.random((3 * N_RESIDUAL_POINTS, 2))],
            "T": complex(rng.uniform(0.15, 0.4) * cmath.exp(1j * rng.uniform(-0.3, 0.3))),
        })
    return {"pairs": out}


@dataclass
class PairInputs:
    q: float
    k: float
    bound_spec: object
    bound_z: list
    residual_spec: object
    residual_z: list
    T: complex


def _admissible(q, k, us, r_of, dlt, n):
    pts = []
    for a, b in us:
        z = r_of(a) * cmath.exp(2j * math.pi * b)
        if qasym.spiral_admissible(q, k, z, dlt):
            pts.append(z)
        if len(pts) == n:
            break
    return pts


def qlt_build(params: dict) -> list:
    out = []
    for pr in params["pairs"]:
        q, k = pr["q"], pr["k"]
        out.append(PairInputs(
            q=q, k=k,
            bound_spec=qasym.spec_for_annulus(q, k, q ** (-1.2 / k), q ** (2.2 / k)),
            bound_z=_admissible(q, k, pr["bound_u"],
                                lambda a: q ** ((3.0 * a - 1.0) / k),
                                LOWER_BOUND_DLT, N_BOUND_POINTS),
            residual_spec=qasym.spec_for_annulus(q, k, q ** (-3.2 / k), q ** (4.2 / k)),
            residual_z=_admissible(q, k, pr["residual_u"], lambda a: q ** (a / k),
                                   0.2 * math.log(q) / k, N_RESIDUAL_POINTS),
            T=pr["T"]))
    return out


def qlt_pass(inp: list) -> list:
    out = []
    for pr in inp:
        spec = qasym.calibrate_theta_constant(pr.bound_spec, dlt=LOWER_BOUND_DLT)
        bounds = [qasym.theta_lower_bound(spec, z, LOWER_BOUND_DLT)
                  for z in pr.bound_z]
        residuals = [qasym.theta_qdiff_residual(pr.residual_spec, z, m)
                     for z in pr.residual_z for m in RESIDUAL_MS]
        lspec = qasym.QLaplaceSpec(q=pr.q, k=pr.k, direction=0.0)
        images = []
        for n in range(6):
            cert = qasym.GrowthCertificate(K=1.0, alpha=float(n), k=0.0, rho=1.0)
            res = qasym.qlaplace(lspec, lambda u, n=n: u ** n, pr.T, cert,
                                 enforce_domain=False)
            images.append(res.value)
        out.append({"Cqk": spec.Cqk, "bounds": bounds, "residuals": residuals,
                    "images": images})
    return out


def scale_residual(spec, z: complex, m: int) -> float:
    """|Theta(q^{m/k} z) - q^{m(m+1)/(2k)} z^m Theta(z)| relative to the
    larger side's max-term scale, from the scaled evaluations."""
    lq = math.log(spec.q)
    lm, sm = qasym.theta_eval_scaled(spec, spec.q ** (m / spec.k) * z)
    rm, sr = qasym.theta_eval_scaled(spec, z)
    lzm = m * cmath.log(z)
    sr = float(sr) + m * (m + 1) * lq / (2.0 * spec.k) + lzm.real
    base = max(float(sm), sr)
    return abs(complex(lm) * math.exp(float(sm) - base)
               - complex(rm) * cmath.exp(1j * lzm.imag) * math.exp(sr - base))


def qlt_check(inp: list, out: list) -> list:
    checks = []
    for pr, res in zip(inp, out):
        tag = f"q={pr.q:g} k={pr.k:g}"
        checks.append((f"{tag} lower bound on {len(pr.bound_z)} points",
                       all(b.ok for b in res["bounds"])))
        if math.log(pr.q) / pr.k >= CONDITIONED_PITCH:
            checks.append((f"{tag} functional equation (value-relative)",
                           max(res["residuals"]) <= THETA_RESIDUAL_TOL))
        worst = max(scale_residual(pr.residual_spec, z, m)
                    for z in pr.residual_z for m in RESIDUAL_MS)
        checks.append((f"{tag} functional equation (scale-relative)",
                       worst <= THETA_RESIDUAL_TOL))
        for n, v in enumerate(res["images"]):
            c = pr.q ** (n * (n - 1) / (2.0 * pr.k))    # c_{n,k}, closed form
            exact = c * pr.T ** n
            checks.append((f"{tag} L(u^{n})",
                           abs(v - exact) <= MONOMIAL_REL_TOL * abs(exact)))
    return checks


# --- registry -----------------------------------------------------------------

def no_counts(inputs) -> dict:
    return {}


@dataclass(frozen=True)
class Part:
    name: str
    params: object
    build: object
    run_pass: object
    check: object
    counts: object = no_counts   # cumulative counts kept by the inputs


PARTS = {p.name: p for p in (
    Part("two_level_demo", demo_params, demo_build, demo_pass, demo_check),
    Part("qlaplace_theta", qlt_params, qlt_build, qlt_pass, qlt_check),
    Part("residual_sweep", sweep_params, sweep_build, sweep_pass, sweep_check),
    Part("cauchy_heine_split", split_params, split_build, split_pass,
         split_check, split_counts),
)}


@dataclass(frozen=True)
class Workload:
    """A pass runs each part in turn; checks and counts are the parts'."""

    name: str
    parts: tuple

    def params(self, seed: int, index: int) -> dict:
        return {p.name: p.params(seed, index) for p in self.parts}

    def inputs(self, seed: int, index: int = 0) -> dict:
        return {p.name: p.build(p.params(seed, index)) for p in self.parts}

    def run_pass(self, inputs: dict) -> dict:
        return {p.name: p.run_pass(inputs[p.name]) for p in self.parts}

    def check(self, inputs: dict, out: dict) -> list:
        return [(f"{p.name}: {name}", ok) for p in self.parts
                for name, ok in p.check(inputs[p.name], out[p.name])]

    def counts(self, inputs: dict) -> dict:
        return {k: v for p in self.parts for k, v in p.counts(inputs[p.name]).items()}


# Two workloads, not four: on a noisy 2-core host a run needs about a
# minute to give a steady median, and the run budget allows that for two.
# The split keeps the predicted zeros: theta, model and qlaplace do no
# work in sweep_split, equation and cocycle none in demo_qlaplace.
WORKLOADS = {w.name: w for w in (
    Workload("demo_qlaplace", (PARTS["two_level_demo"], PARTS["qlaplace_theta"])),
    Workload("sweep_split", (PARTS["residual_sweep"], PARTS["cauchy_heine_split"])),
)}
