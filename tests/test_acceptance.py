"""End-to-end acceptance gate: ten independent certifications.

Each test exercises one headline capability at its stated tolerance and
prints a single PASS/FAIL line with the measured margin (visible with
``pytest -s`` and in captured output on failure).  Oracles here never
route through the code path under test: theta residuals are judged in
scaled arithmetic, sectorial branches are rebuilt by contour deformation
(rotated rays closed by arcs) instead of the library's half-residue
corrections, and remainder ladders are checked against hand-evaluated
bound inequalities.
"""

import cmath
import math

import numpy as np
import pytest
from scipy.integrate import quad

from helpers import cauchy_ray_direct, closed_jump
from qasym.asymptotics import (RemainderTable, fit_q_gevrey,
                               fit_zero_gevrey_relative, restrict_and_refit)
from qasym.cocycle import CHOptions, Cocycle, ladder_jump, multilevel_split
from qasym.equation import (EquationTerm, default_spec, manufactured_problem,
                            residual_sweep, validate_hypotheses)
from qasym.frames import log_gaussian_power, seq_bound_from_log_bound
from qasym.geometry import make_cyclic_covering
from qasym.model import (consecutive_difference, default_scenario,
                         difference_remainder_table, laplace_transform_shape,
                         verify_rate_dichotomy)
from qasym.qlaplace import (GrowthCertificate, QLaplaceSpec,
                            monomial_ratio_law, qlaplace)
from qasym.theta import (calibrate_theta_constant, spec_for_annulus,
                         spiral_admissible, theta_eval_scaled,
                         theta_lower_bound, theta_qdiff_residual)

from fractions import Fraction


def _gate(ok: bool, label: str, detail: str) -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}")
    return ok


# --- 1. theta functional equation --------------------------------------------

# pairs with log-lattice pitch log(q)/k >= 0.6: there the value-relative
# residual is conditioned in double precision (the max-term/value ratio
# stays modest on clearance-admissible points; dense-pitch pairs bury the
# value 1e8 below the largest term even far from the zero spiral)
THETA_PAIRS = [(2.0, 1.0), (2.5, 1.5), (3.0, 0.5)]


def _annulus_points(rng, q, k, n, clearance):
    """Seeded points of the fundamental annulus |z| in [1, q^(1/k)), kept
    away from the zero spiral so the relative residual is meaningful."""
    pts = []
    while len(pts) < n:
        r = q ** (rng.random() / k)
        z = r * cmath.exp(2j * math.pi * rng.random())
        if spiral_admissible(q, k, z, clearance):
            pts.append(z)
    return pts


def _natural_scale_residual(spec, z, m):
    """Functional-equation residual relative to the larger side's max-term
    scale (backward-style; well conditioned even in deep theta valleys)."""
    lq = math.log(spec.q)
    lm_, sm = theta_eval_scaled(spec, spec.q ** (m / spec.k) * z)
    rm_, sr = theta_eval_scaled(spec, z)
    lzm = m * np.log(complex(z))
    sr = sr + m * (m + 1) * lq / (2.0 * spec.k) + lzm.real
    rm_ = rm_ * np.exp(1j * lzm.imag)
    base = max(float(sm), float(sr))
    return abs(complex(lm_) * math.exp(float(sm) - base)
               - complex(rm_) * math.exp(float(sr) - base))


def test_01_theta_functional_equation():
    rng = np.random.default_rng(101)
    worst_rel = 0.0
    worst_nat = 0.0
    for q, k in THETA_PAIRS:
        # shifts by m in -3..3 move |z| across q^(m/k); cover that range
        spec = spec_for_annulus(q, k, q ** (-3.2 / k), q ** (4.2 / k))
        dlt = 0.2 * math.log(q) / k
        for z in _annulus_points(rng, q, k, 50, dlt):
            for m in range(-3, 4):
                worst_rel = max(worst_rel, theta_qdiff_residual(spec, z, m))
                worst_nat = max(worst_nat, _natural_scale_residual(spec, z, m))
    ok = worst_rel <= 1e-10 and worst_nat <= 1e-10
    assert _gate(ok, "criterion 1 (theta functional equation)",
                 f"max residual {worst_rel:.3e} (value-relative), "
                 f"{worst_nat:.3e} (scale-relative), both <= 1e-10 over "
                 f"{len(THETA_PAIRS)} (q,k) pairs x 50 points x m in -3..3")


# --- 2. calibrated theta lower bound ------------------------------------------

def test_02_theta_growth_bound_holds_off_calibration_grid():
    rng = np.random.default_rng(202)
    dlt = 0.3
    violations = 0
    n_checked = 0
    min_margin = math.inf
    for q, k in THETA_PAIRS:
        spec = calibrate_theta_constant(
            spec_for_annulus(q, k, q ** (-1.2 / k), q ** (2.2 / k)), dlt=dlt)
        # independent grid: seeded random points over three radial periods
        # (the calibration samples one boundary point on each of 48 radii of
        # one period)
        done = 0
        while done < 200:
            r = q ** ((3.0 * rng.random() - 1.0) / k)
            z = r * cmath.exp(2j * math.pi * rng.random())
            chk = theta_lower_bound(spec, z, dlt)
            if not chk.admissible:
                continue
            done += 1
            n_checked += 1
            min_margin = min(min_margin, chk.log_margin)
            violations += 0 if chk.ok else 1
    assert _gate(violations == 0, "criterion 2 (calibrated theta lower bound)",
                 f"0 violations on {n_checked} independent admissible points "
                 f"(min log-margin {min_margin:.3f})")


# --- 3. log-Gaussian domination ------------------------------------------------

def test_03_log_gaussian_sequence_bound_dominates():
    rng = np.random.default_rng(303)
    q = 2.0
    violations = 0
    worst_ratio = 0.0
    for _ in range(1000):
        k = 0.5 + 3.5 * rng.random()
        gamma = -5.0 + 10.0 * rng.random()
        N = int(rng.integers(0, 21))
        absT = 10.0 ** (-4.0 * rng.random())   # |T| in (1e-4, 1]
        lhs = log_gaussian_power(q, k, gamma, N, absT)
        rhs = seq_bound_from_log_bound(q, k, gamma, N)
        worst_ratio = max(worst_ratio, lhs / rhs)
        if lhs > rhs * (1.0 + 1e-12):
            violations += 1
    assert _gate(violations == 0, "criterion 3 (log-Gaussian domination)",
                 f"0 violations on 1000 random (k, gamma, N, |T|) samples "
                 f"(max lhs/rhs {worst_ratio:.12f})")


# --- 4. q-Laplace monomial power law -------------------------------------------

def test_04_qlaplace_monomial_power_law_and_refinement():
    worst_law = 0.0
    worst_refine = 0.0
    worst_ratio_dev = 0.0
    for q, k in ((2.0, 1.0), (2.0, 2.0)):
        c_hi, c_lo = [], []
        for n in range(6):
            cert = GrowthCertificate(K=1.0, alpha=float(n), k=0.0, rho=1.0)
            spec_hi = QLaplaceSpec(q=q, k=k, direction=0.0, tol=1e-13)
            spec_lo = QLaplaceSpec(q=q, k=k, direction=0.0, tol=1e-10)

            # power law: the image of u^n divided by T^n is T-independent
            consts = []
            for absT in (0.15, 0.25, 0.4):
                res = qlaplace(spec_hi, lambda u: u ** n, absT, cert,
                               enforce_domain=False)
                consts.append(res.value / absT ** n)
            spread = max(abs(a - b) for a in consts for b in consts)
            worst_law = max(worst_law, spread / abs(consts[1]))

            c_hi.append(consts[1])
            res_lo = qlaplace(spec_lo, lambda u: u ** n, 0.25, cert,
                              enforce_domain=False)
            c_lo.append(res_lo.value / 0.25 ** n)
            worst_refine = max(worst_refine,
                               abs(c_hi[n] - c_lo[n]) / abs(c_hi[n]))
        for n in range(1, 6):
            r_hi = c_hi[n] / c_hi[n - 1]
            r_lo = c_lo[n] / c_lo[n - 1]
            worst_refine = max(worst_refine, abs(r_hi - r_lo) / abs(r_hi))
            worst_ratio_dev = max(
                worst_ratio_dev,
                abs(r_hi - monomial_ratio_law(q, k, n)) / abs(r_hi))
    ok = worst_law <= 1e-8 and worst_refine <= 1e-8 and worst_ratio_dev <= 1e-8
    assert _gate(ok, "criterion 4 (q-Laplace monomial power law)",
                 f"power-law spread {worst_law:.3e}, refinement drift "
                 f"{worst_refine:.3e}, ratio-vs-law {worst_ratio_dev:.3e}, "
                 f"all <= 1e-8 for n <= 5")


# --- 5. direct vs decomposed consecutive differences ---------------------------

def test_05_difference_routes_agree_within_composed_tolerance():
    scn = default_scenario()
    tol = 1e-11
    worst = 0.0   # |direct - decomposed| / (10 x composed tolerance)
    for p in range(scn.n):
        for j in (3, 4, 5):
            T = scn.probe_T(p, j)
            decomposed = consecutive_difference(scn, p, T, route="decomposed",
                                                tol=tol)
            dec = decomposed.total
            direct = consecutive_difference(scn, p, T, route="direct",
                                            tol=tol).total
            # composed tolerance: every quadrature in either route carries
            # an epsabs+epsrel budget of `tol`; the direct route subtracts
            # two full-ray transforms, the decomposed route sums its pieces
            u_a = laplace_transform_shape(scn, p, T, tol)
            u_b = laplace_transform_shape(scn, p + 1, T, tol)
            pieces = decomposed.pieces
            composed = tol * (2.0 + abs(u_a) + abs(u_b)
                              + sum(1.0 + abs(v) for v in pieces.values()))
            worst = max(worst, abs(dec - direct) / (10.0 * composed))
    assert _gate(worst <= 1.0, "criterion 5 (contour-route consistency)",
                 f"max |direct - decomposed| at {worst:.3e} of the "
                 f"10 x composed-tolerance budget over 4 overlaps x j in 3..5")


# --- 6. rate dichotomy -----------------------------------------------------------

def test_06_rate_dichotomy_matches_levels():
    scn = default_scenario()
    rep = verify_rate_dichotomy(scn)          # js = 3..12, rel_tol = 0.15
    fast = [e for e in rep.entries if e[1] == 2]
    slow = [e for e in rep.entries if e[1] == 1]
    ok = (rep.ok and len(fast) == 2 and len(slow) == 2
          and all(e[2] == scn.frame.k2 for e in fast)
          and all(e[2] == scn.frame.k1 for e in slow))
    detail = ", ".join(f"p={e[0]}: fitted {e[3]:.3f} vs {e[2]:.1f} "
                       f"(rel {e[4]:.1%})" for e in rep.entries)
    assert _gate(ok, "criterion 6 (rate dichotomy)", detail)


# --- 7. two-level splitting with a deformation oracle ----------------------------

Q7, K1_7, K2_7, A7 = 2.0, 1.0, 2.0, 1.3
ROT7 = 0.35    # contour swing (rad); all probes stay >= 8.7 deg clear of it
QUAD7 = dict(epsabs=1e-13, epsrel=1e-13, limit=400)


def _arc_integral(delta, t, radius, a0, a1, eps):
    """(2 pi i)^-1 integral of delta(t, xi)/(xi - eps) along the arc
    |xi| = radius from angle a0 to a1."""
    def f(phi):
        xi = radius * cmath.exp(1j * phi)
        return complex(np.asarray(delta(t, xi)).reshape(())) * 1j * xi / (xi - eps)

    re, _ = quad(lambda s: f(s).real, a0, a1, **QUAD7)
    im, _ = quad(lambda s: f(s).imag, a0, a1, **QUAD7)
    return (re + 1j * im) / (2j * math.pi)


def _deformed_branch(jumps, rays, n_sect, p, t, eps):
    """Sector-p branch of the Cauchy transform of `jumps`, via contour
    deformation: the two rays adjacent to sector p swing outward (closed
    by an arc), so the branch continues across the cuts by Cauchy's
    theorem alone -- no half-residue bookkeeping shared with the library.
    """
    total = 0j
    for r, delta in jumps.items():
        c, length = rays[r]
        if r == p:                       # forward cut: swing counterclockwise
            total += cauchy_ray_direct(delta, t, c + ROT7, length, eps)
            total += _arc_integral(delta, t, length, c + ROT7, c, eps)
        elif r == (p - 1) % n_sect:      # backward cut: swing clockwise
            total += cauchy_ray_direct(delta, t, c - ROT7, length, eps)
            total += _arc_integral(delta, t, length, c - ROT7, c, eps)
        else:
            total += cauchy_ray_direct(delta, t, c, length, eps)
    return total


def _entire7(eps):
    return np.exp(0.3 * eps) + 0.2 * eps ** 2


def _jump_ladder_table(amps, cuts, k, n_max=8, eps_mods=(0.15, 0.25)):
    """Sup of |jump| over the cuts at |t| = 0.7 q^(-(N+1)/(2k)): rows of a
    shrinking-disc remainder table for the given ladder level."""
    table = RemainderTable()
    for N in range(n_max + 1):
        t_abs = 0.7 * Q7 ** (-(N + 1) / (2.0 * k))
        for em in eps_mods:
            norm = max(abs(closed_jump(Q7, k, A7, cuts[r], a)(
                t_abs, em * cmath.exp(1j * (cuts[r] + 0.2))))
                for r, a in amps.items())
            table.add(N, em * cmath.exp(1j * 0.4), norm, t=t_abs)
    return table


def test_07_two_level_splitting_reconstructs_and_certifies():
    cov = make_cyclic_covering(4, 0.4, math.radians(60), math.radians(45))
    cuts = [cov.overlap_bisector(p) for p in range(4)]
    slow_amp = {1: 0.7, 3: 0.4j}
    fast_amp = {0: 0.9, 2: -0.6}
    slow_jumps = {r: closed_jump(Q7, K1_7, A7, cuts[r], a)
                  for r, a in slow_amp.items()}
    fast_jumps = {r: closed_jump(Q7, K2_7, A7, cuts[r], a)
                  for r, a in fast_amp.items()}
    slow_c = Cocycle(cov, tuple(
        ladder_jump(Q7, K1_7, A7, cuts[r], slow_amp[r]) if r in slow_amp
        else None for r in range(4)))
    fast_c = Cocycle(cov, tuple(
        ladder_jump(Q7, K2_7, A7, cuts[r], fast_amp[r]) if r in fast_amp
        else None for r in range(4)))
    rays = [(cuts[p], 0.9 * cov.overlap_radius(p)) for p in range(4)]

    def make_G(p):
        def G(t, eps):
            e = np.atleast_1d(np.asarray(eps, dtype=complex))
            vals = np.array([
                _entire7(ee)
                + _deformed_branch(slow_jumps, rays, 4, p, t, ee)
                + _deformed_branch(fast_jumps, rays, 4, p, t, ee)
                for ee in e])
            return vals[0] if np.ndim(eps) == 0 else vals
        return G

    G = [make_G(p) for p in range(4)]
    t = 0.1

    # the realization rows compare G_{p+1} - G_p with the jumps, at half
    # each ray's length, two angles on either side of each cut
    split = multilevel_split(G, slow_c, fast_c, t, CHOptions(tol=1e-12),
                             j_max=3, radius_frac=0.6)
    checks = split.realization
    realization_err = max(c.abs_err for c in checks)
    recon_err = max(abs(a - _entire7(complex(e)))
                    for (_, e, per) in split.probes for a in per.values())

    fit_slow = fit_zero_gevrey_relative(
        _jump_ladder_table(slow_amp, cuts, K1_7), Q7, K1_7)
    fit_fast = fit_zero_gevrey_relative(
        _jump_ladder_table(fast_amp, cuts, K2_7), Q7, K2_7)

    ok = (realization_err <= 1e-7 and recon_err <= 1e-7
          and split.max_spread <= 1e-7
          and fit_slow.certified and fit_slow.max_violation <= 0.0
          and fit_fast.certified and fit_fast.max_violation <= 0.0)
    assert _gate(ok, "criterion 7 (two-level splitting)",
                 f"reconstruction {recon_err:.3e} and realization "
                 f"{realization_err:.3e} <= 1e-7 on {len(split.probes)} probes"
                 f"/{len(checks)} checks; ladder fits certified with "
                 f"max violations {fit_slow.max_violation:.3e} (slow), "
                 f"{fit_fast.max_violation:.3e} (fast)")


# --- 8. planted-parameter recovery ------------------------------------------------

def test_08_fits_recover_planted_constant_under_noise():
    rng = np.random.default_rng(808)
    C0, A0, q, k = 2.0, 3.0, 2.0, 1.0
    table_q = RemainderTable()
    table_z = RemainderTable()
    for N in range(7):
        t_abs = 0.7 * q ** (-(N + 1) / (2.0 * k))
        for ae in (0.05, 0.1, 0.2, 0.3):
            eps = ae * cmath.exp(2j * math.pi * rng.random())
            wiggle = 1.0 + 0.05 * (2.0 * rng.random() - 1.0)
            table_q.add(N, eps,
                        C0 * A0 ** (N + 1) * ae ** (N + 1)
                        * q ** (N * (N + 1) / (2.0 * k)) * wiggle, t=t_abs)
            wiggle = 1.0 + 0.05 * (2.0 * rng.random() - 1.0)
            table_z.add(N, eps, C0 * (A0 * ae) ** (N + 1) * wiggle, t=t_abs)
    fit_q = fit_q_gevrey(table_q, q, k)
    fit_z = fit_zero_gevrey_relative(table_z, q, k)
    dev_q = abs(fit_q.A_fit - A0) / A0
    dev_z = abs(fit_z.A_fit - A0) / A0
    ok = dev_q <= 0.10 and dev_z <= 0.10
    assert _gate(ok, "criterion 8 (planted-parameter recovery)",
                 f"A recovered to {dev_q:.1%} (q-Gevrey) and {dev_z:.1%} "
                 f"(zero-relative) under +/-5% noise, both <= 10%")


# --- 9. hypothesis validator + manufactured solution -------------------------------

def _names(spec):
    rep = validate_hypotheses(spec)
    return {c.name for c in rep.structure + rep.spectral if not c.ok}


def _spec_with(**overrides):
    base = default_spec()
    fields = dict(frame=base.frame, d_D1=base.d_D1, d_D2=base.d_D2, Q=base.Q,
                  RD1=base.RD1, RD2=base.RD2, terms=base.terms, mu=base.mu,
                  beta=base.beta)
    fields.update(overrides)
    return type(base)(**fields)


def test_09_hypothesis_validator_and_manufactured_residual():
    cases = [
        ("clean", default_spec(),
         lambda names: names == set()),
        ("first exponent", _spec_with(
            terms=(EquationTerm(Delta=2, d=2, delta=2, R=(1.0,)),)),
         lambda names: "delta_1 == 1" in names
         or "delta_1 == 1 (reverse)" in names),
        ("non-increasing exponents", _spec_with(
            terms=(EquationTerm(Delta=1, d=0, delta=1),
                   EquationTerm(Delta=2, d=2, delta=1))),
         lambda names: "delta_l < delta_{l+1}" in names),
        ("eps below t power", _spec_with(
            terms=(EquationTerm(Delta=1, d=0, delta=1),
                   EquationTerm(Delta=1, d=2, delta=2))),
         lambda names: names == {"Delta_l >= d_l"}),
        ("mixed-level balance", _spec_with(
            terms=(EquationTerm(Delta=1, d=0, delta=1),
                   EquationTerm(Delta=2, d=1, delta=2))),
         lambda names: names == {"(d_D1-1)/kappa + d_l/k2 + 1 >= delta_l"}),
        ("slow-level balance", _spec_with(
            d_D1=3, d_D2=8,
            terms=(EquationTerm(Delta=1, d=0, delta=1),
                   EquationTerm(Delta=2, d=0, delta=2))),
         lambda names: names == {"d_l/k1 + 1 >= delta_l"}),
        ("fast dilation budget", _spec_with(
            terms=(EquationTerm(Delta=1, d=0, delta=1),
                   EquationTerm(Delta=4, d=4, delta=Fraction(11, 4)))),
         lambda names: names == {"(d_D2-1)/k2 >= delta_l - 1"}),
        ("level separation", _spec_with(
            d_D2=3, terms=(EquationTerm(Delta=1, d=0, delta=1),
                           EquationTerm(Delta=2, d=2, delta=2))),
         lambda names: names == {"k1*(d_D2-1) > k2*d_D1"}),
        ("vanishing symbol", _spec_with(Q=(0.0, 0.0, 1.0)),
         lambda names: names == {"Q(im) != 0 on m-grid"}),
        ("degree ordering", _spec_with(
            Q=(2.0,), terms=(EquationTerm(Delta=1, d=0, delta=1),)),
         lambda names: names == {"deg Q >= deg RD1"}),
        ("dilation symbol mismatch", _spec_with(RD2=(5.0, 2.0, 1.0)),
         lambda names: names == {"deg RD1 == deg RD2"}),
        ("decay budget", _spec_with(mu=2.0),
         lambda names: names == {"mu > deg RD1 + 1"}),
    ]
    misclassified = [label for label, spec, judge in cases
                     if not judge(_names(spec))]

    spec = default_spec()
    U, profile_U, series = manufactured_problem(spec, a=0)
    ts = [0.08 * cmath.exp(0.2j), 0.12, 0.16 * cmath.exp(-0.35j),
          0.10 * cmath.exp(0.9j), 0.14 * cmath.exp(0.5j)]
    zs = [-0.6, -0.2, 0.0, 0.3, 0.7]
    eps = [0.06 * cmath.exp(0.3j), 0.10, 0.13 * cmath.exp(-0.7j),
           0.15 * cmath.exp(1.1j), 0.18 * cmath.exp(2.0j)]
    rows = residual_sweep(spec, series, U, profile_U, ts, zs, eps)
    max_res = max(r[-1] for r in rows)

    ok = not misclassified and len(rows) == 125 and max_res <= 1e-8
    assert _gate(ok, "criterion 9 (hypothesis validator + manufactured residual)",
                 f"0 misclassifications on 12 cases{misclassified or ''}; "
                 f"max residual {max_res:.3e} <= 1e-8 on 5x5x5 grid")


# --- 10. restriction corollary --------------------------------------------------------

def test_10_level2_tables_recertify_at_level1_after_restriction():
    scn = default_scenario()
    q, k1, k2 = scn.frame.q, scn.frame.k1, scn.frame.k2

    rng = np.random.default_rng(1010)
    synthetic = RemainderTable()
    for N in range(6):
        t_abs = 0.7 * q ** (-(N + 1) / (2.0 * k2))
        for ae in (0.1, 0.2, 0.3):
            wiggle = 1.0 + 0.02 * (2.0 * rng.random() - 1.0)
            synthetic.add(N, ae * cmath.exp(2j * math.pi * rng.random()),
                          1.5 * (1.2 * ae) ** (N + 1) * wiggle, t=t_abs)

    cov = make_cyclic_covering(4, 0.4, math.radians(60), math.radians(45))
    cuts = [cov.overlap_bisector(p) for p in range(4)]
    suite = [
        ("overlap difference", difference_remainder_table(
            scn, 0, k2, range(6))),
        ("synthetic planted", synthetic),
        ("ladder jumps", _jump_ladder_table({0: 0.9, 2: -0.6}, cuts, k2,
                                            n_max=5)),
    ]

    counterexamples = []
    details = []
    for label, table in suite:
        fit2 = fit_zero_gevrey_relative(table, q, k2)
        if not fit2.certified:
            counterexamples.append(f"{label}: not level-2 certified")
            continue
        _, fit1, kept = restrict_and_refit(table, q, k_from=k2, k_to=k1)
        expected = [r for r in table.rows
                    if r.t is not None
                    and abs(r.t) <= q ** (-r.N / (2.0 * k1)) * (1 + 1e-12)]
        if kept.rows != expected:
            counterexamples.append(f"{label}: wrong disc restriction")
        if not (fit1.certified and fit1.max_violation <= 0.0):
            counterexamples.append(f"{label}: level-1 refit uncertified")
        # independent recheck of the refitted bound on every kept row
        for r in kept.rows:
            if r.norm > fit1.bound(r.N, abs(r.eps)) * (1.0 + 1e-9):
                counterexamples.append(f"{label}: bound fails at N={r.N}")
        details.append(f"{label}: {len(kept)}/{len(table)} rows kept, "
                       f"violation {fit1.max_violation:.2e}")
    assert _gate(not counterexamples,
                 "criterion 10 (restriction corollary)",
                 "; ".join(details) or "; ".join(counterexamples))
