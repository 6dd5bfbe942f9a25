"""Worked solution family exhibiting the two-level difference dichotomy.

The family attaches to each sector of a good covering a directional
q-Laplace transform (fast level k2) of one kernel branch:

    U_p(T) = (k2/log q) int_{ray d_p} shape_p(u) / Theta_{q^{1/k2}}(u/T) du/u.

Kernel branches combine a log-Gaussian factor flat of order kappa at the
origin (with a sector-adapted logarithm branch) and shared simple-pole
terms u/(u - u*):

    shape_p(u) = amp * exp( -(kappa/(2 log q)) L_p(u)^2 + drift L_p(u) )
               + sum_j s_j u / (u - u*_j),
    L_p(u) = log|u| + i (arg u - center_p  wrapped).

Consecutive differences U_{p+1} - U_p contract the integration rays and
split into explicit contour pieces:

  * both sectors on one branch, a pole u* inside the wedge ("fast"):
        diff = I1 - I2 + I3,
    outer rays from radius rho plus the inner arc; every piece -- and,
    by the residue theorem, the total  (k2/lq) 2 pi i s_j / Theta(u*/T)
    -- decays in |T| at the fast rate k2;

  * branch change across the wedge ("slow"):
        diff = I1 - I2 + I4 + I5 + I6,
    two outer rays, two arcs to the wedge mid-direction, and a mid-ray
    segment I6 carrying the branch discrepancy.  The discrepancy is flat
    of order kappa, and the Laplace saddle turns that into decay at the
    slow rate  k1 = kappa k2 / (kappa + k2):   -k2 + k2^2/(kappa+k2) = -k1.

Fitting log ||diff|| = a log^2|T| + b log|T| + c and reading the rate as
-2 a log q recovers k2 on fast overlaps and k1 on slow ones.

Every ray, arc and segment is one call of qlaplace.log_contour_transform,
which evaluates the kernel on arrays of nodes (the kernel functions
here are vectorised over u) and raises QuadratureError when a piece
misses its tolerance within its panel limit.  The pieces take an array
of T (one T is a batch of one): each point gets its own window, and all
of them are the components of that one call.  consecutive_difference
returns one DiffPieces on either route, each piece the array its call
returned, so a cascade or a remainder table costs one quadrature per
piece (3 on a fast overlap, 5 on a slow one, 2 full rays on the direct
route), whatever its number of probe points.  One per-overlap routine
turns the probes, plus any extra points, into the cascade table, its
rate fit and the extra points' norms, for overlap_rate and the
dichotomy alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .asymptotics import (GevreyFit, RemainderTable, fit_zero_gevrey_relative,
                          restrict_and_refit)
from .cocycle import classify_levels
from .frames import QFrame, ladder_radius
from .geometry import GoodCovering, Sector, make_cyclic_covering, wrap_angle
from .qlaplace import log_contour_transform
from .schemas import Record
from .theta import inv_theta_at

LOG_TINY = -690.0  # below exp() underflow; integrand values are cut here
DIFF_TOL = 1e-11   # default tol (epsrel) of the consecutive differences
RATE_REL_TOL = 0.15  # allowed relative error of a fitted decay rate
T_FRAC = 0.7       # remainder rows sit at |t| = T_FRAC q^{-(N+1)/(2k)}


@dataclass(frozen=True)
class PoleSpec(Record):
    """Simple pole of the kernel: term strength * u / (u - location)."""

    location: complex
    strength: complex


@dataclass(frozen=True)
class ModelScenario(Record):
    """Geometry and kernel data for the worked solution family.

    directions[p] is the Laplace ray of sector p (radians, strictly
    increasing over one turn); branch_centers[p] the center of the
    logarithm branch used by that sector's kernel (sharing a center
    means sharing a branch); u_half_widths[p] the angular half-width of
    the kernel's analyticity sector around directions[p], which decides
    fast/slow overlaps.  rho is the contraction radius of the pieces and
    must stay below every pole modulus.
    """

    frame: QFrame
    covering: GoodCovering
    directions: tuple
    branch_centers: tuple
    u_half_widths: tuple
    rho: float
    kernel_amp: complex
    drift: float
    poles: tuple[PoleSpec, ...]

    def __post_init__(self) -> None:
        n = self.covering.n
        if not (len(self.directions) == len(self.branch_centers)
                == len(self.u_half_widths) == n):
            raise ValueError("per-sector data must match the covering size")
        for pole in self.poles:
            if abs(pole.location) <= self.rho:
                raise ValueError("poles must lie outside the contraction "
                                 f"radius rho={self.rho}")
        if not 0 < self.rho:
            raise ValueError("rho must be positive")

    @property
    def n(self) -> int:
        return self.covering.n

    def u_sectors(self) -> tuple:
        return tuple(Sector(bisector=self.directions[p],
                            half_opening=self.u_half_widths[p])
                     for p in range(self.n))

    @cached_property
    def _levels(self) -> tuple:
        return classify_levels(self.covering, self.u_sectors())

    def levels(self) -> tuple:
        """2 (fast) where neighbouring kernel sectors intersect, else 1;
        classified once per scenario, not at every difference."""
        return self._levels

    def wedge(self, p: int) -> tuple:
        """Forward wedge (d_p, d_{p+1}) of overlap p, unwrapped."""
        lo = self.directions[p]
        hi = self.directions[(p + 1) % self.n]
        while hi <= lo:
            hi += 2.0 * math.pi
        return lo, hi

    def mid_direction(self, p: int) -> float:
        lo, hi = self.wedge(p)
        return 0.5 * (lo + hi)

    def wedge_poles(self, p: int) -> tuple:
        lo, hi = self.wedge(p)
        found = []
        for pole in self.poles:
            a = math.atan2(pole.location.imag, pole.location.real)
            while a <= lo:
                a += 2.0 * math.pi
            if a < hi:
                found.append(pole)
        return tuple(found)

    def probe_T(self, p: int, j: int) -> complex:
        """Probe point |T| = 2^-j along the overlap mid-direction (its
        theta-zero spiral then points opposite the wedge)."""
        return 2.0 ** (-j) * complex(math.cos(self.mid_direction(p)),
                                     math.sin(self.mid_direction(p)))


def default_scenario() -> ModelScenario:
    """Four sectors; one shared branch over the first three directions
    (two fast overlaps through two poles), a second branch on the last
    (two slow overlaps through the branch discrepancy)."""
    frame = QFrame(q=2.0, k1=1.0, k2=2.0, epsilon0=0.4, rT=0.9)
    cov = make_cyclic_covering(4, radius=0.4,
                               half_opening=math.radians(60.0),
                               phase=math.radians(45.0))
    d = tuple(math.radians(90.0 * p) for p in range(4))
    center_a = math.radians(90.0)
    center_b = math.radians(270.0)
    poles = (PoleSpec(location=1.2 * np.exp(1j * math.radians(45.0)),
                      strength=0.5 + 0.0j),
             PoleSpec(location=1.2 * np.exp(1j * math.radians(135.0)),
                      strength=0.3 - 0.2j))
    return ModelScenario(frame=frame, covering=cov, directions=d,
                         branch_centers=(center_a, center_a, center_a,
                                         center_b),
                         u_half_widths=(math.radians(50.0),) * 3
                                       + (math.radians(30.0),),
                         rho=0.8, kernel_amp=1.0 + 0.0j, drift=1.0,
                         poles=poles)


# --- kernel ------------------------------------------------------------------

def branch_log(u, center: float):
    """log|u| + i (arg u - center wrapped): the branch cut sits opposite
    the center direction."""
    u = np.asarray(u, dtype=complex)
    return np.log(np.maximum(np.abs(u), 1e-300)) \
        + 1j * wrap_angle(np.angle(u) - center)


def gaussian_branch_part(scn: ModelScenario, p: int, u):
    fr = scn.frame
    L = branch_log(u, scn.branch_centers[p % scn.n])
    expo = (-(fr.kappa / (2.0 * math.log(fr.q))) * L * L + scn.drift * L)
    expo = np.where(expo.real < LOG_TINY, LOG_TINY + 1j * expo.imag, expo)
    return scn.kernel_amp * np.exp(expo)


def pole_part(scn: ModelScenario, u):
    u = np.asarray(u, dtype=complex)
    acc = np.zeros_like(u)
    for pole in scn.poles:
        acc = acc + pole.strength * u / (u - pole.location)
    return acc


def kernel_shape(scn: ModelScenario, p: int, u):
    """shape_p(u): branch-dependent log-Gaussian plus shared pole terms."""
    return gaussian_branch_part(scn, p, u) + pole_part(scn, u)


def kernel_jump_shape(scn: ModelScenario, p: int, u):
    """shape_{p+1} - shape_p: the pole terms cancel exactly, leaving the
    pure branch discrepancy (zero when the branch centers agree)."""
    if scn.branch_centers[(p + 1) % scn.n] == scn.branch_centers[p % scn.n]:
        return np.zeros_like(np.asarray(u, dtype=complex))
    return gaussian_branch_part(scn, p + 1, u) - gaussian_branch_part(scn, p, u)


# --- quadrature pieces --------------------------------------------------------

def _prefactor(scn: ModelScenario) -> float:
    return scn.frame.k2 / math.log(scn.frame.q)


def _budget(tol: float) -> float:
    return math.log(1.0 / tol) + 12.0


def _laplace_ray(scn: ModelScenario, shape, direction: float, T, s_lo, s_hi,
                 tol: float):
    """(k2/lq) int shape(e^{s+id}) invTheta(e^{s+id}/T) ds over the
    log-radius window [s_lo, s_hi] (one window per T)."""
    fr = scn.frame
    val, _, _ = log_contour_transform(shape, fr.q, fr.k2, T, 1j * direction,
                                      1.0, s_lo, s_hi, epsabs=tol * 1e-250,
                                      epsrel=tol, limit=400)
    return val


def outer_ray_piece(scn: ModelScenario, branch: int, direction: float,
                    T, tol: float):
    """Ray piece over [rho, infinity): the integrand peaks at the inner
    endpoint and dies off at the fast-level Gaussian speed.  Like every
    piece, it takes T and returns values as log_contour_transform does."""
    fr = scn.frame
    lq = math.log(fr.q)
    s0 = math.log(scn.rho)
    gap = np.maximum(s0 - np.log(np.abs(T)), 1.0)
    ds = _budget(tol) * lq / (fr.k2 * gap) + 2.0
    return _laplace_ray(scn, lambda u: kernel_shape(scn, branch, u),
                        direction, T, s0, s0 + ds, tol)


def arc_piece(scn: ModelScenario, branch: int, theta_lo: float,
              theta_hi: float, T, tol: float):
    """(k2/lq) i int_{theta_lo}^{theta_hi} shape(rho e^{i th})
    invTheta(rho e^{i th}/T) d th on the contraction circle."""
    fr = scn.frame
    val, _, _ = log_contour_transform(lambda u: kernel_shape(scn, branch, u),
                                      fr.q, fr.k2, T, math.log(scn.rho), 1j,
                                      theta_lo, theta_hi,
                                      epsabs=tol * 1e-250, epsrel=tol,
                                      limit=200)
    return val


def mid_segment_piece(scn: ModelScenario, p: int, T, tol: float):
    """(k2/lq) int_0^rho [shape_{p+1} - shape_p](u) invTheta(u/T) du/u
    along the wedge mid-direction: the slow-rate carrier.

    The integrand's log-radius exponent is a sum of two Gaussians whose
    saddle realizes  kappa k2/(kappa + k2) = k1;  the window is centred
    there, per point T.
    """
    fr = scn.frame
    lq = math.log(fr.q)
    kap, k2 = fr.kappa, fr.k2

    s_star = (k2 * np.log(np.abs(T)) + lq * (scn.drift - 0.5)) / (kap + k2)
    half = math.sqrt(2.0 * lq * _budget(tol) / (kap + k2)) + 2.0
    s_lo = s_star - half
    s_hi = np.minimum(math.log(scn.rho), s_star + half)
    return _laplace_ray(scn, lambda u: kernel_jump_shape(scn, p, u),
                        scn.mid_direction(p), T, s_lo, s_hi, tol)


def residue_closed_form(scn: ModelScenario, p: int, T: complex) -> complex:
    """Exact value of a fast-overlap difference via residues.

    The counterclockwise wedge boundary runs up the ray d_p and down the
    ray d_{p+1}, so the forward difference of the two ray transforms is
    minus 2 pi i (k2/lq) times the residues of shape/(Theta(./T) u) at
    the wedge poles."""
    fr = scn.frame
    acc = 0.0 + 0.0j
    for pole in scn.wedge_poles(p):
        acc += pole.strength * inv_theta_at(fr.q, fr.k2, pole.location / T)
    return -_prefactor(scn) * 2j * math.pi * acc


@dataclass
class DiffPieces:
    """One consecutive difference on an overlap of the given level, split
    into its contour pieces: each an array over a batch of T, or a
    complex for one T."""

    level: int
    pieces: dict

    @property
    def total(self):
        return sum(self.pieces.values())


def _check_overlap(scn: ModelScenario, p: int) -> None:
    if not 0 <= p < scn.n:
        raise ValueError(f"overlap index must lie in [0, {scn.n}), got {p}")


def consecutive_difference(scn: ModelScenario, p: int, T,
                           route: str = "decomposed",
                           tol: float = DIFF_TOL) -> DiffPieces:
    """U_{p+1}(T) - U_p(T) on overlap p, as the DiffPieces of a route.

    route="decomposed": the contour pieces.  On a slow overlap they do
    not cancel.  On a fast overlap they do: the pieces stay near the size
    of 1/Theta(rho/T) while the total is the residue sum, about
    1/Theta(u*/T), so the total loses digits as |T| shrinks.  On the
    default scenario, overlap 0, at j = 4, 8 and 12 the largest piece is
    67, 1.0e3 and 1.8e4 times the total, and the total is off
    residue_closed_form by 1.5e-14, 2.3e-12 and 1.1e-10 relative.
    route="direct": the pieces ray_plus =
    U_{p+1} and ray_minus = -U_p, two full-ray transforms whose total
    loses one digit per fast-level Gaussian factor (shallow use only).

    T is one point or a 1-d array of them.  Each piece is one contour
    call on all of the points, kept as that call returned it: an array
    over the points, or a complex for one T (a batch of one, so bit for
    bit element 0 of the call on [T]).  A tol that is not finite or not
    > 0 is refused with ValueError.
    """
    _check_overlap(scn, p)
    if not math.isfinite(tol):
        raise ValueError(f"tol={tol} is not finite")
    if not tol > 0:
        raise ValueError(f"tol must be > 0, got {tol}")
    level = scn.levels()[p]
    if route == "direct":
        return DiffPieces(level=level, pieces={
            "ray_plus": laplace_transform_shape(scn, p + 1, T, tol),
            "ray_minus": -laplace_transform_shape(scn, p, T, tol)})
    if route != "decomposed":
        raise ValueError("route must be decomposed|direct")
    lo, hi = scn.wedge(p)
    pieces = {
        "outer_plus": outer_ray_piece(scn, p + 1, hi, T, tol),
        "outer_minus": -outer_ray_piece(scn, p, lo, T, tol),
    }
    if level == 2:
        pieces["inner_arc"] = arc_piece(scn, p, lo, hi, T, tol)
    else:
        mid = scn.mid_direction(p)
        pieces["arc_lo"] = arc_piece(scn, p, lo, mid, T, tol)
        pieces["arc_hi"] = arc_piece(scn, p + 1, mid, hi, T, tol)
        pieces["mid_segment"] = mid_segment_piece(scn, p, T, tol)
    return DiffPieces(level=level, pieces=pieces)


def laplace_transform_shape(scn: ModelScenario, p: int, T, tol: float):
    """U_p(T): (k2/lq) int shape_p(u) invTheta(u/T) du/u along the ray
    d_p, the full-ray fast-level transform of the sector kernel."""
    fr = scn.frame
    lq = math.log(fr.q)
    L = np.log(np.abs(T))
    half = math.sqrt(2.0 * lq * _budget(tol) / fr.k2) + 2.0
    s_lo = L - half
    s_hi = np.maximum(L + half, math.log(scn.rho) + half)
    return _laplace_ray(scn, lambda u: kernel_shape(scn, p, u),
                        scn.directions[p % scn.n], T, s_lo, s_hi, tol)


# --- cascades, tables, rate fits ----------------------------------------------

@dataclass
class DiffRow:
    j: int
    absT: float
    norm: float


@dataclass
class DiffTable:
    p: int
    level: int
    rows: list


@dataclass
class RateFit:
    """Quadratic-in-log fit of a decay cascade.

    log norm = a log^2|T| + b log|T| + c;  rate = -2 a log q  is the
    Gaussian level of the decay.
    """

    a: float
    b: float
    c: float
    rate: float
    residual_rms: float


def fit_rate(table: DiffTable, q: float) -> RateFit:
    rows = table.rows
    if len(rows) < 3:
        raise ValueError("need at least 3 cascade rows to fit a rate")
    x = np.array([math.log(r.absT) for r in rows])
    y = np.array([math.log(max(r.norm, 1e-300)) for r in rows])
    X = np.column_stack([x * x, x, np.ones_like(x)])
    coef, *_ = np.linalg.lstsq(X, y, rcond=None)
    resid = X @ coef - y
    return RateFit(a=float(coef[0]), b=float(coef[1]), c=float(coef[2]),
                   rate=float(-2.0 * coef[0] * math.log(q)),
                   residual_rms=float(np.sqrt(np.mean(resid ** 2))))


@dataclass
class DichotomyReport:
    """Fitted decay level per overlap against the geometric prediction."""

    entries: list   # (p, level, target_rate, fitted_rate, rel_err)
    tolerance: float

    @property
    def ok(self) -> bool:
        return all(e[4] <= self.tolerance for e in self.entries)

    def to_dict(self) -> dict:
        return {"tolerance": self.tolerance, "ok": self.ok,
                "entries": [{"p": p, "level": lv, "target": tg,
                             "fitted": ft, "rel_err": re}
                            for p, lv, tg, ft, re in self.entries]}


def _overlap_report(scn: ModelScenario, p: int, js: Sequence[int],
                    extra_Ts: list, route: str, tol: float) -> tuple:
    """Overlap p's cascade along |T| = 2^-j on the mid-direction, its
    rate fit, the target rate (k2 on a fast overlap, k1 on a slow one),
    the fit's relative error, and the norms at the points extra_Ts, from
    one consecutive_difference call on the probes followed by extra_Ts."""
    _check_overlap(scn, p)
    probes = [scn.probe_T(p, j) for j in js]
    diff = consecutive_difference(scn, p, np.array(probes + extra_Ts), route,
                                  tol)
    # abs of each Python complex: np.abs can round the last bit otherwise
    norms = list(map(abs, diff.total.tolist()))
    table = DiffTable(p=p, level=diff.level,
                      rows=[DiffRow(j=j, absT=abs(T), norm=norm)
                            for j, T, norm in zip(js, probes, norms)])
    fit = fit_rate(table, scn.frame.q)
    target = float(scn.frame.k2 if diff.level == 2 else scn.frame.k1)
    return (table, fit, target, abs(fit.rate - target) / target,
            norms[len(probes):])


def overlap_rate(scn: ModelScenario, p: int, js: Sequence[int], route: str,
                 tol: float) -> tuple[DiffTable, RateFit, float, float]:
    """Overlap p's cascade, its rate fit, the target rate (k2 on a fast
    overlap, k1 on a slow one) and the fit's relative error."""
    return _overlap_report(scn, p, js, [], route, tol)[:4]


def _dichotomy(scn: ModelScenario, js: Sequence[int], tol: float,
               rel_tol: float, extra: dict) -> tuple[DichotomyReport, dict]:
    """The rate dichotomy from one decomposed consecutive_difference call
    per overlap.  extra[p] = (rows, Ts) adds the remainder points Ts to
    overlap p's call after its probes; their norms come back as the
    RemainderTable tables[p]."""
    entries, tables = [], {}
    for p in range(scn.n):
        rows, Ts = extra.get(p, ([], []))
        table, fit, target, rel, norms = _overlap_report(scn, p, js, Ts,
                                                         "decomposed", tol)
        entries.append((p, table.level, target, fit.rate, rel))
        if p in extra:
            tables[p] = _remainder_table(rows, norms)
    return DichotomyReport(entries=entries, tolerance=rel_tol), tables


def verify_rate_dichotomy(scn: ModelScenario, js: Sequence[int] = range(3, 13),
                          tol: float = DIFF_TOL, rel_tol: float = RATE_REL_TOL
                          ) -> DichotomyReport:
    """Fit every overlap's cascade and compare with k2 (fast) / k1 (slow)."""
    return _dichotomy(scn, js, tol, rel_tol, {})[0]


# --- end-to-end verification ---------------------------------------------------

def _remainder_points(scn: ModelScenario, p: int, level_k: float,
                      N_range: Sequence[int], t_frac: float
                      ) -> tuple[list, list]:
    """The rows (N, |eps|, |t|) of a remainder table on overlap p and
    their points T = eps t on the overlap mid-direction."""
    fr = scn.frame
    mid = scn.mid_direction(p)
    rows = [(N, em, t_frac * ladder_radius(fr.q, level_k, N + 1))
            for N in N_range for em in (0.25, 0.35)]
    Ts = [em * t_abs * complex(math.cos(mid), math.sin(mid))
          for _, em, t_abs in rows]
    return rows, Ts


def _remainder_table(rows: list, norms: list) -> RemainderTable:
    table = RemainderTable()
    for (N, em, t_abs), norm in zip(rows, norms):
        table.add(N, em, norm, t_abs)
    return table


def difference_remainder_table(scn: ModelScenario, p: int, level_k: float,
                               N_range: Sequence[int], t_frac: float = T_FRAC
                               ) -> RemainderTable:
    """Shrinking-disc rows for the overlap difference: for each order N
    place |t| = t_frac q^{-(N+1)/(2 level_k)} (inside the level's disc
    ladder) and record ||U_{p+1} - U_p|| at T = eps t for |eps| = 0.25
    and 0.35, from one consecutive_difference call on all the rows' T.

    The difference plays its own remainder: the sectorial expansions
    agree through every order, so the gap must obey the level's
    (N, eps)-ladder bound.
    """
    rows, Ts = _remainder_points(scn, p, level_k, N_range, t_frac)
    diff = consecutive_difference(scn, p, np.array(Ts), "decomposed")
    return _remainder_table(rows, list(map(abs, diff.total.tolist())))


@dataclass
class TheoremReport(Record):
    """End-to-end two-level verification on one scenario."""

    covering_ok: bool
    dichotomy: DichotomyReport
    fast_fit: GevreyFit
    slow_fit: GevreyFit
    corollary_fit: GevreyFit
    corollary_rows_kept: int

    @property
    def ok(self) -> bool:
        return (self.covering_ok and self.dichotomy.ok
                and self.fast_fit.certified and self.slow_fit.certified
                and self.corollary_fit.certified)

    def to_dict(self) -> dict:
        return {**super().to_dict(), "ok": self.ok}


def verify_two_level_theorem(scn: ModelScenario, js: Sequence[int] = range(3, 11),
                             N_range: Sequence[int] = range(0, 7)) -> TheoremReport:
    """Covering sanity, rate dichotomy, certified ladder fits at both
    levels, and the restriction corollary (a fast-level certificate,
    restricted to the slow level's smaller discs, re-certifies there).

    One consecutive_difference call per overlap, at tol DIFF_TOL: on the
    first fast and the first slow overlap the remainder table's
    2 |N_range| points join the cascade's |js| probes.  Each point keeps
    its own window, so the entries and tables are those of
    verify_rate_dichotomy and difference_remainder_table up to the
    refinement the merged points share."""
    from .geometry import validate_good_covering
    cov_rep = validate_good_covering(scn.covering)

    fr = scn.frame
    levels = scn.levels()
    p_fast = levels.index(2)
    p_slow = levels.index(1)

    extra = {p: _remainder_points(scn, p, k, N_range, T_FRAC)
             for p, k in ((p_fast, fr.k2), (p_slow, fr.k1))}
    dich, tables = _dichotomy(scn, js, DIFF_TOL, RATE_REL_TOL, extra)
    fast_table, slow_table = tables[p_fast], tables[p_slow]
    fast_fit = fit_zero_gevrey_relative(fast_table, fr.q, fr.k2)
    slow_fit = fit_zero_gevrey_relative(slow_table, fr.q, fr.k1)

    _, corollary_fit, kept = restrict_and_refit(fast_table, fr.q,
                                                k_from=fr.k2, k_to=fr.k1)

    return TheoremReport(covering_ok=cov_rep.ok, dichotomy=dich,
                         fast_fit=fast_fit, slow_fit=slow_fit,
                         corollary_fit=corollary_fit,
                         corollary_rows_kept=len(kept.rows))
