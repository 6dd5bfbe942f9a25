"""Cauchy-Heine decomposition of sectorial cocycles.

A cocycle on a good covering {E_p} assigns to each overlap
O_p = E_p cap E_{p+1} a jump function Delta_p(t, xi) (t a parameter,
xi the sectorial variable).  The Cauchy-Heine transform integrates each
jump along a ray gamma_p from the origin through the middle of O_p:

    S(eps) = sum_p (1/2 pi i) int_{gamma_p} Delta_p(t, xi) / (xi - eps) dxi.

S is holomorphic off the rays; the sectorial branch Psi_p on E_p is the
analytic continuation of S from the core of E_p (between the two cuts
gamma_{p-1} and gamma_p).  By the Plemelj jump formula, crossing a cut
counterclockwise adds the jump, so

    Psi_p(eps) = S(eps) - Delta_p(t, eps)   [eps past gamma_p, |eps| < L_p]
               + Delta_{p-1}(t, eps)        [eps before gamma_{p-1}, ...],

and on each overlap  Psi_{p+1} - Psi_p = Delta_p  exactly.  The family
shares the asymptotic coefficients

    phi_n(t) = sum_p (1/2 pi i) int_{gamma_p} Delta_p(t, xi) xi^{-n-1} dxi,

i.e. Psi_p(eps) ~ sum_n phi_n(t) eps^n as eps -> 0 in E_p.

The two-level split takes sectorial data G_p whose consecutive
differences decompose into a fast and a slow cocycle piece, removes both
Cauchy-Heine sums, and checks that what is left glues into one bounded
function across the covering.

Conventions: jumps are oriented forward, Delta_p = G_{p+1} - G_p on O_p.
Evaluation exactly on a cut ray is not supported (the kernel pole sits
on the contour); probe angles must avoid the cut directions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
# unused here; bound so that perfbench's QuadAudit can patch it by name
from scipy.integrate import quad_vec  # noqa: F401

from .fourier import complex_quad
from .geometry import GoodCovering, wrap_angle

TWO_PI_I = 2j * math.pi


@dataclass(frozen=True)
class RaySpec:
    """Straight cut from the origin: direction (radians) and length."""

    direction: float
    length: float


def overlap_rays(covering: GoodCovering, fraction: float = 0.9
                 ) -> tuple[RaySpec, ...]:
    """One cut per overlap, along its bisector, fraction of its radius."""
    if not 0 < fraction < 1:
        raise ValueError("ray fraction must lie in (0, 1)")
    rays = []
    for p in range(covering.n):
        rays.append(RaySpec(direction=covering.overlap_bisector(p),
                            length=fraction * covering.overlap_radius(p)))
    return tuple(rays)


@dataclass(frozen=True)
class Cocycle:
    """Jumps Delta_p(t, xi) on the overlaps of a good covering.

    deltas[p] is a callable vectorized in xi, or None when the cocycle
    has no component on that overlap.  levels[p] optionally records the
    decay level the jump is claimed to have (1 = slow, 2 = fast).
    """

    covering: GoodCovering
    deltas: tuple
    levels: tuple | None = None

    def __post_init__(self) -> None:
        if len(self.deltas) != self.covering.n:
            raise ValueError("need one jump (or None) per overlap")
        if self.levels is not None and len(self.levels) != self.covering.n:
            raise ValueError("levels must match the number of overlaps")

    @property
    def rays(self) -> tuple[RaySpec, ...]:
        return overlap_rays(self.covering)

    def jump(self, p: int, t, xi):
        fn = self.deltas[p % self.covering.n]
        if fn is None:
            return np.zeros_like(np.asarray(xi, dtype=complex))
        return fn(t, xi)

    def has_jump(self, p: int) -> bool:
        return self.deltas[p % self.covering.n] is not None


def classify_levels(covering: GoodCovering, inner_sectors: Sequence) -> tuple:
    """Level per overlap from the deformation-domain geometry.

    When the inner sectors attached to two neighbouring outer sectors
    still intersect, the consecutive difference collapses at the fast
    level (2); when they are disjoint, only the slow level (1) survives.
    """
    if len(inner_sectors) != covering.n:
        raise ValueError("need one inner sector per covering sector")
    out = []
    for p in range(covering.n):
        a = inner_sectors[p]
        b = inner_sectors[(p + 1) % covering.n]
        out.append(2 if a.intersects(b) else 1)
    return tuple(out)


@dataclass(frozen=True)
class CHOptions:
    tol: float = 1e-10


def _ray_integral(delta: Callable, t, ray: RaySpec, weight: Callable,
                  opts: CHOptions) -> np.ndarray:
    """(1/2 pi i) int_gamma Delta(t, xi) w(xi) dxi  with xi = s^2 e^{ic}.

    weight maps an array of xi with a trailing axis of length 1 to its
    values along that axis (one per eps point or per coefficient), so
    each refinement round of fourier.complex_quad evaluates the jump and
    the weight once, on the nodes of all panels it refines.  The
    quadratic substitution clusters nodes at the origin where the jump
    is flat but the weights are singular; the Gauss-Kronrod nodes are
    interior, so s = 0 itself is never evaluated.
    """
    c, L = ray.direction, ray.length
    eic = complex(math.cos(c), math.sin(c))

    def g(s):
        xi = (s * s) * eic
        base = np.asarray(delta(t, xi), dtype=complex) * (2.0 * s * eic)
        return base[..., None] * weight(xi[..., None])

    val, _, _ = complex_quad(g, 0.0, math.sqrt(L), epsabs=opts.tol,
                             epsrel=opts.tol, limit=200)
    return val / TWO_PI_I


def cauchy_heine_many(cocycle: Cocycle, t, eps: np.ndarray,
                      sectors: np.ndarray, opts: CHOptions | None = None
                      ) -> np.ndarray:
    """Sectorial sums Psi_{sectors[i]}(t, eps[i]) for a batch of points.

    Each eps[i] must lie in covering sector sectors[i] and off the cut
    rays.  The raw transform is shared across the batch; the Plemelj
    corrections are applied pointwise.
    """
    opts = opts or CHOptions()
    cov = cocycle.covering
    eps = np.asarray(eps, dtype=complex).ravel()
    sectors = np.asarray(sectors, dtype=int).ravel()
    if eps.shape != sectors.shape:
        raise ValueError("eps and sectors must have matching shapes")
    rays = cocycle.rays

    S = np.zeros(eps.shape, dtype=complex)
    for p in range(cov.n):
        if not cocycle.has_jump(p):
            continue
        S += _ray_integral(cocycle.deltas[p], t, rays[p],
                           lambda xi: 1.0 / (xi - eps), opts)

    out = S.copy()
    args = np.angle(eps)
    radii = np.abs(eps)
    for i in range(eps.size):
        p = int(sectors[i]) % cov.n
        if not cov.sector(p).contains(eps[i]):
            raise ValueError(f"point {eps[i]!r} not in covering sector {p}")
        # past the forward cut gamma_p (counterclockwise of it)
        if cocycle.has_jump(p) and radii[i] < rays[p].length:
            if wrap_angle(args[i] - rays[p].direction) > 0.0:
                out[i] -= complex(np.asarray(
                    cocycle.jump(p, t, eps[i])).reshape(()))
        # before the backward cut gamma_{p-1} (clockwise of it)
        pm = (p - 1) % cov.n
        if cocycle.has_jump(pm) and radii[i] < rays[pm].length:
            if wrap_angle(args[i] - rays[pm].direction) < 0.0:
                out[i] += complex(np.asarray(
                    cocycle.jump(pm, t, eps[i])).reshape(()))
    return out


def asymptotic_coefficients(cocycle: Cocycle, t, n_max: int,
                            opts: CHOptions | None = None) -> np.ndarray:
    """Common expansion coefficients phi_0..phi_{n_max} of the Psi family.

    phi_n(t) = sum_p (1/2 pi i) int_{gamma_p} Delta_p(t, xi) xi^{-n-1} dxi,
    so that Psi_p(eps) ~ sum_n phi_n(t) eps^n on every sector.  The
    integrals require the jumps to vanish faster than |xi|^{n_max} at the
    origin; for ladder-type jumps this caps n_max by the t-radius.
    """
    opts = opts or CHOptions()
    ns = np.arange(n_max + 1)
    phi = np.zeros(n_max + 1, dtype=complex)
    rays = cocycle.rays
    for p in range(cocycle.covering.n):
        if not cocycle.has_jump(p):
            continue
        phi += _ray_integral(cocycle.deltas[p], t, rays[p],
                             lambda xi: xi ** (-ns - 1), opts)
    return phi


@dataclass
class JumpCheck:
    """One difference-realization probe on overlap p."""

    p: int
    eps: complex
    lhs: complex        # G_{p+1} - G_p (or Psi_{p+1} - Psi_p)
    rhs: complex        # Delta_p (sum over levels)
    abs_err: float



def _overlap_probe_points(cov: GoodCovering, p: int, rays, radius_frac: float,
                          n_each: int) -> np.ndarray:
    """Probes inside overlap p on both sides of its cut, off the cut."""
    c = cov.overlap_bisector(p)
    hw = cov.overlap_half_width(p)
    r = radius_frac * rays[p].length
    offs = np.linspace(0.25, 0.75, n_each) * hw
    angles = np.concatenate([c - offs, c + offs])
    return r * np.exp(1j * angles)


def verify_difference_realization(G: Sequence[Callable], cocycles: Sequence[Cocycle],
                                  t, radius_frac: float = 0.5, n_each: int = 2
                                  ) -> list:
    """Check G_{p+1} - G_p = sum of cocycle jumps on each overlap.

    G is independent sectorial data (one callable (t, eps) per sector);
    the check never routes through the Cauchy-Heine transform, so it can
    back an end-to-end reconstruction without circularity.
    """
    cov = cocycles[0].covering
    for c in cocycles[1:]:
        if c.covering is not cov and c.covering.to_dict() != cov.to_dict():
            raise ValueError("cocycles must share one covering")
    rays = cocycles[0].rays
    checks: list[JumpCheck] = []
    for p in range(cov.n):
        for eps in _overlap_probe_points(cov, p, rays, radius_frac, n_each):
            lhs = complex(np.asarray(G[(p + 1) % cov.n](t, eps)).reshape(())) \
                - complex(np.asarray(G[p](t, eps)).reshape(()))
            rhs = 0.0 + 0.0j
            for c in cocycles:
                rhs += complex(np.asarray(c.jump(p, t, eps)).reshape(()))
            checks.append(JumpCheck(p=p, eps=complex(eps), lhs=lhs, rhs=rhs,
                                    abs_err=abs(lhs - rhs)))
    return checks


@dataclass
class CascadeRow:
    j: int
    radius: float
    max_abs: float
    max_spread: float


@dataclass
class MultilevelSplit:
    """Outcome of removing both Cauchy-Heine layers from sectorial data.

    For every probe the leftover a_p(eps) = G_p - Psi^{slow}_p -
    Psi^{fast}_p is recorded per containing sector; spread measures how
    far the sectors disagree (a genuine split glues to one function).
    """

    t: complex
    probes: list                 # (j, eps, {p: a_p})
    cascade: list                # CascadeRow per shrink level
    max_spread: float
    max_abs: float
    realization: list            # JumpCheck rows
    max_realization_err: float


def _probe_angles(cov: GoodCovering) -> np.ndarray:
    """Mid-sector angles plus both flanks of every overlap (off the cuts),
    so single-ownership and glue regions are both exercised."""
    angles = [cov.sector(p).bisector for p in range(cov.n)]
    for p in range(cov.n):
        c = cov.overlap_bisector(p)
        hw = cov.overlap_half_width(p)
        angles.extend([c - 0.5 * hw, c + 0.5 * hw])
    return np.array(sorted(wrap_angle(a) for a in angles))


def multilevel_split(G: Sequence[Callable], slow: Cocycle, fast: Cocycle,
                     t, opts: CHOptions | None = None,
                     j_max: int = 5, radius_frac: float = 0.6,
                     check_realization: bool = True) -> MultilevelSplit:
    """Remove both cocycle layers from G and certify the leftover glues.

    Probes sit on circles |eps| = radius_frac * min ray length * 2^-j at
    mid-sector and overlap-flank angles.  Points in an overlap are
    evaluated through both adjacent sectors; their disagreement (spread)
    should sit at quadrature accuracy, and max|a| should stay of one
    size across the shrinking circles.
    """
    if j_max < 0:
        raise ValueError(f"j_max must be >= 0 (no probes otherwise), got {j_max}")
    if not 0 < radius_frac <= 1:
        raise ValueError("radius_frac must lie in (0, 1] (probes inside the "
                         f"sectors' rays), got {radius_frac}")
    if t == 0:
        raise ValueError("t must be nonzero (the ladder jumps take log t)")
    opts = opts or CHOptions()
    cov = slow.covering
    rays = slow.rays
    r0 = radius_frac * min(r.length for r in rays)
    angles = _probe_angles(cov)

    probes = []
    cascade = []
    max_spread = 0.0
    max_abs = 0.0
    for j in range(j_max + 1):
        r = r0 * 2.0 ** (-j)
        eps_batch = []
        sec_batch = []
        owners = []
        for ang in angles:
            e = r * np.exp(1j * ang)
            ps = cov.membership(e)
            owners.append((e, ps))
            for p in ps:
                eps_batch.append(e)
                sec_batch.append(p)
        eps_arr = np.asarray(eps_batch, dtype=complex)
        sec_arr = np.asarray(sec_batch, dtype=int)
        psi_slow = cauchy_heine_many(slow, t, eps_arr, sec_arr, opts)
        psi_fast = cauchy_heine_many(fast, t, eps_arr, sec_arr, opts)
        row_abs = 0.0
        row_spread = 0.0
        idx = 0
        for e, ps in owners:
            per_sector = {}
            for p in ps:
                g = complex(np.asarray(G[p](t, e)).reshape(()))
                per_sector[p] = complex(g - psi_slow[idx] - psi_fast[idx])
                idx += 1
            vals = list(per_sector.values())
            row_abs = max(row_abs, max(abs(v) for v in vals))
            if len(vals) > 1:
                row_spread = max(row_spread,
                                 max(abs(v - w) for v in vals for w in vals))
            probes.append((j, complex(e), per_sector))
        cascade.append(CascadeRow(j=j, radius=float(r), max_abs=float(row_abs),
                                  max_spread=float(row_spread)))
        max_abs = max(max_abs, float(row_abs))
        max_spread = max(max_spread, float(row_spread))

    realization = []
    max_re = 0.0
    if check_realization:
        realization = verify_difference_realization(G, (slow, fast), t)
        max_re = max((c.abs_err for c in realization), default=0.0)

    return MultilevelSplit(t=complex(t) if np.isscalar(t) or isinstance(t, complex)
                           else t,
                           probes=probes, cascade=cascade,
                           max_spread=max_spread, max_abs=max_abs,
                           realization=realization,
                           max_realization_err=max_re)


# --- synthetic ladder jumps --------------------------------------------------

def ladder_jump(q: float, k: float, A: float, cut_direction: float,
                amplitude: complex = 1.0) -> Callable:
    """Jump with an exact shrinking-disc ladder bound.

    Delta(t, xi) = amplitude * exp( -(2k/log q) * Log t * (log A + l(xi)) )
    with l the logarithm branch centred on the cut direction.  On
    |t| <= q^{-N/(2k)} (and A|xi| <= 1) its modulus is bounded by
    const * (A |xi|)^N for every N simultaneously -- the level-k ladder
    shape the relative fits certify.
    """
    lq = math.log(q)

    def delta(t, xi):
        xi = np.asarray(xi, dtype=complex)
        ax = np.abs(xi)
        ang = wrap_angle(np.angle(xi) - cut_direction)
        ell = np.log(np.maximum(ax, 1e-300)) + 1j * ang
        expo = -(2.0 * k / lq) * np.log(complex(t)) * (math.log(A) + ell)
        out = amplitude * np.exp(expo)
        return np.where(ax == 0.0, 0.0, out)

    return delta
