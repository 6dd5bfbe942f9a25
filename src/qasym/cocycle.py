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

Jumps and sectorial branches are vectorized in the sectorial variable:
a jump Delta_p(t, xi) and a branch G_p(t, eps) take an ndarray and
return an array of its shape.  The split evaluates each branch once, on
every probe its sector owns together with its realization probes, and
each Cauchy-Heine sum is one quadrature over all of its rays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .fourier import QuadratureError, complex_quad
from .geometry import GoodCovering, wrap_angle

TWO_PI_I = 2j * math.pi


def __getattr__(name: str):
    # perfbench's QuadAudit patches cocycle.quad_vec by name; scipy is
    # imported only when it asks.  The shim goes with QuadAudit.
    if name == "quad_vec":
        from scipy.integrate import quad_vec
        return quad_vec
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass(frozen=True)
class RaySpec:
    """Straight cut from the origin: direction (radians) and length."""

    direction: float
    length: float


def overlap_rays(covering: GoodCovering) -> tuple[RaySpec, ...]:
    """One cut per overlap, along its bisector, 0.9 of its radius."""
    return tuple(RaySpec(direction=covering.overlap_bisector(p),
                         length=0.9 * covering.overlap_radius(p))
                 for p in range(covering.n))


@dataclass(frozen=True)
class Cocycle:
    """Jumps Delta_p(t, xi) on the overlaps of a good covering.

    deltas[p] is a callable vectorized in xi, or None when the cocycle
    has no component on that overlap.
    """

    covering: GoodCovering
    deltas: tuple

    def __post_init__(self) -> None:
        if len(self.deltas) != self.covering.n:
            raise ValueError("need one jump (or None) per overlap")

    @cached_property
    def rays(self) -> tuple[RaySpec, ...]:
        return overlap_rays(self.covering)

    def jump(self, p: int, t, xi):
        fn = self.deltas[p % self.covering.n]
        if fn is None:
            return np.zeros_like(np.asarray(xi, dtype=complex))
        return fn(t, xi)

    def has_jump(self, p: int) -> bool:
        return self.deltas[p % self.covering.n] is not None


@dataclass(frozen=True)
class CHOptions:
    tol: float = 1e-10


def _ray_integral(cocycle: Cocycle, t, weight: Callable, points: np.ndarray,
                  name: str, opts: CHOptions) -> np.ndarray:
    """sum_p (1/2 pi i) int_{gamma_p} Delta_p(t, xi) w(xi, x_j) dxi over
    the overlaps p with a jump, at each point x_j of `points`.

    weight maps xi (with a trailing axis of length 1) and `points` to
    one value per point along that axis: the Cauchy kernel at eps
    points, or a power of xi per coefficient.  All rays are the
    components of one fourier.complex_quad call on x in [0, 1]: ray p
    runs along xi = s^2 e^{ic_p} with s = x sqrt(L_p), so its nodes are
    those of the substitution in s, and the components over (ray, point)
    keep their own epsabs and epsrel test; they are summed over rays on
    return.  Each refinement round evaluates every jump and the weight
    once, on the nodes of all panels it refines, which the rays share.
    The quadratic substitution clusters nodes at the origin where the
    jump is flat but the weights are singular; the Gauss-Kronrod nodes
    are interior, so s = 0 itself is never evaluated.  A call that would
    pass its panel limit raises QuadratureError naming the overlap and
    the point of the component furthest from its target.
    """
    ps = [p for p in range(cocycle.covering.n) if cocycle.has_jump(p)]
    points = np.asarray(points)
    if not ps:
        return np.zeros(points.shape, dtype=complex)
    rays = [cocycle.rays[p] for p in ps]
    eic = np.exp(1j * np.array([r.direction for r in rays]))
    root = np.sqrt([r.length for r in rays])

    def g(x):
        s = x[..., None] * root                  # panel x node x ray
        xi = (s * s) * eic
        base = np.stack([np.asarray(cocycle.deltas[p](t, xi[..., i]), dtype=complex)
                         for i, p in enumerate(ps)], axis=-1)
        vals = (base * (2.0 * s * eic * root))[..., None] * weight(xi[..., None], points)
        return vals.reshape(x.shape + (-1,))

    try:
        val, _, _ = complex_quad(g, 0.0, 1.0, epsabs=opts.tol, epsrel=opts.tol,
                                 limit=200)
    except QuadratureError as exc:
        r, i = divmod(exc.component, points.size)
        raise QuadratureError(
            f"{len(ps)} Cauchy-Heine ray{'s' * (len(ps) > 1)}, worst on overlap "
            f"{ps[r]} at {name}={points[i].item()!r}, {exc}", i) from exc
    return val.reshape(len(ps), points.size).sum(axis=0) / TWO_PI_I


def cauchy_heine_many(cocycle: Cocycle, t, eps: np.ndarray,
                      sectors: np.ndarray, opts: CHOptions | None = None
                      ) -> np.ndarray:
    """Sectorial sums Psi_{sectors[i]}(t, eps[i]) for a batch of points.

    Each eps[i] must lie in covering sector sectors[i] and off the cut
    rays.  Only the sectors that occur in the batch are checked, in
    ascending order, and the ValueError names the first point found
    outside its sector.  The raw transform is one quadrature for the
    whole batch, over every ray with a jump (_ray_integral); the Plemelj
    corrections take one jump call per overlap, on the points of its two
    sectors that lie within the ray and past (sector p) or before
    (sector p + 1) the cut.
    """
    opts = opts or CHOptions()
    cov = cocycle.covering
    eps = np.asarray(eps, dtype=complex).ravel()
    sectors = np.asarray(sectors, dtype=int).ravel()
    if eps.shape != sectors.shape:
        raise ValueError("eps and sectors must have matching shapes")
    rays = cocycle.rays
    own = sectors % cov.n
    for p in np.unique(own).tolist():
        pts = eps[own == p]
        outside = pts[~cov.sector(p).contains(pts)]
        if outside.size:
            raise ValueError(f"point {complex(outside[0])!r} not in "
                             f"covering sector {p}")

    out = _ray_integral(cocycle, t, lambda xi, e: 1.0 / (xi - e), eps, "eps", opts)
    args, radii = np.angle(eps), np.abs(eps)
    for p in range(cov.n):
        if not cocycle.has_jump(p):
            continue
        near = radii < rays[p].length
        side = wrap_angle(args - rays[p].direction)
        # past the forward cut gamma_p of sector p: subtract Delta_p;
        # before the backward cut gamma_p of sector p + 1: add it
        past = (own == p) & near & (side > 0.0)
        before = (own == (p + 1) % cov.n) & near & (side < 0.0)
        sel = past | before
        if sel.any():
            d = np.asarray(cocycle.jump(p, t, eps[sel]), dtype=complex)
            out[sel] += np.where(before[sel], d, -d)
    return out


def asymptotic_coefficients(cocycle: Cocycle, t, n_max: int,
                            opts: CHOptions | None = None) -> np.ndarray:
    """Common expansion coefficients phi_0..phi_{n_max} of the Psi family.

    phi_n(t) = sum_p (1/2 pi i) int_{gamma_p} Delta_p(t, xi) xi^{-n-1} dxi,
    so that Psi_p(eps) ~ sum_n phi_n(t) eps^n on every sector; all rays
    and all n are one quadrature (_ray_integral).  The integrals require
    the jumps to vanish faster than |xi|^{n_max} at the origin; for
    ladder-type jumps this caps n_max by the t-radius.
    """
    return _ray_integral(cocycle, t, lambda xi, n: xi ** (-n - 1),
                         np.arange(n_max + 1), "n", opts or CHOptions())


@dataclass
class JumpCheck:
    """One difference-realization probe on overlap p."""

    p: int
    eps: complex
    lhs: complex        # G_{p+1} - G_p (or Psi_{p+1} - Psi_p)
    rhs: complex        # Delta_p (sum over levels)
    abs_err: float


def _realization_probes(cocycles: Sequence[Cocycle]) -> list:
    """Probes of each overlap p: half its ray length, two angles on
    either side of its cut, off the cut."""
    cov = cocycles[0].covering
    for c in cocycles[1:]:
        if c.covering is not cov and c.covering.to_dict() != cov.to_dict():
            raise ValueError("cocycles must share one covering")
    rays = cocycles[0].rays
    pts = []
    for p in range(cov.n):
        c = cov.overlap_bisector(p)
        offs = np.array([0.25, 0.75]) * cov.overlap_half_width(p)
        angles = np.concatenate([c - offs, c + offs])
        pts.append(0.5 * rays[p].length * np.exp(1j * angles))
    return pts


def _jump_checks(cocycles: Sequence[Cocycle], t, pts: list, g: list) -> list:
    """JumpCheck rows from the probes pts[p] of each overlap p and the
    values g[p] of G[p] on pts[p] followed by pts[p - 1]."""
    n = len(pts)
    checks: list[JumpCheck] = []
    for p in range(n):
        q = (p + 1) % n      # G_{p+1} on overlap p follows its own probes
        lhs = g[q][pts[q].size:] - g[p][:pts[p].size]
        rhs = np.zeros(pts[p].shape, dtype=complex)
        for c in cocycles:
            rhs = rhs + np.asarray(c.jump(p, t, pts[p]), dtype=complex)
        checks.extend(JumpCheck(p=p, eps=e, lhs=x, rhs=y, abs_err=abs(x - y))
                      for e, x, y in zip(pts[p].tolist(), lhs.tolist(),
                                         rhs.tolist()))
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
                     j_max: int = 5, radius_frac: float = 0.6) -> MultilevelSplit:
    """Remove both cocycle layers from G and certify the leftover glues.

    Probes sit on circles |eps| = radius_frac * min ray length * 2^-j at
    mid-sector and overlap-flank angles.  Points in an overlap are
    evaluated through both adjacent sectors; their disagreement (spread)
    should sit at quadrature accuracy, and max|a| should stay of one
    size across the shrinking circles.

    The probes of all levels j = 0..j_max form one batch: each branch
    G[p] (taking an eps ndarray, returning an array of its shape) is
    called once, on every probe sector p owns together with the
    realization probes of overlaps p and p - 1, and each cocycle's
    Cauchy-Heine sum once, on every (probe, owning sector) pair: one
    quadrature over all of that cocycle's rays.

    The realization rows check G_{p+1} - G_p = sum of the cocycle jumps
    at half each ray's length, two angles on either side of each cut.
    They never route through the Cauchy-Heine transform, so they back
    the reconstruction without circularity.
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
    r0 = radius_frac * min(r.length for r in slow.rays)
    radii = r0 * 2.0 ** -np.arange(j_max + 1)
    angles = _probe_angles(cov)
    eps = np.multiply.outer(radii, np.exp(1j * angles)).ravel()
    # one (probe, owning sector) pair per row, probe-major, sectors ascending
    owned = np.array([cov.sector(p).contains(eps) for p in range(cov.n)])
    point, sector = np.nonzero(owned.T)
    e = eps[point]

    # G[p] on the probes it owns, then on the realization probes of
    # overlaps p and p - 1
    pts = _realization_probes((slow, fast))
    g = np.empty(e.shape, dtype=complex)
    g_real = []
    for p in range(cov.n):
        mine = sector == p
        at = np.concatenate([e[mine], pts[p], pts[p - 1]])
        vals = np.asarray(G[p](t, at), dtype=complex)
        g[mine], rest = np.split(vals, [mine.sum()])
        g_real.append(rest)
    a = (g - cauchy_heine_many(slow, t, e, sector, opts)
         - cauchy_heine_many(fast, t, e, sector, opts))

    row_abs = np.zeros(radii.size)
    row_spread = np.zeros(radii.size)
    probes = []
    for rows in np.split(np.arange(point.size), np.flatnonzero(np.diff(point)) + 1):
        i = point[rows[0]]
        j = int(i // angles.size)
        vals = a[rows]
        row_abs[j] = max(row_abs[j], np.abs(vals).max())
        row_spread[j] = max(row_spread[j], np.abs(vals[:, None] - vals).max())
        probes.append((j, complex(eps[i]),
                       dict(zip(sector[rows].tolist(), vals.tolist()))))
    cascade = [CascadeRow(j=j, radius=float(r), max_abs=float(row_abs[j]),
                          max_spread=float(row_spread[j]))
               for j, r in enumerate(radii)]

    realization = _jump_checks((slow, fast), t, pts, g_real)

    return MultilevelSplit(t=complex(t), probes=probes, cascade=cascade,
                           max_spread=float(row_spread.max()),
                           max_abs=float(row_abs.max()),
                           realization=realization,
                           max_realization_err=max(c.abs_err for c in realization))


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
