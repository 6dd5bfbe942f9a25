"""Sector geometry: good coverings and q-spiral domains.

A good covering is a cyclic family of open sectors E_0..E_{n-1} with a
common vertex at 0 such that consecutive sectors (indices mod n)
overlap, non-consecutive ones are disjoint, and the union covers a full
punctured disc.

The q-spiral domain attached to a direction d and threshold dlt is

    R_{d,dlt} = { T != 0 : |1 + r e^{id} / T| > dlt  for all r >= 0 }.

Writing theta = wrap(d - arg T), the infimum over r is 1 when
cos(theta) >= 0 and |sin(theta)| otherwise, which gives a closed-form
membership test on a scalar or an array of T.  Its bounded version
intersects with a disc.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .schemas import refuse_unknown_keys

TWO_PI = 2.0 * math.pi


def wrap_angle(a):
    """Wrap to (-pi, pi]; accepts scalars or arrays."""
    w = math.pi - np.mod(math.pi - np.asarray(a, dtype=float), TWO_PI)
    if np.ndim(a) == 0:
        return float(w)
    return w


@dataclass(frozen=True)
class Sector:
    """Open sector { z : 0 < |z| < radius,
    |wrap(arg z - bisector)| < half_opening }."""

    bisector: float
    half_opening: float
    radius: float = math.inf

    def __post_init__(self) -> None:
        if not 0 < self.half_opening < math.pi:
            raise ValueError(f"half_opening must be in (0, pi), got {self.half_opening}")
        if not self.radius > 0:
            raise ValueError(f"radius must be > 0, got {self.radius}")

    def contains(self, z):
        """Whether z lies in the sector: a bool for a scalar z, a bool
        array of z's shape for an array."""
        z = np.asarray(z, dtype=complex)
        r = np.abs(z)
        inside = ((0 < r) & (r < self.radius)
                  & (np.abs(wrap_angle(np.angle(z) - self.bisector))
                     < self.half_opening))
        return inside if z.ndim else bool(inside)

    def angular_gap(self, other: "Sector") -> float:
        """|wrap(bisector difference)| - (sum of half openings); negative
        means the angular arcs overlap."""
        return abs(wrap_angle(self.bisector - other.bisector)) \
            - (self.half_opening + other.half_opening)

    def intersects(self, other: "Sector") -> bool:
        return self.angular_gap(other) < 0

    def sample_points(self) -> np.ndarray:
        """Polar 7 x 7 sample grid strictly inside the sector, padded 0.1%
        off its edges (unbounded sectors truncated at radius 1e3)."""
        r_hi = min(self.radius, 1e3)
        r_lo = r_hi * 1e-6
        radii = np.exp(np.linspace(math.log(r_lo * (1 + 1e-3)),
                                   math.log(r_hi * (1 - 1e-3)), 7))
        h = self.half_opening * (1 - 1e-3)
        angles = self.bisector + np.linspace(-h, h, 7)
        return np.multiply.outer(radii, np.exp(1j * angles)).ravel()

    def to_dict(self) -> dict:
        return {"bisector": self.bisector, "opening": 2.0 * self.half_opening,
                "radius": self.radius if math.isfinite(self.radius) else None}

    @classmethod
    def from_dict(cls, d: dict) -> "Sector":
        refuse_unknown_keys("Sector", d, ("bisector", "opening", "radius"))
        radius = d.get("radius")
        return cls(bisector=d["bisector"], half_opening=0.5 * d["opening"],
                   radius=math.inf if radius is None else radius)


@dataclass(frozen=True)
class CoveringReport:
    ok: bool
    n: int
    adjacency_violations: list
    coverage_gaps: list
    common_radius: float


@dataclass(frozen=True)
class GoodCovering:
    """Cyclic family of origin sectors, consecutive-overlap only."""

    sectors: tuple[Sector, ...]

    def __post_init__(self) -> None:
        if len(self.sectors) < 2:
            raise ValueError("a covering needs at least 2 sectors")

    @property
    def n(self) -> int:
        return len(self.sectors)

    def sector(self, p: int) -> Sector:
        return self.sectors[p % self.n]

    @property
    def common_radius(self) -> float:
        return min(s.radius for s in self.sectors)

    def overlap_bisector(self, p: int) -> float:
        """Bisector angle of E_p intersect E_{p+1} (cyclic)."""
        a, b = self.sector(p), self.sector(p + 1)
        lo = wrap_angle(b.bisector - b.half_opening - a.bisector)  # rel to a.bisector
        hi = a.half_opening
        if lo >= hi:
            raise ValueError(f"sectors {p} and {p + 1} do not overlap")
        return a.bisector + 0.5 * (lo + hi)

    def overlap_half_width(self, p: int) -> float:
        a, b = self.sector(p), self.sector(p + 1)
        lo = wrap_angle(b.bisector - b.half_opening - a.bisector)
        hi = a.half_opening
        return 0.5 * (hi - lo)

    def overlap_radius(self, p: int) -> float:
        return min(self.sector(p).radius, self.sector(p + 1).radius)

    def to_dict(self) -> dict:
        return {"covering": [s.to_dict() for s in self.sectors]}

    @classmethod
    def from_dict(cls, d: dict) -> "GoodCovering":
        refuse_unknown_keys("GoodCovering", d, ("covering",))
        return cls(sectors=tuple(Sector.from_dict(sd) for sd in d["covering"]))


def validate_good_covering(cov: GoodCovering) -> CoveringReport:
    """Check the three defining properties on a 2048-point angle grid.

    Reported violations: consecutive pairs that fail to overlap,
    non-consecutive pairs that do, and sample angles covered by no
    sector.  The common radius is the largest disc radius on which the
    covering covers a full punctured neighborhood.
    """
    n = cov.n
    adjacency = []
    for p in range(n):
        for r in range(p + 1, n):
            gap = min((r - p) % n, (p - r) % n)
            inter = cov.sectors[p].intersects(cov.sectors[r])
            if gap == 1 and not inter:
                adjacency.append({"pair": (p, r), "problem": "consecutive sectors disjoint"})
            if gap > 1 and inter:
                adjacency.append({"pair": (p, r), "problem": "non-consecutive sectors overlap"})
    angles = np.linspace(-math.pi, math.pi, 2048, endpoint=False)
    covered = np.zeros(angles.size, dtype=bool)
    for s in cov.sectors:
        covered |= np.abs(((angles - s.bisector + math.pi) % TWO_PI) - math.pi) \
            < s.half_opening
    gaps = angles[~covered].tolist()
    ok = not adjacency and not gaps
    return CoveringReport(ok=ok, n=n, adjacency_violations=adjacency,
                          coverage_gaps=gaps, common_radius=cov.common_radius)


def make_cyclic_covering(n: int, radius: float, half_opening: float,
                         phase: float = 0.0) -> GoodCovering:
    """Equispaced bisectors; good iff pi/n < half_opening < 2*pi/n (strictly)."""
    if n < 2:
        raise ValueError(f"a cyclic covering needs n >= 2 sectors, got {n}")
    step = TWO_PI / n
    if not (step < 2 * half_opening < 2 * step):
        raise ValueError("half_opening incompatible with a good covering: need "
                         f"pi/{n} < half_opening < 2pi/{n}")
    sectors = tuple(Sector(bisector=wrap_angle(phase + p * step),
                           half_opening=half_opening, radius=radius)
                    for p in range(n))
    return GoodCovering(sectors=sectors)


# --- q-spiral domains -------------------------------------------------------

def qspiral_infimum(d: float, T):
    """inf over r >= 0 of |1 + r e^{id}/T|, in closed form: a float for a
    scalar T, an array of T's shape for an array."""
    T = np.asarray(T, dtype=complex)
    if not T.all():
        raise ValueError("T must be nonzero")
    theta = wrap_angle(d - np.angle(T))
    inf = np.where(np.cos(theta) >= 0.0, 1.0, np.abs(np.sin(theta)))
    return inf if T.ndim else float(inf)


def qspiral_membership(d: float, dlt: float, T):
    """T in R_{d,dlt}: the ray r e^{id} stays dlt-clear of -T for r >= 0.
    A bool for a scalar T, a bool array of T's shape for an array."""
    if not 0 < dlt < 1:
        raise ValueError(f"dlt must be in (0,1), got {dlt}")
    return qspiral_infimum(d, T) > dlt


# --- Fourier-grid helpers ---------------------------------------------------

def polyval_im(coeffs, m) -> np.ndarray:
    """Evaluate the polynomial with ascending coefficients at x = i*m.

    Horner's rule in the order of numpy.polynomial.polynomial.polyval,
    c[-1] + x * 0 and then c + acc * x, so the values are its values bit
    for bit, without its set-up per call."""
    x = 1j * np.asarray(m, dtype=float)
    c = np.asarray(coeffs, dtype=complex)
    acc = c[-1] + x * 0
    for ci in c[-2::-1]:
        acc = ci + acc * x
    return acc


def default_m_grid() -> np.ndarray:
    """257 points on [-20, 20], denser near 0 (the odd count keeps 0)."""
    t = np.linspace(0.0, 1.0, 129)
    pos = 20.0 * np.sinh(3.0 * t) / math.sinh(3.0)
    return np.concatenate([-pos[::-1][:-1], pos])


# --- pairing of covering sectors with spiral domains ------------------------

@dataclass(frozen=True)
class FamilyReport:
    ok: bool
    product_failures: list
    overlap_failures: list


def associate_family(cov: GoodCovering, directions: list[float], dlt: float,
                     t_sector: Sector, epsilon0: float) -> FamilyReport:
    """Couple each covering sector E_p with the spiral domain of its direction.

    Verifies on 7 x 7 sample grids that (i) eps*t lands in the bounded domain
    R_{d_p, dlt} cap D(0, epsilon0 * t_radius) for every sampled
    (eps, t) in E_p x T, and (ii) consecutive bounded domains intersect
    (witness search on a 12 x 96 polar grid), each as one array test.
    Product failures are listed by p, then eps, then t.  The products
    are formed with eps and t scaled by powers of two toward modulus 1
    and judged against the radius scaled alike, so the test does not
    depend on the scale: a tiny eps t does not underflow to a spurious 0.
    """
    if len(directions) != cov.n:
        raise ValueError("need exactly one direction per covering sector")
    radius = epsilon0 * t_sector.radius

    def bounded(d, T, r):
        """T in R_{d,dlt} cap D(0, r) (T = 0 is outside)."""
        near = (T != 0) & (np.abs(T) < r)
        return near & qspiral_membership(d, dlt, np.where(near, T, 1.0))

    d = np.asarray(directions, dtype=float)[:, None]
    eps = np.stack([s.sample_points() for s in cov.sectors])
    t = t_sector.sample_points()
    # eps t underflows where both are tiny: scale each by a power of two
    # toward modulus 1 (capped at 2^1022) and the radius by both, which is
    # exact and leaves every comparison at normal scale as it is
    a = 2.0 ** min(1022, -np.frexp(np.abs(eps).max())[1])
    b = 2.0 ** min(1022, -np.frexp(np.abs(t).max())[1])
    inside = bounded(d[:, :, None], (eps * a)[:, :, None] * (t * b),
                     (epsilon0 * a) * (t_sector.radius * b))
    product_failures = [{"p": int(p), "eps": repr(complex(eps[p, i])),
                         "t": repr(complex(t[j]))}
                        for p, i, j in np.argwhere(~inside)]
    rings = np.linspace(radius / 40, radius * 0.98, 12)
    angles = np.linspace(-math.pi, math.pi, 96, endpoint=False)
    witness = bounded(d, np.multiply.outer(rings, np.exp(1j * angles)).ravel(),
                      radius)
    found = (witness & np.roll(witness, -1, axis=0)).any(axis=1)
    overlap_failures = [{"pair": (int(p), (int(p) + 1) % cov.n)}
                        for p in np.flatnonzero(~found)]
    return FamilyReport(ok=not product_failures and not overlap_failures,
                        product_failures=product_failures,
                        overlap_failures=overlap_failures)


# --- scenario (de)serialization ---------------------------------------------

def geometry_scenario_to_dict(cov: GoodCovering, directions: list[float],
                              dlt: float, rho: float) -> dict:
    d = cov.to_dict()
    d.update({"directions": list(directions), "delta_t": dlt, "rho": rho})
    return d


def geometry_scenario_from_dict(d: dict) -> tuple[GoodCovering, list[float], float, float]:
    refuse_unknown_keys("geometry scenario", d,
                         ("covering", "directions", "delta_t", "rho"))
    cov = GoodCovering.from_dict({"covering": d["covering"]})
    return cov, list(d["directions"]), float(d["delta_t"]), float(d["rho"])
