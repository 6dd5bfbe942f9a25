import cmath
import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qasym.geometry import (GoodCovering, Sector, associate_family,
                            geometry_scenario_from_dict,
                            geometry_scenario_to_dict,
                            make_cyclic_covering, qspiral_infimum,
                            qspiral_membership, validate_good_covering, wrap_angle)

TWO_PI = 2.0 * math.pi


def brute_covered(cov: GoodCovering, angle: float) -> int:
    """Number of sectors containing the given direction (angular oracle)."""
    hits = 0
    for s in cov.sectors:
        d = (angle - s.bisector + math.pi) % TWO_PI - math.pi
        if abs(d) < s.half_opening:
            hits += 1
    return hits


class TestWrapAngle:
    @given(st.floats(-50.0, 50.0))
    def test_range_and_equivalence(self, a):
        w = wrap_angle(a)
        assert -math.pi < w <= math.pi
        assert cmath.exp(1j * w) == pytest.approx(cmath.exp(1j * a), abs=1e-12)

    def test_boundary_convention(self):
        assert wrap_angle(math.pi) == pytest.approx(math.pi)
        assert wrap_angle(-math.pi) == pytest.approx(math.pi)

    def test_array_input(self):
        arr = wrap_angle(np.array([0.0, 4.0, -4.0]))
        assert arr.shape == (3,)
        assert float(arr[1]) == pytest.approx(4.0 - TWO_PI)


class TestCovering:
    def test_cyclic_covering_valid(self):
        for n in (3, 4, 6):
            ho = 1.4 * math.pi / n
            cov = make_cyclic_covering(n, 0.4, ho, phase=0.3)
            rep = validate_good_covering(cov)
            assert rep.ok, (rep.adjacency_violations, rep.coverage_gaps)

    def test_rejects_bad_openings(self):
        with pytest.raises(ValueError):
            make_cyclic_covering(4, 0.4, 0.9 * math.pi / 4)   # too narrow
        with pytest.raises(ValueError):
            make_cyclic_covering(4, 0.4, 2.1 * math.pi / 4)   # too wide

    def test_every_direction_covered_brute(self, rng):
        cov = make_cyclic_covering(5, 0.4, 1.3 * math.pi / 5, phase=1.0)
        for a in rng.uniform(-math.pi, math.pi, size=500):
            assert brute_covered(cov, a) >= 1

    def test_only_adjacent_sectors_overlap_brute(self, rng):
        cov = make_cyclic_covering(5, 0.4, 1.3 * math.pi / 5, phase=1.0)
        for a in rng.uniform(-math.pi, math.pi, size=500):
            assert brute_covered(cov, a) <= 2

    def test_non_good_covering_flagged(self):
        # four over-wide sectors: opposite pairs overlap, which a good
        # covering forbids (only cyclically adjacent overlaps allowed)
        sectors = tuple(Sector(bisector=p * math.pi / 2,
                               half_opening=0.9 * math.pi, radius=0.4)
                        for p in range(4))
        rep = validate_good_covering(GoodCovering(sectors=sectors))
        assert not rep.ok and rep.adjacency_violations

    def test_gap_flagged(self):
        sectors = tuple(Sector(bisector=b, half_opening=0.5, radius=0.4)
                        for b in (0.0, math.pi))
        rep = validate_good_covering(GoodCovering(sectors=sectors))
        assert not rep.ok and rep.coverage_gaps

    def test_overlap_geometry_accessors(self):
        cov = make_cyclic_covering(4, 0.4, 1.4 * math.pi / 4, phase=0.0)
        for p in range(4):
            c = cov.overlap_bisector(p)
            hw = cov.overlap_half_width(p)
            assert hw > 0
            # both bounding sectors contain the overlap bisector
            assert brute_covered(cov, c) == 2
            # just outside the overlap only one sector remains
            assert brute_covered(cov, c + 1.05 * hw) == 1
            assert brute_covered(cov, c - 1.05 * hw) == 1


    def test_sector_contains_matches_brute_on_arrays(self, rng):
        s = Sector(bisector=2.8, half_opening=0.9, radius=0.4, inner_radius=0.05)
        z = rng.uniform(0.0, 0.5, 400) * np.exp(1j * rng.uniform(-4.0, 4.0, 400))
        got = s.contains(z.reshape(20, 20))
        assert got.shape == (20, 20) and got.dtype == bool
        brute = [0.05 < abs(e) < 0.4 and abs((cmath.phase(e) - 2.8 + math.pi)
                                             % TWO_PI - math.pi) < 0.9
                 for e in z]
        assert got.ravel().tolist() == brute
        assert [s.contains(e) for e in z] == brute
        assert s.contains(complex(z[0])) is brute[0]


class TestQSpiral:
    @given(st.floats(-math.pi, math.pi), st.floats(0.05, 3.0),
           st.floats(-math.pi, math.pi))
    def test_infimum_matches_brute_ray_scan(self, d, r, phi):
        T = r * cmath.exp(1j * phi)
        # oracle: dense scan over the ray radius
        brute = min(abs(1.0 + rr * cmath.exp(1j * d) / T)
                    for rr in np.linspace(0.0, 12.0 * r, 4000))
        lib = qspiral_infimum(d, T)
        assert lib <= brute + 1e-6
        assert lib >= brute - 2e-3   # scan resolution

    def test_membership_threshold(self):
        d = 0.0
        T = cmath.exp(1j * math.radians(150))  # ray opposite-ish direction
        inf = qspiral_infimum(d, T)
        assert qspiral_membership(d, min(0.99, inf * 0.9), T)
        if inf < 1.0:
            assert not qspiral_membership(d, min(0.99, inf * 1.1), T)

    def test_infimum_one_when_ray_points_away(self):
        assert qspiral_infimum(0.0, 1.0 + 0.0j) == 1.0

    def test_array_matches_scalar_calls(self, rng):
        """An array of T gives, element for element, the scalar calls; a
        scalar T gives a float and a bool."""
        T = rng.uniform(0.1, 2.0, (5, 7)) * np.exp(1j * rng.uniform(-4, 4, (5, 7)))
        inf, inside = qspiral_infimum(0.7, T), qspiral_membership(0.7, 0.6, T)
        assert inf.shape == inside.shape == T.shape and inside.dtype == bool
        for i, j in np.ndindex(T.shape):
            one = qspiral_infimum(0.7, complex(T[i, j]))
            assert type(one) is float and one == inf[i, j]
            member = qspiral_membership(0.7, 0.6, complex(T[i, j]))
            assert type(member) is bool and member == inside[i, j]
        assert 0 < inside.sum() < inside.size

    def test_zero_and_bad_dlt_raise(self):
        with pytest.raises(ValueError, match="nonzero"):
            qspiral_infimum(0.0, 0.0)
        with pytest.raises(ValueError, match="nonzero"):
            qspiral_infimum(0.0, np.array([1.0, 0.0]))
        with pytest.raises(ValueError, match="dlt"):
            qspiral_membership(0.0, 1.0, np.array([1.0j]))


def family_longhand(cov, directions, dlt, t_sector, epsilon0):
    """associate_family's failures by scalar loops: T lies in the bounded
    domain iff 0 < |T| < epsilon0 * t_radius and inf_r |1 + r e^{id}/T|,
    which is 1 if cos(d - arg T) >= 0 and |sin(d - arg T)| otherwise,
    exceeds dlt.  Each product is scaled on its own, not per array."""
    radius = epsilon0 * t_sector.radius

    def bounded(d, T, r):
        if T == 0 or abs(T) >= r:
            return False
        phi = d - cmath.phase(T)
        return (1.0 if math.cos(phi) >= 0 else abs(math.sin(phi))) > dlt

    products = []
    for p in range(cov.n):
        for e in cov.sectors[p].sample_points():
            for t in t_sector.sample_points():
                # e t at modulus about 1, exact in the powers of two (at
                # most 2^1022), so that it does not underflow; the radius
                # is scaled alike
                a = math.ldexp(1.0, min(1022, -math.frexp(abs(e))[1]))
                b = math.ldexp(1.0, min(1022, -math.frexp(abs(t))[1]))
                if not bounded(directions[p], (e * a) * (t * b),
                               (epsilon0 * a) * (t_sector.radius * b)):
                    products.append({"p": p, "eps": repr(complex(e)),
                                     "t": repr(complex(t))})
    overlaps = []
    for p in range(cov.n):
        q = (p + 1) % cov.n
        if not any(bounded(directions[p], r * cmath.exp(1j * th), radius)
                   and bounded(directions[q], r * cmath.exp(1j * th), radius)
                   for r in np.linspace(radius / 40, radius * 0.98, 12)
                   for th in np.linspace(-math.pi, math.pi, 96, endpoint=False)):
            overlaps.append({"pair": (p, q)})
    return products, overlaps


class TestFamilyAgainstLonghand:
    """The CLI's default covering, t-sector and epsilon0, with directions
    and dlt that make the family fail."""

    DIRECTIONS = [math.radians(45.0) + p * math.pi / 2 for p in range(4)]

    @pytest.mark.parametrize("directions, dlt, radius, n_products, n_overlaps", [
        (DIRECTIONS, 0.3, 0.4, 0, 0),
        ([d + math.pi / 2 for d in DIRECTIONS], 0.3, 0.4, 2352, 0),
        (DIRECTIONS, 0.95, 0.4, 588, 0),
        ([0.01, math.pi + 0.01] * 2, 0.999999, 0.4, 4802, 4),
        (DIRECTIONS, 0.3, 1e-170, 0, 0),
        (DIRECTIONS, 0.3, 1e-310, 0, 0),
    ], ids=["default", "rotated-90", "dlt-0.95", "antipodal-dlt-0.999999",
            "eps-t-underflows", "subnormal-radii"])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_failures_match_in_order(self, directions, dlt, radius, n_products,
                                     n_overlaps):
        """radius is both the covering's and the t-sector's; at 1e-170
        every sampled eps t underflows a double, and at 1e-310 every
        sample is subnormal."""
        cov = make_cyclic_covering(4, radius, math.radians(60.0),
                                   math.radians(45.0))
        t_sector = Sector(bisector=math.radians(-45.0),
                          half_opening=math.radians(15.0), radius=radius)
        rep = associate_family(cov, directions, dlt, t_sector, 0.4)
        products, overlaps = family_longhand(cov, directions, dlt, t_sector, 0.4)
        assert (len(products), len(overlaps)) == (n_products, n_overlaps)
        assert rep.product_failures == products
        assert rep.overlap_failures == overlaps
        assert rep.ok is (not products and not overlaps)
        assert all(type(f["p"]) is int for f in rep.product_failures)


class TestScenarioSerialization:
    def test_round_trip(self):
        cov = make_cyclic_covering(4, 0.4, 1.4 * math.pi / 4, phase=0.2)
        directions = [0.2 + p * math.pi / 2 for p in range(4)]
        d = geometry_scenario_to_dict(cov, directions, 0.3, 0.8)
        cov2, dirs2, dlt2, rho2 = geometry_scenario_from_dict(
            json.loads(json.dumps(d)))
        assert cov2.to_dict() == cov.to_dict()
        assert dirs2 == pytest.approx(directions)
        assert (dlt2, rho2) == (0.3, 0.8)

    def test_family_association(self):
        cov = make_cyclic_covering(4, 0.4, 1.4 * math.pi / 4, phase=math.pi / 4)
        directions = [p * math.pi / 2 for p in range(4)]
        t_sector = Sector(bisector=-math.pi / 4, half_opening=0.26, radius=0.4)
        rep = associate_family(cov, directions, 0.3, t_sector, 0.4)
        assert rep.ok, (rep.product_failures, rep.overlap_failures)
