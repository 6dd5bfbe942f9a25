import cmath
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qasym.qlaplace import (GrowthCertificate, QLaplaceSpec, domain_radius,
                            monomial_image_constant, monomial_ratio_law,
                            qlaplace)


def image_constant_oracle(q: float, k: float, n: int) -> float:
    """Closed-form image constant q^{n(n-1)/(2k)} for the monomial u^n."""
    return q ** (n * (n - 1) / (2.0 * k))


class TestMonomialImages:
    @pytest.mark.parametrize("q,k", [(2.0, 1.0), (2.0, 2.0), (1.5, 1.0)])
    @pytest.mark.parametrize("n", range(6))
    def test_measured_constant_matches_oracle(self, q, k, n):
        measured = monomial_image_constant(q, k, n)
        oracle = image_constant_oracle(q, k, n)
        assert abs(measured - oracle) / oracle < 1e-10
        assert abs(measured.imag) / oracle < 1e-10

    def test_power_law_in_T(self):
        q, k, n = 2.0, 1.0, 3
        spec = QLaplaceSpec(q=q, k=k, direction=0.0)
        cert = GrowthCertificate(K=1.0, alpha=float(n), k=0.0)
        vals = []
        for absT in (0.15, 0.3):
            res = qlaplace(spec, lambda u: u ** n, absT, cert,
                           enforce_domain=False)
            vals.append(res.value / absT ** n)
        # the image is exactly c_n T^n: the ratio is T-independent
        assert vals[0] == pytest.approx(vals[1], rel=1e-9)

    def test_ratio_law(self):
        q, k = 2.0, 2.0
        for n in range(5):
            c_n = monomial_image_constant(q, k, n)
            c_n1 = monomial_image_constant(q, k, n + 1)
            assert abs(c_n1 / c_n) == pytest.approx(q ** (n / k), rel=1e-9)
            assert monomial_ratio_law(q, k, n + 1) == pytest.approx(
                q ** (n / k), rel=1e-12)

    def test_linearity(self):
        q, k = 2.0, 1.0
        spec = QLaplaceSpec(q=q, k=k, direction=0.0)
        cert = GrowthCertificate(K=3.0, alpha=2.0, k=0.0)
        T = 0.2
        f = lambda u: 2.0 * u + 0.5 * u * u
        lhs = qlaplace(spec, f, T, cert, enforce_domain=False).value
        rhs = 2.0 * monomial_image_constant(q, k, 1) * T \
            + 0.5 * monomial_image_constant(q, k, 2) * T ** 2
        assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_off_axis_direction(self):
        q, k, n = 2.0, 1.0, 2
        d = math.radians(40.0)
        spec = QLaplaceSpec(q=q, k=k, direction=d)
        cert = GrowthCertificate(K=1.0, alpha=float(n), k=0.0)
        T = 0.25 * cmath.exp(1j * d)
        res = qlaplace(spec, lambda u: u ** n, T, cert, enforce_domain=False)
        assert res.value == pytest.approx(
            image_constant_oracle(q, k, n) * T ** n, rel=1e-8)


class TestCertificates:
    def test_rejects_invalid(self):
        with pytest.raises(ValueError):
            GrowthCertificate(K=0.0, alpha=1.0, k=0.0)
        with pytest.raises(ValueError):
            GrowthCertificate(K=1.0, alpha=1.0, k=-1.0)

    def test_log_bound_shape(self):
        cert = GrowthCertificate(K=2.0, alpha=1.5, k=1.0, rho=1.0)
        # inside the disc the bound is flat
        assert cert.log_bound(0.5, 2.0) == pytest.approx(math.log(2.0))
        # outside it grows like the log-Gaussian times the power
        r = 4.0
        expect = math.log(2.0) + 0.5 * math.log(r) ** 2 / math.log(2.0) \
            + 1.5 * math.log(r)
        assert cert.log_bound(r, 2.0) == pytest.approx(expect, rel=1e-12)

    def test_certify_accepts_dominated_function(self):
        cert = GrowthCertificate(K=2.0, alpha=2.0, k=0.0)
        ok, worst = cert.certify(lambda u: u * u, 0.0, 2.0)
        assert ok and worst <= 1e-9

    def test_certify_rejects_runaway_function(self):
        cert = GrowthCertificate(K=1.0, alpha=1.0, k=0.0)
        ok, worst = cert.certify(lambda u: u ** 4, 0.0, 2.0)
        assert not ok and worst > 0.0


class TestDomain:
    def test_domain_radius_positive_and_monotone(self):
        r1 = domain_radius(2.0, 1.0, 1.0)
        r2 = domain_radius(2.0, 1.0, 3.0)
        assert r1 > 0 and r2 > 0
        assert r2 < r1   # faster growth shrinks the domain

    def test_enforced_domain_rejects_far_points(self):
        q, k = 2.0, 1.0
        spec = QLaplaceSpec(q=q, k=k, direction=0.0)
        cert = GrowthCertificate(K=1.0, alpha=5.0, k=0.0)
        R = domain_radius(q, k, 5.0)
        with pytest.raises(ValueError):
            qlaplace(spec, lambda u: u ** 5, 2.0 * R, cert)


class TestReroute:
    """A ray grazing the theta zero spiral (clearance <= 0.1) is turned by
    1e-3 rad when that clears it, and refused otherwise."""

    def test_grazing_ray_rerouted_keeps_closed_form(self):
        q, k, n = 2.0, 1.0, 2
        # clearance |sin(arg T)| = 0.0996 on direction 0; 0.1006 on -1e-3
        T = 0.3 * cmath.exp(-1j * (math.pi - math.asin(0.0996)))
        spec = QLaplaceSpec(q=q, k=k, direction=0.0)
        cert = GrowthCertificate(K=1.0, alpha=float(n), k=0.0)
        res = qlaplace(spec, lambda u: u ** n, T, cert, enforce_domain=False)
        assert res.direction_used == -1e-3
        assert abs(res.value - image_constant_oracle(q, k, n) * T ** n) < 1e-9

    def test_ray_on_the_spiral_refused(self):
        spec = QLaplaceSpec(q=2.0, k=1.0, direction=0.0)
        cert = GrowthCertificate(K=1.0, alpha=2.0, k=0.0)
        with pytest.raises(ValueError, match="grazes the theta zero spiral"):
            qlaplace(spec, lambda u: u * u, -0.3 + 1e-4j, cert,
                     enforce_domain=False)
