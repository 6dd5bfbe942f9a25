import cmath
import math
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad

from qasym import model
from qasym.qlaplace import (GrowthCertificate, QLaplaceSpec, QuadratureError,
                            _integration_window, domain_radius,
                            log_contour_transform,
                            monomial_image_constant, monomial_ratio_law,
                            qlaplace)
from qasym.theta import inv_theta_at


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


class TestSpec:
    @pytest.mark.parametrize("tol", [math.inf, math.nan])
    def test_non_finite_tol_is_refused(self, tol):
        with pytest.raises(ValueError, match="tol=.* is not finite"):
            QLaplaceSpec(q=2.0, k=1.0, direction=0.0, tol=tol)

    @pytest.mark.parametrize("direction", [math.inf, math.nan])
    def test_non_finite_direction_is_refused(self, direction):
        with pytest.raises(ValueError, match=f"direction={direction} is not finite"):
            QLaplaceSpec(q=2.0, k=1.0, direction=direction)


class TestCertificates:
    def test_rejects_invalid(self):
        with pytest.raises(ValueError):
            GrowthCertificate(K=0.0, alpha=1.0, k=0.0)
        with pytest.raises(ValueError):
            GrowthCertificate(K=1.0, alpha=1.0, k=-1.0)

    @pytest.mark.parametrize("field", ["K", "alpha", "k", "rho"])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_non_finite_field_is_refused(self, field, value):
        """A non-finite field is named, not integrated on (alpha = nan gave
        0.12496 for the image 0.125 of u^2 at T = 0.25)."""
        fields = {**dict(K=1.0, alpha=2.0, k=0.0, rho=1.0), field: value}
        with pytest.raises(ValueError, match=f"{field}={value} is not finite"):
            GrowthCertificate(**fields)


def envelope(spec, cert, absT, s):
    """The certified envelope g(s) on an array of s = log|u|, written out
    longhand: the log of the growth bound on f minus the log of the theta
    kernel's lower bound."""
    lq, L = math.log(spec.q), math.log(absT)
    bound = math.log(cert.K) + np.where(
        s > math.log(cert.rho), 0.5 * cert.k * s * s / lq + cert.alpha * s, 0.0)
    return bound - 0.5 * spec.k * (s - L) ** 2 / lq - 0.5 * (s - L)


_H = 0.01
_GRID = np.arange(-800.0, math.log(sys.float_info.max), _H)


def above_floor(spec, cert, absT):
    """The s of the dense grid where the envelope is within the budget
    log(1/tol) + 10 of its largest grid value.  g jumps at log rho, so
    the grid holds log rho and the next double above it."""
    s_rho = math.log(cert.rho)
    s = np.sort(np.append(_GRID, [s_rho, np.nextafter(s_rho, math.inf)]))
    g = envelope(spec, cert, absT, s)
    return s[g >= g.max() - math.log(1.0 / spec.tol) - 10.0]


class TestWindow:
    def test_holds_the_dense_grid_envelope(self, rng):
        """On random certificates, among them many that do not decay or
        need more than 200 log units, the window holds every grid s where the
        envelope is within the budget of its peak and ends within 0.5 (plus
        a grid step) past the outermost such s; a refusal matches the
        envelope: it does not decay (g is not, past rho, a concave
        quadratic or a falling line), or the s above the floor span more
        than 199 log units or run past the grid's top."""
        seen = {"window": 0, "does not decay": 0, "exceeds 200 log units": 0}
        for i in range(400):
            q, k = rng.uniform(1.05, 5.0), rng.uniform(0.2, 4.0)
            spec = QLaplaceSpec(q=q, k=k, direction=0.0,
                                tol=10 ** rng.uniform(-14, -4))
            absT = 10 ** rng.uniform(-6, 3)
            if i % 2:
                cert_k = rng.choice([0.0, rng.uniform(0.0, 2.0 * k)])
                alpha = rng.uniform(-3.0, 8.0)
            else:   # cert_k = k leaves g linear past rho, with this slope
                cert_k = k
                alpha = 0.5 - k * math.log(absT) / math.log(q) \
                    + rng.uniform(-0.3, 0.05)
            cert = GrowthCertificate(K=rng.uniform(0.1, 10.0), alpha=alpha,
                                     k=cert_k, rho=rng.uniform(0.2, 3.0))
            lq = math.log(q)
            a = (cert.k - spec.k) / (2.0 * lq)
            b = cert.alpha + spec.k * math.log(absT) / lq - 0.5
            if not (a < 0 or a == 0 and b < 0):
                seen["does not decay"] += 1
                with pytest.raises(ValueError, match="does not decay"):
                    _integration_window(spec, cert, absT)
                continue
            s = above_floor(spec, cert, absT)
            try:
                lo, hi = _integration_window(spec, cert, absT)
            except ValueError as exc:
                assert "exceeds 200 log units" in str(exc), exc
                seen["exceeds 200 log units"] += 1
                assert s[-1] - s[0] > 199.0 - 2 * _H or s[-1] == _GRID[-1]
                continue
            seen["window"] += 1
            assert lo <= s[0] and s[-1] <= hi
            assert lo >= s[0] - 0.5 - _H and hi <= s[-1] + 0.5 + _H
        assert min(seen.values()) >= 20, seen

    def test_holds_the_envelope_past_the_scan(self):
        """The envelope of this certificate stays above its floor out to
        s = 17.9, far past log rho + 2 = 2.87; a window that ends at 3.37
        leaves the transform of the function that saturates the
        certificate 1.6e-8 off."""
        q, k = 3.628387151367485, 0.37275668631574976
        spec = QLaplaceSpec(q=q, k=k, direction=0.0, tol=1.3587842721616303e-07)
        cert = GrowthCertificate(K=2.445902716728336, alpha=7.490920698342496,
                                 k=0.0, rho=2.3834168431869784)
        T = 1.2239346581572237e-06
        lo, hi = _integration_window(spec, cert, T)
        s = above_floor(spec, cert, T)
        assert s[-1] > 17.0
        assert lo <= s[0] and s[-1] <= hi

        def saturating(u):
            r = np.abs(u)
            return cert.K * np.where(r <= cert.rho, 1.0, r ** cert.alpha)
        value = qlaplace(spec, saturating, T, cert, enforce_domain=False).value
        wide, _, _ = log_contour_transform(saturating, q, k, T, 0j, 1.0,
                                           -60.0, 60.0, epsabs=0.0,
                                           epsrel=1e-14, limit=300)
        assert abs(value - wide) <= 1e-9 * abs(wide)

    def test_window_past_double_range_is_refused(self):
        """Where the window reaches e^s past the largest double, the envelope
        is not a bound there; the envelope is still above its floor at the
        last grid s below log of the largest double."""
        spec = QLaplaceSpec(q=2.0, k=1.0, direction=0.0)
        cert = GrowthCertificate(K=1.0, alpha=0.0, k=0.0)
        assert above_floor(spec, cert, 1e306)[-1] == _GRID[-1]
        with pytest.raises(ValueError, match="past double range"):
            _integration_window(spec, cert, 1e306)

    @pytest.mark.parametrize("alpha", [-3.0, -1.0])
    def test_growing_envelope_is_refused(self, alpha):
        """k_cert > k makes g(s) grow like s^2 past rho, so the transform
        of a function that saturates the certificate diverges, although
        g first falls past rho (at alpha = -3 a window that ends where it
        first falls below its floor was (-10.55, 6.0))."""
        spec = QLaplaceSpec(q=2.0, k=1.0, direction=0.0)
        cert = GrowthCertificate(K=1.0, alpha=alpha, k=1.2, rho=1.0)
        with pytest.raises(ValueError, match="does not decay"):
            _integration_window(spec, cert, 0.1)
        with pytest.raises(ValueError, match="does not decay"):
            qlaplace(spec, np.ones_like, 0.1, cert)


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


def scipy_contour(f, q, k, T, w0, dw, a, b, points=None):
    """The log-contour transform by scipy quad on the real and the
    imaginary part, one scalar node at a time.  epsabs = 0: an absolute
    floor would not resolve the deep pieces (the outer ray at |T| = 2^-7
    is about 5e-16)."""
    def g(x):
        u = cmath.exp(w0 + x * dw)
        return complex(f(np.array(u))) * complex(inv_theta_at(q, k, u / T))

    re, im = (quad(lambda x: part(g(x)), a, b, epsabs=0.0, epsrel=1e-13,
                   limit=400, points=points, full_output=1)[0]
              for part in (lambda z: z.real, lambda z: z.imag))
    return k / math.log(q) * dw * (re + 1j * im)


class TestBatchedRule:
    """log_contour_transform (panel-batched G10K21) against scipy quad."""

    @pytest.mark.parametrize("j", [3, 7])
    def test_model_pieces_match_scipy(self, monkeypatch, j):
        calls = []

        def recorded(f, q, k, T, w0, dw, a, b, **kw):
            out = log_contour_transform(f, q, k, T, w0, dw, a, b, **kw)
            calls.append(((f, q, k, T, complex(w0), complex(dw), a, b), out[0]))
            return out

        monkeypatch.setattr(model, "log_contour_transform", recorded)
        scn = model.default_scenario()
        p = scn.levels().index(1)
        lo, hi = scn.wedge(p)
        T = scn.probe_T(p, j)
        model.laplace_transform_shape(scn, p, T, 1e-12)
        model.outer_ray_piece(scn, p + 1, hi, T, 1e-11)
        model.arc_piece(scn, p, T, 1e-11)
        model.mid_segment_piece(scn, p, T, 1e-11)
        assert [c[0][5] for c in calls] == [1, 1, 1j, 1]  # ray, ray, arc, segment
        assert calls[2][0][6:] == (lo, hi)   # the arc spans the whole wedge
        for args, value in calls:
            # the arc's kernel changes branch at the mid-direction
            points = [scn.mid_direction(p)] if args[5] == 1j else None
            ref = scipy_contour(*args, points=points)
            assert abs(value - ref) <= 1e-12 * abs(ref)

    @pytest.mark.parametrize("q,k", [(2.0, 1.0), (3.0, 0.5), (2.0, 2.0)])
    def test_monomial_images_match_closed_form(self, q, k):
        T = 0.3 + 0.1j
        spec = QLaplaceSpec(q=q, k=k, direction=0.0)
        for n in range(6):
            cert = GrowthCertificate(K=1.0, alpha=float(n), k=0.0)
            res = qlaplace(spec, lambda u: u ** n, T, cert,
                           enforce_domain=False)
            exact = image_constant_oracle(q, k, n) * T ** n
            assert abs(res.value - exact) <= 1e-13 * abs(exact)

    def test_small_imaginary_part_meets_its_own_tolerance(self):
        """Im is 1e-6 of Re and has a kink: it must reach epsrel relative
        to itself, not to the modulus of the integral."""
        q, k, T, epsrel = 2.0, 1.0, 0.3, 1e-10

        def f(u):
            return 1.0 + 1e-6j * np.abs(np.log(np.abs(u)) - 0.3)

        value, _, _ = log_contour_transform(f, q, k, T, 0j, 1.0, -12.0, 8.0,
                                            epsabs=1e-300, epsrel=epsrel,
                                            limit=300)
        ref = scipy_contour(f, q, k, T, 0j, 1.0, -12.0, 8.0, points=[0.3])
        assert abs(ref.imag) < 1e-5 * abs(ref.real)
        assert abs(value.imag - ref.imag) <= epsrel * abs(ref.imag)
        assert abs(value.real - ref.real) <= epsrel * abs(ref.real)

    def test_panel_limit_raises(self):
        """An arc just inside a kernel pole needs more than 8 panels."""
        scn = model.default_scenario()
        fr = scn.frame
        T = scn.probe_T(0, 5)
        args = (lambda u: model.kernel_shape(scn, 0, u), fr.q, fr.k2, T,
                math.log(1.19), 1j, 0.0, math.pi / 2)
        with pytest.raises(QuadratureError,
                           match=r"1 contour .*worst at \|T\|=0\.0312 on "
                                 r"s in \[0, 1\.5708\].*limit=8") as info:
            log_contour_transform(*args, epsabs=1e-261, epsrel=1e-11, limit=8)
        assert info.value.component == 0
        value, _, _ = log_contour_transform(*args, epsabs=1e-261,
                                            epsrel=1e-11, limit=400)
        assert abs(value - scipy_contour(*args)) <= 1e-12 * abs(value)

        # three arcs in one call: only the one at |T| = 2^-5 passes the pole
        Ts = np.array([scn.probe_T(0, j) for j in (4, 5, 6)])
        batched = (args[0], fr.q, fr.k2, Ts, math.log(1.19), 1j,
                   np.array([-1.3, 0.0, -1.3]), np.array([-0.2, math.pi / 2, -0.2]))
        with pytest.raises(QuadratureError,
                           match=r"3 contours .*worst at \|T\|=0\.0312 on "
                                 r"s in \[0, 1\.5708\].*limit=8") as info:
            log_contour_transform(*batched, epsabs=1e-261, epsrel=1e-11, limit=8)
        assert info.value.component == 1

    @pytest.mark.parametrize("contour", ["ray", "arc"])
    def test_one_T_is_a_batch_of_one(self, contour):
        """A scalar T gives, bit for bit, element 0 of the same call on a
        one-element array."""
        scn = model.default_scenario()
        fr = scn.frame
        T = scn.probe_T(0, 5)
        w0, dw, a, b = ((0.25j, 1.0, -8.0, 1.5) if contour == "ray"
                        else (math.log(scn.rho), 1j, 0.0, math.pi / 2))
        f = lambda u: model.kernel_shape(scn, 0, u)
        kw = dict(epsabs=1e-261, epsrel=1e-11, limit=400)
        val, err, n = log_contour_transform(f, fr.q, fr.k2, T, w0, dw, a, b, **kw)
        vals, errs, ns = log_contour_transform(f, fr.q, fr.k2, np.array([T]), w0, dw,
                                               np.array([a]), np.array([b]), **kw)
        assert type(val) is complex and type(err) is float
        assert (val, err, n) == (vals[0], errs[0], ns)

    def test_overflowing_integrand_names_its_T(self):
        """u^2 overflows on the window at |T| = 1e154: a QuadratureError,
        not a NaN."""
        spec = QLaplaceSpec(q=2.0, k=1.0, direction=0.0)
        cert = GrowthCertificate(K=1.0, alpha=2.0, k=0.0)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(QuadratureError,
                               match=r"worst at \|T\|=1e\+154 .*non-finite"):
                qlaplace(spec, lambda u: u ** 2, 1e154, cert, enforce_domain=False)
        res = qlaplace(spec, lambda u: u ** 2, 1e150, cert, enforce_domain=False)
        assert res.value == pytest.approx(2e300, rel=1e-12)

    @pytest.mark.parametrize("j", [3, 7])
    def test_batched_pieces_match_scipy(self, monkeypatch, j):
        """One vector call on 3 T per ray, arc and segment contour matches
        the scalar oracle component by component."""
        calls = []

        def recorded(f, q, k, T, w0, dw, a, b, **kw):
            out = log_contour_transform(f, q, k, T, w0, dw, a, b, **kw)
            calls.append(((f, q, k, T, complex(w0), complex(dw), a, b), out[0]))
            return out

        monkeypatch.setattr(model, "log_contour_transform", recorded)
        scn = model.default_scenario()
        p = scn.levels().index(1)
        lo, hi = scn.wedge(p)
        Ts = np.array([scn.probe_T(p, j + i) for i in range(3)])
        model.outer_ray_piece(scn, p + 1, hi, Ts, 1e-11)
        model.arc_piece(scn, p, Ts, 1e-11)
        model.mid_segment_piece(scn, p, Ts, 1e-11)
        assert [c[0][5] for c in calls] == [1, 1j, 1]  # ray, arc, segment
        for (f, q, k, T, w0, dw, a, b), values in calls:
            assert values.shape == (3,)
            a, b = np.broadcast_to(a, 3), np.broadcast_to(b, 3)
            points = [scn.mid_direction(p)] if dw == 1j else None
            for i in range(3):
                ref = scipy_contour(f, q, k, T[i], w0, dw, a[i], b[i],
                                    points=points)
                assert abs(values[i] - ref) <= 1e-12 * abs(ref)
