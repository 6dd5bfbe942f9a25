import cmath
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad, quad_vec

from qasym.equation import default_spec, manufactured_problem
from qasym.fourier import (SQRT2PI, DecayProfile, HorizontalStrip, QuadratureError,
                           complex_quad, default_profile_for, gaussian_symbol,
                           inverse_fourier, make_symbol, standard_symbol)
from qasym.geometry import polyval_im


def sqrt_oscillators(x):
    """sqrt(x) e^{i n x}, n = 1..16: a vector integrand with a square-root
    endpoint at 0, where the Kronrod error estimate is close to the true
    error, so a loose stopping test shows in the result."""
    return np.sqrt(x)[..., None] * np.exp(1j * x[..., None] * np.arange(1, 17))


def log_oscillators(x):
    """x^0.3 log(x) e^{i n x / 2}, n = 1..10: a second endpoint singularity."""
    return ((x ** 0.3 * np.log(x))[..., None]
            * np.exp(0.5j * x[..., None] * np.arange(1, 11)))


class TestComplexQuad:
    def test_closed_form_oscillator(self):
        # oracle: int_0^1 e^{ix} dx = (e^i - 1)/i
        val, err, _ = complex_quad(lambda x: np.exp(1j * x), 0.0, 1.0)
        exact = (cmath.exp(1j) - 1.0) / 1j
        assert val == pytest.approx(exact, rel=1e-12)
        assert abs(val - exact) <= max(err, 1e-13)

    def test_matches_scipy_componentwise(self):
        f = lambda x: np.exp(-x * x) * (np.cos(3 * x) + 1j * x)
        val, _, _ = complex_quad(f, -2.0, 5.0)
        re, _ = quad(lambda x: f(x).real, -2.0, 5.0)
        im, _ = quad(lambda x: f(x).imag, -2.0, 5.0)
        assert val == pytest.approx(re + 1j * im, rel=1e-12)

    def test_vector_integrand_matches_quad_vec(self):
        # oracle: scipy quad_vec, one node at a time, at a far tighter
        # tolerance.  quad_vec's own test at 1e-9 leaves about 3e-13 here;
        # the per-part test alone stops a round early, at about 3e-12.
        ref, _ = quad_vec(lambda s: sqrt_oscillators(np.array([s]))[0],
                          0.0, 1.0, epsabs=0.0, epsrel=1e-13)
        val, _, _ = complex_quad(sqrt_oscillators, 0.0, 1.0, epsabs=1e-9,
                                 epsrel=1e-9)
        assert val.shape == (16,)
        assert np.linalg.norm(val - ref) <= 1e-12 * np.linalg.norm(ref)

    @pytest.mark.parametrize("f", [sqrt_oscillators, log_oscillators],
                             ids=["sqrt", "log"])
    @pytest.mark.parametrize("tol", [1e-8, 1e-9, 1e-10])
    def test_vector_error_meets_quad_vec_target(self, f, tol):
        val, err, _ = complex_quad(f, 0.0, 1.0, epsabs=tol, epsrel=tol)
        assert err.shape == val.shape
        assert np.linalg.norm(err) <= max(tol, tol * np.linalg.norm(val))

    def test_panel_limit_raises(self):
        # a Lorentz peak of width 1e-4: 8 panels cannot resolve it
        f = lambda x: 1.0 / ((x - 0.3) ** 2 + 1e-8)
        with pytest.raises(QuadratureError, match=r"x in \[0.0, 1.0\].*limit=8"):
            complex_quad(f, 0.0, 1.0, limit=8)
        val, _, _ = complex_quad(f, 0.0, 1.0)
        exact = 1e4 * (math.atan(0.7e4) + math.atan(0.3e4))
        assert val == pytest.approx(exact, rel=1e-11)

    def test_points_cut_the_first_panels(self):
        # a jump at x = 1/3 falls on a panel edge only through the cut; the
        # 9 panels are then constant and one round integrates them exactly
        f = lambda x: np.where(x < 1.0 / 3.0, 1.0, 2.0j)
        val, _, n = complex_quad(f, 0.0, 1.0, points=(1.0 / 3.0,))
        assert n == 9 * 21
        assert val == pytest.approx(1.0 / 3.0 + 4.0j / 3.0, rel=1e-14)


class TestDecayProfile:
    def test_envelope_dominates_standard_symbol(self, rng):
        beta, mu = 1.3, 3.5
        f = standard_symbol(beta, mu)
        prof = DecayProfile(C=1.0, mu=mu, beta=beta)
        for m in rng.uniform(-40, 40, size=200):
            assert abs(f(m)) <= float(prof.bound(m)) * (1 + 1e-12)
        ok, worst, _ = prof.certify(f, rng.uniform(-40, 40, size=400))
        assert ok and worst <= 1.0 + 1e-12

    def test_certify_flags_violations(self):
        prof = DecayProfile(C=1.0, mu=3.0, beta=1.0)
        too_big = lambda m: 3.0 * np.exp(-np.abs(m))
        ok, worst, _ = prof.certify(too_big, np.linspace(-5, 5, 101))
        assert not ok and worst > 1.0

    def test_cutoff_controls_true_tail(self):
        # oracle: numeric strip-weighted tail of the envelope itself
        prof = DecayProfile(C=2.0, mu=3.0, beta=0.7)
        for bprime in (0.0, 0.3):
            for tol in (1e-8, 1e-12):
                M = prof.cutoff(bprime, tol)
                tail, _ = quad(lambda m: float(prof.bound(m))
                               * math.exp(bprime * m), M, np.inf)
                assert 2.0 / SQRT2PI * tail <= tol * (1 + 1e-6)

    def test_validation(self):
        with pytest.raises(ValueError):
            DecayProfile(C=1.0, mu=0.9, beta=1.0)   # needs mu > 1
        with pytest.raises(ValueError):
            DecayProfile(C=1.0, mu=2.0, beta=-1.0)
        with pytest.raises(ValueError):
            DecayProfile(C=0.0, mu=2.0, beta=1.0)


class TestInverseFourier:
    def test_gaussian_closed_form(self):
        # oracle: (2pi)^{-1/2} int e^{-m^2} e^{izm} dm = e^{-z^2/4}/sqrt(2)
        prof = default_profile_for("gaussian", 1.0, 3.0)
        for z in (0.0, 0.5, -1.2, 0.3 + 0.2j, 2.0 - 0.4j):
            res = inverse_fourier(gaussian_symbol(), z, prof,
                                  strip=HorizontalStrip(0.5), tol=1e-12)
            exact = cmath.exp(-z * z / 4.0) / math.sqrt(2.0)
            assert res.value == pytest.approx(exact, rel=1e-9, abs=1e-11)

    def test_standard_symbol_against_direct_quadrature(self):
        beta, mu = 1.0, 3.0
        f = standard_symbol(beta, mu)
        prof = DecayProfile(C=1.0, mu=mu, beta=beta)
        for z in (0.0, 1.0, -2.5):
            res = inverse_fourier(f, z, prof, tol=1e-12)
            re, _ = quad(lambda m: (f(m) * cmath.exp(1j * z * m)).real,
                         -np.inf, np.inf, limit=400)
            assert res.value.real == pytest.approx(re / SQRT2PI, abs=1e-9)
            assert abs(res.value.imag) < 1e-9   # even symbol, real z

    def test_manufactured_symbols_against_scipy_quad(self, rng):
        # oracle: scipy quad on the real and the imaginary part of each
        # half of [-M, M], one node at a time
        spec = default_spec()
        U, profile_U, _ = manufactured_problem(spec, a=1)
        q = spec.frame.q
        for _ in range(5):
            # a point of the 125-point acceptance sweep's ranges
            t = rng.uniform(0.08, 0.16) * cmath.exp(1j * rng.uniform(-0.35, 0.9))
            z = rng.uniform(-0.7, 0.7)
            eps = rng.uniform(0.06, 0.18) * cmath.exp(1j * rng.uniform(-0.7, 2.0))
            for P in (spec.Q, spec.RD1, spec.RD2):
                symbol = lambda m: polyval_im(P, m) * U(q * t, m, eps)
                prof = DecayProfile(C=sum(abs(c) for c in P),
                                    mu=profile_U.mu - (len(P) - 1),
                                    beta=profile_U.beta)
                res = inverse_fourier(symbol, z, prof, tol=1e-12)
                g = lambda m: complex(symbol(m) * cmath.exp(1j * z * m))
                oracle = 0j
                for lo, hi in ((-res.cutoff, 0.0), (0.0, res.cutoff)):
                    re, _ = quad(lambda m: g(m).real, lo, hi, epsabs=1e-16,
                                 epsrel=1e-13, limit=400)
                    im, _ = quad(lambda m: g(m).imag, lo, hi, epsabs=1e-16,
                                 epsrel=1e-13, limit=400)
                    oracle += re + 1j * im
                assert res.value == pytest.approx(oracle / SQRT2PI, rel=1e-12)

    def test_error_estimate_is_honest(self):
        prof = default_profile_for("gaussian", 1.0, 3.0)
        res = inverse_fourier(gaussian_symbol(), 0.7, prof, tol=1e-10)
        exact = cmath.exp(-0.7 * 0.7 / 4.0) / math.sqrt(2.0)
        assert abs(res.value - exact) <= 10.0 * res.error_estimate + 1e-15

    def test_cutoff_grows_as_tol_shrinks(self):
        prof = DecayProfile(C=1.0, mu=3.0, beta=1.0)
        f = standard_symbol(1.0, 3.0)
        r1 = inverse_fourier(f, 0.3, prof, tol=1e-6)
        r2 = inverse_fourier(f, 0.3, prof, tol=1e-12)
        assert r2.cutoff > r1.cutoff

    def test_strip_limits_imaginary_part(self):
        prof = DecayProfile(C=1.0, mu=3.0, beta=1.0)
        strip = HorizontalStrip(0.5)
        f = standard_symbol(1.0, 3.0)
        with pytest.raises(ValueError):
            inverse_fourier(f, 0.3 + 0.9j, prof, strip=strip)

    @given(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0), st.floats(-0.4, 0.4))
    def test_linearity(self, a, b, zi):
        z = 0.4 + zi * 1j
        prof = DecayProfile(C=3.0, mu=3.0, beta=1.0)
        strip = HorizontalStrip(0.6)
        f = standard_symbol(1.0, 3.0)
        g = make_symbol("oscillating", 1.0, 3.0)
        fg = lambda m: a * f(m) + b * g(m)
        lhs = inverse_fourier(fg, z, prof, strip=strip, tol=1e-11).value
        rhs = a * inverse_fourier(f, z, prof, strip=strip, tol=1e-11).value \
            + b * inverse_fourier(g, z, prof, strip=strip, tol=1e-11).value
        assert lhs == pytest.approx(rhs, rel=1e-8, abs=1e-9)
