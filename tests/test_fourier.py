import cmath
import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad, quad_vec

from qasym import equation
from qasym.equation import apply_equation_operator, default_spec, manufactured_problem
from qasym.fourier import (SQRT2PI, DecayProfile, QuadratureError,
                           complex_quad, default_profile_for, gaussian_symbol,
                           _gk21, _X21, inverse_fourier, make_symbol,
                           standard_symbol)
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

    @pytest.mark.parametrize("f", [
        lambda x: 1e200 * np.exp(1j * x),
        lambda x: 1e200 * np.exp(1j * x[..., None] * np.arange(1, 4)),
    ], ids=["scalar", "vector"])
    def test_huge_integrand_warns_nothing(self, f):
        """Squared errors past 1e154 overflow in the 2-norm test; the call
        neither warns nor loses its value."""
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            val, err, _ = complex_quad(f, 0.0, 1.0)
        exact = 1e200 * (np.exp(1j * np.arange(1, 4)) - 1.0) / (1j * np.arange(1, 4))
        assert np.all(np.abs(val - exact[:np.size(val)]) <= 1e-12 * 1e200)
        assert np.all(np.isfinite(err))

    @pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
    def test_non_finite_integrand_raises(self, bad):
        def scalar(x):
            return np.where(x > 0.6, bad, 1.0) * np.exp(1j * x)

        def vector(x):
            return np.stack([np.exp(1j * x), scalar(x), np.cos(x)], axis=-1)

        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(QuadratureError,
                               match=r"x in \[0.0, 1.0\]: the panel on \[0.5, 0.625\] "
                                     "integrates to a non-finite value") as info:
                complex_quad(scalar, 0.0, 1.0)
            assert info.value.component is None
            with pytest.raises(QuadratureError, match="non-finite") as info:
                complex_quad(vector, 0.0, 1.0)
            assert info.value.component == 1

    def test_points_cut_the_first_panels(self):
        # a jump at x = 1/3 falls on a panel edge only through the cut; the
        # 9 panels are then constant and one round integrates them exactly
        f = lambda x: np.where(x < 1.0 / 3.0, 1.0, 2.0j)
        val, _, n = complex_quad(f, 0.0, 1.0, points=(1.0 / 3.0,))
        assert n == 9 * 21
        assert val == pytest.approx(1.0 / 3.0 + 4.0j / 3.0, rel=1e-14)


class TestPointsMerge:
    """Cuts are filtered and merged with array operations; the edges, and
    so every output, are those of np.union1d on the interior cuts."""

    @staticmethod
    def f(x):
        # a kink at 0.37 that takes a few rounds of bisection
        return np.sqrt(np.abs(x - 0.37)) * np.exp(3j * x)

    @staticmethod
    def union1d_edges(a, b, points):
        cuts = [p for p in points if min(a, b) < p < max(a, b)]
        edges = np.linspace(a, b, 9)
        if cuts:
            edges = np.union1d(edges, cuts)[::1 if a < b else -1]
        return edges

    @pytest.mark.parametrize("a, b, points", [
        (0.0, 1.0, [0.3, 0.3, 0.7, 0.3]),
        (0.0, 1.0, (0.0, 0.5, 1.0)),
        (0.0, 1.0, [-1.0, 0.4, 2.0, 1.0 + 1e-12]),
        (0.0, 1.0, np.array([0.25, 0.6, 0.25])),
        (1.0, 0.0, [0.3, 0.3, 0.55, 1.0]),
        (1.0, 0.0, np.array([[0.8], [0.1]])),
        (-2.0, 3.0, [-2.0, 0.0, 0.0, 0.37, 7.0]),
    ], ids=["repeats", "endpoints", "outside", "array", "reversed",
            "reversed-2d-array", "on-edges"])
    def test_matches_union1d_longhand(self, a, b, points):
        calls = []

        def recorded(x):
            calls.append(x.copy())
            return self.f(x)
        val, err, n = complex_quad(recorded, a, b, points=points)

        edges = self.union1d_edges(a, b, np.ravel(points).tolist())
        lo, hi = edges[:-1], edges[1:]
        first = 0.5 * (lo + hi)[:, None] + 0.5 * (hi - lo)[:, None] * _X21
        assert calls[0].tobytes() == first.tobytes()
        # the same edges given as the distinct interior cuts, in order
        ref_val, ref_err, ref_n = complex_quad(self.f, a, b,
                                               points=tuple(edges[1:-1]))
        assert len(calls) > 1 and n == ref_n
        assert (val, err) == (ref_val, ref_err)

    @pytest.mark.parametrize("a, b", [(0.0, 1.0), (1.0, 0.0), (-54.3, 54.3),
                                      (0, 3), (-1.5, -0.2), (2.5, 2.5),
                                      (0.0, 1e-323), (-1e300, 1e300)])
    def test_uniform_start_matches_linspace(self, a, b):
        # the 8 starting panels come from a closed form of np.linspace,
        # which divides first when the step underflows (the 1e-323 range)
        calls = []
        complex_quad(lambda x: calls.append(x.copy()) or np.exp(1j * x), a, b,
                     epsabs=math.inf)
        edges = np.linspace(a, b, 9)
        lo, hi = edges[:-1], edges[1:]
        first = 0.5 * (lo + hi)[:, None] + 0.5 * (hi - lo)[:, None] * _X21
        assert calls[0].tobytes() == first.tobytes()


class TestGK21Rule:
    """_gk21 on single panels against QUADPACK's qk21: scipy quad with
    limit=1 stops after the first 21-point rule on [a, b]."""

    PANELS = [(0.0, 1.0), (0.3, 2.9), (-1.5, -0.2)]
    FUNCS = [lambda x: np.exp(3j * x) * np.sqrt(x + 2.0),
             lambda x: np.cos(x) / (1.0 + x * x) + 1j * np.exp(-x),
             lambda x: x ** 7 - 2j * x ** 3,
             lambda x: 1.0 / (x + 1.6 + 0.5j)]

    @staticmethod
    def qk21(f, a, b):
        val, err, info = quad(f, a, b, limit=1, full_output=1)[:3]
        assert info["neval"] == 21
        return val, err

    @pytest.mark.parametrize("funcs", [FUNCS[:1], FUNCS[1:2], FUNCS],
                             ids=["one", "another", "batch"])
    def test_matches_quadpack_qk21(self, funcs):
        lo, hi = np.array(self.PANELS).T
        half = 0.5 * (hi - lo)[:, None]
        x = 0.5 * (lo + hi)[:, None] + half * _X21
        fv = np.stack([f(x) for f in funcs], axis=-1)
        value, error, _ = _gk21(fv.view(float), half)
        assert value.shape == error.shape == (len(self.PANELS), 2 * len(funcs))
        for i, (a, b) in enumerate(self.PANELS):
            for j, f in enumerate(funcs):
                for k, part in enumerate((np.real, np.imag)):
                    val, err = self.qk21(lambda s: float(part(f(s))), a, b)
                    assert value[i, 2 * j + k] == pytest.approx(val, rel=4e-15)
                    # the estimate rests on the Kronrod sum minus the Gauss
                    # sum, equal to about 1e-9 of either here, so a
                    # rounding in their last digit shows at about 1e-7
                    assert error[i, 2 * j + k] == pytest.approx(err, rel=1e-6)


class TestDecayProfile:
    def test_envelope_dominates_standard_symbol(self, rng):
        beta, mu = 1.3, 3.5
        f = standard_symbol(beta, mu)
        prof = DecayProfile(C=1.0, mu=mu, beta=beta)
        for m in rng.uniform(-40, 40, size=200):
            assert abs(f(m)) <= float(prof.bound(m)) * (1 + 1e-12)

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
            res = inverse_fourier(gaussian_symbol(), z, prof, tol=1e-12)
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

    @pytest.mark.parametrize("beta, mu, z", [(1.0, 3.0, 0.7), (1.0, 3.0, -0.4 + 0.3j),
                                             (0.6, 2.5, 1.9), (0.6, 2.5, 0.5 - 0.25j)])
    def test_standard_symbol_against_mpmath(self, beta, mu, z):
        # oracle: mpmath quad at 30 digits over the whole line, split at
        # the kink m = 0; it shares nothing with complex_quad or the cutoff
        res = inverse_fourier(standard_symbol(beta, mu), z,
                              DecayProfile(C=1.0, mu=mu, beta=beta), tol=1e-12)
        with mpmath.workdps(30):
            zm = mpmath.mpc(z)
            g = lambda m: (1 + abs(m)) ** -mu * mpmath.exp(-beta * abs(m) + 1j * zm * m)
            exact = complex(mpmath.quad(g, [-mpmath.inf, 0, mpmath.inf])
                            / mpmath.sqrt(2 * mpmath.pi))
        assert abs(res.value - exact) <= res.error_estimate <= 2e-12

    def test_residual_point_converges_in_one_round(self, monkeypatch):
        """One residual point evaluates its stacked symbol once, on the 16
        graded panels (336 nodes): the 8 uniform ones cut at 0 and at
        +-M/2^j, j = 3, 4, ..., down to the first cut at most 1."""
        calls, cutoffs = [], []

        def traced(f, z, profile, tol=1e-12):
            res = inverse_fourier(lambda m: calls.append(m) or f(m), z, profile,
                                  tol)
            cutoffs.append(res.cutoff)
            return res
        monkeypatch.setattr(equation, "inverse_fourier", traced)
        spec = default_spec()
        U, profile_U, series = manufactured_problem(spec, a=0)
        r = apply_equation_operator(spec, series, U, profile_U,
                                    0.12 * cmath.exp(0.2j), 0.3, 0.1 * cmath.exp(0.5j))
        assert abs(r) <= 1e-8
        assert len(cutoffs) == 1 and len(calls) == 1
        m, M = calls[0], cutoffs[0]
        assert m.shape == (16, 21)
        # each panel's 21 nodes run from centre - x1 half to centre + x1 half,
        # x1 the outermost Kronrod node
        centre, half = m[:, 10], (m[:, -1] - m[:, 0]) / (2 * 0.995657163025808080735527280689)
        lo, hi = centre - half, centre + half
        assert hi[:-1] == pytest.approx(lo[1:], abs=1e-12 * M)   # in order, no gaps
        edges = np.append(lo, hi[-1])
        assert edges == pytest.approx(-edges[::-1], abs=1e-12 * M)
        assert edges[[0, -1]] == pytest.approx([-M, M], rel=1e-12)
        j = max(3, math.ceil(math.log2(M)))
        assert M / 2 ** j <= 1.0 < M / 2 ** (j - 1)
        assert np.diff(edges).min() >= M / 2 ** j * (1 - 1e-9)

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
        prof = DecayProfile(C=1.0, mu=3.0, beta=1.0)     # strip |Im z| < 0.5
        f = standard_symbol(1.0, 3.0)
        with pytest.raises(ValueError, match="strip"):
            inverse_fourier(f, 0.3 + 0.9j, prof)

    @pytest.mark.parametrize("C, tol", [(1.0, math.nan), (1.0, math.inf),
                                        (math.inf, 1e-12)],
                             ids=["tol-nan", "tol-inf", "C-inf"])
    def test_non_finite_cutoff_raises(self, C, tol):
        prof = DecayProfile(C=C, mu=3.0, beta=1.0)
        with pytest.raises(ValueError, match="is not finite"):
            inverse_fourier(standard_symbol(1.0, 3.0), 0.3, prof, tol=tol)

    @given(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0), st.floats(-0.4, 0.4))
    def test_linearity(self, a, b, zi):
        z = 0.4 + zi * 1j
        prof = DecayProfile(C=3.0, mu=3.0, beta=1.0)
        f = standard_symbol(1.0, 3.0)
        g = make_symbol("oscillating", 1.0, 3.0)
        fg = lambda m: a * f(m) + b * g(m)
        lhs = inverse_fourier(fg, z, prof, tol=1e-11).value
        rhs = a * inverse_fourier(f, z, prof, tol=1e-11).value \
            + b * inverse_fourier(g, z, prof, tol=1e-11).value
        assert lhs == pytest.approx(rhs, rel=1e-8, abs=1e-9)


class TestVectorSymbol:
    """A vector symbol: one profile per component, one complex_quad call."""

    PROFILES = (DecayProfile(C=1.0, mu=3.0, beta=1.0),
                DecayProfile(C=1.0, mu=3.0, beta=1.4),
                default_profile_for("gaussian", 1.2, 3.0),
                DecayProfile(C=50.0, mu=2.5, beta=1.1))
    SYMBOLS = (standard_symbol(1.0, 3.0), make_symbol("oscillating", 1.4, 3.0),
               gaussian_symbol(), lambda m: 50.0 * standard_symbol(1.1, 2.5)(m))

    @staticmethod
    def stacked(symbols):
        return lambda m: np.stack([s(m) for s in symbols], axis=-1)

    @pytest.mark.parametrize("z", [0.0, 0.3, -1.7, 0.2 + 0.3j, 1.1 - 0.45j])
    def test_each_component_matches_its_scalar_call(self, z):
        tol = 1e-12
        res = inverse_fourier(self.stacked(self.SYMBOLS), z, self.PROFILES, tol=tol)
        assert res.value.shape == res.error_estimate.shape == (len(self.SYMBOLS),)
        for i, (f, prof) in enumerate(zip(self.SYMBOLS, self.PROFILES)):
            one = inverse_fourier(f, z, prof, tol=tol)
            assert abs(res.value[i] - one.value) <= tol
            assert res.error_estimate[i] >= tol

    @pytest.mark.parametrize("name, z", [("standard", 0.2), ("gaussian", 0.3 + 0.2j),
                                         ("oscillating", -1.5 - 0.4j)])
    def test_scalar_symbol_is_a_batch_of_one(self, name, z):
        """A scalar symbol gives, bit for bit, element 0 of the same symbol
        as a vector with one component."""
        f, prof = make_symbol(name, 1.0, 2.0), default_profile_for(name, 1.0, 2.0)
        one = inverse_fourier(f, z, prof)
        batch = inverse_fourier(lambda m: f(m)[..., None], z, [prof])
        assert type(one.value) is complex and type(one.error_estimate) is float
        assert one.value == batch.value[0]
        assert one.error_estimate == batch.error_estimate[0]
        assert (one.nodes_used, one.cutoff) == (batch.nodes_used, batch.cutoff)

    def test_cutoff_is_the_largest_component_cutoff(self):
        res = inverse_fourier(self.stacked(self.SYMBOLS), 0.3, self.PROFILES,
                              tol=1e-10)
        cutoffs = [p.cutoff(0.5, 1e-10) for p in self.PROFILES]
        assert res.cutoff == max(cutoffs)
        assert len(set(cutoffs)) == len(cutoffs)   # the max is a real choice

    def test_strip_is_judged_against_the_smallest_beta(self):
        f = self.stacked(self.SYMBOLS[1:])
        profiles = self.PROFILES[1:]                 # betas 1.4, 1.2, 1.1
        assert inverse_fourier(f, 0.3 + 0.5j, profiles).cutoff > 0
        with pytest.raises(ValueError, match="strip"):
            inverse_fourier(f, 0.3 + 0.56j, profiles)   # strip 0.55

    def test_component_count_must_match_profiles(self):
        with pytest.raises(ValueError, match="2 profiles"):
            inverse_fourier(self.stacked(self.SYMBOLS[:3]), 0.3, self.PROFILES[:2])
