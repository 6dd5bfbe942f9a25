import cmath
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qasym import equation
from qasym.equation import (CoefficientSeries, EquationSpec, EquationTerm,
                            apply_equation_operator, assemble_coefficients,
                            default_series, default_spec, dilate,
                            manufactured_problem, poly_abs_sum, poly_degree,
                            residual_sweep, validate_hypotheses,
                            write_residual_csv)
from qasym.fourier import DecayProfile, inverse_fourier
from qasym.frames import QFrame
from qasym.geometry import polyval_im


def spec_with(**overrides) -> EquationSpec:
    base = default_spec()
    fields = dict(frame=base.frame, d_D1=base.d_D1, d_D2=base.d_D2, Q=base.Q,
                  RD1=base.RD1, RD2=base.RD2, terms=base.terms, mu=base.mu,
                  beta=base.beta)
    fields.update(overrides)
    return EquationSpec(**fields)


def failing_names(spec) -> set:
    rep = validate_hypotheses(spec)
    return {c.name for c in rep.structure + rep.spectral if not c.ok}


class TestPolynomials:
    def test_degree_ignores_trailing_zeros(self):
        assert poly_degree((1.0, 2.0, 0.0)) == 1
        assert poly_degree((0.0,)) == -1
        assert poly_degree((5.0,)) == 0

    def test_abs_sum(self):
        assert poly_abs_sum((1.0, -2.0, 3.0)) == 6.0


class TestDilation:
    @given(st.integers(-4, 4), st.integers(1, 4))
    def test_exact_rational_exponent(self, num, den):
        expo = Fraction(num, den)
        t = 0.3 + 0.4j
        out = dilate(t, 2.0, expo)
        assert out == pytest.approx(2.0 ** (num / den) * t, rel=1e-15)

    def test_known_values(self):
        assert dilate(0.25, 4.0, Fraction(3, 2)) == pytest.approx(2.0, rel=1e-15)
        assert dilate(1.0, 2.0, Fraction(0)) == 1.0


class TestHypothesesSuite:
    """Base case plus eleven single-fault mutants: every condition must
    fire exactly when its hypothesis is broken (twelve cases total)."""

    def test_01_base_case_clean(self):
        assert failing_names(default_spec()) == set()

    def test_02_first_exponent_not_one(self):
        bad = spec_with(terms=(EquationTerm(Delta=2, d=2, delta=2, R=(1.0,)),))
        names = failing_names(bad)
        assert "delta_1 == 1" in names or "delta_1 == 1 (reverse)" in names

    def test_03_exponents_not_increasing(self):
        bad = spec_with(terms=(EquationTerm(Delta=1, d=0, delta=1),
                               EquationTerm(Delta=2, d=2, delta=1)))
        assert "delta_l < delta_{l+1}" in failing_names(bad)

    def test_04_eps_power_below_t_power(self):
        bad = spec_with(terms=(EquationTerm(Delta=1, d=0, delta=1),
                               EquationTerm(Delta=1, d=2, delta=2)))
        assert failing_names(bad) == {"Delta_l >= d_l"}

    def test_05_mixed_level_balance_violated(self):
        bad = spec_with(terms=(EquationTerm(Delta=1, d=0, delta=1),
                               EquationTerm(Delta=2, d=1, delta=2)))
        assert failing_names(bad) == {"(d_D1-1)/kappa + d_l/k2 + 1 >= delta_l"}

    def test_06_slow_level_balance_violated(self):
        bad = spec_with(d_D1=3, d_D2=8,
                        terms=(EquationTerm(Delta=1, d=0, delta=1),
                               EquationTerm(Delta=2, d=0, delta=2)))
        assert failing_names(bad) == {"d_l/k1 + 1 >= delta_l"}

    def test_07_fast_dilation_budget_violated(self):
        bad = spec_with(terms=(EquationTerm(Delta=1, d=0, delta=1),
                               EquationTerm(Delta=4, d=4, delta=Fraction(11, 4))))
        assert failing_names(bad) == {"(d_D2-1)/k2 >= delta_l - 1"}

    def test_08_level_separation_not_strict(self):
        bad = spec_with(d_D2=3,
                        terms=(EquationTerm(Delta=1, d=0, delta=1),
                               EquationTerm(Delta=2, d=2, delta=2)))
        assert failing_names(bad) == {"k1*(d_D2-1) > k2*d_D1"}

    def test_09_principal_symbol_vanishes(self):
        bad = spec_with(Q=(0.0, 0.0, 1.0))
        assert failing_names(bad) == {"Q(im) != 0 on m-grid"}

    def test_10_degree_ordering_broken(self):
        bad = spec_with(Q=(2.0,), terms=(EquationTerm(Delta=1, d=0, delta=1),))
        assert failing_names(bad) == {"deg Q >= deg RD1"}

    def test_11_dilation_symbols_mismatched(self):
        bad = spec_with(RD2=(5.0, 2.0, 1.0))
        assert failing_names(bad) == {"deg RD1 == deg RD2"}

    def test_12_decay_budget_too_small(self):
        bad = spec_with(mu=2.0)
        assert failing_names(bad) == {"mu > deg RD1 + 1"}

    def test_margins_exact_for_rational_input(self):
        rep = validate_hypotheses(default_spec())
        for c in rep.structure:
            # exact rational arithmetic: margins are representable floats
            assert float(c.margin) == c.margin
            assert c.margin * 4 == int(c.margin * 4)  # quarters at worst here

    def test_report_serializes(self):
        rep = validate_hypotheses(default_spec())
        d = rep.to_dict()
        assert d["structure_ok"] and d["spectral_ok"]
        assert len(d["structure"]) == len(rep.structure)


class TestSpecSerialization:
    def test_json_round_trip_preserves_fractions(self):
        spec = spec_with(terms=(EquationTerm(Delta=1, d=0, delta=1),
                                EquationTerm(Delta=3, d=2,
                                             delta=Fraction(5, 2))))
        back = EquationSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert back.to_dict() == spec.to_dict()
        assert back.terms[1].delta == Fraction(5, 2)

    def test_dilation_exponents(self):
        spec = default_spec()
        # dD_j/k_j + 1 computed exactly
        assert spec.dilation_exponent(1) == Fraction(2)
        assert spec.dilation_exponent(2) == Fraction(3)

    def test_rejects_nonpositive_dilation_power(self):
        with pytest.raises(ValueError):
            spec_with(d_D1=0)


class TestCoefficientFamily:
    def test_default_series_saturates_envelopes(self):
        spec = default_spec()
        series = default_series(spec)
        ok, worst = series.certify_envelopes(np.linspace(-6, 6, 61),
                                             [0.1, 0.2 + 0.1j])
        assert ok
        assert worst == pytest.approx(1.0, abs=1e-9)

    def test_truncation_point_honest_quadratic(self):
        spec = default_spec()
        series = default_series(spec)
        tol = 1e-12
        for x in (0.05, 0.2, 0.5):
            P = series.truncation_point(x, True, tol)
            # oracle: brute tail of the envelope series, 60 extra terms
            tail = sum(series.coeff_envelope(0, p) * x ** p
                       for p in range(P + 1, P + 61))
            assert tail <= tol

    def test_truncation_point_honest_geometric(self):
        # the claim is about the assembled inverse transform, so the true
        # dropped quantity carries the symbol's integrated m-mass:
        # (2pi)^{-1/2} int (1+|m|)^{-mu} e^{-beta|m|} dm  times the power tail
        from scipy.integrate import quad

        spec = default_spec()
        series = default_series(spec)
        tol = 1e-10
        x = 0.3
        P = series.truncation_point(x, False, tol)
        mass, _ = quad(lambda m: (1 + abs(m)) ** -spec.mu
                       * math.exp(-spec.beta * abs(m)), -np.inf, np.inf)
        power_tail = sum(series.forcing_envelope(p) * x ** p
                         for p in range(P + 1, P + 400))
        assert mass / math.sqrt(2 * math.pi) * power_tail <= tol * 1.01

    def test_truncation_rejects_divergent_geometric(self):
        spec = default_spec()
        series = default_series(spec, T0=1.0)
        with pytest.raises(ValueError):
            series.truncation_point(1.2, False, 1e-10)

    def test_assemble_matches_separable_oracle(self):
        # single-term family with a pure-Gaussian symbol at p = 0 only:
        # the assembled coefficient is exactly the inverse transform
        # e^{-z^2/4}/sqrt(2), and the forcing mirrors it
        spec = default_spec()
        grid = np.linspace(0, 60, 6001)
        cg = float(np.max(np.exp(-grid ** 2) * (1 + grid) ** spec.mu
                          * np.exp(spec.beta * grid)))

        def C_fn(l, p, m, eps):
            m = np.asarray(m, dtype=float)
            return np.exp(-m * m) if p == 0 else np.zeros_like(m)

        def F_fn(p, m, eps):
            return C_fn(0, p, m, eps)

        series = CoefficientSeries(frame=spec.frame, T0=1.0, mu=spec.mu,
                                   beta=spec.beta, DC=(cg,) * len(spec.terms),
                                   DF=cg, C_fn=C_fn, F_fn=F_fn)
        cs, f = assemble_coefficients(series, t=0.1, z=0.4, eps=0.2)
        exact = cmath.exp(-0.4 ** 2 / 4.0) / math.sqrt(2.0)
        for c in cs:
            assert c == pytest.approx(exact, rel=1e-9)
        assert f == pytest.approx(exact, rel=1e-9)


class TestManufactured:
    @pytest.mark.parametrize("a", [0, 2])
    def test_residual_at_machine_precision(self, a):
        spec = default_spec()
        U, profile_U, series = manufactured_problem(spec, a=a)
        res = apply_equation_operator(spec, series, U, profile_U,
                                      t=0.12 * cmath.exp(0.3j), z=0.3,
                                      eps=0.15 * cmath.exp(0.7j))
        assert abs(res) < 1e-10

    @pytest.mark.parametrize("a", [-1, -2])
    def test_negative_power_is_refused(self, a):
        # the forcing series holds powers p >= 0 only, so the packet at
        # power a < 0 would be dropped and the residual would not vanish
        with pytest.raises(ValueError, match="power a must be >= 0"):
            manufactured_problem(default_spec(), a=a)

    def test_sweep_and_csv(self, tmp_path):
        spec = default_spec()
        U, profile_U, series = manufactured_problem(spec, a=0)
        rows = residual_sweep(spec, series, U, profile_U,
                              [0.1], [0.0, 0.4], [0.1])
        assert len(rows) == 2
        assert max(r[-1] for r in rows) < 1e-10
        path = str(tmp_path / "res.csv")
        write_residual_csv(path, rows)
        text = open(path).read().splitlines()
        assert text[0] == "Re t,Im t,Re z,Im z,Re eps,Im eps,abs residual"
        assert len(text) == 3


class TestPerSpecSetUp:
    """Values that depend only on the spec or on profile_U are computed
    once; the residual stays what the per-point computation gives."""

    def test_list_polynomials_match_tuples(self):
        spec = default_spec()
        listed = EquationSpec(
            frame=spec.frame, d_D1=spec.d_D1, d_D2=spec.d_D2, Q=list(spec.Q),
            RD1=list(spec.RD1), RD2=list(spec.RD2),
            terms=tuple(EquationTerm(Delta=t.Delta, d=t.d, delta=t.delta,
                                     R=list(t.R)) for t in spec.terms),
            mu=spec.mu, beta=spec.beta)
        U, profile_U, _ = manufactured_problem(spec, a=1)
        series = default_series(spec)       # c_l != 0: every term counts
        for t, z, eps in [(0.12 * cmath.exp(0.3j), 0.3, 0.15 * cmath.exp(0.7j)),
                          (0.1, -0.5, 0.08)]:
            want = apply_equation_operator(spec, series, U, profile_U, t, z, eps)
            got = apply_equation_operator(listed, series, U, profile_U, t, z, eps)
            assert (got.real.hex(), got.imag.hex()) == (want.real.hex(),
                                                        want.imag.hex())

    def test_dilation_scales_round_as_dilate(self):
        spec = default_spec()
        q = spec.frame.q
        expos = [spec.dilation_exponent(1), spec.dilation_exponent(2),
                 *(Fraction(t.delta) for t in spec.terms)]
        assert spec.dilation_scales == tuple(dilate(1.0, q, e) for e in expos)
        t = 0.11 * cmath.exp(0.4j)
        for s, e in zip(spec.dilation_scales, expos):
            assert s * t == dilate(t, q, e)

    def test_poly_profile_refuses_weak_kernels_every_time(self):
        # mu - deg = 1 exactly is refused too; trailing zeros add no degree
        base = DecayProfile(C=1.0, mu=3.0, beta=1.0)
        for coeffs in [(1.0, 0.0, 2.0), [1.0, 0.0, 2.0], (0.0, 0.0, 1.0, 0.0, 0.0)]:
            for _ in range(2):      # a refusal is not memoized as a profile
                with pytest.raises(ValueError, match=r"mu - deg = 1\.0 <= 1"):
                    equation._poly_profile(base, coeffs)
        ok = equation._poly_profile(base, [2.0, -1.0])
        assert ok == DecayProfile(C=3.0, mu=2.0, beta=1.0)
        assert equation._poly_profile(base, (2.0, -1.0)) is ok


class TestOneTransformPerPoint:
    def test_operator_makes_one_inverse_fourier_call(self, monkeypatch):
        calls = []
        real = equation.inverse_fourier

        def counted(f, *args, **kwargs):
            calls.append(f)
            return real(f, *args, **kwargs)
        monkeypatch.setattr(equation, "inverse_fourier", counted)
        spec = default_spec()
        U, profile_U, series = manufactured_problem(spec, a=1)
        points = [(0.12 * cmath.exp(0.3j), 0.3, 0.15 * cmath.exp(0.7j)),
                  (0.1, -0.5, 0.08), (0.15j, 0.0, 0.1 * cmath.exp(1.9j))]
        for i, (t, z, eps) in enumerate(points, start=1):
            res = apply_equation_operator(spec, series, U, profile_U, t, z, eps)
            assert len(calls) == i
            assert callable(calls[-1])
            assert type(res) is complex
            assert abs(res) < 1e-10
        calls.clear()
        cs, f = assemble_coefficients(default_series(spec), 0.1, 0.4, 0.2)
        assert len(calls) == 1
        assert all(type(c) is complex for c in cs + [f])

    def test_operator_matches_per_symbol_transforms(self):
        # the parent form: every symbol of the identity transformed on its
        # own, with its own profile and cutoff
        spec = default_spec()
        U, profile_U, _ = manufactured_problem(spec, a=0)
        series = default_series(spec)
        q = spec.frame.q
        t, z, eps = 0.11 * cmath.exp(0.4j), 0.35, 0.12 * cmath.exp(1.1j)

        def finv(symbol, prof):
            return inverse_fourier(symbol, z, prof, tol=1e-12).value

        def poly(coeffs, td):
            return finv(lambda m: polyval_im(coeffs, m) * U(td, m, eps),
                        equation._poly_profile(profile_U, coeffs))

        et = eps * t
        rhs = et ** spec.d_D1 * poly(spec.RD1, dilate(t, q, spec.dilation_exponent(1)))
        rhs += et ** spec.d_D2 * poly(spec.RD2, dilate(t, q, spec.dilation_exponent(2)))
        for i, term in enumerate(spec.terms):
            td = dilate(t, q, Fraction(term.delta))
            c_i = finv(*equation._series_symbol(series, i, td, eps))
            rhs += eps ** term.Delta * t ** term.d * c_i * poly(term.R, td)
        rhs += finv(*equation._series_symbol(series, None, q * t, eps))
        expected = poly(spec.Q, q * t) - rhs
        got = apply_equation_operator(spec, series, U, profile_U, t, z, eps)
        assert abs(got - expected) <= 1e-11
        assert abs(expected) > 1e-3     # c_l != 0: a residual, not a zero
