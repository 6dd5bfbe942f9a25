import cmath
import json
import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import spiral_clear_brute, spiral_clear_mp, theta_brute
from qasym import theta
from qasym.theta import (ThetaSpec, _crossing_angles, _log_abs_theta,
                         calibrate_theta_constant, inv_theta_at,
                         log_lower_envelope, spec_for_annulus,
                         spiral_admissible, spiral_clearance,
                         theta_eval_scaled, theta_lower_bound,
                         theta_qdiff_residual, truncation_order)


CALIBRATED = [(2.0, 1.0), (3.0, 0.5), (2.0, 2.0)]
IN_USE = CALIBRATED + [(1.3, 0.7), (1.7, 2.3)]


def scaled_to_log(mantissa, log_scale) -> tuple[complex, float]:
    """(phase-carrying mantissa of modulus ~1, log of modulus)."""
    m = complex(mantissa)
    return m, math.log(abs(m)) + float(log_scale)


def theta_value(spec, z) -> complex:
    mant, shift = theta_eval_scaled(spec, z)
    return complex(mant) * math.exp(float(shift))


class TestEvaluation:
    def test_matches_brute_series(self):
        spec = spec_for_annulus(2.0, 1.0, 0.2, 5.0)
        for z in (0.3 + 0.4j, 2.0, -1.7 + 0.1j, 0.25j, 4.9):
            lib = theta_value(spec, z)
            assert lib == pytest.approx(theta_brute(2.0, 1.0, z), rel=1e-12)

    def test_matches_brute_series_fractional_level(self):
        spec = spec_for_annulus(1.7, 2.3, 0.3, 3.0)
        for z in (0.5 + 0.1j, -2.0 + 0.7j, 1.1j):
            lib = theta_value(spec, z)
            assert lib == pytest.approx(theta_brute(1.7, 2.3, z), rel=1e-12)

    def test_scaled_form_consistent(self):
        spec = spec_for_annulus(2.0, 1.0, 1e-3, 1e3)
        for z in (900.0, 1e-3 + 1e-3j, -750.0 + 80.0j):
            mant, logs = theta_eval_scaled(spec, z)
            m, lg = scaled_to_log(mant, logs)
            # recompute the dominant-term exponent by hand: the series is
            # huge there, so compare in log form against the brute sum of
            # rescaled terms
            q, k = spec.q, spec.k
            terms = [(-p * (p - 1) / (2.0 * k)) * math.log(q)
                     + p * cmath.log(z).real for p in range(-80, 81)]
            peak = max(terms)
            brute = sum(cmath.exp((-p * (p - 1) / (2.0 * k)) * math.log(q)
                                  + p * cmath.log(z) - peak)
                        for p in range(-80, 81))
            assert lg == pytest.approx(peak + math.log(abs(brute)), rel=1e-10)

    @pytest.mark.parametrize("q,k", [(2.0, 1.0), (2.0, 2.0), (3.0, 0.5),
                                     (2.5, 1.5), (1.3, 0.7)])
    def test_log_scale_is_largest_term(self, q, k, rng):
        """log_scale is the largest exponent -p(p-1)/2 log Q + p log|z|,
        Q = q^{1/k}, over the full bilateral series (here |p| <= 200)."""
        lQ = math.log(q) / k
        for _ in range(40):
            lz = rng.uniform(-20.0, 20.0)
            z = cmath.exp(complex(lz, rng.uniform(-math.pi, math.pi)))
            peak = max(-p * (p - 1) / 2.0 * lQ + p * lz for p in range(-200, 201))
            _, logs = theta_eval_scaled(ThetaSpec(q, k), z)
            assert abs(float(logs) - peak) < 1e-9, (z, float(logs), peak)

    def test_rejects_origin(self):
        spec = spec_for_annulus(2.0, 1.0, 0.5, 2.0)
        with pytest.raises(ValueError):
            theta_value(spec, 0.0)

    @pytest.mark.parametrize("q,k", IN_USE)
    def test_matches_out_of_place_horner(self, q, k, rng):
        """Bit for bit against the out-of-place Horner loop written here,
        on arrays and on 0-d input, for |z| from e^-700 to e^700."""
        def longhand(z):
            z = np.asarray(z, dtype=complex)
            lQ = math.log(q) / k
            m = np.rint(np.log(np.abs(z)) / lQ)
            half = q ** (m * (-0.5 / k))
            w = (z.reshape(-1) * half.reshape(-1) * half.reshape(-1)).reshape(z.shape)
            w = w if z.ndim else w[()]
            p = range(truncation_order(q, k), 0, -1)
            hp = hn = 0.0
            for cp, cn in zip((math.exp(-j * (j - 1) * lQ / 2.0) for j in p),
                              (math.exp(-j * (j + 1) * lQ / 2.0) for j in p)):
                hp = (hp + cp) * w
                hn = (hn + cn) * (1.0 / w)
            x = np.log(np.abs(w))
            top = np.maximum(x, 0.0)
            return ((hp + hn + 1.0) * np.exp(1j * m * np.angle(w)) * np.exp(-top),
                    top + m * (m + 1) * (lQ / 2.0) + m * x)

        spec = ThetaSpec(q, k)
        # 20,000 points: past numpy's 256 KB temporary-elision threshold
        zs = np.exp(rng.uniform(-700.0, 700.0, 20000)
                    + 1j * rng.uniform(-math.pi, math.pi, 20000))
        for got, want in zip(theta_eval_scaled(spec, zs), longhand(zs)):
            assert np.array_equal(got, want)
        for z in zs[:100]:
            for got, want in zip(theta_eval_scaled(spec, complex(z)),
                                 longhand(complex(z))):
                assert np.array_equal(got, want)
                assert np.ndim(got) == 0

    @pytest.mark.parametrize("q,k", IN_USE)
    def test_scalar_types_give_the_same_bits(self, q, k, rng):
        """A Python complex, an np.complex128 and a 0-d array take the
        same 0-d path, with the same bits."""
        spec = ThetaSpec(q, k)
        zs = np.exp(rng.uniform(-700.0, 700.0, 200)
                    + 1j * rng.uniform(-math.pi, math.pi, 200))
        for z in zs:
            want = theta_eval_scaled(spec, complex(z))
            for form in (np.complex128(z), np.asarray(z)):
                got = theta_eval_scaled(spec, form)
                for g, w in zip(got, want):
                    assert np.asarray(g).tobytes() == np.asarray(w).tobytes()

    @pytest.mark.parametrize("q,k", IN_USE)
    def test_log_modulus_without_the_phase(self, q, k, rng):
        """log|Theta| as calibration and the lower bound form it (no phase
        fold) agrees with log|mantissa| + log_scale to 1e-15 of the size
        of the terms summed, on the calibration grid and on |z| from
        e^-700 to e^700; its second part is log|mantissa| alike."""
        spec = ThetaSpec(q, k)
        grid = np.multiply.outer(_radii(q, k), np.exp(1j * np.linspace(
            0.0, math.pi, 361))).ravel()
        zs = np.concatenate([grid, np.exp(
            rng.uniform(-700.0, 700.0, 5000)
            + 1j * rng.uniform(-math.pi, math.pi, 5000))])
        zs = zs[spiral_clearance(q, k, zs) > 1e-3]
        mant, shift = theta_eval_scaled(spec, zs)
        log_mant = np.log(np.abs(mant))
        log_abs, log_mant_2 = _log_abs_theta(spec, zs)
        size = 1.0 + np.abs(shift) + np.abs(log_mant)
        assert np.max(np.abs(log_abs - (log_mant + shift)) / size) <= 1e-15
        assert np.max(np.abs(log_mant_2 - log_mant) / size) <= 1e-15
        one = _log_abs_theta(spec, complex(zs[0]))[0]
        assert np.ndim(one) == 0 and one == log_abs[0]

    def test_vectorized(self):
        spec = spec_for_annulus(2.0, 1.0, 0.2, 5.0)
        zs = np.array([0.3 + 0.4j, 2.0, -1.7 + 0.1j])
        mant, logs = theta_eval_scaled(spec, zs)
        for i, z in enumerate(zs):
            m1, l1 = theta_eval_scaled(spec, complex(z))
            assert complex(mant[i]) == pytest.approx(complex(m1), rel=1e-14)
            assert float(logs[i]) == pytest.approx(float(l1), abs=1e-12)


def triple_product(q: float, k: float, z: complex):
    """Theta_k(z) = prod_{n>=1} (1 - x^n)(1 + z x^{n-1})(1 + x^n / z),
    x = q^{-1/k} (Jacobi triple product), in mpmath at the working
    precision; it shares no code with the series."""
    x = mpmath.mpf(q) ** (-1 / mpmath.mpf(k))
    z = mpmath.mpc(z)
    acc, xn = mpmath.mpf(1), mpmath.mpf(1)   # xn = x^{n-1}
    eps = mpmath.mpf(10) ** (-mpmath.mp.dps - 5) / max(abs(z), 1 / abs(z), 1)
    while xn > eps:
        acc *= (1 - xn * x) * (1 + z * xn) * (1 + xn * x / z)
        xn *= x
    return acc


class TestTripleProduct:
    @pytest.mark.parametrize("q,k,tol", [(2.0, 2.0, 5e-10), (2.0, 1.0, 5e-13),
                                         (3.0, 0.5, 1e-13), (2.5, 1.5, 1e-12),
                                         (1.3, 0.7, 1e-10)])
    def test_inverse_matches_triple_product(self, q, k, tol):
        """1/Theta from inv_theta_at against a 40-digit triple product, on
        150 seeded spiral-clear points (clearance > 0.1) with
        |log|z|| <= 20, skipping points where 1/Theta underflows."""
        rng = np.random.default_rng(606)
        zs, refs = [], []
        with mpmath.workdps(40):
            while len(zs) < 150:
                z = cmath.exp(complex(rng.uniform(-20.0, 20.0),
                                      rng.uniform(-math.pi, math.pi)))
                if spiral_clear_brute(q, k, z) <= 0.1:
                    continue
                ref = complex(1 / triple_product(q, k, z))
                if abs(ref) < sys.float_info.min:
                    continue
                zs.append(z)
                refs.append(ref)
        refs = np.array(refs)
        lib = inv_theta_at(q, k, np.array(zs))
        worst = float(np.max(np.abs(lib - refs) / np.abs(refs)))
        assert worst < tol, worst


class TestExtremeModuli:
    """Subnormal and near-overflow z, where q^{m/k} alone leaves double
    range: the reduction to the fundamental annulus and the spiral
    window stay finite and raise no floating-point error."""

    @pytest.mark.parametrize("q,k,z", [
        (2.0, 1.0, 1e-320), (2.0, 1.0, 5e-324), (3.0, 0.5, -3e-315j),
        (2.5, 1.5, 1e-310 + 1e-311j), (2.0, 1.0, 1.7e308)])
    def test_log_modulus_matches_triple_product(self, q, k, z):
        with np.errstate(all="raise"):
            mant, logs = theta_eval_scaled(ThetaSpec(q, k), z)
        _, lg = scaled_to_log(mant, logs)
        with mpmath.workdps(40):
            ref = float(mpmath.log(abs(triple_product(q, k, z))))
        assert lg == pytest.approx(ref, rel=1e-13)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_clearance_of_an_array_is_per_point(self):
        """Subnormal to 1e300 moduli in one array: each value equals the
        point's own scalar call bit for bit, and no overflow warns."""
        z = np.array([1e-310 + 1e-310j, 1e300, -1e-5, -1.0, 0.5j,
                      -1e300 * 2 ** 0.5])
        got = spiral_clearance(2.0, 1.0, z)
        assert got.tolist() == [spiral_clearance(2.0, 1.0, v) for v in z]
        assert got[3] == 0.0

    def test_clearance_near_a_subnormal_zero(self):
        # z 2^1063 = -(1 + i/128), at distance 1/128 from the zero at -1;
        # both parts of z are exact subnormals
        z = -(2.0 ** -1063) * (1.0 + 1j / 128)
        with np.errstate(all="raise"):
            got = spiral_clearance(2.0, 1.0, z)
            arr = spiral_clearance(2.0, 1.0, np.array([z, 1e-320]))
        assert got == pytest.approx(1 / 128, rel=1e-12)
        assert arr.tolist() == pytest.approx([1 / 128, 0.875], rel=1e-12)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_clearance_at_huge_q_and_tiny_z(self):
        """At q = 1e300 the scale that brings -1e-300 to -1 is past e^700,
        and the next one's power of two past 2^1023: the clearance stays
        finite, each value is the point's own scalar call bit for bit, and
        the zero at -1e-300 is seen (clearance about 2.4e-14)."""
        z = np.array([1e-300, -1e-300, 0.3])
        got = spiral_clearance(1e300, 1.0, z)
        assert np.all(np.isfinite(got))
        assert got.tolist() == [spiral_clearance(1e300, 1.0, v) for v in z]
        assert got[1] <= 0.3

    @pytest.mark.parametrize("z", [0j, complex("inf"), complex("nan"),
                                   np.array([0.3, complex(1.0, math.inf)]),
                                   1.7e308 + 1.7e308j])
    def test_clearance_refuses_zero_and_non_finite_z(self, z):
        with pytest.raises(ValueError, match="nonzero with a finite modulus"):
            spiral_clearance(2.0, 1.0, z)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("z", [1.7e308 + 1.7e308j, -1.5e308 - 1.5e308j,
                                   np.array([0.3, 1.7e308 + 1.7e308j]),
                                   complex("inf"), complex(1.0, math.nan)])
    def test_theta_refuses_a_modulus_past_double_range(self, z):
        """A z with finite parts whose modulus overflows a double, or with
        a non-finite part, is refused before any term is summed."""
        for call in (lambda: theta_eval_scaled(ThetaSpec(2.0, 1.0), z),
                     lambda: _log_abs_theta(ThetaSpec(2.0, 1.0), z),
                     lambda: inv_theta_at(2.0, 1.0, z)):
            with pytest.raises(ValueError, match="modulus is a finite double"):
                call()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("q,k", [(1e300, 1.0), (1e308, 1.0), (1e300, 2.0)])
    def test_clearance_matches_mpmath_scan_at_extremes(self, q, k):
        """Subnormal z, z near the zero -q^{-1/k} and z near 1e300 against
        a 40-digit scan over m, where q^{m/k} overflows a double."""
        inv = q ** (-1.0 / k)
        zs = [5e-324, -5e-324, 1e-310 + 1e-310j, -3e-320j, -1e-320,
              -inv, -inv * (1 + 1e-6), -inv * (1 + 1e-3j), inv * 1j,
              1e300, -1e300, 1e300j, -1e300 * (1 + 1e-3j), 1.7e308, -1e308]
        for z in zs:
            want = min(spiral_clear_mp(q, k, complex(z), m_span=8), 0.875)
            assert spiral_clearance(q, k, z) == pytest.approx(want, abs=1e-12), z


class TestFunctionalEquation:
    @given(st.floats(1.3, 3.0), st.sampled_from([0.5, 1.0, 2.0]),
           st.integers(-3, 3), st.floats(0.3, 3.0), st.floats(-math.pi, math.pi))
    def test_qdifference_identity(self, q, k, m, r, phi):
        z = r * cmath.exp(1j * phi)
        pad = q ** ((abs(m) + 1) / k)
        spec = spec_for_annulus(q, k, r / pad, r * pad)
        # both sides evaluated in log form, residual formed in the test
        ml, ll = scaled_to_log(*theta_eval_scaled(spec, z * q ** (m / k)))
        mr, lr = scaled_to_log(*theta_eval_scaled(spec, z))
        fac = q ** (m * (m + 1) / (2.0 * k)) * z ** m
        lr = lr + math.log(abs(fac))
        mr = mr * (fac / abs(fac))
        scale = max(ll, lr)
        # absolute error at theta's natural scale (the dominant series
        # term); near the spiral zeros both sides cancel, so a ratio of
        # the two tiny values would only measure that cancellation
        num = abs(ml * math.exp(ll - scale) - mr * math.exp(lr - scale))
        assert num < 1e-10

    def test_residual_helper_agrees(self):
        spec = spec_for_annulus(2.0, 1.0, 0.05, 20.0)
        for z, m in [(0.3 + 0.4j, 2), (1.5, -3), (-0.7 + 0.2j, 1)]:
            assert theta_qdiff_residual(spec, z, m) < 1e-12


class TestZerosAndBound:
    def test_vanishes_on_spiral(self):
        q, k = 2.0, 1.0
        spec = spec_for_annulus(q, k, 0.05, 20.0)
        for m in range(-3, 4):
            z = -q ** (m / k)
            val = theta_value(spec, z)
            # normalize against a nearby non-spiral point
            ref = abs(theta_value(spec, z * cmath.exp(0.5j)))
            assert abs(val) / ref < 1e-12

    def test_clearance_matches_brute_scan(self):
        # the library caps the clearance at 7/8 (any admissibility
        # threshold sits below that), so compare against the capped oracle
        q, k = 2.0, 1.0
        zs = (0.3 + 0.4j, -1.9, 2.0 + 0.1j, -0.5 - 0.5j, -1.0 + 0.05j)
        for z in zs:
            lib = spiral_clearance(q, k, z)
            brute = spiral_clear_brute(q, k, z)
            assert lib == pytest.approx(min(brute, 0.875), rel=1e-12)
        # each point of an array has its own m-window, so its value is
        # its scalar call's
        zs = np.array(zs + (-1e-3 + 1e-9j, -37.0 + 0.5j))
        assert np.array_equal(spiral_clearance(q, k, zs),
                              [spiral_clearance(q, k, z) for z in zs])

    @given(st.floats(0.25, 4.0), st.floats(-math.pi, math.pi))
    def test_admissibility_agrees_with_brute(self, r, phi):
        q, k, dlt = 2.0, 1.0, 0.3
        z = r * cmath.exp(1j * phi)
        assert spiral_admissible(q, k, z, dlt) == (spiral_clear_brute(q, k, z) > dlt)

    @pytest.mark.parametrize("q,k", IN_USE)
    @pytest.mark.parametrize("dlt", [0.1, 0.3, 0.86])
    def test_admissible_is_clearance_above_dlt(self, q, k, dlt, rng):
        """spiral_admissible is spiral_clearance > dlt, on the calibration
        grid and on random arrays with subnormal and 1e300 moduli, for an
        array and for its points one at a time."""
        grid = np.multiply.outer(_radii(q, k), np.exp(1j * np.linspace(
            0.0, math.pi, 361))).ravel()
        assert np.array_equal(spiral_admissible(q, k, grid, dlt),
                              spiral_clearance(q, k, grid) > dlt)
        for lo, hi in ((-745.0, 700.0), (-745.0, -700.0), (680.0, 691.0),
                       (-3.0, 3.0)):
            zs = np.exp(rng.uniform(lo, hi, 500)
                        + 1j * rng.uniform(-math.pi, math.pi, 500))
            zs = np.concatenate([zs, -q ** (np.arange(-3, 4) / k)])
            zs = zs[zs != 0]
            assert np.array_equal(spiral_admissible(q, k, zs, dlt),
                                  spiral_clearance(q, k, zs) > dlt)
            for z in zs[::50]:
                assert spiral_admissible(q, k, z, dlt) == (
                    spiral_clearance(q, k, z) > dlt)

    def test_lower_bound_certified_on_fresh_grid(self, rng):
        q, k, dlt = 2.0, 1.0, 0.3
        spec = calibrate_theta_constant(spec_for_annulus(q, k, 0.1, 10.0))
        assert spec.Cqk is not None and spec.Cqk > 0
        checked = 0
        while checked < 150:
            z = math.exp(rng.uniform(math.log(0.12), math.log(8.0))) \
                * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
            chk = theta_lower_bound(spec, z, dlt)
            if not chk.admissible:
                continue
            checked += 1
            assert chk.ok, f"lower bound violated at {z}"
            # recompute both sides from scratch
            m, lg = scaled_to_log(*theta_eval_scaled(spec, z))
            rhs_log = math.log(spec.Cqk * dlt) \
                + 0.5 * k * math.log(abs(z)) ** 2 / math.log(q) \
                + 0.5 * math.log(abs(z))
            assert lg >= rhs_log

    @pytest.mark.parametrize("q,k,z", [
        (2.0, 1.0, 1e14), (2.0, 1.0, 1e200), (2.0, 1.0, 1e-300),
        (2.0, 1.0, 1e-200j), (3.0, 0.5, 1e30), (3.0, 0.5, 1e200),
        (3.0, 0.5, 1e-300), (3.0, 0.5, -1e-200j)])
    def test_lower_bound_holds_far_from_unit_circle(self, q, k, z):
        """Where exp((k/2) log^2|z| / log q) overflows a double the bound is
        still judged, in log form, against the recomputed margin."""
        dlt = 0.3
        spec = calibrate_theta_constant(ThetaSpec(q, k), dlt)
        chk = theta_lower_bound(spec, z, dlt)
        assert chk.admissible
        L = math.log(abs(z))
        _, lg = scaled_to_log(*theta_eval_scaled(spec, z))
        margin = lg - math.log(spec.Cqk * dlt) - 0.5 * k * L * L / math.log(q) - 0.5 * L
        assert chk.log_margin == pytest.approx(margin, abs=1e-9 * abs(lg))
        assert margin > 0 and chk.ok

    @pytest.mark.parametrize("dlt", [0.0, -0.1, 0.875, 0.9])
    def test_lower_bound_refuses_dlt_outside_range(self, dlt):
        """dlt must lie in (0, 7/8): at or past 7/8 no point clears it,
        since the clearance is capped there."""
        spec = calibrate_theta_constant(ThetaSpec(2.0, 1.0))
        with pytest.raises(ValueError, match=r"dlt must lie in \(0, 0.875\)"):
            theta_lower_bound(spec, 0.3 + 0.4j, dlt)

    def test_lower_bound_requires_calibration(self):
        spec = spec_for_annulus(2.0, 1.0, 0.5, 2.0)
        with pytest.raises(ValueError):
            theta_lower_bound(spec, 1.0 + 0.2j, 0.3)


def _radii(q, k):
    return np.exp(np.linspace(0.0, math.log(q) / k, 48, endpoint=False))


GRID_DLTS = [0.05, 0.1, 0.3, 0.7, 0.86]


def _random_pairs(n):
    rng = np.random.default_rng(24)
    return [(float(rng.uniform(1.3, 10.0)), float(rng.uniform(0.3, 4.0)))
            for _ in range(n)]


def _cqk_over(q, k, dlt, zs):
    """0.9 * min ratio / dlt over the points zs, or None where their
    smallest scaled |Theta| is below 1e-10 (a refusal)."""
    log_abs, log_mant = _log_abs_theta(ThetaSpec(q, k), zs)
    if not math.exp(float(log_mant.min())) >= 1e-10:
        return None
    return 0.9 * math.exp(float(np.min(log_abs - log_lower_envelope(q, k, zs)))) / dlt


def _admissible_grid(q, k, dlt):
    """The admissible points of the 48 x 361 polar grid over [0, pi]."""
    zs = np.multiply.outer(_radii(q, k), np.exp(1j * np.linspace(0.0, math.pi, 361))).ravel()
    return zs[spiral_admissible(q, k, zs, dlt)]


def _boundary(q, k, radii, dlt):
    """Each radius's boundary point r e^{i a*(r)}: the closed-form
    crossing of dlt, or angle pi where the clearance never drops to it."""
    return radii * np.exp(1j * np.minimum(_crossing_angles(q, k, radii, dlt), math.pi))


def _dense_radii(q, k, per):
    """The 48 calibration radii joined with per x 48 radii over the same
    period, so the dense set contains each calibration radius exactly."""
    return np.concatenate([_radii(q, k), np.exp(np.linspace(
        0.0, math.log(q) / k, 48 * per, endpoint=False))])


def full_grid_cqk(q, k, dlt):
    """Cqk from every admissible point of the 48 x 361 grid plus the
    crossings of 1.02 dlt, or None where the smallest scaled |Theta| is
    below 1e-10 (a refusal)."""
    radii = _radii(q, k)
    a = _crossing_angles(q, k, radii, 1.02 * dlt)
    crossed = np.isfinite(a)
    return _cqk_over(q, k, dlt, np.concatenate([
        _admissible_grid(q, k, dlt), radii[crossed] * np.exp(1j * a[crossed])]))


def _calibrated(q, k, dlt):
    """Cqk, or None where the calibration refuses below double resolution."""
    try:
        return calibrate_theta_constant(ThetaSpec(q, k), dlt).Cqk
    except ValueError as exc:
        assert "below double resolution" in str(exc)
        return None


class TestCalibration:
    @pytest.mark.parametrize("q,k", IN_USE + _random_pairs(20))
    @pytest.mark.parametrize("dlt", GRID_DLTS)
    def test_equals_the_full_grid(self, q, k, dlt):
        """Cqk is the minimum over the admissible 48 x 361 grid joined
        with each radius's boundary point, bit for bit: no admissible grid
        point lies below its radius's boundary.  The calibration refuses
        where the grid with its 1.02 dlt crossings (full_grid_cqk)
        refuses, and otherwise gives at most that grid's constant."""
        want = _cqk_over(q, k, dlt, np.concatenate([
            _admissible_grid(q, k, dlt), _boundary(q, k, _radii(q, k), dlt)]))
        grid = full_grid_cqk(q, k, dlt)
        got = _calibrated(q, k, dlt)
        assert (got is None) == (want is None) == (grid is None)
        if got is not None:
            assert got == want and got <= grid

    @pytest.mark.parametrize("q,k", IN_USE + _random_pairs(20))
    @pytest.mark.parametrize("dlt", GRID_DLTS)
    def test_within_five_percent_of_the_dense_boundary(self, q, k, dlt):
        """Against the boundary on 48 x 256 radii plus the 48 calibration
        radii, Cqk / (0.9 * dense minimum / dlt) lies in [1, 1.05]: the 48
        radii come within 5% of the infimum over log r."""
        got = _calibrated(q, k, dlt)
        if got is None:
            return
        radii = _dense_radii(q, k, 256)
        dense = _cqk_over(q, k, dlt, _boundary(q, k, radii, dlt))
        assert 1.0 <= got / dense <= 1.05

    @pytest.mark.parametrize("q,k", IN_USE + _random_pairs(20))
    @pytest.mark.parametrize("dlt", GRID_DLTS)
    def test_bound_holds_just_inside_the_boundary(self, q, k, dlt):
        """theta_lower_bound is ok at the hardest admissible points: at
        angle a*(r) - 1e-9 on every radius of a 48 x 4 grid plus the 48
        calibration radii, and on each radius of a 48 x 256 grid where the
        boundary ratio is smallest between two calibration radii."""
        got = _calibrated(q, k, dlt)
        if got is None:
            return
        spec = ThetaSpec(q, k, got)
        dense = _dense_radii(q, k, 256)[48:]
        at = _boundary(q, k, dense, dlt)
        log_abs, _ = _log_abs_theta(spec, at)
        lowest = np.argmin((log_abs - log_lower_envelope(q, k, at)).reshape(48, 256), axis=1)
        radii = np.concatenate([_dense_radii(q, k, 4),
                                dense[lowest + 256 * np.arange(48)]])
        a = np.minimum(_crossing_angles(q, k, radii, dlt), math.pi) - 1e-9
        for z in radii * np.exp(1j * a):
            chk = theta_lower_bound(spec, complex(z), dlt)
            assert chk.admissible and chk.ok, (z, chk)

    @pytest.mark.parametrize("q,k", IN_USE)
    def test_sums_theta_on_at_most_two_points_per_radius(self, q, k, monkeypatch):
        """The calibration sums Theta once per radius, 48 points in one
        call, and tests no clearance: the boundary is in closed form."""
        sizes = []
        log_abs = theta._log_abs_theta

        def recording(spec, z):
            sizes.append(np.size(z))
            return log_abs(spec, z)

        def refuse(*args):
            raise AssertionError("the calibration tests a clearance")

        monkeypatch.setattr(theta, "_log_abs_theta", recording)
        monkeypatch.setattr(theta, "spiral_admissible", refuse)
        monkeypatch.setattr(theta, "spiral_clearance", refuse)
        calibrate_theta_constant(ThetaSpec(q, k), 0.3)
        assert sizes == [_radii(q, k).size]

    @pytest.mark.parametrize("q,k", IN_USE)
    @pytest.mark.parametrize("dlt", GRID_DLTS)
    def test_theta_falls_along_each_admissible_row(self, q, k, dlt):
        """The premise of the calibration: on each radius the admissible
        grid angles are a prefix of [0, pi], and along them log|Theta|
        and log|mantissa| do not increase."""
        grid = np.multiply.outer(_radii(q, k), np.exp(1j * np.linspace(0.0, math.pi, 361)))
        ok = spiral_admissible(q, k, grid, dlt)
        log_abs, log_mant = _log_abs_theta(ThetaSpec(q, k), grid)
        for row_ok, row_abs, row_mant in zip(ok, log_abs, log_mant):
            n = int(row_ok.sum())
            assert row_ok[:n].all()
            assert np.all(np.diff(row_abs[:n]) <= 0.0)
            assert np.all(np.diff(row_mant[:n]) <= 0.0)

    @pytest.mark.parametrize("q,k", CALIBRATED)
    @pytest.mark.parametrize("dlt", [0.1, 0.3, 0.86])
    def test_crossings_sit_on_the_target_clearance(self, q, k, dlt):
        """Each closed-form crossing of dlt has brute clearance dlt, with
        clearance above it just before and below it just after; radii
        without a crossing are clear of dlt even at angle pi."""
        radii = _radii(q, k)
        a = _crossing_angles(q, k, radii, dlt)
        hit = np.isfinite(a)
        assert hit.any()
        r, a = radii[hit], a[hit]
        assert np.all((a > math.pi / 2) & (a <= math.pi))
        at = spiral_clear_brute(q, k, r * np.exp(1j * a))
        assert np.max(np.abs(at - dlt)) <= 1e-12
        inner = a - 1e-6
        assert np.all(spiral_clear_brute(q, k, r * np.exp(1j * inner)) > dlt)
        outer = np.minimum(a + 1e-6, math.pi)
        assert np.all(spiral_clear_brute(q, k, r * np.exp(1j * outer))[a < math.pi] < dlt)
        assert np.all(spiral_clear_brute(q, k, -radii[~hit]) >= dlt)

    @pytest.mark.parametrize("q,k", IN_USE)
    @pytest.mark.parametrize("dlt", [0.1, 0.3, 0.86])
    def test_matches_full_circle_reference(self, q, k, dlt):
        """Cqk against the full circle: the admissible points of 48 radii
        x 720 angles over [-pi, pi), filtered by the brute clearance, plus
        both crossings of dlt per radius, found by bisecting the brute
        clearance and kept on its admissible side."""
        radii = _radii(q, k)
        zs = np.multiply.outer(radii, np.exp(1j * np.linspace(
            -math.pi, math.pi, 720, endpoint=False))).ravel()
        zs = zs[spiral_clear_brute(q, k, zs) > dlt]
        lo, hi = np.full(radii.size, math.pi), np.full(radii.size, math.pi / 2)
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            below = spiral_clear_brute(q, k, radii * np.exp(1j * mid)) < dlt
            lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
        cross = spiral_clear_brute(q, k, -radii) < dlt
        zs = np.concatenate([zs, radii[cross] * np.exp(1j * hi[cross]),
                             radii[cross] * np.exp(-1j * hi[cross])])
        mant, shift = theta_eval_scaled(ThetaSpec(q, k), zs)
        L = np.log(np.abs(zs))
        log_ratio = np.log(np.abs(mant)) + shift - (0.5 * k * L * L / math.log(q)
                                                    + 0.5 * L)
        ref = 0.9 * math.exp(log_ratio.min()) / dlt
        got = calibrate_theta_constant(ThetaSpec(q, k), dlt).Cqk
        assert got == pytest.approx(ref, rel=1e-11)

    @pytest.mark.parametrize("q,k", IN_USE)
    def test_modulus_is_even_under_conjugation(self, q, k, rng):
        """|Theta(conj z)| = |Theta(z)|: Theta has real coefficients."""
        lQ = math.log(q) / k
        zs = np.exp(rng.uniform(-3.0 * lQ, 3.0 * lQ, 200)
                    + 1j * rng.uniform(-math.pi, math.pi, 200))
        spec = ThetaSpec(q, k)
        mant, shift = theta_eval_scaled(spec, zs)
        cmant, cshift = theta_eval_scaled(spec, zs.conj())
        assert np.allclose(cshift, shift, rtol=1e-13, atol=0.0)
        assert np.allclose(np.abs(cmant), np.abs(mant), rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("q,k", [(1.05, 4.0), (1.1, 2.0), (1.2, 1.5)])
    def test_small_pitch_is_refused(self, q, k):
        """Below pitch log q / k of about 0.1, |Theta| on one period is
        under the round-off of its largest term."""
        with pytest.raises(ValueError, match="below double resolution") as exc:
            calibrate_theta_constant(ThetaSpec(q, k))
        assert f"pitch log q / k = {math.log(q) / k:.3g}" in str(exc.value)


class TestTruncation:
    def test_order_meets_tail_bound(self):
        """On the fundamental annulus |log|w|| <= log(q)/(2k), each term with
        |p| > P is below e^{-40} times the p = 0 term."""
        for q, k in [(2.0, 1.0), (2.0, 2.0), (3.0, 0.5), (1.7, 2.3), (1.05, 4.0)]:
            P = truncation_order(q, k)
            L = math.log(q) / k
            for p in range(P + 1, P + 40):
                for j in (p, -p):
                    # log of term j at the worst radius |w| = Q^{sign(j)/2}
                    assert -j * (j - 1) * L / 2 + abs(j) * L / 2 < -40.0, (q, k, j)

    def test_spec_serialization(self):
        spec = calibrate_theta_constant(spec_for_annulus(2.0, 1.0, 0.5, 2.0))
        back = ThetaSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert back == spec


class TestInverse:
    def test_inv_theta_is_reciprocal(self):
        spec = spec_for_annulus(2.0, 1.0, 0.2, 5.0)
        for z in (0.3 + 0.4j, 2.0, -1.7 + 0.1j):
            assert inv_theta_at(2.0, 1.0, z) * theta_value(spec, z) \
                == pytest.approx(1.0, rel=1e-12)
