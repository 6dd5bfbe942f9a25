import json
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qasym.frames import (QFrame, ladder_radius, log_gaussian_power,
                          seq_bound_from_log_bound)


class TestQFrame:
    def test_kappa_from_levels(self):
        fr = QFrame(2.0, 1.0, 2.0)
        # oracle: 1/kappa = 1/k1 - 1/k2 done by hand
        assert fr.kappa == pytest.approx(1.0 / (1.0 / 1.0 - 1.0 / 2.0), rel=1e-15)

    @given(st.floats(1.1, 8.0), st.floats(1.0, 3.0), st.floats(0.05, 5.0))
    def test_splitting_identity(self, q, k1, dk):
        k2 = k1 + dk
        fr = QFrame(q, k1, k2)
        # the exponent split the two-level theory rests on
        lhs = -k2 + k2 * k2 / (fr.kappa + k2)
        assert lhs == pytest.approx(-k1, rel=1e-12, abs=1e-12)

    @given(st.floats(1.1, 8.0), st.floats(1.0, 3.0), st.floats(0.05, 5.0))
    def test_kappa_exceeds_slow_level(self, q, k1, dk):
        fr = QFrame(q, k1, k1 + dk)
        assert fr.kappa > fr.k1

    def test_rejects_sub_unit_slow_level(self):
        with pytest.raises(ValueError):
            QFrame(2.0, 0.5, 2.0)

    def test_rejects_bad_orderings(self):
        with pytest.raises(ValueError):
            QFrame(2.0, 2.0, 1.0)   # k1 must be < k2
        with pytest.raises(ValueError):
            QFrame(2.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            QFrame(1.0, 1.0, 2.0)   # q must be > 1
        with pytest.raises(ValueError):
            QFrame(2.0, -1.0, 2.0)

    def test_round_trip(self):
        fr = QFrame(2.5, 1.2, 1.9, epsilon0=0.3, rT=0.6)
        back = QFrame.from_dict(json.loads(json.dumps(fr.to_dict())))
        assert back == fr
        assert back.kappa == pytest.approx(fr.kappa, rel=1e-15)


class TestLadderRadius:
    def test_radius_values(self):
        # r_p = q^{-p/(2k)} by hand for a few p
        assert ladder_radius(2.0, 1.0, 0) == 1.0
        assert ladder_radius(2.0, 1.0, 2) == pytest.approx(0.5, rel=1e-15)
        assert ladder_radius(2.0, 1.0, 4) == pytest.approx(0.25, rel=1e-15)

    @given(st.floats(1.1, 6.0), st.floats(0.3, 4.0), st.integers(0, 40))
    def test_radius_strictly_decreasing(self, q, k, p):
        assert ladder_radius(q, k, p + 1) < ladder_radius(q, k, p)


class TestScalarBoundLemma:
    def test_closed_form_matches_brute_maximum(self):
        # oracle: maximize the left side on a dense log-spaced grid
        q, k, gamma, N = 2.0, 1.0, 1.5, 3
        grid_max = max(log_gaussian_power(q, k, gamma, N, math.exp(u / 64.0))
                       for u in range(-64 * 12, 64 * 12 + 1))
        closed = seq_bound_from_log_bound(q, k, gamma, N)
        assert grid_max <= closed * (1 + 1e-12)
        assert grid_max >= closed * (1 - 1e-3)  # grid resolution

    @given(st.floats(1.2, 3.0), st.floats(0.5, 4.0), st.floats(-5.0, 5.0),
           st.integers(0, 20), st.floats(1e-4, 1.0))
    def test_domination_everywhere(self, q, k, gamma, N, absT):
        lhs = log_gaussian_power(q, k, gamma, N, absT)
        rhs = seq_bound_from_log_bound(q, k, gamma, N)
        assert lhs <= rhs * (1 + 1e-9)
