import cmath
import json
import math

import numpy as np
import pytest

from qasym import model
from qasym.model import (DiffRow, DiffTable, ModelScenario, PoleSpec,
                         consecutive_difference, default_scenario,
                         difference_cascade, difference_remainder_table,
                         fit_rate, kernel_jump_shape, kernel_shape,
                         residue_closed_form, verify_rate_dichotomy,
                         verify_two_level_theorem)
from qasym.schemas import validate_payload


@pytest.fixture(scope="module")
def scn():
    return default_scenario()


@pytest.fixture(scope="module")
def theorem_report(scn):
    return verify_two_level_theorem(scn, js=range(3, 9), N_range=range(0, 5))


class TestScenario:
    def test_levels_follow_kernel_sector_geometry(self, scn):
        assert scn.levels() == (2, 2, 1, 1)

    def test_wedges_and_poles(self, scn):
        assert scn.wedge(0) == pytest.approx((0.0, math.pi / 2))
        assert scn.mid_direction(0) == pytest.approx(math.pi / 4)
        # wedge 3 wraps through the full turn
        lo, hi = scn.wedge(3)
        assert (lo, hi) == pytest.approx((1.5 * math.pi, 2.0 * math.pi))
        assert [len(scn.wedge_poles(p)) for p in range(4)] == [1, 1, 0, 0]
        assert scn.wedge_poles(0)[0].strength == 0.5 + 0.0j

    def test_probe_points(self, scn):
        for p in range(4):
            for j in (3, 7):
                T = scn.probe_T(p, j)
                assert abs(T) == pytest.approx(2.0 ** (-j))
                assert cmath.phase(T) == pytest.approx(
                    math.atan2(math.sin(scn.mid_direction(p)),
                               math.cos(scn.mid_direction(p))))

    def test_round_trip_and_schema(self, scn):
        payload = scn.to_dict()
        validate_payload("model_scenario", payload)
        back = ModelScenario.from_dict(json.loads(json.dumps(payload)))
        assert back.to_dict() == payload
        assert back.frame == scn.frame
        assert back.poles == scn.poles
        assert back.directions == scn.directions

    def test_validation_rejects_bad_data(self, scn):
        with pytest.raises(ValueError):
            ModelScenario(frame=scn.frame, covering=scn.covering,
                          directions=scn.directions[:3],
                          branch_centers=scn.branch_centers,
                          u_half_widths=scn.u_half_widths, rho=scn.rho,
                          kernel_amp=scn.kernel_amp, drift=scn.drift,
                          poles=scn.poles)
        with pytest.raises(ValueError):
            ModelScenario(frame=scn.frame, covering=scn.covering,
                          directions=scn.directions,
                          branch_centers=scn.branch_centers,
                          u_half_widths=scn.u_half_widths, rho=scn.rho,
                          kernel_amp=scn.kernel_amp, drift=scn.drift,
                          poles=(PoleSpec(0.5 + 0.0j, 1.0 + 0.0j),))
        with pytest.raises(ValueError):
            ModelScenario(frame=scn.frame, covering=scn.covering,
                          directions=scn.directions,
                          branch_centers=scn.branch_centers,
                          u_half_widths=scn.u_half_widths, rho=-1.0,
                          kernel_amp=scn.kernel_amp, drift=scn.drift,
                          poles=scn.poles)


class TestKernel:
    def test_jump_shape_vanishes_on_shared_branch(self, scn):
        u = 0.3 * np.exp(1j * np.linspace(-2.5, 2.5, 11))
        assert np.all(kernel_jump_shape(scn, 0, u) == 0)
        assert np.all(kernel_jump_shape(scn, 1, u) == 0)

    def test_jump_shape_is_shape_difference_with_poles_cancelled(self, scn):
        u = 0.3 * np.exp(1j * np.linspace(-2.5, 2.5, 11))
        for p in (2, 3):
            jump = kernel_jump_shape(scn, p, u)
            diff = kernel_shape(scn, p + 1, u) - kernel_shape(scn, p, u)
            scale = np.max(np.abs(kernel_shape(scn, p, u)))
            assert np.max(np.abs(jump - diff)) < 1e-12 * scale
            assert np.max(np.abs(jump)) > 0


class TestDifferences:
    def test_direct_equals_decomposed_shallow(self, scn):
        for p in (0, 2):   # one fast, one slow overlap
            dec = consecutive_difference(scn, p, scn.probe_T(p, 3),
                                         "decomposed", tol=1e-11).total
            direct = consecutive_difference(scn, p, scn.probe_T(p, 3),
                                            "direct", tol=1e-11)
            assert abs(dec - direct) < 1e-9 * abs(dec)

    def test_fast_difference_matches_residue_closed_form(self, scn):
        for j in (3, 5):
            T = scn.probe_T(0, j)
            d = consecutive_difference(scn, 0, T, "decomposed", tol=1e-11)
            oracle = residue_closed_form(scn, 0, T)
            assert abs(d.total - oracle) < 1e-9 * abs(oracle)

    def test_slow_difference_has_no_residue_oracle(self, scn):
        d = consecutive_difference(scn, 2, scn.probe_T(2, 3), "decomposed",
                                   tol=1e-11)
        assert scn.wedge_poles(2) == ()
        assert residue_closed_form(scn, 2, scn.probe_T(2, 3)) == 0
        assert set(d.pieces) == {"outer_plus", "outer_minus", "arc_lo",
                                 "arc_hi", "mid_segment"}

    @pytest.mark.parametrize("p", range(4))
    def test_array_of_T_matches_scalar_calls(self, scn, p):
        Ts = np.array([scn.probe_T(p, j) for j in range(3, 9)])
        batch = consecutive_difference(scn, p, Ts, "decomposed", tol=1e-11)
        assert len(batch) == len(Ts)
        for T, d in zip(Ts, batch):
            one = consecutive_difference(scn, p, T, "decomposed", tol=1e-11)
            assert d.T == T and d.level == one.level
            assert set(d.pieces) == set(one.pieces)
            assert abs(d.total - one.total) <= 1e-10 * abs(one.total)
            if d.level == 2:
                oracle = residue_closed_form(scn, p, T)
                assert abs(d.total - oracle) < 1e-9 * abs(oracle)

    @pytest.mark.parametrize("p", [0, 2], ids=["fast", "slow"])
    def test_one_T_is_a_batch_of_one(self, scn, p):
        """A scalar T gives, bit for bit, element 0 of the call on [T]."""
        T = scn.probe_T(p, 6)
        one = consecutive_difference(scn, p, T, "decomposed", tol=1e-11)
        [batch] = consecutive_difference(scn, p, np.array([T]), "decomposed",
                                         tol=1e-11)
        assert isinstance(one, model.DiffPieces)
        assert (one.T, one.level) == (batch.T, batch.level)
        assert one.pieces == batch.pieces
        assert all(type(v) is complex for v in one.pieces.values())

    @pytest.mark.parametrize("js", [range(3, 9), range(3, 13)])
    def test_cascade_makes_one_contour_call_per_piece(self, scn, monkeypatch,
                                                      js):
        calls = []
        contour = model.log_contour_transform

        def counted(*args, **kw):
            calls.append(np.size(args[3]))
            return contour(*args, **kw)

        monkeypatch.setattr(model, "log_contour_transform", counted)
        for p, n_pieces in ((0, 3), (2, 5)):   # one fast, one slow overlap
            calls.clear()
            table = difference_cascade(scn, p, js)
            assert len(table.rows) == len(js)
            assert calls == [len(js)] * n_pieces

    def test_direct_route_on_an_array_of_T(self, scn):
        """The direct route subtracts two full-ray transforms, so the
        batched and the scalar difference agree to tol times their size."""
        tol = 1e-11
        Ts = np.array([scn.probe_T(0, j) for j in range(3, 7)])
        batch = consecutive_difference(scn, 0, Ts, "direct", tol=tol)
        for T, d in zip(Ts, batch):
            one = consecutive_difference(scn, 0, T, "direct", tol=tol)
            size = sum(abs(model.laplace_transform_shape(scn, p, T, tol))
                       for p in (0, 1))
            assert abs(d - one) <= tol * size

    def test_route_validation(self, scn):
        with pytest.raises(ValueError):
            consecutive_difference(scn, 0, 0.1 + 0.1j, "sideways")

    def test_remainder_table_rows(self, scn):
        fr = scn.frame
        table = difference_remainder_table(scn, 0, fr.k2, range(0, 3))
        assert len(table.rows) == 6
        for row in table.rows:
            want_t = 0.7 * fr.q ** (-(row.N + 1) / (2.0 * fr.k2))
            assert row.t == pytest.approx(want_t)
            assert row.eps in (0.25, 0.35)
            assert row.norm > 0
        by_N = {}
        for row in table.rows:
            by_N.setdefault(row.N, []).append(row.norm)
        norms = [max(v) for _, v in sorted(by_N.items())]
        assert norms[0] > norms[1] > norms[2]


class TestRateFit:
    def test_recovers_planted_quadratic_exactly(self):
        q, a, b, c = 2.0, -1.7, 0.3, -2.0
        rows = []
        for j in range(3, 12):
            x = math.log(2.0 ** (-j))
            rows.append(DiffRow(j=j, absT=2.0 ** (-j),
                                norm=math.exp(a * x * x + b * x + c)))
        fit = fit_rate(DiffTable(p=0, level=2, rows=rows), q)
        assert fit.a == pytest.approx(a, rel=1e-9)
        assert fit.b == pytest.approx(b, rel=1e-9)
        assert fit.c == pytest.approx(c, rel=1e-9)
        assert fit.rate == pytest.approx(-2.0 * a * math.log(q), rel=1e-9)
        assert fit.residual_rms < 1e-9
        assert fit.n_rows == 9

    def test_minimum_rows(self):
        rows = [DiffRow(j=j, absT=2.0 ** (-j), norm=1.0) for j in range(3, 5)]
        with pytest.raises(ValueError):
            fit_rate(DiffTable(p=0, level=1, rows=rows), 2.0)


class TestTheorem:
    def test_end_to_end_report(self, theorem_report):
        rep = theorem_report
        assert rep.covering_ok
        assert rep.dichotomy.ok
        assert [e[1] for e in rep.dichotomy.entries] == [2, 2, 1, 1]
        for p, level, target, fitted, rel in rep.dichotomy.entries:
            assert target == (2.0 if level == 2 else 1.0)
            assert rel < 0.15
        assert rep.fast_fit.certified and rep.fast_fit.k == 2.0
        assert rep.slow_fit.certified and rep.slow_fit.k == 1.0
        assert rep.corollary_fit.certified
        assert rep.corollary_rows_kept >= 1
        assert rep.ok

    def test_one_difference_call_per_overlap(self, scn, monkeypatch):
        """The remainder points of the fast overlap 0 and the slow overlap
        2 join their cascade's call: 4 calls, not 6."""
        sizes = []
        diff = model.consecutive_difference

        def counted(*args, **kw):
            sizes.append(np.size(args[2]))
            return diff(*args, **kw)

        monkeypatch.setattr(model, "consecutive_difference", counted)
        verify_two_level_theorem(scn, js=range(3, 9), N_range=range(0, 5))
        assert sizes == [6 + 10, 6, 6 + 10, 6]

    def test_matches_standalone_dichotomy_and_tables(self, scn, monkeypatch):
        """Merged points share refinement, so the report matches the
        standalone verify_rate_dichotomy and difference_remainder_table
        to 1e-11 relative, with every boolean the same."""
        js, N_range = range(3, 9), range(0, 5)
        fr = scn.frame
        tables = []
        fit = model.fit_zero_gevrey_relative

        def captured(table, q, k):
            tables.append(table)
            return fit(table, q, k)

        monkeypatch.setattr(model, "fit_zero_gevrey_relative", captured)
        rep = verify_two_level_theorem(scn, js=js, N_range=N_range)
        monkeypatch.undo()
        alone = verify_rate_dichotomy(scn, js)
        assert rep.dichotomy.tolerance == alone.tolerance
        assert rep.dichotomy.ok is alone.ok
        for got, want in zip(rep.dichotomy.entries, alone.entries, strict=True):
            assert got[:3] == want[:3]
            assert got[3] == pytest.approx(want[3], rel=1e-11)
            assert (got[4] <= alone.tolerance) is (want[4] <= alone.tolerance)
        for table, p, k, got_fit in zip(tables, (0, 2), (fr.k2, fr.k1),
                                        (rep.fast_fit, rep.slow_fit), strict=True):
            want = difference_remainder_table(scn, p, k, N_range)
            assert ([(r.N, r.eps, r.t) for r in table.rows]
                    == [(r.N, r.eps, r.t) for r in want.rows])
            for r, w in zip(table.rows, want.rows):
                assert r.norm == pytest.approx(w.norm, rel=1e-11)
            assert got_fit.certified is fit(want, fr.q, k).certified

    def test_report_serializes(self, theorem_report):
        d = json.loads(json.dumps(theorem_report.to_dict()))
        assert d["ok"] is True
        assert len(d["dichotomy"]["entries"]) == 4
        validate_payload("gevrey_fit", d["fast_fit"])
        validate_payload("gevrey_fit", d["slow_fit"])
        validate_payload("gevrey_fit", d["corollary_fit"])
