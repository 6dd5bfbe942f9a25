import cmath
import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from qasym import model
from qasym.model import (DiffRow, DiffTable, ModelScenario, PoleSpec,
                         consecutive_difference, default_scenario,
                         difference_remainder_table, fit_rate,
                         kernel_jump_shape, kernel_shape, overlap_rate,
                         residue_closed_form, verify_rate_dichotomy,
                         verify_two_level_theorem)
from qasym.schemas import validate_payload


# every overlap changes branch (all slow); overlap 0 holds a wedge pole
TWO_BRANCH_CHANGES = tuple(math.radians(d) for d in (90.0, 180.0, 90.0, 270.0))
# overlap 2 shares a branch (no one branch clears every sector's arc):
# levels (2, 1, 2, 1)
SHARED_OVERLAP_2 = tuple(math.radians(d) for d in (90.0, 90.0, 225.0, 225.0))


def _rotated(scn, p, T, tol):
    return consecutive_difference(scn, p, T, "rotated", tol).total


@pytest.fixture(scope="module")
def scn():
    return default_scenario()


@pytest.fixture(scope="module")
def theorem_report(scn):
    return verify_two_level_theorem(scn, js=range(3, 9), N_range=range(0, 5))


class TestScenario:
    def test_levels_follow_kernel_sector_geometry(self, scn):
        """An overlap is fast (2) where its two sectors' kernels share a
        branch and slow (1) where the branch changes."""
        assert scn.levels() == (2, 2, 1, 1)
        for centers, levels in ((TWO_BRANCH_CHANGES, (1, 1, 1, 1)),
                                (SHARED_OVERLAP_2, (2, 1, 2, 1))):
            assert replace(scn, branch_centers=centers).levels() == levels

    def test_levels_are_classified_once_per_scenario(self, scn):
        """Each scenario's levels come from its own branch centers: a
        replaced scenario is classified afresh, the original keeps its
        levels, and a JSON round trip keeps them."""
        two = replace(scn, branch_centers=TWO_BRANCH_CHANGES)
        assert two.levels() == (1, 1, 1, 1)
        assert scn.levels() == (2, 2, 1, 1)
        back = ModelScenario.from_dict(json.loads(json.dumps(two.to_dict())))
        assert back.levels() == two.levels()

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

    def test_branch_cut_in_a_sector_arc_is_refused(self, scn):
        """With every center at 20 deg the cut sits at 200 deg, inside
        sector 2's arc [135, 225] deg between the mid-directions, where
        overlap 2 was silently read as 0 against the direct route's 65.9
        at j = 3."""
        with pytest.raises(ValueError, match=re.escape(
                "sector 2: its branch cut at 200 deg lies in the arc "
                "[135, 225] deg")):
            replace(scn, branch_centers=(math.radians(20.0),) * scn.n)

    def test_scenarios_in_use_clear_their_branch_cuts(self, scn):
        from test_acceptance import _seeded_family
        for centers in (scn.branch_centers, TWO_BRANCH_CHANGES,
                        SHARED_OVERLAP_2):
            shifted = replace(scn, branch_centers=centers)
            assert shifted.branch_centers == centers
        assert len(_seeded_family()) == 40

    def test_validation_rejects_bad_data(self, scn):
        with pytest.raises(ValueError):
            ModelScenario(frame=scn.frame, covering=scn.covering,
                          directions=scn.directions[:3],
                          branch_centers=scn.branch_centers,
                          rho=scn.rho,
                          kernel_amp=scn.kernel_amp, drift=scn.drift,
                          poles=scn.poles)
        with pytest.raises(ValueError):
            ModelScenario(frame=scn.frame, covering=scn.covering,
                          directions=scn.directions,
                          branch_centers=scn.branch_centers,
                          rho=scn.rho,
                          kernel_amp=scn.kernel_amp, drift=scn.drift,
                          poles=(PoleSpec(0.5 + 0.0j, 1.0 + 0.0j),))
        with pytest.raises(ValueError):
            ModelScenario(frame=scn.frame, covering=scn.covering,
                          directions=scn.directions,
                          branch_centers=scn.branch_centers,
                          rho=-1.0,
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
                                            "direct", tol=1e-11).total
            assert abs(dec - direct) < 1e-9 * abs(dec)

    def test_fast_difference_matches_residue_closed_form(self, scn):
        for j in (3, 5):
            T = scn.probe_T(0, j)
            d = consecutive_difference(scn, 0, T, "decomposed", tol=1e-11)
            oracle = residue_closed_form(scn, 0, T)
            assert abs(d.total - oracle) < 1e-9 * abs(oracle)

    def test_slow_difference_has_no_residue_oracle(self, scn):
        """Overlap 2 changes branch: its pieces carry a mid segment, and
        the residue sum refuses it, naming the overlap."""
        d = consecutive_difference(scn, 2, scn.probe_T(2, 3), "decomposed",
                                   tol=1e-11)
        assert scn.wedge_poles(2) == ()
        with pytest.raises(ValueError, match="overlap 2 changes logarithm "
                                             "branch"):
            residue_closed_form(scn, 2, scn.probe_T(2, 3))
        assert set(d.pieces) == {"outer_plus", "outer_minus", "arc",
                                 "mid_segment"}

    @pytest.mark.parametrize("p", [0, 1])
    def test_residue_sum_matches_its_oracles(self, scn, p):
        """On both fast overlaps, j = 3..6 as one array: the residue sum
        is the contour-piece total to 1e-9 relative.  The direct route
        subtracts two full rays, so it is held to tol times their size
        (8e-13 to 1e-5 relative from j = 3 to 6)."""
        tol = 1e-11
        Ts = np.array([scn.probe_T(p, j) for j in range(3, 7)])
        res = residue_closed_form(scn, p, Ts)
        assert res.shape == Ts.shape
        total = consecutive_difference(scn, p, Ts, "decomposed", tol).total
        assert np.all(np.abs(res - total) < 1e-9 * np.abs(res))
        direct = consecutive_difference(scn, p, Ts, "direct", tol).total
        size = sum(np.abs(model.laplace_transform_shape(scn, b, Ts, tol))
                   for b in (p, p + 1))
        assert np.all(np.abs(res - direct) <= tol * size)

    @pytest.mark.parametrize("p", [0, 1, 2])
    def test_residue_sum_of_one_T_is_a_batch_of_one(self, scn, p):
        """Overlaps 0 and 1 are the default scenario's; overlap 2 (no
        wedge pole) shares a branch with centers (90, 90, 225, 225) deg,
        since one branch throughout would put its cut on some sector."""
        shared = (replace(scn, branch_centers=SHARED_OVERLAP_2) if p == 2
                  else scn)
        T = scn.probe_T(p, 6)
        one = residue_closed_form(shared, p, T)
        assert type(one) is complex
        assert one == residue_closed_form(shared, p, np.array([T]))[0]

    def test_shared_overlap_without_wedge_pole_is_refused(self, scn):
        """Overlap 2 of SHARED_OVERLAP_2 shares a branch and holds no
        wedge pole, so its difference is exactly 0 and has no rate: the
        dichotomy and the one-overlap fit refuse it by name (they fitted
        rate -3e-14 against k2 = 2 there).  Its residue sum stays 0, and
        overlap 0, which shares a branch and holds a pole, still fits."""
        shared = replace(scn, branch_centers=SHARED_OVERLAP_2)
        assert shared.levels()[2] == 2 and shared.wedge_poles(2) == ()
        refused = "overlap 2 shares its logarithm branch and holds no wedge pole"
        with pytest.raises(ValueError, match=refused):
            verify_rate_dichotomy(shared, js=range(3, 9))
        with pytest.raises(ValueError, match=refused):
            overlap_rate(shared, 2, range(3, 9), model.DIFF_TOL)
        assert residue_closed_form(shared, 2, scn.probe_T(2, 6)) == 0
        assert overlap_rate(shared, 0, range(3, 9), model.DIFF_TOL)[3] < 1e-12

    @pytest.mark.parametrize("p, j_max", [(0, 20), (1, 30)])
    def test_fast_cascade_fits_k2_deep(self, scn, p, j_max):
        rel = overlap_rate(scn, p, range(3, j_max + 1), model.DIFF_TOL)[3]
        assert rel < 1e-12

    @pytest.mark.parametrize("deg", [200.0, 225.0])
    def test_zero_ray_in_the_wedge_is_refused(self, scn, deg):
        """At arg T = 225 deg the zeros of Theta(u/T) fill arg u = 45 deg,
        inside wedge 0: the residue sum and the decomposed contours would
        be 57% off the direct route (99.8% at 200 deg), so both refuse the
        first such T and name it and the wedge."""
        T = 0.125 * cmath.exp(1j * math.radians(deg))
        Ts = np.array([scn.probe_T(0, 3), T, -T])
        for call in (lambda: residue_closed_form(scn, 0, Ts),
                     lambda: consecutive_difference(scn, 0, Ts, "decomposed"),
                     lambda: consecutive_difference(scn, 0, Ts, "rotated")):
            with pytest.raises(ValueError,
                               match=re.escape(f"T={T!r}") + ".*"
                               + re.escape("wedge [0, 90] deg")):
                call()

    @pytest.mark.parametrize("T", [0.125 * cmath.exp(1j * math.pi),
                                   0.125 * cmath.exp(-0.5j * math.pi)],
                             ids=["edge-d0", "edge-d1"])
    def test_zero_ray_on_a_wedge_edge_is_refused(self, scn, T):
        """The zero ray arg(-T) lies on d_0 = 0 (as -1.2e-16 rad) and on
        d_1 = 90 deg (up to 7.7e-18 rad) only up to rounding: both are in
        the closed wedge, for the residue sum and the contours alike."""
        for call in (lambda: residue_closed_form(scn, 0, T),
                     lambda: consecutive_difference(scn, 0, T, "decomposed"),
                     lambda: consecutive_difference(scn, 0, T, "rotated")):
            with pytest.raises(ValueError,
                               match=re.escape(f"T={T!r}") + ".*"
                               + re.escape("wedge [0, 90] deg")):
                call()

    def test_rotated_route_refuses_a_zero_ray_in_a_slow_wedge(self, scn):
        """The refusal comes before the mid ray too: arg T = 45 deg puts
        the zero ray at 225 deg, inside wedge 2."""
        T = 0.125 * cmath.exp(1j * math.radians(45.0))
        with pytest.raises(ValueError, match=re.escape(f"T={T!r}") + ".*"
                           + re.escape("wedge [180, 270] deg")):
            consecutive_difference(scn, 2, np.array([scn.probe_T(2, 3), T]),
                                   "rotated")

    def test_unknown_route_is_refused(self, scn):
        with pytest.raises(ValueError, match="route must be"):
            consecutive_difference(scn, 0, scn.probe_T(0, 3), "contour")

    def test_probes_and_remainder_points_clear_the_wedge(self, scn):
        """The edge margin refuses no mid-direction point: every probe
        down to j = 30 and every remainder point of every overlap."""
        for p in range(scn.n):
            Ts = [scn.probe_T(p, j) for j in range(0, 31)]
            for k in (scn.frame.k1, scn.frame.k2):
                Ts += model._remainder_points(scn, p, k, range(0, 7),
                                              model.T_FRAC)[1]
            model._check_zero_ray(scn, p, np.array(Ts))

    @pytest.mark.parametrize("deg", [45.0, 120.0])
    def test_zero_ray_outside_the_wedge_agrees(self, scn, deg):
        T = 0.125 * cmath.exp(1j * math.radians(deg))
        res = residue_closed_form(scn, 0, T)
        for route in ("decomposed", "direct"):
            total = consecutive_difference(scn, 0, T, route, tol=1e-11).total
            assert abs(total - res) < 1e-9 * abs(res)

    def test_fast_overlap_that_changes_branch(self, scn):
        """Overlap 0 holds a wedge pole but its sectors use branches
        centred at 90 and 180 deg, so it is slow (level 1): its difference
        carries the branch discrepancy on a mid segment, which no residue
        gives.  The pieces' total and the cascade's norms agree with the
        direct route at j = 3..6."""
        two = replace(scn, branch_centers=TWO_BRANCH_CHANGES)
        assert two.levels()[0] == 1
        js = range(3, 7)
        Ts = np.array([two.probe_T(0, j) for j in js])
        direct = consecutive_difference(two, 0, Ts, "direct", tol=1e-11).total
        d = consecutive_difference(two, 0, Ts, "decomposed", tol=1e-11)
        assert set(d.pieces) == {"outer_plus", "outer_minus", "arc",
                                 "mid_segment"}
        assert np.all(np.abs(d.total - direct) <= 1e-9 * np.abs(direct))
        table = overlap_rate(two, 0, js, model.DIFF_TOL)[0]
        for row, want in zip(table.rows, direct, strict=True):
            assert abs(row.norm - abs(want)) <= 1e-9 * abs(want)
        with pytest.raises(ValueError, match="overlap 0 changes logarithm "
                                             "branch"):
            residue_closed_form(two, 0, Ts)

    @pytest.mark.parametrize("p", [2, 3])
    def test_mid_ray_matches_the_decomposed_total(self, scn, p):
        """A slow overlap's rotated difference, one whole mid ray plus the
        (here empty) wedge residues, is the four contour pieces' total to
        1e-12 relative at j = 3..8 (at most 1.3e-13 on this box)."""
        Ts = np.array([scn.probe_T(p, j) for j in range(3, 9)])
        got = _rotated(scn, p, Ts, model.DIFF_TOL)
        want = consecutive_difference(scn, p, Ts, tol=model.DIFF_TOL).total
        assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))

    def test_mid_ray_adds_the_wedge_residues(self, scn):
        """Overlap 0 with centers (90, 180, 90, 270) deg changes branch and
        holds a wedge pole: the mid ray plus that pole's residue is the
        decomposed total to 1e-12 relative at j = 3..8.
        The residue decays at the fast rate, so it is 1.2e-3 of the total
        at j = 3 and 2.4e-12 at j = 8."""
        two = replace(scn, branch_centers=TWO_BRANCH_CHANGES)
        assert len(two.wedge_poles(0)) == 1
        Ts = np.array([two.probe_T(0, j) for j in range(3, 9)])
        d = consecutive_difference(two, 0, Ts, "rotated", model.DIFF_TOL)
        assert list(d.pieces) == ["residues", "mid_ray"]
        want = consecutive_difference(two, 0, Ts, tol=model.DIFF_TOL).total
        assert np.all(np.abs(d.total - want) <= 1e-12 * np.abs(want))
        assert abs(d.pieces["residues"][0]) > 1e-4 * abs(want[0])

    def test_branch_change_at_a_real_kernel(self, scn):
        """Overlap 1 with centers (90, 180, 90, 270) deg changes branch, so
        it is slow; on its mid-direction the branch jump is purely
        imaginary and 1/Theta(u/T) real, so the real part of the mid
        ray's integrand is rounding noise.  Held to its component's
        round-off floor it converges (it raised QuadratureError before),
        and the rotated and decomposed routes agree to 1e-13 relative at
        j = 3..6."""
        two = replace(scn, branch_centers=TWO_BRANCH_CHANGES)
        assert two.levels()[1] == 1
        Ts = np.array([two.probe_T(1, j) for j in range(3, 7)])
        got = consecutive_difference(two, 1, Ts, "rotated", model.DIFF_TOL)
        assert list(got.pieces) == ["residues", "mid_ray"]
        want = consecutive_difference(two, 1, Ts, tol=model.DIFF_TOL).total
        assert np.all(np.abs(got.total - want) <= 1e-13 * np.abs(want))

    def test_dichotomy_with_every_overlap_slow(self, scn):
        """Every overlap of TWO_BRANCH_CHANGES changes branch, so every
        target is k1 and every fit meets it (rel_err 5e-4, 1.6e-2, 0 and
        0).  The js run to 20 because overlap 1's norms alternate with j
        (fit rms 0.6): its rel_err is at most 0.0924 for every j_max from
        12 to 30, but 0.164 at j_max 11 and 0.43 at j_max 8."""
        two = replace(scn, branch_centers=TWO_BRANCH_CHANGES)
        rep = verify_rate_dichotomy(two, js=range(3, 21))
        assert [e[1] for e in rep.entries] == [1, 1, 1, 1]
        assert rep.ok

    @pytest.mark.parametrize("p", [2, 3])
    def test_mid_ray_matches_the_direct_route(self, scn, p):
        """At j = 3, 4 the direct route subtracts two full rays, so it is
        held to its own budget tol (|U_p| + |U_{p+1}|)."""
        tol = model.DIFF_TOL
        Ts = np.array([scn.probe_T(p, j) for j in (3, 4)])
        got = _rotated(scn, p, Ts, tol)
        direct = consecutive_difference(scn, p, Ts, "direct", tol).total
        size = sum(np.abs(model.laplace_transform_shape(scn, b, Ts, tol))
                   for b in (p, p + 1))
        assert np.all(np.abs(got - direct) <= tol * size)

    @pytest.mark.parametrize("p", range(4))
    def test_rotated_pieces(self, scn, p):
        """The rotated route is the residue sum on a shared-branch overlap
        (bit for bit residue_closed_form, with no contour call) and adds
        the mid ray where the branch changes."""
        Ts = np.array([scn.probe_T(p, j) for j in range(3, 6)])
        d = consecutive_difference(scn, p, Ts, "rotated")
        if p < 2:
            assert list(d.pieces) == ["residues"]
            assert np.array_equal(d.total, residue_closed_form(scn, p, Ts))
        else:
            assert list(d.pieces) == ["residues", "mid_ray"]
            assert np.all(d.pieces["residues"] == 0)
            assert np.array_equal(d.pieces["mid_ray"], model.mid_segment_piece(
                scn, p, Ts, model.DIFF_TOL, math.inf))

    @pytest.mark.parametrize("p", range(4))
    def test_array_of_T_matches_scalar_calls(self, scn, p):
        Ts = np.array([scn.probe_T(p, j) for j in range(3, 9)])
        batch = consecutive_difference(scn, p, Ts, "decomposed", tol=1e-11)
        assert batch.total.shape == Ts.shape
        for T, total in zip(Ts, batch.total):
            one = consecutive_difference(scn, p, T, "decomposed", tol=1e-11)
            assert set(batch.pieces) == set(one.pieces)
            assert abs(total - one.total) <= 1e-10 * abs(one.total)
            if scn.levels()[p] == 2:
                oracle = residue_closed_form(scn, p, T)
                assert abs(total - oracle) < 1e-9 * abs(oracle)

    @pytest.mark.parametrize("p, route", [(0, "decomposed"), (2, "decomposed"),
                                          (2, "direct"), (0, "rotated"),
                                          (2, "rotated"), (3, "rotated")],
                             ids=["fast", "slow", "slow-direct", "fast-rotated",
                                  "slow-rotated", "slow-rotated-3"])
    def test_one_T_is_a_batch_of_one(self, scn, p, route):
        """A scalar T gives, bit for bit, element 0 of the call on [T]."""
        T = scn.probe_T(p, 6)
        one = consecutive_difference(scn, p, T, route, tol=1e-11)
        batch = consecutive_difference(scn, p, np.array([T]), route,
                                       tol=1e-11)
        assert isinstance(one, model.DiffPieces)
        assert one.pieces == {name: v[0] for name, v in batch.pieces.items()}
        assert all(type(v) is complex for v in one.pieces.values())
        assert one.total == batch.total[0]

    @pytest.mark.parametrize("p", [0, 2], ids=["fast", "slow"])
    def test_direct_route_returns_its_two_rays(self, scn, p):
        """The direct route's pieces are U_{p+1} and -U_p, for one T and
        for an array, so its total is their difference bit for bit."""
        tol = 1e-11
        Ts = np.array([scn.probe_T(p, j) for j in (3, 4, 5)])
        for T in (Ts[0], Ts):
            d = consecutive_difference(scn, p, T, "direct", tol=tol)
            assert isinstance(d, model.DiffPieces)
            assert set(d.pieces) == {"ray_plus", "ray_minus"}
            want = (model.laplace_transform_shape(scn, p + 1, T, tol)
                    - model.laplace_transform_shape(scn, p, T, tol))
            assert np.all(d.total == want)

    @pytest.mark.parametrize("tol", [math.inf, math.nan, -math.inf])
    def test_non_finite_tol_is_refused(self, scn, tol):
        with pytest.raises(ValueError, match="tol=.* is not finite"):
            consecutive_difference(scn, 0, scn.probe_T(0, 3), "decomposed", tol)

    @pytest.mark.parametrize("js", [range(3, 9), range(3, 13)])
    def test_cascade_makes_one_contour_call_per_piece(self, scn, monkeypatch,
                                                      js):
        """The cascade reads the rotated route: a shared-branch overlap's
        residue sum makes no contour call; one that changes branch makes
        one, its whole mid ray (the wedge residues need none)."""
        calls = []
        contour = model.log_contour_transform

        def counted(*args, **kw):
            calls.append(np.size(args[3]))
            return contour(*args, **kw)

        monkeypatch.setattr(model, "log_contour_transform", counted)
        for p, n_pieces in ((0, 0), (2, 1)):   # one fast, one slow overlap
            calls.clear()
            table = overlap_rate(scn, p, js, model.DIFF_TOL)[0]
            assert len(table.rows) == len(js)
            assert calls == [len(js)] * n_pieces

    def test_direct_route_on_an_array_of_T(self, scn):
        """The direct route subtracts two full-ray transforms, so the
        batched and the scalar difference agree to tol times their size."""
        tol = 1e-11
        Ts = np.array([scn.probe_T(0, j) for j in range(3, 7)])
        batch = consecutive_difference(scn, 0, Ts, "direct", tol=tol)
        for T, total in zip(Ts, batch.total):
            one = consecutive_difference(scn, 0, T, "direct", tol=tol)
            size = sum(abs(model.laplace_transform_shape(scn, p, T, tol))
                       for p in (0, 1))
            assert abs(total - one.total) <= tol * size

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

    def test_report_needs_a_fast_and_a_slow_overlap(self, scn):
        """With every overlap slow there is no fast overlap for the fast
        ladder fit, and the report says so instead of failing a lookup."""
        two = replace(scn, branch_centers=TWO_BRANCH_CHANGES)
        with pytest.raises(ValueError, match=re.escape(
                "levels (1, 1, 1, 1): the theorem report needs one fast (2) "
                "and one slow (1) overlap")):
            verify_two_level_theorem(two)

    def test_one_difference_call_per_overlap(self, scn, monkeypatch):
        """Each overlap makes one rotated consecutive_difference call, and
        the remainder points of the fast overlap 0 and the slow overlap 2
        join their cascade's call.  Only the slow ones make a contour
        call, their mid ray: the fast ones are their residue sum."""
        diffs, sizes = [], []
        diff, contour = model.consecutive_difference, model.log_contour_transform

        def counted_diff(scn, p, T, route, tol):
            diffs.append((p, np.size(T), route))
            return diff(scn, p, T, route, tol)

        def counted(*args, **kw):
            sizes.append(np.size(args[3]))
            return contour(*args, **kw)

        monkeypatch.setattr(model, "consecutive_difference", counted_diff)
        monkeypatch.setattr(model, "log_contour_transform", counted)
        verify_two_level_theorem(scn, js=range(3, 9), N_range=range(0, 5))
        assert diffs == [(0, 6 + 10, "rotated"), (1, 6, "rotated"),
                         (2, 6 + 10, "rotated"), (3, 6, "rotated")]
        assert sizes == [6 + 10, 6]

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
