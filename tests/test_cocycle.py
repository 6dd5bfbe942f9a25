import cmath
import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import cauchy_ray_direct, closed_jump
from qasym import cocycle
from qasym.cocycle import (CHOptions, Cocycle, asymptotic_coefficients,
                           cauchy_heine_many, ladder_jump,
                           multilevel_split, overlap_rays)
from qasym.fourier import QuadratureError, complex_quad
from qasym.geometry import make_cyclic_covering

Q, K1, K2, A = 2.0, 1.0, 2.0, 1.3
TIGHT = CHOptions(tol=1e-12)


def cauchy_heine_psi(coc, t, eps, p, opts):
    return cauchy_heine_many(coc, t, [eps], [p], opts)[0]


def four_sector_covering():
    return make_cyclic_covering(4, 0.4, math.radians(60), math.radians(45))


def two_level_pair(cov):
    """Slow (level-1) jumps on overlaps 1, 3; fast (level-2) on 0, 2."""
    cuts = [cov.overlap_bisector(p) for p in range(4)]
    slow = Cocycle(cov, deltas=(None, ladder_jump(Q, K1, A, cuts[1], 0.7),
                                None, ladder_jump(Q, K1, A, cuts[3], 0.4j)))
    fast = Cocycle(cov, deltas=(ladder_jump(Q, K2, A, cuts[0], 0.9),
                                None, ladder_jump(Q, K2, A, cuts[2], -0.6),
                                None))
    return slow, fast


class TestLadderJump:
    def test_matches_independent_formula(self):
        for cut in (0.0, math.pi / 2, math.pi, -math.pi / 2, 2.3):
            lib = ladder_jump(Q, K1, A, cut, 0.7 + 0.2j)
            mine = closed_jump(Q, K1, A, cut, 0.7 + 0.2j)
            for dd in (-0.4, 0.0, 0.4):
                for r in (0.05, 0.3):
                    xi = r * cmath.exp(1j * (cut + dd))
                    for t in (0.05, 0.11 * cmath.exp(0.2j)):
                        assert complex(lib(t, xi)) == pytest.approx(
                            complex(mine(t, xi)), rel=1e-12)

    @given(st.integers(0, 8), st.floats(0.01, 0.35), st.floats(-0.5, 0.5),
           st.floats(0.1, 0.999), st.floats(-0.8, 0.8))
    def test_shrinking_disc_bound(self, N, r, dd, tfrac, targ):
        k = K2
        amp = 0.8 - 0.1j
        delta = ladder_jump(Q, k, A, 0.3, amp)
        C = math.exp(2.0 * k / math.log(Q) * 0.8 * math.pi)
        t = tfrac * Q ** (-N / (2.0 * k)) * cmath.exp(1j * targ)
        xi = r * cmath.exp(1j * (0.3 + dd))
        val = abs(complex(delta(t, xi)))
        assert val <= abs(amp) * C * (A * r) ** N * (1 + 1e-9)

    def test_bound_needs_the_shrinking_disc(self):
        # |t| well outside the N-th disc: the (A|xi|)^N law genuinely fails
        delta = ladder_jump(Q, K1, A, 0.0, 1.0)
        C = math.exp(2.0 * K1 / math.log(Q) * 0.0 * math.pi)
        val = abs(complex(delta(0.9, 0.3)))
        assert val > C * (A * 0.3) ** 5

    def test_zero_at_origin(self):
        delta = ladder_jump(Q, K1, A, 0.0, 1.0)
        assert complex(delta(0.05, 0.0)) == 0.0


class TestCauchyHeine:
    def test_single_ray_matches_direct_quadrature(self):
        cov = four_sector_covering()
        cuts = [cov.overlap_bisector(p) for p in range(4)]
        delta = ladder_jump(Q, K1, A, cuts[1], 0.7)
        coc = Cocycle(cov, deltas=(None, delta, None, None))
        t = 0.15
        # probe in the core of sector 2, where no Plemelj correction applies
        eps = 0.1 * cmath.exp(1j * (cuts[1] + 0.9))
        lib = cauchy_heine_psi(coc, t, eps, 2, TIGHT)
        oracle = cauchy_ray_direct(delta, t, cuts[1], coc.rays[1].length, eps)
        assert complex(lib) == pytest.approx(oracle, rel=1e-7)

    def test_plemelj_jump_across_single_cut(self):
        cov = four_sector_covering()
        cuts = [cov.overlap_bisector(p) for p in range(4)]
        hw = cov.overlap_half_width(1)
        delta = ladder_jump(Q, K1, A, cuts[1], 0.7)
        coc = Cocycle(cov, deltas=(None, delta, None, None))
        t = 0.15
        for frac in (0.3, 0.6):
            for side in (-0.3, 0.3):
                eps = frac * coc.rays[1].length \
                    * cmath.exp(1j * (cuts[1] + side * hw))
                below = cauchy_heine_psi(coc, t, eps, 1, TIGHT)
                above = cauchy_heine_psi(coc, t, eps, 2, TIGHT)
                jump = complex(np.asarray(delta(t, eps)).reshape(()))
                assert complex(above - below) == pytest.approx(
                    jump, rel=1e-6, abs=1e-11)

    def test_full_cocycle_jump_identity(self):
        cov = four_sector_covering()
        slow, fast = two_level_pair(cov)
        t = 0.1
        for coc in (slow, fast):
            for p in range(4):
                if not coc.has_jump(p):
                    continue
                c = cov.overlap_bisector(p)
                hw = cov.overlap_half_width(p)
                eps = 0.5 * coc.rays[p].length * cmath.exp(1j * (c + 0.4 * hw))
                lo = cauchy_heine_psi(coc, t, eps, p, TIGHT)
                hi = cauchy_heine_psi(coc, t, eps, (p + 1) % 4, TIGHT)
                jump = complex(np.asarray(coc.jump(p, t, eps)).reshape(()))
                assert complex(hi - lo) == pytest.approx(
                    jump, rel=1e-4, abs=1e-10)

    def test_no_correction_beyond_ray_tip(self):
        cov = four_sector_covering()
        cuts = [cov.overlap_bisector(p) for p in range(4)]
        delta = ladder_jump(Q, K1, A, cuts[1], 0.7)
        coc = Cocycle(cov, deltas=(None, delta, None, None))
        t = 0.15
        eps = 1.02 * coc.rays[1].length * cmath.exp(1j * (cuts[1] + 0.05))
        below = cauchy_heine_psi(coc, t, eps, 1, TIGHT)
        above = cauchy_heine_psi(coc, t, eps, 2, TIGHT)
        assert abs(complex(above - below)) < 1e-10

    def test_rejects_point_outside_claimed_sector(self):
        cov = four_sector_covering()
        slow, _ = two_level_pair(cov)
        bad = 0.1 * cmath.exp(1j * (cov.sector(2).bisector))
        with pytest.raises(ValueError):
            cauchy_heine_psi(slow, 0.1, bad, 0, TIGHT)

    def test_names_the_point_outside_its_sector(self):
        # a one-sector batch, and a batch over four sectors (7 is 3 mod 4)
        cov = four_sector_covering()
        slow, _ = two_level_pair(cov)
        good = [0.1 * cmath.exp(1j * cov.sector(p).bisector) for p in range(4)]
        bad = 0.1 * cmath.exp(1j * (cov.sector(1).bisector + 0.05))
        for eps, sectors in (([good[3], bad, good[3]], [3, 3, 3]),
                             ([good[0], bad, good[2], good[1]], [0, 3, 2, 1])):
            with pytest.raises(ValueError, match=rf"point {re.escape(repr(bad))} "
                                                 r"not in covering sector 3"):
                cauchy_heine_many(slow, 0.1, eps, sectors, TIGHT)
        out = cauchy_heine_many(slow, 0.1, good[::-1], [7, 2, 1, 0], TIGHT)
        assert out.shape == (4,) and np.all(np.isfinite(out))


class TestMergedRays:
    """All rays of one Cauchy-Heine sum share one complex_quad call."""

    T = 0.07 * cmath.exp(0.2j)

    @staticmethod
    def counted_quad(monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[1:3])
            return complex_quad(*args, **kwargs)
        monkeypatch.setattr(cocycle, "complex_quad", counted)
        return calls

    @staticmethod
    def one_ray_cocycles(coc):
        return [Cocycle(coc.covering, deltas=tuple(
                    d if q == p else None for q, d in enumerate(coc.deltas)))
                for p in range(4) if coc.has_jump(p)]

    def test_sum_over_two_jumps_is_one_quadrature(self, monkeypatch):
        cov = four_sector_covering()
        slow, _ = two_level_pair(cov)
        eps = [0.2 * cmath.exp(1j * cov.sector(p).bisector) for p in range(4)]
        eps += [0.5 * slow.rays[1].length
                * cmath.exp(1j * (cov.overlap_bisector(1) + s * 0.4
                                  * cov.overlap_half_width(1))) for s in (-1, 1)]
        sectors = [0, 1, 2, 3, 1, 2]
        per_ray = [cauchy_heine_many(one, self.T, eps, sectors, TIGHT)
                   for one in self.one_ray_cocycles(slow)]
        calls = self.counted_quad(monkeypatch)
        merged = cauchy_heine_many(slow, self.T, eps, sectors, TIGHT)
        assert calls == [(0.0, 1.0)]
        # each one-ray sum carries the Plemelj term of its own cut only
        for got, want in zip(merged, per_ray[0] + per_ray[1]):
            assert _rel(got, want) <= 1e-13
        # at mid-sector no Plemelj term applies: the direct ray integrals
        for i in range(4):
            want = sum(cauchy_ray_direct(slow.deltas[r], self.T, slow.rays[r].direction,
                                         slow.rays[r].length, eps[i]) for r in (1, 3))
            assert _rel(merged[i], want) <= 1e-9

    def test_coefficients_over_two_jumps_are_one_quadrature(self, monkeypatch):
        cov = four_sector_covering()
        slow, _ = two_level_pair(cov)
        per_ray = [asymptotic_coefficients(one, 0.05, 2, TIGHT)
                   for one in self.one_ray_cocycles(slow)]
        calls = self.counted_quad(monkeypatch)
        phis = asymptotic_coefficients(slow, 0.05, 2, TIGHT)
        assert len(calls) == 1
        for got, want in zip(phis, per_ray[0] + per_ray[1]):
            assert _rel(got, want) <= 1e-13

    def test_no_jump_is_zero_without_quadrature(self, monkeypatch):
        cov = four_sector_covering()
        calls = self.counted_quad(monkeypatch)
        empty = Cocycle(cov, deltas=(None,) * 4)
        assert cauchy_heine_psi(empty, self.T, 0.1, 0, TIGHT) == 0.0
        assert list(asymptotic_coefficients(empty, self.T, 2)) == [0, 0, 0]
        assert calls == []

    def test_panel_limit_names_overlap_and_point(self):
        cov = four_sector_covering()
        slow, _ = two_level_pair(cov)
        # overlap 3 oscillates far faster than 200 panels resolve
        rough = Cocycle(cov, deltas=(None, slow.deltas[1], None,
                                     lambda t, xi: np.exp(1e5j * xi)))
        eps = [0.2 * cmath.exp(1j * cov.sector(p).bisector) for p in range(4)]
        with pytest.raises(QuadratureError,
                           match="worst on overlap 3 at eps=") as info:
            cauchy_heine_many(rough, self.T, eps, [0, 1, 2, 3], TIGHT)
        assert f"eps={eps[info.value.component]!r}" in str(info.value)
        assert "limit=200" in str(info.value)


class TestAsymptoticCoefficients:
    def test_remainder_order(self):
        cov = four_sector_covering()
        slow, _ = two_level_pair(cov)
        t = 0.05
        N = 2
        phis = asymptotic_coefficients(slow, t, N, CHOptions(tol=1e-13))
        assert len(phis) == N + 1
        c = cov.sector(0).bisector
        rems = []
        for scale in (1.0, 0.5):
            eps = 0.05 * scale * cmath.exp(1j * c)
            psi = cauchy_heine_psi(slow, t, eps, 0, CHOptions(tol=1e-13))
            part = sum(phis[n] * eps ** n for n in range(N + 1))
            rems.append(abs(complex(psi) - part))
        # halving eps should shrink the remainder roughly 2^{N+1}-fold
        ratio = rems[0] / rems[1]
        assert 2.0 ** (N + 1) / 2.5 <= ratio <= 2.0 ** (N + 1) * 2.5

    def test_constant_term_matches_value_at_tiny_eps(self):
        cov = four_sector_covering()
        slow, _ = two_level_pair(cov)
        t = 0.05
        phis = asymptotic_coefficients(slow, t, 0, CHOptions(tol=1e-13))
        c = cov.sector(0).bisector
        psi = cauchy_heine_psi(slow, t, 1e-8 * cmath.exp(1j * c), 0,
                               CHOptions(tol=1e-13))
        assert complex(psi) == pytest.approx(complex(phis[0]), rel=1e-6)

    def test_coefficients_shared_across_sectors(self):
        # remainders after subtracting the SAME phi_0, phi_1 stay O(eps^2)
        # in every sector, so the family expansion is genuinely common
        cov = four_sector_covering()
        slow, _ = two_level_pair(cov)
        t = 0.05
        phis = asymptotic_coefficients(slow, t, 1, CHOptions(tol=1e-13))
        for p in range(4):
            c = cov.sector(p).bisector
            rems = []
            for scale in (1.0, 0.5):
                eps = 0.05 * scale * cmath.exp(1j * c)
                psi = cauchy_heine_psi(slow, t, eps, p, CHOptions(tol=1e-13))
                rems.append(abs(complex(psi) - complex(phis[0])
                                - complex(phis[1]) * eps))
            assert 4.0 / 2.5 <= rems[0] / rems[1] <= 4.0 * 2.5


def _branches(cov, slow, fast, entire, calls=None):
    """G_p = entire + Psi^slow_p + Psi^fast_p, vectorized in eps; calls[p]
    counts the calls of G_p when a list is given."""
    def branch(p):
        def G(t_arg, eps):
            if calls is not None:
                calls[p] += 1
            e = np.atleast_1d(np.asarray(eps, dtype=complex))
            sec = np.full(e.shape, p, dtype=int)
            vals = (entire(e)
                    + cauchy_heine_many(slow, t_arg, e, sec, TIGHT)
                    + cauchy_heine_many(fast, t_arg, e, sec, TIGHT))
            return vals[0] if np.ndim(eps) == 0 else vals
        return G

    return [branch(p) for p in range(cov.n)]


class TestRealizationAndSplit:
    def test_difference_realization(self):
        cov = four_sector_covering()
        slow, fast = two_level_pair(cov)
        entire = lambda e: np.exp(0.3 * e)
        G = _branches(cov, slow, fast, entire)
        checks = multilevel_split(G, slow, fast, 0.1, opts=TIGHT,
                                  j_max=0).realization
        assert len(checks) == 16
        assert max(c.abs_err for c in checks) < 1e-10

    def test_realization_flags_wrong_jump(self):
        cov = four_sector_covering()
        slow, fast = two_level_pair(cov)
        entire = lambda e: np.exp(0.3 * e)
        G = _branches(cov, slow, fast, entire)
        cuts = [cov.overlap_bisector(p) for p in range(4)]
        wrong = Cocycle(cov, deltas=(None,
                                     ladder_jump(Q, K1, A, cuts[1], 1.05),
                                     None,
                                     ladder_jump(Q, K1, A, cuts[3], 0.4j)))
        split = multilevel_split(G, wrong, fast, 0.2, opts=TIGHT, j_max=0)
        assert split.max_realization_err > 1e-4

    def test_split_recovers_planted_analytic_part(self):
        cov = four_sector_covering()
        slow, fast = two_level_pair(cov)
        entire = lambda e: np.exp(0.3 * e) + 0.2 * e * e
        G = _branches(cov, slow, fast, entire)
        split = multilevel_split(G, slow, fast, 0.1, opts=TIGHT, j_max=2)
        assert split.max_spread < 1e-10
        assert split.max_realization_err < 1e-10
        assert split.probes and len(split.cascade) == 3
        for j, eps, per_sector in split.probes:
            want = complex(np.asarray(entire(np.asarray([eps]))).reshape(1)[0])
            for p, got in per_sector.items():
                assert got == pytest.approx(want, rel=1e-8, abs=1e-10)
        # cascade radii halve
        radii = [row.radius for row in split.cascade]
        assert radii[1] == pytest.approx(radii[0] / 2)
        assert radii[2] == pytest.approx(radii[0] / 4)


def _rel(got, want):
    return abs(got - want) / max(abs(want), 1e-300)


class TestBatchedSplit:
    """The batched split and its realization rows against a per-probe
    reference: scalar branch calls and one-point Cauchy-Heine sums."""

    T = 0.07 * cmath.exp(0.2j)

    @staticmethod
    def entire(e):
        return np.exp(0.3 * e) + 0.2 * e * e

    def test_split_matches_per_probe_reference(self):
        cov = four_sector_covering()
        slow, fast = two_level_pair(cov)
        G = _branches(cov, slow, fast, self.entire)
        split = multilevel_split(G, slow, fast, self.T, opts=TIGHT, j_max=3)
        r0 = 0.6 * min(r.length for r in slow.rays)
        # mid-sector and overlap-flank directions, in (-pi, pi], ascending
        angles = sorted(cmath.phase(cmath.exp(1j * a)) for a in
                        [cov.sector(p).bisector for p in range(4)]
                        + [cov.overlap_bisector(p) + s * 0.5 * cov.overlap_half_width(p)
                           for p in range(4) for s in (-1.0, 1.0)])
        ref = []
        for j in range(4):
            for ang in angles:
                e = r0 * 2.0 ** (-j) * cmath.exp(1j * ang)
                per = {}
                for p in range(4):
                    if cov.sector(p).contains(e):
                        per[p] = (complex(G[p](self.T, e))
                                  - cauchy_heine_psi(slow, self.T, e, p, TIGHT)
                                  - cauchy_heine_psi(fast, self.T, e, p, TIGHT))
                ref.append((j, e, per))
        assert len(split.probes) == len(ref)
        for (j, e, per), (rj, re_, rper) in zip(split.probes, ref):
            assert j == rj and _rel(e, re_) <= 1e-15
            assert list(per) == list(rper)
            for p in per:
                assert _rel(per[p], rper[p]) <= 1e-13
        for row in split.cascade:
            vals = [v for (j, _, per) in ref if j == row.j for v in per.values()]
            assert _rel(row.max_abs, max(abs(v) for v in vals)) <= 1e-13
            assert row.max_spread <= 1e-13 * row.max_abs
        assert split.max_abs == max(row.max_abs for row in split.cascade)
        assert split.max_spread == max(row.max_spread for row in split.cascade)

    def test_realization_matches_per_probe_reference(self):
        cov = four_sector_covering()
        slow, fast = two_level_pair(cov)
        G = _branches(cov, slow, fast, self.entire)
        checks = multilevel_split(G, slow, fast, self.T, opts=TIGHT,
                                  j_max=0).realization
        assert len(checks) == 16
        for i, chk in enumerate(checks):
            p = i // 4
            c, hw = cov.overlap_bisector(p), cov.overlap_half_width(p)
            # half the ray length, a quarter and three quarters of the
            # half width clockwise of the cut, then counterclockwise
            off = (-0.25, -0.75, 0.25, 0.75)[i % 4] * hw
            e = 0.5 * slow.rays[p].length * cmath.exp(1j * (c + off))
            assert chk.p == p and _rel(chk.eps, e) <= 1e-15
            lhs = complex(G[(p + 1) % 4](self.T, e)) - complex(G[p](self.T, e))
            rhs = sum(complex(np.asarray(coc.jump(p, self.T, e)).reshape(()))
                      for coc in (slow, fast))
            assert _rel(chk.lhs, lhs) <= 1e-13
            assert _rel(chk.rhs, rhs) <= 1e-13
            assert chk.abs_err == pytest.approx(abs(chk.lhs - chk.rhs), abs=0.0)

    @pytest.mark.parametrize("j_max", [0, 5])
    def test_each_branch_called_once(self, j_max):
        """The split and its realization rows share one call of each G[p]."""
        cov = four_sector_covering()
        slow, fast = two_level_pair(cov)
        calls = [0] * 4
        G = _branches(cov, slow, fast, self.entire, calls)
        split = multilevel_split(G, slow, fast, self.T, opts=TIGHT,
                                 j_max=j_max)
        assert len(split.probes) == 12 * (j_max + 1)
        assert calls == [1, 1, 1, 1]
        assert len(split.realization) == 16
        assert split.max_realization_err == max(c.abs_err for c in split.realization)

    def test_mixed_sector_batch_matches_one_point_calls(self):
        cov = four_sector_covering()
        slow, fast = two_level_pair(cov)
        eps, sectors, pairs = [], [], []
        for p in range(4):
            c, hw = cov.overlap_bisector(p), cov.overlap_half_width(p)
            # both sides of cut p, inside and past the ray tip, each point
            # seen from both sectors of the overlap
            for frac in (0.3, 0.8, 1.05):
                for side in (-0.4, 0.4):
                    e = frac * slow.rays[p].length * cmath.exp(1j * (c + side * hw))
                    pairs.append((p, e, len(eps)))
                    eps += [e, e]
                    sectors += [p, (p + 1) % 4]
            eps.append(0.2 * cmath.exp(1j * cov.sector(p).bisector))
            sectors.append(p)
        for coc in (slow, fast):
            batch = cauchy_heine_many(coc, self.T, eps, sectors, TIGHT)
            assert batch.shape == (len(eps),)
            for e, p, got in zip(eps, sectors, batch):
                want = cauchy_heine_psi(coc, self.T, e, p, TIGHT)
                assert _rel(got, want) <= 1e-13
            # Psi_{p+1} - Psi_p is the jump inside the ray and 0 past its tip
            for p, e, i in pairs:
                jump = complex(np.asarray(coc.jump(p, self.T, e)).reshape(()))
                want = jump if abs(e) < coc.rays[p].length else 0.0
                assert batch[i + 1] - batch[i] == pytest.approx(
                    want, rel=1e-12, abs=1e-15)
        bad = eps + [0.1 * cmath.exp(1j * cov.sector(2).bisector)]
        with pytest.raises(ValueError, match="not in covering sector 0"):
            cauchy_heine_many(slow, self.T, bad, sectors + [0], TIGHT)

class TestGeometryHelpers:
    def test_overlap_rays_sit_on_bisectors(self):
        cov = four_sector_covering()
        rays = overlap_rays(cov)
        for p, ray in enumerate(rays):
            assert ray.direction == pytest.approx(cov.overlap_bisector(p))
            assert ray.length == pytest.approx(0.9 * cov.overlap_radius(p))

    def test_cocycle_shape_validation(self):
        cov = four_sector_covering()
        with pytest.raises(ValueError):
            Cocycle(cov, deltas=(None, None))
