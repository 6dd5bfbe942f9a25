import pytest

from qasym.asymptotics import (RemainderTable, fit_q_gevrey,
                               fit_zero_gevrey_relative, restrict_and_refit)
from qasym.frames import ladder_radius


def planted_table(C, A, q, k, n_max=8, eps_mods=(0.05, 0.1, 0.2, 0.3),
                  noise=0.0, rng=None, with_t=None):
    """Rows that exactly (or noisily) saturate C A^{N+1} q^{N(N+1)/2k} |eps|^{N+1}."""
    table = RemainderTable()
    for N in range(n_max + 1):
        for ae in eps_mods:
            base = C * A ** (N + 1) * q ** (N * (N + 1) / (2.0 * k)) \
                * ae ** (N + 1)
            fac = 1.0
            if noise:
                fac = 1.0 + noise * (2.0 * rng.random() - 1.0)
            t = None if with_t is None else with_t(N)
            table.add(N, ae, base * fac, t=t)
    return table


class TestQGevreyFit:
    def test_exact_recovery_zero_noise(self):
        table = planted_table(2.0, 3.0, 2.0, 1.0)
        fit = fit_q_gevrey(table, 2.0, 1.0)
        assert fit.C_fit == pytest.approx(2.0, rel=1e-10)
        assert fit.A_fit == pytest.approx(3.0, rel=1e-10)
        assert fit.certified and fit.max_violation <= 0.0

    def test_noisy_recovery_within_ten_percent(self, rng):
        table = planted_table(2.0, 3.0, 2.0, 1.0, noise=0.05, rng=rng)
        fit = fit_q_gevrey(table, 2.0, 1.0)
        assert abs(fit.C_fit - 2.0) / 2.0 < 0.10
        assert abs(fit.A_fit - 3.0) / 3.0 < 0.10
        assert fit.certified

    def test_certificate_dominates_every_row(self, rng):
        table = planted_table(1.3, 2.2, 2.0, 2.0, noise=0.3, rng=rng)
        fit = fit_q_gevrey(table, 2.0, 2.0)
        assert fit.certified
        # oracle: recheck every row against the certified constants
        for r in table.rows:
            bound = fit.C_cert * fit.A_fit ** (r.N + 1) \
                * 2.0 ** (r.N * (r.N + 1) / (2.0 * 2.0)) \
                * abs(r.eps) ** (r.N + 1)
            assert r.norm <= bound * (1 + 1e-9)

    def test_bound_method_matches_formula(self):
        table = planted_table(2.0, 3.0, 2.0, 1.0)
        fit = fit_q_gevrey(table, 2.0, 1.0)
        N, ae = 4, 0.22
        expect = fit.C_cert * fit.A_fit ** (N + 1) \
            * 2.0 ** (N * (N + 1) / 2.0) * ae ** (N + 1)
        assert fit.bound(N, ae) == pytest.approx(expect, rel=1e-12)

    def test_zero_norm_rows_floored_not_fatal(self):
        table = RemainderTable()
        for N in range(4):
            table.add(N, 0.1, 0.0)
        table.add(4, 0.1, 1e-12)
        fit = fit_q_gevrey(table, 2.0, 1.0)
        assert fit.floored == 4
        assert fit.certified

    def test_empty_table_rejected(self):
        with pytest.raises(ValueError):
            fit_q_gevrey(RemainderTable(), 2.0, 1.0)


class TestZeroGevreyRelativeFit:
    def test_ladder_respecting_rows_accepted(self):
        q, k = 2.0, 2.0
        table = planted_table(1.5, 2.0, q, 1e18, n_max=6,
                              with_t=lambda N: 0.6 * ladder_radius(q, k, N))
        fit = fit_zero_gevrey_relative(table, q, k)
        assert fit.certified

    def test_out_of_ladder_rows_rejected_by_index(self):
        q, k = 2.0, 2.0
        table = RemainderTable()
        table.add(0, 0.1, 1.0, t=0.5 * ladder_radius(q, k, 0))
        table.add(3, 0.1, 1.0, t=2.0 * ladder_radius(q, k, 3))  # violates |t| <= r_3
        with pytest.raises(ValueError) as ei:
            fit_zero_gevrey_relative(table, q, k)
        assert "1" in str(ei.value)

    def test_requires_t_in_rows(self):
        table = RemainderTable()
        table.add(0, 0.1, 1.0)  # no t recorded
        with pytest.raises(ValueError):
            fit_zero_gevrey_relative(table, 2.0, 1.0)


class TestRestriction:
    def test_restrict_keeps_exactly_the_predicted_rows(self):
        q, k2, k1 = 2.0, 2.0, 1.0
        table = planted_table(1.5, 2.0, q, 1e18, n_max=7,
                              with_t=lambda N: 0.7 * ladder_radius(q, k2, N + 1))
        fit2, fit1, kept = restrict_and_refit(table, q, k2, k1)
        assert fit2.certified and fit1.certified
        # oracle: a row survives iff its |t| fits the coarser ladder
        expect = [r for r in table.rows
                  if abs(r.t) <= q ** (-r.N / (2.0 * k1)) * (1 + 1e-12)]
        assert len(kept.rows) == len(expect)
        assert {(r.N, r.eps) for r in kept.rows} \
            == {(r.N, r.eps) for r in expect}

    def test_requires_strictly_coarser_target(self):
        table = planted_table(1.0, 1.0, 2.0, 1e18, n_max=2,
                              with_t=lambda N: 0.1)
        with pytest.raises(ValueError):
            restrict_and_refit(table, 2.0, 1.0, 2.0)

    def test_raises_when_nothing_survives(self):
        q = 2.0
        table = RemainderTable()
        table.add(8, 0.1, 1.0, t=0.99 * q ** (-8 / (2 * 2.0)))
        with pytest.raises(ValueError):
            restrict_and_refit(table, q, 2.0, 1.0)


class TestRemainders:
    def test_csv_round_trip(self, tmp_path):
        table = planted_table(2.0, 3.0, 2.0, 1.0, n_max=3,
                              with_t=lambda N: 0.3 + 0.1j)
        path = str(tmp_path / "rem.csv")
        table.write_csv(path)
        back = RemainderTable.read_csv(path)
        assert len(back.rows) == len(table.rows)
        for a_row, b_row in zip(table.rows, back.rows):
            assert b_row.N == a_row.N
            assert b_row.eps == pytest.approx(a_row.eps)
            assert b_row.norm == pytest.approx(a_row.norm)
            assert b_row.t == pytest.approx(a_row.t)
