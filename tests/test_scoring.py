"""Loss, argmin-process, functional-criteria and DM-test checks."""

import math

import numpy as np
import pytest
from scipy import special

from arrivalsim.errors import DegenerateSeriesError, ParameterError
from arrivalsim.scoring import (
    LossSpec,
    ScoreReport,
    argmin_process,
    default_tau_grid,
    dm_test,
    eval_functional,
    lower_quantile_index,
    minute_grid,
    product_criteria,
    rho,
    score_cell,
)

GRID = minute_grid(-3.25, -0.5)
SPAN = 2.75


def pinball_minimum(column: np.ndarray, tau: float) -> tuple[float, float]:
    """Exhaustive smallest minimizer of the pinball sum and its value.

    Minimizers of a piecewise-linear convex sum sit on sample points, so
    scanning the sorted unique values suffices.
    """
    best_value, best_arg = math.inf, None
    for candidate in np.unique(column):
        value = float(np.sum(rho((0, tau, 1), column - candidate)))
        if value < best_value - 1e-12:
            best_value, best_arg = value, float(candidate)
    return best_arg, best_value


def reference_score_cell(obs, sims, taus):
    """score_cell as a per-tau loop over scalar order-statistic indices."""
    m = sims.shape[0]
    mean_path = sims.mean(axis=0)
    sims_sorted = np.sort(sims, axis=0)
    median_path = 0.5 * (sims_sorted[(m - 1) // 2] + sims_sorted[m // 2])
    bias = 2.0 * eval_functional(obs, mean_path, (1, 0.5, 1))
    mae = 2.0 * eval_functional(obs, median_path, (0, 0.5, 1))
    rmse = 2.0 * eval_functional(obs, mean_path, (0, 0.5, 2))
    index = [min(max(math.ceil(float(tau) * m - 1e-9), 1), m) - 1 for tau in taus]
    paths = sims_sorted[index]
    paths[taus == 0.5] = median_path
    z = obs - paths
    pb = np.sum(np.abs(z) * np.abs(taus[:, None] - (z < 0.0)), axis=1) * (1 / 60)
    return bias, mae, rmse, pb


def reference_dm_matrix(daily: np.ndarray, q: int) -> np.ndarray:
    """The DM p-value matrix as a loop over ordered model pairs, each
    tested on the days both models have."""
    norms = np.abs(daily).sum(axis=-1) if q == 1 else np.sqrt((daily * daily).sum(axis=-1))
    present = ~np.isnan(daily).any(axis=2)
    k = daily.shape[0]
    out = np.full((k, k), np.nan)
    for i in range(k):
        for j in range(k):
            keep = present[i] & present[j]
            if i == j or keep.sum() < 2:
                continue
            delta = norms[i][keep] - norms[j][keep]
            sd = float(np.std(delta, ddof=1))
            if sd == 0.0:
                continue
            statistic = math.sqrt(delta.size) * float(np.mean(delta)) / sd
            out[i, j] = float(special.ndtr(statistic))
    return out


class TestRho:
    def test_median_arm(self):
        assert rho((0, 0.5, 1), -3.0) == pytest.approx(1.5)

    def test_pinball_arms(self):
        assert rho((0, 0.25, 1), 2.0) == pytest.approx(0.5)
        assert rho((0, 0.25, 1), -2.0) == pytest.approx(1.5)

    def test_signed_variant_keeps_sign(self):
        assert rho((1, 0.5, 1), -3.0) == pytest.approx(-1.5)
        assert rho((1, 0.5, 1), 3.0) == pytest.approx(1.5)

    def test_quadratic(self):
        assert rho((0, 0.5, 2), -2.0) == pytest.approx(2.0)

    def test_validation(self):
        with pytest.raises(ParameterError):
            LossSpec(2, 0.5, 1)
        with pytest.raises(ParameterError):
            LossSpec(0, 0.0, 1)
        with pytest.raises(ParameterError):
            LossSpec(0, 0.5, 0.5)
        with pytest.raises(ParameterError):
            LossSpec(1, 0.5, 1.5)  # fractional power of negative z


class TestArgminProcess:
    def test_mean(self):
        sims = np.array([[1.0], [2.0], [3.0]])
        assert argmin_process(sims, (0, 0.5, 2))[0] == pytest.approx(2.0)

    def test_signed_mean_loss_equivalent(self):
        sims = np.random.default_rng(0).poisson(5.0, size=(40, 7)).astype(float)
        np.testing.assert_array_equal(
            argmin_process(sims, (0, 0.5, 2)), argmin_process(sims, (1, 0.5, 2))
        )

    def test_median_midpoint(self):
        sims = np.array([[0.0], [1.0], [3.0], [10.0]])
        assert argmin_process(sims, (0, 0.5, 1))[0] == pytest.approx(2.0)

    def test_lower_quantile_on_tie(self):
        """tau*M integer: the minimizer set is an interval; take its lower
        end (verified by exhaustive search)."""
        sims = np.array([[0.0], [1.0], [2.0], [3.0]])
        got = argmin_process(sims, (0, 0.25, 1))[0]
        arg, value = pinball_minimum(sims[:, 0], 0.25)
        assert got == arg == 0.0
        assert float(np.sum(rho((0, 0.25, 1), sims[:, 0] - got))) == pytest.approx(value)

    def test_m1_returns_the_single_path(self):
        sims = np.array([[3.0, 4.0, 4.0]])
        for loss in ((0, 0.5, 2), (0, 0.5, 1), (0, 0.3, 1), (0, 0.9, 1)):
            np.testing.assert_array_equal(argmin_process(sims, loss), sims[0])

    def test_matches_bruteforce_on_random_counts(self):
        rng = np.random.default_rng(17)
        sims = rng.poisson(8.0, size=(12, 9)).astype(float)
        for tau in (0.1, 0.25, 1 / 3, 0.5, 0.75, 0.9):
            got = argmin_process(sims, (0, tau, 1))
            for j in range(sims.shape[1]):
                arg, value = pinball_minimum(sims[:, j], tau)
                attained = float(np.sum(rho((0, tau, 1), sims[:, j] - got[j])))
                assert attained == pytest.approx(value, abs=1e-9)
                if tau != 0.5:
                    assert got[j] == arg

    def test_unsupported_loss_rejected(self):
        sims = np.zeros((3, 2))
        for loss in ((0, 0.3, 2), (1, 0.5, 1), (0, 0.5, 3)):
            with pytest.raises(ParameterError):
                argmin_process(sims, loss)

    def test_quantile_index(self):
        # M=4: tau=0.25 hits the tie interval, lower end is z_(1)
        assert lower_quantile_index(0.25, 4) == 0
        assert lower_quantile_index(0.26, 4) == 1
        assert lower_quantile_index(0.5, 7) == 3
        assert lower_quantile_index(0.99, 50) == 49
        assert lower_quantile_index(0.01, 50) == 0
        np.testing.assert_array_equal(
            lower_quantile_index(np.array([0.25, 0.26, 0.99, 0.01]), 4), [0, 1, 3, 0]
        )


class TestEvalFunctional:
    def test_zero_for_identical_paths(self):
        path = np.arange(GRID.size, dtype=float)
        assert eval_functional(path, path, (0, 0.5, 1)) == 0.0

    def test_constant_gap_absolute(self):
        obs = np.ones(GRID.size)
        est = np.zeros(GRID.size)
        assert eval_functional(obs, est, (0, 0.5, 1)) == pytest.approx(
            0.5 * SPAN, abs=1e-12
        )

    def test_constant_gap_quadratic(self):
        obs = np.ones(GRID.size)
        est = np.zeros(GRID.size)
        assert eval_functional(obs, est, (0, 0.5, 2)) == pytest.approx(
            math.sqrt(0.5 * SPAN), abs=1e-12
        )

    def test_signed_gap_can_be_negative(self):
        obs = np.zeros(GRID.size)
        est = np.ones(GRID.size)
        assert eval_functional(obs, est, (1, 0.5, 1)) == pytest.approx(-0.5 * SPAN)

    def test_grid_mismatch_rejected(self):
        with pytest.raises(ParameterError):
            eval_functional(np.zeros(5), np.zeros(6), (0, 0.5, 1))


class TestMinuteGrid:
    def test_id3_window(self):
        assert GRID.size == 165
        assert GRID[0] == -3.25
        assert GRID[-1] == pytest.approx(-0.5 - 1 / 60)

    def test_rejects_fractional_minutes(self):
        with pytest.raises(ParameterError):
            minute_grid(0.0, 0.0105)


class TestScoreCell:
    def test_perfect_forecast_scores_zero(self):
        obs = np.cumsum(np.random.default_rng(0).poisson(0.5, GRID.size)).astype(float)
        sims = np.tile(obs, (20, 1))
        taus = default_tau_grid()
        scores = score_cell(obs, sims, taus)
        assert scores.bias == scores.mae == scores.rmse == scores.crps == 0.0

    def test_degenerate_constant_gap(self):
        """M identical paths one count below the observation."""
        base = np.cumsum(np.random.default_rng(1).poisson(0.4, GRID.size)).astype(float)
        sims = np.tile(base, (7, 1))
        obs = base + 1.0
        taus = default_tau_grid()
        scores = score_cell(obs, sims, taus)
        assert scores.mae == pytest.approx(SPAN, abs=1e-9)
        assert scores.rmse == pytest.approx(2.0 * math.sqrt(0.5 * SPAN), abs=1e-9)
        assert scores.crps == pytest.approx(0.5 * SPAN, abs=1e-9)
        assert scores.bias == pytest.approx(SPAN, abs=1e-9)

    def test_median_pinball_identity(self):
        """2 * PB_0.5 equals MAE, exactly, on random inputs."""
        rng = np.random.default_rng(2)
        taus = default_tau_grid()
        for _ in range(5):
            obs = np.cumsum(rng.poisson(0.6, GRID.size)).astype(float)
            sims = np.cumsum(rng.poisson(0.6, size=(24, GRID.size)), axis=1).astype(float)
            scores = score_cell(obs, sims, taus)
            assert 2.0 * scores.pb[49] == scores.mae
            assert taus[49] == 0.5

    def test_mae_is_that_of_the_median_process(self):
        """The median path taken from the sorted sample is argmin_process's
        midpoint median, bitwise, for odd and even M."""
        rng = np.random.default_rng(4)
        taus = default_tau_grid(9)
        obs = rng.uniform(0.0, 50.0, GRID.size)
        for m in (1, 2, 7, 24):
            sims = rng.uniform(0.0, 50.0, size=(m, GRID.size))
            median = argmin_process(sims, (0, 0.5, 1))
            mae = 2.0 * eval_functional(obs, median, (0, 0.5, 1))
            assert score_cell(obs, sims, taus).mae == mae

    @pytest.mark.parametrize("m", [1, 2, 7, 40, 1000])
    @pytest.mark.parametrize("size", [9, 99])
    def test_matches_the_per_tau_reference(self, m, size):
        """Bitwise, including tau*M integer ties (M = 40 and 1000 hit them
        on both grids).  Paths with distinct values make every order
        statistic show."""
        rng = np.random.default_rng(m * 100 + size)
        taus = default_tau_grid(size)
        obs = np.cumsum(rng.exponential(1.0, GRID.size))
        sims = np.cumsum(rng.exponential(1.0, size=(m, GRID.size)), axis=1)
        scores = score_cell(obs, sims, taus)
        bias, mae, rmse, pb = reference_score_cell(obs, sims, taus)
        assert (scores.bias, scores.mae, scores.rmse) == (bias, mae, rmse)
        np.testing.assert_array_equal(scores.pb, pb)

    def test_crps_invariant_under_trajectory_permutation(self):
        rng = np.random.default_rng(3)
        obs = np.cumsum(rng.poisson(0.6, GRID.size)).astype(float)
        sims = np.cumsum(rng.poisson(0.6, size=(15, GRID.size)), axis=1).astype(float)
        taus = default_tau_grid()
        a = score_cell(obs, sims, taus)
        b = score_cell(obs, sims[rng.permutation(15)], taus)
        assert a.crps == pytest.approx(b.crps, rel=1e-12)
        np.testing.assert_allclose(a.pb, b.pb, rtol=1e-12)

    def test_mean_process_unbiased_on_self_simulated_data(self):
        """Bias of the mean process over data from the same law shrinks to
        Monte Carlo noise."""
        rng = np.random.default_rng(4)
        lam = 50.0 / 60.0  # per-minute intensity
        sims = np.cumsum(rng.poisson(lam, size=(400, GRID.size)), axis=1).astype(float)
        taus = np.array([0.5])
        biases = []
        for _ in range(60):
            obs = np.cumsum(rng.poisson(lam, GRID.size)).astype(float)
            biases.append(score_cell(obs, sims, taus).bias)
        biases = np.asarray(biases)
        se = biases.std(ddof=1) / math.sqrt(biases.size)
        assert abs(biases.mean()) < 3.0 * se


class TestProductCriteria:
    def test_missing_cells_excluded_and_counted(self):
        taus = default_tau_grid(9)
        obs = np.ones(GRID.size)
        sims = np.zeros((4, GRID.size))
        cell = score_cell(obs, sims, taus)
        out = product_criteria([cell, None, cell], n_taus=9)
        assert out.n_days == 2
        assert out.n_missing == 1
        assert out.mae == pytest.approx(cell.mae)
        assert np.isnan(out.daily_crps[1])

    def test_all_missing(self):
        out = product_criteria([None, None], n_taus=5)
        assert math.isnan(out.crps)
        assert out.n_missing == 2


class TestDMTest:
    def test_norms(self):
        loss_a = np.array([[3.0, 4.0], [6.0, 8.0], [3.0, 4.0]])
        loss_b = np.zeros((3, 2))
        r1 = dm_test(loss_a, loss_b, q=1)
        delta1 = np.array([7.0, 14.0, 7.0])
        expected1 = math.sqrt(3) * delta1.mean() / delta1.std(ddof=1)
        assert r1.statistic == pytest.approx(expected1, rel=1e-12)
        r2 = dm_test(loss_a, loss_b, q=2)
        delta2 = np.array([5.0, 10.0, 5.0])
        expected2 = math.sqrt(3) * delta2.mean() / delta2.std(ddof=1)
        assert r2.statistic == pytest.approx(expected2, rel=1e-12)

    def test_antisymmetry_exact(self):
        rng = np.random.default_rng(5)
        loss_a = rng.gamma(2.0, 1.0, size=(120, 4))
        loss_b = rng.gamma(2.0, 1.1, size=(120, 4))
        ab = dm_test(loss_a, loss_b, q=1)
        ba = dm_test(loss_b, loss_a, q=1)
        assert ab.statistic == -ba.statistic
        assert ab.p_h0_le == ba.p_h0_ge
        assert ab.p_h0_ge == ba.p_h0_le

    def test_pvalues_complementary(self):
        rng = np.random.default_rng(6)
        res = dm_test(rng.gamma(2, 1, (50, 2)), rng.gamma(2, 1, (50, 2)))
        assert res.p_h0_le + res.p_h0_ge == pytest.approx(1.0, abs=1e-12)

    def test_direction(self):
        """A clearly better (smaller-loss) model A drives p_h0_ge to zero."""
        rng = np.random.default_rng(7)
        base = rng.gamma(5.0, 1.0, size=(200, 3))
        res = dm_test(base, base + 1.0, q=1)
        assert res.statistic < 0
        assert res.p_h0_ge < 1e-6
        assert res.p_h0_le > 1.0 - 1e-6

    def test_identical_losses_degenerate(self):
        loss = np.ones((40, 2))
        with pytest.raises(DegenerateSeriesError):
            dm_test(loss, loss.copy())

    def test_univariate_series_accepted(self):
        rng = np.random.default_rng(8)
        res = dm_test(rng.gamma(2, 1, 60), rng.gamma(2, 1, 60), q=1)
        assert math.isfinite(res.statistic)

    def test_rejects_bad_q(self):
        with pytest.raises(ParameterError):
            dm_test(np.ones((10, 2)), np.zeros((10, 2)), q=3)


class TestDMMatrix:
    @staticmethod
    def report(daily: np.ndarray) -> ScoreReport:
        k, n, s = daily.shape
        zeros = np.zeros((k, s))
        return ScoreReport(
            models=[f"m{i}" for i in range(k)],
            products=list(range(1, s + 1)),
            taus=default_tau_grid(3),
            day_labels=[str(d) for d in range(n)],
            bias=zeros, mae=zeros, rmse=zeros, crps=zeros,
            pb=np.zeros((k, s, 3)),
            daily_crps=daily,
            missing=np.zeros((k, s), dtype=int),
        )

    @pytest.mark.parametrize("q", [1, 2])
    @pytest.mark.parametrize("k, n, s, scattered", [
        (5, 2, 1, 0.0),
        (5, 30, 3, 0.0),
        (37, 365, 24, 0.002),  # nearly every pair has days of its own
    ])
    def test_matches_pairwise_dm_test(self, q, k, n, s, scattered):
        rng = np.random.default_rng(9)
        daily = rng.gamma(2.0, 1.0, size=(k, n, s))
        daily[rng.random(daily.shape) < scattered] = np.nan
        daily[2, 4 % n, 1 % s] = np.nan  # one missing day
        daily[3] = daily[0]  # identical pair: degenerate
        daily[4] = np.nan
        daily[4, 7 % n] = 1.0  # a single shared day with anyone
        matrix = self.report(daily).dm_matrix(q=q)

        np.testing.assert_array_equal(matrix, reference_dm_matrix(daily, q))
        keep = ~(np.isnan(daily[0]).any(axis=1) | np.isnan(daily[1]).any(axis=1))
        assert dm_test(daily[0][keep], daily[1][keep], q=q).p_h0_ge == matrix[0, 1]
        assert np.isnan(np.diag(matrix)).all()
        assert np.isnan(matrix[0, 3]) and np.isnan(matrix[3, 0])
        assert np.isnan(matrix[4]).all() and np.isnan(matrix[:, 4]).all()
        # with two days, the missing one leaves model 2 a single shared day
        assert np.isfinite(matrix[2, [0, 1, 3]]).all() == (n > 2)
        assert np.isfinite(matrix[0, 1])
