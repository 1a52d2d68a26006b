from dataclasses import replace

import numpy as np
import pytest

from fbsde_filter.kalman import model_kalman, model_riccati
from fbsde_filter.model import TimeGrid
from fbsde_filter.particle import (
    pi_estimate,
    resample_multinomial,
    run_particle_filter,
    sigma_estimate,
)
from fbsde_filter.sde_sim import (
    normalized_weights,
    simulate_girsanov_ensemble,
    simulate_innovation_ensemble,
    simulate_truth_and_obs,
)

from conftest import make_scalar

ONES = lambda x: np.ones_like(np.asarray(x, dtype=float))
IDENT = lambda x: np.asarray(x, dtype=float)


class TestSigmaEstimate:
    def test_unit_weights(self, grid_500):
        model = make_scalar("linear", {"a": -1.0}, h="constant", h_params={"c": 0.0})
        obs = simulate_truth_and_obs(model, grid_500, seed=1)
        ens = simulate_girsanov_ensemble(model, grid_500, obs, 40, seed=1)
        est = sigma_estimate(ens, ONES)
        np.testing.assert_array_equal(est.values, 1.0)
        np.testing.assert_array_equal(est.std_err, 0.0)

    def test_constant_h_closed_form(self, grid_500):
        c = 0.7
        model = make_scalar("linear", {"a": -1.0}, h="constant", h_params={"c": c})
        obs = simulate_truth_and_obs(model, grid_500, seed=5)
        ens = simulate_girsanov_ensemble(model, grid_500, obs, 60, seed=5)
        est = sigma_estimate(ens, ONES)
        expected = np.exp(c * obs.Z[-1] - 0.5 * c * c)
        assert est.values[-1] == pytest.approx(expected, rel=1e-12)
        assert est.std_err[-1] < 1e-12  # identical weights across paths

    def test_lg_ratio_matches_kalman(self, lg_benchmark, lg_scalar, grid_1k):
        obs = simulate_truth_and_obs(lg_benchmark, grid_1k, seed=99)
        state = model_kalman(lg_benchmark, obs)
        ens = simulate_girsanov_ensemble(lg_scalar, grid_1k, obs, 5000, seed=99)
        num = sigma_estimate(ens, IDENT)
        den = sigma_estimate(ens, ONES)
        ratio = num.values[-1] / den.values[-1]
        ratio_se = pi_estimate(ens, IDENT).std_err[-1]
        assert abs(ratio - state.mean[-1, 0]) < 3 * ratio_se


class TestPiEstimate:
    def test_normalization_exact(self, lg_scalar, grid_500):
        obs = simulate_truth_and_obs(lg_scalar, grid_500, seed=2)
        ens = simulate_girsanov_ensemble(lg_scalar, grid_500, obs, 128, seed=2)
        est = pi_estimate(ens, ONES)
        np.testing.assert_allclose(est.values, 1.0, rtol=1e-14)

    def test_zero_h_plain_mean(self, grid_500):
        model = make_scalar("linear", {"a": -1.0}, h="constant", h_params={"c": 0.0})
        obs = simulate_truth_and_obs(model, grid_500, seed=3)
        ens = simulate_girsanov_ensemble(model, grid_500, obs, 64, seed=3)
        est = pi_estimate(ens, IDENT)
        np.testing.assert_allclose(est.values, ens.states.mean(axis=0), rtol=1e-13)

    def test_lg_matches_kalman(self, lg_benchmark, lg_scalar, grid_1k):
        obs = simulate_truth_and_obs(lg_benchmark, grid_1k, seed=123)
        state = model_kalman(lg_benchmark, obs)
        ens = simulate_innovation_ensemble(lg_scalar, grid_1k, obs, 5000, seed=123)
        est = pi_estimate(ens, IDENT)
        assert abs(est.values[-1] - state.mean[-1, 0]) < 3 * est.std_err[-1]

    def test_consistency_with_sigma_ratio(self, lg_scalar, grid_500):
        obs = simulate_truth_and_obs(lg_scalar, grid_500, seed=4)
        ens = simulate_girsanov_ensemble(lg_scalar, grid_500, obs, 256, seed=4)
        ratio = sigma_estimate(ens, IDENT).values / sigma_estimate(ens, ONES).values
        np.testing.assert_allclose(pi_estimate(ens, IDENT).values, ratio, rtol=1e-12)

    def test_external_normalization(self, lg_scalar, grid_500):
        obs = simulate_truth_and_obs(lg_scalar, grid_500, seed=4)
        ens = simulate_girsanov_ensemble(lg_scalar, grid_500, obs, 256, seed=4)
        norm = sigma_estimate(ens, ONES).values
        ext = pi_estimate(ens, IDENT, normalization="external", normalizer=norm)
        np.testing.assert_allclose(ext.values, pi_estimate(ens, IDENT).values,
                                   rtol=1e-12)

    @pytest.mark.parametrize("shift", [-800.0, 800.0])
    def test_a_common_log_weight_shift_cancels(self, lg_scalar, shift):
        # exp(-800) underflows and exp(800) overflows: the weights must be shifted
        grid = TimeGrid(1.0, 100)
        obs = simulate_truth_and_obs(lg_scalar, grid, seed=9)
        ens = simulate_girsanov_ensemble(lg_scalar, grid, obs, 200, seed=9)
        shifted = replace(ens, log_weights_girsanov=ens.log_weights_girsanov + shift)
        est, moved = pi_estimate(ens, IDENT), pi_estimate(shifted, IDENT)
        for field in ("values", "std_err", "ess"):
            np.testing.assert_allclose(getattr(moved, field), getattr(est, field),
                                       rtol=1e-12, atol=0.0)

    def test_ess_bounds(self, lg_scalar, grid_500):
        obs = simulate_truth_and_obs(lg_scalar, grid_500, seed=4)
        ens = simulate_girsanov_ensemble(lg_scalar, grid_500, obs, 256, seed=4)
        est = pi_estimate(ens, IDENT)
        assert np.all(est.ess > 0.0) and np.all(est.ess <= 256.0)


class TestResampling:
    def test_uniform_weights_permutation(self, grid_500):
        model = make_scalar("linear", {"a": -1.0}, h="constant", h_params={"c": 0.0})
        obs = simulate_truth_and_obs(model, grid_500, seed=6)
        ens = simulate_girsanov_ensemble(model, grid_500, obs, 200, seed=6)
        res = resample_multinomial(ens, seed=1)
        # every resampled path is one of the originals
        orig = {tuple(row) for row in ens.states}
        assert all(tuple(row) in orig for row in res.states)
        assert res.resample_steps == (grid_500.n_steps,)
        assert normalized_weights(res.log_weights_girsanov[:, -1])[2] == pytest.approx(200.0)

    def test_degenerate_weights_copy_winner(self, lg_scalar, grid_500):
        obs = simulate_truth_and_obs(lg_scalar, grid_500, seed=7)
        ens = simulate_girsanov_ensemble(lg_scalar, grid_500, obs, 50, seed=7)
        lw = ens.log_weights_girsanov.copy()
        lw[:, -1] = -1e6
        lw[17, -1] = 0.0
        spiked = replace(ens, log_weights_girsanov=lw)
        res = resample_multinomial(spiked, seed=2)
        np.testing.assert_array_equal(
            res.states, np.tile(ens.states[17], (50, 1)))

    def test_mean_preserved_in_expectation(self, lg_scalar, grid_500):
        obs = simulate_truth_and_obs(lg_scalar, grid_500, seed=8)
        ens = simulate_girsanov_ensemble(lg_scalar, grid_500, obs, 2000, seed=8)
        before = pi_estimate(ens, IDENT).values[-1]
        after = []
        for s in range(40):
            res = resample_multinomial(ens, seed=s)
            w = np.exp(res.log_weights_girsanov[:, -1])
            after.append(np.dot(w, res.states[:, -1]) / w.sum())
        after = np.array(after)
        se = after.std(ddof=1) / np.sqrt(len(after)) + 1e-12
        assert abs(after.mean() - before) < 4 * se


class TestParticleFilter:
    def test_long_horizon_tracks_kalman(self, lg_benchmark, lg_scalar):
        grid = TimeGrid(5.0, 1000)
        obs = simulate_truth_and_obs(lg_benchmark, grid, seed=31)
        state = model_kalman(lg_benchmark, obs)
        result = run_particle_filter(lg_scalar, grid, obs, 5000, seed=31,
                                     ess_floor=0.5)
        err = result.estimates["x"].values - state.mean[:, 0]
        assert np.sqrt(np.mean(err**2)) < 0.05
        assert result.ess.min() >= 0.4 * 5000
        assert len(result.resample_steps) >= 1
        # the raw (non-resampled) ensemble degenerates over the same horizon
        raw = simulate_girsanov_ensemble(lg_scalar, grid, obs, 5000, seed=31)
        raw_ess = normalized_weights(raw.log_weights_girsanov[:, -1])[2]
        assert raw_ess < 0.5 * 5000

    def test_reports_the_ess_that_fired_each_resampling(self):
        model = make_scalar("double_well", sigma=0.5, h="linear", h_params={"a": 5.0},
                            f="indicator_positive")
        grid = TimeGrid(1.0, 200)
        obs = simulate_truth_and_obs(model, grid, seed=11)
        result = run_particle_filter(model, grid, obs, 2000, seed=12, ess_floor=0.5)
        steps = list(result.resample_steps)
        assert len(steps) >= 3
        assert np.all(result.ess[steps] < 0.5 * 2000)
        # the estimates are computed on the offspring, whose weights are equal
        assert np.all(result.estimates["x"].ess[steps] == 2000.0)
        kept = np.setdiff1d(np.arange(grid.n_steps + 1), steps)
        assert np.array_equal(result.estimates["x"].ess[kept], result.ess[kept])

    def test_mc_convergence_rate(self, lg_benchmark, lg_scalar):
        # |pi_T[x] - m_T| shrinks like N^{-1/2}: log-log slope -0.5 +- 0.15
        grid = TimeGrid(1.0, 200)
        Sigma = model_riccati(lg_benchmark, grid)
        sizes = (100, 1000, 10000)
        rms = []
        for n in sizes:
            errs = []
            for rep in range(30):
                obs = simulate_truth_and_obs(lg_benchmark, grid, seed=880_000 + rep)
                state = model_kalman(lg_benchmark, obs, Sigma)
                ens = simulate_innovation_ensemble(lg_scalar, grid, obs, n,
                                                   seed=(n + rep) * 13 + 1)
                est = pi_estimate(ens, IDENT)
                errs.append(est.values[-1] - state.mean[-1, 0])
            rms.append(np.sqrt(np.mean(np.square(errs))))
        slope = np.polyfit(np.log(sizes), np.log(rms), 1)[0]
        assert abs(slope + 0.5) < 0.15


def test_conditional_estimate_csv(tmp_path, lg_scalar, grid_500):
    obs = simulate_truth_and_obs(lg_scalar, grid_500, seed=2)
    ens = simulate_girsanov_ensemble(lg_scalar, grid_500, obs, 32, seed=2)
    est = pi_estimate(ens, IDENT)
    path = tmp_path / "pi.csv"
    est.to_csv(path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "t,value,std_err,ess"
    assert len(lines) == grid_500.n_steps + 2
