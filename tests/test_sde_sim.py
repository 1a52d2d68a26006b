import dataclasses

import numpy as np
import pytest

from fbsde_filter.errors import GridMismatch, MissingTruthPath, SimulationDiverged, WeightCollapse
from fbsde_filter.kalman import model_kalman, model_riccati
from fbsde_filter.model import TimeGrid
from fbsde_filter.sde_sim import (
    STREAM_TRUTH_OBS,
    STREAM_TRUTH_STATE,
    ObservationRecord,
    PathEnsemble,
    compute_innovation,
    compute_observation_error,
    cumulative_path,
    normalized_weights,
    simulate_girsanov_ensemble,
    simulate_innovation_ensemble,
    simulate_truth_and_obs,
    truth_draws,
)

from conftest import make_scalar, ou_terminal_variance


class TestTruthAndObs:
    def test_deterministic_repeat(self, lg_scalar, grid_500):
        a = simulate_truth_and_obs(lg_scalar, grid_500, seed=9)
        b = simulate_truth_and_obs(lg_scalar, grid_500, seed=9)
        assert np.array_equal(a.Z, b.Z)
        assert np.array_equal(a.X_truth, b.X_truth)
        c = simulate_truth_and_obs(lg_scalar, grid_500, seed=10)
        assert not np.array_equal(a.Z, c.Z)

    def test_z_starts_at_zero_and_cumulates(self, lg_scalar, grid_500):
        obs = simulate_truth_and_obs(lg_scalar, grid_500, seed=3)
        assert obs.Z[0] == 0.0
        np.testing.assert_array_equal(obs.Z[1:], np.cumsum(obs.dZ))

    def test_pure_brownian_observation(self):
        # b = 0, h = 0: Z is a Brownian path; Var(Z_T) ~ T over 1e4 seeds
        model = make_scalar("constant", {"c": 0.0}, h="constant",
                            h_params={"c": 0.0})
        grid = TimeGrid(1.0, 100)
        z_T = np.array([simulate_truth_and_obs(model, grid, seed=s).Z[-1]
                        for s in range(10_000)])
        var = z_T.var(ddof=1)
        se = var * np.sqrt(2.0 / (len(z_T) - 1))
        assert abs(var - 1.0) < 3 * se

    def test_ou_terminal_variance(self):
        # dX = -X dt + dB with X0 ~ N(0,1): moment-ODE oracle for Var(X_T)
        model = make_scalar("linear", {"a": -1.0})
        grid = TimeGrid(1.0, 100)
        x_T = np.array([simulate_truth_and_obs(model, grid, seed=s).X_truth[-1]
                        for s in range(10_000)])
        target = ou_terminal_variance(1.0, var0=1.0)
        var = x_T.var(ddof=1)
        se = var * np.sqrt(2.0 / (len(x_T) - 1))
        assert abs(var - target) < 3 * se + 0.01  # + Euler bias allowance

    def test_divergence_guard(self):
        model = make_scalar("cubic", {"c": 1.0}, sigma=0.1, prior=(3.0, 0.01))
        with pytest.raises(SimulationDiverged):
            simulate_truth_and_obs(model, TimeGrid(1.0, 1000), seed=1)

    def test_vector_lg_simulation(self):
        from fbsde_filter.model import LinearGaussianModelSpec
        model = LinearGaussianModelSpec(A=[[0.0, 1.0], [0.0, 0.0]], H=[[1.0], [0.0]],
                                        sigma=0.5, m0=[0.0, 0.0],
                                        Sigma0=[[1.0, 0.0], [0.0, 1.0]], f_bar=[1.0, 0.0])
        obs = simulate_truth_and_obs(model, TimeGrid(1.0, 50), seed=4)
        assert obs.X_truth.shape == (51, 2)
        assert obs.Z.shape == (51, 1)
        np.testing.assert_array_equal(obs.Z[0], [0.0])


class TestGirsanovEnsemble:
    def test_zero_h_unit_weights(self, grid_500):
        model = make_scalar("linear", {"a": -1.0}, h="constant", h_params={"c": 0.0})
        obs = simulate_truth_and_obs(model, grid_500, seed=2)
        ens = simulate_girsanov_ensemble(model, grid_500, obs, 50, seed=2)
        np.testing.assert_array_equal(ens.log_weights_girsanov, 0.0)

    def test_constant_h_closed_form(self, grid_500):
        # every path carries exactly exp(c Z_T - c^2 T / 2)
        c = 0.7
        model = make_scalar("linear", {"a": -1.0}, h="constant", h_params={"c": c})
        obs = simulate_truth_and_obs(model, grid_500, seed=5)
        ens = simulate_girsanov_ensemble(model, grid_500, obs, 100, seed=5)
        expected = np.exp(c * obs.Z[-1] - 0.5 * c * c * grid_500.t_end)
        np.testing.assert_allclose(np.exp(ens.log_weights_girsanov[:, -1]),
                                   expected, rtol=1e-12)

    def test_martingale_mean_fresh_obs(self, lg_scalar):
        # fresh per-path Brownian observation increments: E[w_t] = 1 at all times
        grid = TimeGrid(1.0, 100)
        ens = simulate_girsanov_ensemble(lg_scalar, grid, None, 100_000, seed=11)
        w = np.exp(ens.log_weights_girsanov)
        means = w.mean(axis=0)
        ses = w.std(axis=0, ddof=1) / np.sqrt(w.shape[0])
        dev = np.abs(means[1:] - 1.0) / ses[1:]
        assert dev.max() < 3.0

    def test_determinism(self, lg_scalar, grid_500):
        obs = simulate_truth_and_obs(lg_scalar, grid_500, seed=8)
        a = simulate_girsanov_ensemble(lg_scalar, grid_500, obs, 64, seed=8)
        b = simulate_girsanov_ensemble(lg_scalar, grid_500, obs, 64, seed=8)
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.log_weights_girsanov, b.log_weights_girsanov)

    def test_weight_collapse_signal(self, lg_scalar):
        grid = TimeGrid(5.0, 500)
        obs = simulate_truth_and_obs(lg_scalar, grid, seed=31)
        with pytest.warns(WeightCollapse):
            ens = simulate_girsanov_ensemble(lg_scalar, grid, obs, 200, seed=31,
                                             ess_floor=0.5)
        assert ens.collapse_step is not None

    def test_npz_round_trip(self, lg_scalar, grid_500, tmp_path):
        obs = simulate_truth_and_obs(lg_scalar, grid_500, seed=8)
        ens = simulate_girsanov_ensemble(lg_scalar, grid_500, obs, 16, seed=8)
        path = tmp_path / "ens.npz"
        ens.to_npz(path)
        back = ens.from_npz(path)
        assert back.states.T.flags.c_contiguous  # the time-major layout is kept
        assert ens.states.tobytes() == back.states.tobytes()
        assert ens.log_weights_girsanov.tobytes() == back.log_weights_girsanov.tobytes()
        # a file written from path-major (C-ordered) arrays loads with the same values
        c_path = tmp_path / "ens_c.npz"
        dataclasses.replace(
            ens, states=np.ascontiguousarray(ens.states),
            log_weights_girsanov=np.ascontiguousarray(ens.log_weights_girsanov)).to_npz(c_path)
        c_back = PathEnsemble.from_npz(c_path)
        assert c_back.states.flags.c_contiguous
        assert ens.states.tobytes() == c_back.states.tobytes()
        assert ens.log_weights_girsanov.tobytes() == c_back.log_weights_girsanov.tobytes()
        # every field of both records survives, the scalars and the tuple included
        inn = simulate_innovation_ensemble(lg_scalar, grid_500, obs, 16, seed=8)
        full = dataclasses.replace(inn, log_weights_girsanov=ens.log_weights_girsanov,
                                   stream=4, resample_steps=(3, 17), collapse_step=17)
        for record, kind in ((full, PathEnsemble), (obs, ObservationRecord)):
            record.to_npz(tmp_path / "full.npz")
            back = kind.from_npz(tmp_path / "full.npz")
            for field in dataclasses.fields(kind):
                saved, loaded = getattr(record, field.name), getattr(back, field.name)
                assert saved is not None, field.name
                assert type(loaded) is type(saved), field.name
                assert np.array_equal(loaded, saved) if isinstance(saved, np.ndarray) \
                    else loaded == saved, field.name

    def test_an_npz_z_that_disagrees_with_its_dz_is_ignored(self, lg_scalar, grid_500,
                                                            tmp_path):
        obs = simulate_truth_and_obs(lg_scalar, grid_500, seed=8)
        obs.to_npz(tmp_path / "obs.npz")
        with np.load(tmp_path / "obs.npz") as data:
            saved = dict(data)
        # an older file also stores Z and noise_cum; here its Z is not dZ's
        np.savez_compressed(tmp_path / "old.npz", **{**saved, "Z": 2.0 * obs.Z,
                                                     "noise_cum": np.zeros_like(obs.Z)})
        back = ObservationRecord.from_npz(tmp_path / "old.npz")
        assert back.Z.tobytes() == cumulative_path(obs.dZ).tobytes()
        assert back.Z.tobytes() == obs.Z.tobytes()
        assert "Z" not in saved and "noise_cum" not in saved
        assert [f.name for f in dataclasses.fields(ObservationRecord)] == [
            "grid", "dZ", "X_truth", "seed"]

    def test_malformed_arrays_are_rejected(self, lg_scalar, grid_500):
        obs = simulate_truth_and_obs(lg_scalar, grid_500, seed=8)
        ens = simulate_innovation_ensemble(lg_scalar, grid_500, obs, 16, seed=8)
        K = grid_500.n_steps
        bad = {"states": ens.states[:, :30],
               "log_weights_innovation": ens.log_weights_innovation[:, 1:],
               "log_weights_girsanov": ens.log_weights_innovation[:8],
               "pi_h_path": ens.pi_h_path[:-1],
               "innovation_increments": np.zeros(K + 1)}
        for name, value in bad.items():
            with pytest.raises(GridMismatch, match=name):
                dataclasses.replace(ens, **{name: value})
        with pytest.raises(GridMismatch, match="states"):
            dataclasses.replace(ens, states=ens.states[:, 0])

    def test_npz_with_truncated_or_non_finite_arrays_is_rejected(self, lg_scalar, grid_500,
                                                                 tmp_path):
        obs = simulate_truth_and_obs(lg_scalar, grid_500, seed=8)
        ens = simulate_girsanov_ensemble(lg_scalar, grid_500, obs, 20, seed=8)
        inn = simulate_innovation_ensemble(lg_scalar, grid_500, obs, 20, seed=8)
        nan_at = lambda a: np.where(a == a.flat[7], np.nan, a)
        inf_at = lambda a: np.where(a == a.flat[7], -np.inf, a)
        drop = None
        for record, cases in (
                (ens, [("states", lambda a: a[:, :30], GridMismatch),
                       ("states", lambda a: np.full_like(a, np.nan), ValueError),
                       ("log_weights_girsanov", lambda a: np.where(a == a[3, 7], np.inf, a),
                        ValueError),
                       ("states", drop, ValueError), ("t_end", drop, ValueError),
                       ("n_steps", drop, ValueError),
                       ("n_steps", lambda a: np.float64(2.5), ValueError)]),
                (inn, [(name, edit, ValueError) for edit in (nan_at, inf_at)
                       for name in ("states", "log_weights_innovation", "pi_h_path",
                                    "innovation_increments")]),
                (obs, [("dZ", drop, ValueError),
                       ("t_end", drop, ValueError), ("n_steps", drop, ValueError)]
                 + [(name, edit, ValueError) for edit in (nan_at, inf_at)
                    for name in ("dZ", "X_truth")])):
            record.to_npz(tmp_path / "good.npz")
            with np.load(tmp_path / "good.npz") as data:
                saved = dict(data)
            for name, edit, error in cases:
                bad = {k: v for k, v in saved.items() if k != name}
                if edit is not None:
                    bad[name] = edit(saved[name])
                np.savez_compressed(tmp_path / "bad.npz", **bad)
                with pytest.raises(error, match=rf"\b{name}\b"):
                    type(record).from_npz(tmp_path / "bad.npz")

    def test_a_record_with_non_finite_arrays_is_not_written(self, lg_scalar, grid_500,
                                                            tmp_path):
        obs = simulate_truth_and_obs(lg_scalar, grid_500, seed=8)
        ens = simulate_innovation_ensemble(lg_scalar, grid_500, obs, 20, seed=8)
        for record, name in ((ens, "states"), (ens, "pi_h_path"), (obs, "X_truth"),
                             (obs, "dZ")):
            value = getattr(record, name).copy()
            value[5] = np.inf
            with pytest.raises(ValueError, match=f"'{name}' holds non-finite values"):
                dataclasses.replace(record, **{name: value}).to_npz(tmp_path / "bad.npz")
            assert not (tmp_path / "bad.npz").exists()


class TestInnovationEnsemble:
    def test_zero_h_unit_weights(self, grid_500):
        model = make_scalar("linear", {"a": -1.0}, h="constant", h_params={"c": 0.0})
        obs = simulate_truth_and_obs(model, grid_500, seed=2)
        ens = simulate_innovation_ensemble(model, grid_500, obs, 50, seed=2)
        np.testing.assert_array_equal(ens.log_weights_innovation, 0.0)

    def test_martingale_mean_fresh_innovation(self, lg_scalar):
        grid = TimeGrid(1.0, 100)
        ens = simulate_innovation_ensemble(lg_scalar, grid, None, 100_000, seed=12,
                                           pi_h_source=np.zeros(101))
        w = np.exp(ens.log_weights_innovation)
        means = w.mean(axis=0)
        ses = w.std(axis=0, ddof=1) / np.sqrt(w.shape[0])
        assert (np.abs(means[1:] - 1.0) / ses[1:]).max() < 3.0

    def test_weighted_mean_matches_kalman(self, lg_benchmark, lg_scalar, grid_1k):
        obs = simulate_truth_and_obs(lg_benchmark, grid_1k, seed=2024)
        state = model_kalman(lg_benchmark, obs)
        pi_h = (state.mean @ lg_benchmark.H).reshape(-1)
        ens = simulate_innovation_ensemble(lg_scalar, grid_1k, obs, 5000, seed=2024,
                                           pi_h_source=pi_h)
        w = np.exp(ens.log_weights_innovation[:, -1])
        est = np.dot(w, ens.states[:, -1]) / w.sum()
        se = np.sqrt(np.dot(w * w, (ens.states[:, -1] - est) ** 2)) / w.sum()
        assert abs(est - state.mean[-1, 0]) < 3 * se

    def test_self_normalization_mean_one(self, lg_scalar, grid_500):
        # E*_I[w_T] = 1: the plain ensemble mean stays near 1 (f = 1 case)
        obs = simulate_truth_and_obs(lg_scalar, grid_500, seed=6)
        ens = simulate_innovation_ensemble(lg_scalar, grid_500, obs, 4000, seed=6)
        w = np.exp(ens.log_weights_innovation[:, -1])
        se = w.std(ddof=1) / np.sqrt(len(w))
        assert abs(w.mean() - 1.0) < 3 * se


class TestDerivedProcesses:
    def test_innovation_zero_pi_h(self, lg_scalar, grid_500):
        obs = simulate_truth_and_obs(lg_scalar, grid_500, seed=14)
        innovation = compute_innovation(obs, np.zeros(grid_500.n_steps + 1))
        np.testing.assert_array_equal(innovation[1:], np.cumsum(obs.dZ))

    def test_innovation_constant_state(self):
        # perfect filter on noiseless constant truth x* = 1: I_k = Z_k - t_k
        grid = TimeGrid(1.0, 100)
        X = np.ones(101)
        dZ = np.full(100, grid.dt)  # h(x) = x, no noise
        obs = ObservationRecord(grid=grid, dZ=dZ, X_truth=X)
        innovation = compute_innovation(obs, np.ones(101))
        np.testing.assert_allclose(innovation, obs.Z - grid.times(), atol=1e-15)

    def test_innovation_quadratic_variation(self, lg_benchmark, grid_1k):
        obs = simulate_truth_and_obs(lg_benchmark, grid_1k, seed=123)
        state = model_kalman(lg_benchmark, obs)
        qv = float(np.sum(np.diff(state.innovation, axis=0) ** 2))
        assert abs(qv - 1.0) < 0.05

    def test_grid_mismatch(self, lg_scalar, grid_500):
        obs = simulate_truth_and_obs(lg_scalar, grid_500, seed=1)
        with pytest.raises(GridMismatch):
            compute_innovation(obs, np.zeros(7))

    def test_observation_error_noiseless(self, lg_scalar, grid_500):
        obs = simulate_truth_and_obs(lg_scalar, grid_500, seed=9)
        signal = np.asarray(lg_scalar.obs(obs.X_truth[:-1])) * grid_500.dt
        noiseless = ObservationRecord(grid=grid_500, dZ=signal, X_truth=obs.X_truth)
        W = compute_observation_error(lg_scalar, noiseless)
        np.testing.assert_array_equal(W, 0.0)

    def test_observation_error_recovers_the_measurement_noise(self, lg_scalar, grid_500):
        obs = simulate_truth_and_obs(lg_scalar, grid_500, seed=10)
        W = compute_observation_error(lg_scalar, obs)
        *_, eta = truth_draws(lg_scalar, 10, grid_500.n_steps, STREAM_TRUTH_STATE,
                              STREAM_TRUTH_OBS)
        np.testing.assert_allclose(W, cumulative_path(np.sqrt(grid_500.dt) * eta),
                                   rtol=0.0, atol=1e-13)

    def test_observation_error_quadratic_variation(self, lg_scalar):
        grid = TimeGrid(1.0, 1000)
        obs = simulate_truth_and_obs(lg_scalar, grid, seed=78)
        W = compute_observation_error(lg_scalar, obs)
        qv = float(np.sum(np.diff(W) ** 2))
        assert abs(qv - 1.0) < 0.05

    def test_missing_truth(self, lg_scalar, grid_500):
        obs = simulate_truth_and_obs(lg_scalar, grid_500, seed=9)
        bare = ObservationRecord(grid=grid_500, dZ=obs.dZ)
        with pytest.raises(MissingTruthPath):
            compute_observation_error(lg_scalar, bare)


def test_ensemble_ess_bounds(lg_scalar, grid_500):
    obs = simulate_truth_and_obs(lg_scalar, grid_500, seed=8)
    ens = simulate_girsanov_ensemble(lg_scalar, grid_500, obs, 128, seed=8)
    ess = normalized_weights(ens.log_weights_girsanov[:, -1])[2]
    assert 0.0 < ess <= 128.0
