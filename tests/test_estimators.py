import dataclasses
import warnings

import numpy as np
import pytest

from fbsde_filter.errors import (
    CFLWarning,
    FbsdeFilterError,
    FixedPointNotConverged,
    GridMismatch,
    ModeModelMismatch,
    ResamplingForbiddenInEstimatorMode,
    WeightUnderflow,
)
from fbsde_filter.estimators import (
    cost_functional,
    cost_functional_per_path,
    estimate_pi_innovation,
    estimate_pi_obs,
    estimate_sigma_obs,
    estimate_sigma_obs_error,
    prior_expectation_of_initial_slice,
    variance_decay,
)
from fbsde_filter.kalman import model_kalman, model_riccati
from fbsde_filter.model import SpaceGrid, TimeGrid, gaussian_quadrature
from fbsde_filter.particle import pi_estimate, resample_multinomial, sigma_estimate
from fbsde_filter.pde_backward import solve_backward_kolmogorov, solve_feynman_kac
from fbsde_filter.sde_sim import (
    simulate_girsanov_ensemble,
    simulate_innovation_ensemble,
    simulate_truth_and_obs,
    with_scaled_initial_weights,
)

from conftest import make_scalar

ONES = lambda x: np.ones_like(np.asarray(x, dtype=float))


@pytest.fixture(scope="module")
def zero_h_setup():
    model = make_scalar("linear", {"a": -1.0}, h="constant", h_params={"c": 0.0})
    grid = TimeGrid(1.0, 300)
    sg = SpaceGrid(-8, 8, 401)
    obs = simulate_truth_and_obs(model, grid, seed=11)
    y = solve_backward_kolmogorov(model, sg, grid)
    return model, grid, sg, obs, y


@pytest.fixture(scope="module")
def lg_setup(lg_benchmark, lg_scalar):
    grid = TimeGrid(1.0, 500)
    sg = SpaceGrid(-8, 8, 801)
    obs = simulate_truth_and_obs(lg_benchmark, grid, seed=77)
    Sigma = model_riccati(lg_benchmark, grid)
    state = model_kalman(lg_benchmark, obs, Sigma)
    y = solve_backward_kolmogorov(lg_scalar, sg, grid)
    return grid, sg, obs, Sigma, state, y


class TestSigmaObs:
    def test_zero_h_reduces_to_prior_mean(self, zero_h_setup):
        model, grid, sg, obs, y = zero_h_setup
        ens = simulate_girsanov_ensemble(model, grid, obs, 200, seed=11)
        report = estimate_sigma_obs(model, obs, y, ens)
        assert report.stochastic_integral_term == 0.0
        assert report.point_estimate == report.y0_prior_term
        # prior mean of f(X_T) = e^{-T} E[X_0] = 0 for the OU model
        assert abs(report.point_estimate) < 1e-6

    def test_constant_h_unit_terminal(self, grid_500):
        # f = 1, h = c: estimate ~ sigma_T[1] = exp(c Z_T - c^2 T/2)
        c = 0.7
        model = make_scalar("linear", {"a": -1.0}, h="constant", h_params={"c": c},
                            f="constant", f_params={"c": 1.0})
        obs = simulate_truth_and_obs(model, grid_500, seed=5)
        sg = SpaceGrid(-8, 8, 201)
        y = solve_backward_kolmogorov(model, sg, grid_500)
        ens = simulate_girsanov_ensemble(model, grid_500, obs, 100, seed=5)
        report = estimate_sigma_obs(model, obs, y, ens)
        target = float(np.exp(c * obs.Z[-1] - 0.5 * c * c))
        # per-path discretization of the exponential-martingale integral: O(dt)
        assert report.point_estimate == pytest.approx(target, rel=5e-3)

    def test_lg_oracle(self, lg_benchmark, lg_scalar, lg_setup):
        grid, sg, obs, Sigma, state, y = lg_setup
        ens = simulate_girsanov_ensemble(lg_scalar, grid, obs, 4000, seed=77)
        report = estimate_sigma_obs(lg_scalar, obs, y, ens)
        sig1 = sigma_estimate(ens, ONES)
        target = sig1.values[-1] * float(state.mean[-1, 0])
        se = np.hypot(report.mc_std_err, sig1.std_err[-1] * abs(state.mean[-1, 0]))
        assert abs(report.point_estimate - target) < 3 * se

    def test_weight_linearity(self, lg_scalar, lg_setup):
        grid, sg, obs, Sigma, state, y = lg_setup
        ens = simulate_girsanov_ensemble(lg_scalar, grid, obs, 500, seed=21)
        base = estimate_sigma_obs(lg_scalar, obs, y, ens)
        doubled = estimate_sigma_obs(lg_scalar, obs, y,
                                     with_scaled_initial_weights(ens, 2.0))
        assert doubled.point_estimate == pytest.approx(2.0 * base.point_estimate,
                                                       rel=1e-12)

    def test_rejects_resampled_ensemble(self, lg_scalar, lg_setup):
        grid, sg, obs, Sigma, state, y = lg_setup
        ens = simulate_girsanov_ensemble(lg_scalar, grid, obs, 100, seed=21)
        res = resample_multinomial(ens, seed=0)
        with pytest.raises(ResamplingForbiddenInEstimatorMode):
            estimate_sigma_obs(lg_scalar, obs, y, res)


class TestPiInnovation:
    def test_unit_terminal_normalization(self, lg_scalar, grid_500):
        model = make_scalar("linear", {"a": -1.0}, f="constant", f_params={"c": 1.0})
        obs = simulate_truth_and_obs(model, grid_500, seed=31)
        sg = SpaceGrid(-8, 8, 201)
        y = solve_backward_kolmogorov(model, sg, grid_500)
        ens = simulate_innovation_ensemble(model, grid_500, obs, 3000, seed=31)
        report = estimate_pi_innovation(model, obs, y, ens)
        assert abs(report.point_estimate - 1.0) < 3 * max(report.mc_std_err, 1e-12)

    def test_zero_h_reduces_to_prior_mean(self, zero_h_setup):
        model, grid, sg, obs, y = zero_h_setup
        ens = simulate_innovation_ensemble(model, grid, obs, 200, seed=11)
        report = estimate_pi_innovation(model, obs, y, ens)
        assert report.stochastic_integral_term == 0.0
        assert abs(report.point_estimate) < 1e-6

    def test_lg_oracle_external_source(self, lg_benchmark, lg_scalar, lg_setup):
        grid, sg, obs, Sigma, state, y = lg_setup
        pi_h = (state.mean @ lg_benchmark.H).reshape(-1)
        ens = simulate_innovation_ensemble(lg_scalar, grid, obs, 5000, seed=77,
                                           pi_h_source=pi_h)
        report = estimate_pi_innovation(lg_scalar, obs, y, ens)
        target = float(state.mean[-1, 0])
        assert abs(report.point_estimate - target) < 3 * report.mc_std_err

    def test_zakai_consistency_single_record(self, lg_scalar, lg_setup):
        grid, sg, obs, Sigma, state, y = lg_setup
        ens_g = simulate_girsanov_ensemble(lg_scalar, grid, obs, 4000, seed=77)
        ens_i = simulate_innovation_ensemble(lg_scalar, grid, obs, 4000, seed=78)
        rep_sigma = estimate_sigma_obs(lg_scalar, obs, y, ens_g)
        sig1 = sigma_estimate(ens_g, ONES)
        rep_pi = estimate_pi_innovation(lg_scalar, obs, y, ens_i)
        ratio = rep_sigma.point_estimate / sig1.values[-1]
        se = np.hypot(rep_sigma.mc_std_err / sig1.values[-1], rep_pi.mc_std_err)
        assert abs(ratio - rep_pi.point_estimate) < 3 * se


class TestSigmaObsError:
    def test_zero_h_reduces_to_prior_mean(self, zero_h_setup):
        model, grid, sg, obs, y = zero_h_setup
        y_fk = solve_feynman_kac(model, sg, grid, reaction="growth")
        np.testing.assert_array_equal(y.values, y_fk.values)  # h = 0
        ens = simulate_girsanov_ensemble(model, grid, obs, 200, seed=11)
        report = estimate_sigma_obs_error(model, obs, y_fk, ens)
        assert abs(report.point_estimate) < 1e-6

    def test_constant_h_exact_per_path(self, grid_500):
        # with h = c and f = 1 the estimator reproduces sigma_T[1] pathwise
        c = 0.7
        model = make_scalar("linear", {"a": -1.0}, h="constant", h_params={"c": c},
                            f="constant", f_params={"c": 1.0})
        obs = simulate_truth_and_obs(model, grid_500, seed=5)
        sg = SpaceGrid(-8, 8, 201)
        y_fk = solve_feynman_kac(model, sg, grid_500, reaction="growth")
        ens = simulate_girsanov_ensemble(model, grid_500, obs, 100, seed=5)
        report = estimate_sigma_obs_error(model, obs, y_fk, ens)
        target = float(np.exp(c * obs.Z[-1] - 0.5 * c * c))
        assert report.mc_std_err < 1e-10  # zero variance across paths
        assert report.point_estimate == pytest.approx(target, rel=5e-3)

    def test_requires_truth(self, lg_scalar, lg_setup):
        from fbsde_filter.errors import MissingTruthPath
        from fbsde_filter.sde_sim import ObservationRecord
        grid, sg, obs, Sigma, state, y = lg_setup
        y_fk = solve_feynman_kac(lg_scalar, sg, grid, reaction="growth")
        ens = simulate_girsanov_ensemble(lg_scalar, grid, obs, 50, seed=1)
        bare = ObservationRecord(grid=grid, Z=obs.Z, dZ=obs.dZ)
        with pytest.raises(MissingTruthPath):
            estimate_sigma_obs_error(lg_scalar, bare, y_fk, ens)

    def test_matches_sigma_obs_in_expectation(self, lg_scalar, lg_setup):
        # paired difference over records consistent with zero
        grid, sg, obs0, Sigma, state, y = lg_setup
        y_fk = solve_feynman_kac(lg_scalar, sg, grid, reaction="growth")
        diffs = []
        for r in range(40):
            obs = simulate_truth_and_obs(lg_scalar, grid, seed=52_000 + r)
            ens = simulate_girsanov_ensemble(lg_scalar, grid, obs, 400,
                                             seed=52_000 + r)
            r1 = estimate_sigma_obs(lg_scalar, obs, y, ens)
            r4 = estimate_sigma_obs_error(lg_scalar, obs, y_fk, ens)
            diffs.append(r1.point_estimate - r4.point_estimate)
        diffs = np.array(diffs)
        se = diffs.std(ddof=1) / np.sqrt(len(diffs))
        assert abs(diffs.mean()) < 3 * se


class TestFoldHealth:
    """The ensemble walk under estimators I, II and IV, the cost functional and
    the variance decay reports states outside the space grid and refuses a step
    whose weights all underflow, a y on another time grid and a resampled
    ensemble."""

    @staticmethod
    def fold_reports(model, obs, sg, grid, n_paths):
        y = solve_backward_kolmogorov(model, sg, grid)
        ens_g = simulate_girsanov_ensemble(model, grid, obs, n_paths, seed=5)
        ens_i = simulate_innovation_ensemble(model, grid, obs, n_paths, seed=6)
        return ((estimate_sigma_obs(model, obs, y, ens_g), ens_g),
                (estimate_pi_innovation(model, obs, y, ens_i), ens_i),
                (estimate_sigma_obs_error(
                    model, obs, solve_feynman_kac(model, sg, grid, reaction="growth"),
                    ens_g), ens_g))

    def test_a_grid_the_ensemble_leaves_gives_its_share_of_states(self, lg_scalar, lg_setup):
        grid, _, obs, _, _, _ = lg_setup
        narrow = SpaceGrid(-0.5, 0.5, 101)
        for report, ens in self.fold_reports(lg_scalar, obs, narrow, grid, 300):
            folded = ens.states[:, :-1]  # the fold reads steps 0 .. K - 1
            outside = np.count_nonzero((folded < -0.5) | (folded > 0.5)) / folded.size
            assert 0.0 < report.grid_exit_fraction == outside, report.estimator_id

    def test_the_criterion_grids_are_not_left(self, lg_scalar, lg_setup, double_well):
        grid, sg, obs, _, _, _ = lg_setup  # criteria 1, 3 and 4: (-8, 8), 801 nodes
        for report, _ in self.fold_reports(lg_scalar, obs, sg, grid, 1000):
            assert report.grid_exit_fraction == 0.0, report.estimator_id
        dw_obs = simulate_truth_and_obs(double_well, grid, seed=100)  # criterion 11
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CFLWarning)
            reports = self.fold_reports(double_well, dw_obs, SpaceGrid(-5.5, 5.5, 601),
                                        grid, 1000)
        for report, _ in reports:
            assert report.grid_exit_fraction == 0.0, report.estimator_id

    def test_variance_decay_gives_its_share_of_states(self, lg_scalar, lg_setup):
        grid, sg, obs, _, _, y = lg_setup
        ens = simulate_girsanov_ensemble(lg_scalar, grid, obs, 300, seed=5)
        narrow = SpaceGrid(-0.5, 0.5, 101)
        report = variance_decay(lg_scalar, solve_backward_kolmogorov(lg_scalar, narrow, grid),
                                ens, flavor="sigma")
        states = ens.states  # the report reads steps 0 .. K
        outside = np.count_nonzero((states < -0.5) | (states > 0.5)) / states.size
        assert 0.0 < report.grid_exit_fraction == outside
        assert variance_decay(lg_scalar, y, ens, flavor="sigma").grid_exit_fraction == 0.0

    def test_estimator_iii_gives_the_pi_mass_it_clamps(self, lg_benchmark, lg_scalar, lg_setup):
        grid, sg, obs, _, state, _ = lg_setup
        K, narrow = grid.n_steps, SpaceGrid(-1.0, 1.0, 101)

        def clamped_mass(x, w):  # sum_k sum_i w_ki 1{x_ki off the grid} / (K + 1), step by step
            return sum(float(np.dot(w[k], (x[k] < -1.0) | (x[k] > 1.0)))
                       for k in range(K + 1)) / (K + 1)

        # a Gaussian pi source: the quadrature nodes of every step and their weights
        nodes = np.array([gaussian_quadrature(m, v)[0] for m, v in
                          zip(state.mean[:, 0], state.covariance[:, 0, 0])])
        weights = np.tile(gaussian_quadrature(0.0, 1.0)[1], (K + 1, 1))
        report = estimate_pi_obs(lg_scalar, obs, mode="fixed_point", pi_source=state,
                                 space_grid=narrow)
        assert 0.0 < report.grid_exit_fraction
        assert report.grid_exit_fraction == pytest.approx(clamped_mass(nodes, weights),
                                                          rel=1e-12)
        # on the criterion grid the outermost nodes lie outside, but carry almost no mass
        report = estimate_pi_obs(lg_scalar, obs, mode="fixed_point", pi_source=state,
                                 space_grid=sg)
        assert np.count_nonzero((nodes < -8.0) | (nodes > 8.0)) > 0
        assert 0.0 < report.grid_exit_fraction <= 1e-14
        # the weighted ensemble: its states at every step and their innovation weights
        ens = simulate_innovation_ensemble(lg_scalar, grid, obs, 300, seed=6)
        lw = ens.log_weights("innovation").T
        w = np.exp(lw - lw.max(axis=1, keepdims=True))
        report = estimate_pi_obs(lg_scalar, obs, ensemble=ens, mode="fixed_point",
                                 space_grid=narrow)
        assert 0.0 < report.grid_exit_fraction
        assert report.grid_exit_fraction == pytest.approx(
            clamped_mass(ens.states.T, w / w.sum(axis=1, keepdims=True)), rel=1e-12)
        # the linear-Gaussian modes read no space grid
        for mode in ("lg_closed_form", "fixed_point"):
            assert estimate_pi_obs(lg_benchmark, obs, mode=mode).grid_exit_fraction is None

    @pytest.mark.parametrize("seed", [1, 101])
    def test_estimator_iii_does_not_leave_the_cli_jobs_grid(self, double_well, seed):
        grid, sg = TimeGrid(1.0, 500), SpaceGrid(-5.5, 5.5, 601)
        obs = simulate_truth_and_obs(double_well, grid, seed=seed)
        ens = simulate_innovation_ensemble(double_well, grid, obs, 300, seed=seed)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CFLWarning)
            report = estimate_pi_obs(double_well, obs, ensemble=ens, mode="fixed_point",
                                     space_grid=sg)
        assert report.grid_exit_fraction == 0.0

    @pytest.mark.parametrize("from_step", [0, 100])
    def test_girsanov_weights_that_all_underflow_raise(self, lg_scalar, lg_setup, from_step):
        grid, sg, obs, _, _, y = lg_setup
        y_fk = solve_feynman_kac(lg_scalar, sg, grid, reaction="growth")
        ens = simulate_girsanov_ensemble(lg_scalar, grid, obs, 200, seed=9)
        lw = ens.log_weights_girsanov.copy()
        lw[:, from_step:] -= 800.0  # exp underflows below about -745
        shifted = dataclasses.replace(ens, log_weights_girsanov=lw)
        assert issubclass(WeightUnderflow, FbsdeFilterError)
        with pytest.raises(WeightUnderflow, match=f"at step {from_step}$"):
            estimate_sigma_obs(lg_scalar, obs, y, shifted)
        with pytest.raises(WeightUnderflow, match=f"at step {from_step}$"):
            estimate_sigma_obs_error(lg_scalar, obs, y_fk, shifted)
        with pytest.raises(WeightUnderflow, match=f"at step {from_step}$"):
            cost_functional_per_path(lg_scalar, "sigma_obs", shifted, y)
        with pytest.raises(WeightUnderflow, match=f"at step {from_step}$"):
            variance_decay(lg_scalar, y, shifted, flavor="sigma")
        with pytest.raises(WeightUnderflow, match=f"at step {from_step}$"):
            sigma_estimate(shifted, lambda x: x)
        with pytest.raises(WeightUnderflow, match=f"at step {from_step}$"):
            pi_estimate(shifted, lambda x: x, normalization="external",
                        normalizer=np.ones(grid.n_steps + 1))

    def test_underflow_is_named_when_the_walk_reads_one_step_per_block(self, lg_scalar):
        # N > 8 192: `_blocks` hands out one step row at a time
        grid = TimeGrid(0.2, 20)
        obs = simulate_truth_and_obs(lg_scalar, grid, seed=5)
        y = solve_backward_kolmogorov(lg_scalar, SpaceGrid(-8, 8, 161), grid)
        ens = simulate_girsanov_ensemble(lg_scalar, grid, obs, 9000, seed=5)
        lw = ens.log_weights_girsanov.copy()
        lw[:, 7:] -= 800.0
        shifted = dataclasses.replace(ens, log_weights_girsanov=lw)
        with pytest.raises(WeightUnderflow, match="^every weight underflows to 0 at step 7$"):
            estimate_sigma_obs(lg_scalar, obs, y, shifted)
        with pytest.raises(WeightUnderflow, match="at step 7$"):
            variance_decay(lg_scalar, y, shifted, flavor="sigma")
        with pytest.raises(WeightUnderflow, match="at step 7$"):
            sigma_estimate(shifted, lambda x: x)

    def test_weights_that_underflow_at_the_last_time_fail_the_variance_only(
            self, lg_scalar, lg_setup):
        # the fold and the cost read steps 0 .. K - 1, the variance 0 .. K
        grid, _, obs, _, _, y = lg_setup
        ens = simulate_girsanov_ensemble(lg_scalar, grid, obs, 200, seed=9)
        lw = ens.log_weights_girsanov.copy()
        lw[:, -1] -= 800.0
        shifted = dataclasses.replace(ens, log_weights_girsanov=lw)
        estimate_sigma_obs(lg_scalar, obs, y, shifted)
        cost_functional_per_path(lg_scalar, "sigma_obs", shifted, y)
        with pytest.raises(WeightUnderflow, match=f"at step {grid.n_steps}$"):
            variance_decay(lg_scalar, y, shifted, flavor="sigma")

    @pytest.mark.parametrize("flavor", ["sigma", "pi"])
    def test_a_y_on_another_time_grid_is_a_grid_mismatch(self, lg_scalar, lg_setup, flavor):
        # the same dt on twice the horizon, and twice the steps on the same horizon
        grid, sg, obs, _, _, _ = lg_setup
        simulate = simulate_innovation_ensemble if flavor == "pi" else simulate_girsanov_ensemble
        estimator_id = "pi_innovation" if flavor == "pi" else "sigma_obs"
        ens = simulate(lg_scalar, grid, obs, 300, seed=7)
        for other in (TimeGrid(2.0, 2 * grid.n_steps), TimeGrid(1.0, 2 * grid.n_steps)):
            y = solve_backward_kolmogorov(lg_scalar, sg, other)
            with pytest.raises(GridMismatch):
                cost_functional_per_path(lg_scalar, estimator_id, ens, y)
            with pytest.raises(GridMismatch):
                variance_decay(lg_scalar, y, ens, flavor=flavor)

    @pytest.mark.parametrize("flavor", ["sigma", "pi"])
    def test_a_resampled_ensemble_is_refused(self, lg_scalar, lg_setup, flavor):
        grid, _, obs, _, _, y = lg_setup
        simulate = simulate_innovation_ensemble if flavor == "pi" else simulate_girsanov_ensemble
        estimator_id = "pi_innovation" if flavor == "pi" else "sigma_obs"
        ens = resample_multinomial(simulate(lg_scalar, grid, obs, 300, seed=7), seed=8)
        with pytest.raises(ResamplingForbiddenInEstimatorMode):
            cost_functional_per_path(lg_scalar, estimator_id, ens, y)
        with pytest.raises(ResamplingForbiddenInEstimatorMode):
            variance_decay(lg_scalar, y, ens, flavor=flavor)


class TestPiObs:
    def test_lg_closed_form_identity(self, lg_benchmark, lg_setup):
        grid, sg, obs, Sigma, state, y = lg_setup
        report = estimate_pi_obs(lg_benchmark, obs, mode="lg_closed_form")
        target = float(lg_benchmark.f_bar @ state.mean[-1])
        assert abs(report.point_estimate - target) < 1e-6 * abs(target)

    def test_modes_agree(self, lg_benchmark):
        # the two discretizations differ at O(dt); dt = 1e-3 as in the benchmark
        grid = TimeGrid(1.0, 1000)
        obs = simulate_truth_and_obs(lg_benchmark, grid, seed=77)
        closed = estimate_pi_obs(lg_benchmark, obs, mode="lg_closed_form")
        fixed = estimate_pi_obs(lg_benchmark, obs, mode="fixed_point")
        assert fixed.n_iterations <= 50
        sup = np.max(np.abs(fixed.control_path[:-1] - closed.control_path))
        assert sup < 1e-3
        rel = abs(fixed.point_estimate - closed.point_estimate) / abs(closed.point_estimate)
        assert rel < 1e-2

    def test_unbiasedness_is_exact_identity(self, lg_benchmark):
        # estimate equals f_bar^T m_T record by record
        grid = TimeGrid(1.0, 400)
        Sigma = model_riccati(lg_benchmark, grid)
        for r in range(20):
            obs = simulate_truth_and_obs(lg_benchmark, grid, seed=61_000 + r)
            state = model_kalman(lg_benchmark, obs, Sigma)
            report = estimate_pi_obs(lg_benchmark, obs, mode="lg_closed_form",
                                     Sigma_path=Sigma)
            assert abs(report.point_estimate - float(state.mean[-1, 0])) < 1e-10

    def test_zero_h_prior_mean_both_modes(self):
        from fbsde_filter.model import LinearGaussianModelSpec
        model = LinearGaussianModelSpec(A=[[-1.0]], H=[[0.0]], sigma=1.0,
                                        m0=[0.5], Sigma0=[[1.0]], f_bar=[1.0])
        grid = TimeGrid(1.0, 2000)
        obs = simulate_truth_and_obs(model, grid, seed=9)
        prior_mean = 0.5 * np.exp(-1.0)  # f_bar^T e^{T A^T} m0
        closed = estimate_pi_obs(model, obs, mode="lg_closed_form")
        fixed = estimate_pi_obs(model, obs, mode="fixed_point")
        assert closed.point_estimate == pytest.approx(prior_mean, rel=1e-3)
        assert fixed.point_estimate == pytest.approx(prior_mean, rel=1e-3)
        assert fixed.n_iterations == 1

    def test_scalar_fixed_point_with_exact_source(self, lg_benchmark, lg_scalar):
        grid = TimeGrid(1.0, 1000)
        sg = SpaceGrid(-8, 8, 801)
        obs = simulate_truth_and_obs(lg_benchmark, grid, seed=9)
        Sigma = model_riccati(lg_benchmark, grid)
        state = model_kalman(lg_benchmark, obs, Sigma)
        closed = estimate_pi_obs(lg_benchmark, obs, mode="lg_closed_form",
                                 Sigma_path=Sigma)
        pde = estimate_pi_obs(lg_scalar, obs, mode="fixed_point", pi_source=state,
                              space_grid=sg)
        sup = np.max(np.abs(pde.control_path[:-1] - closed.control_path[:, 0]))
        assert sup < 1e-3

    def test_scalar_fixed_point_with_particle_source(self, double_well):
        grid = TimeGrid(1.0, 300)
        sg = SpaceGrid(-5.5, 5.5, 401)
        obs = simulate_truth_and_obs(double_well, grid, seed=13)
        ens = simulate_innovation_ensemble(double_well, grid, obs, 2000, seed=13)
        report = estimate_pi_obs(double_well, obs, ensemble=ens, mode="fixed_point",
                                 space_grid=sg)
        assert report.n_iterations <= 50
        assert 0.0 <= report.point_estimate <= 1.2  # estimates a probability

    def test_mode_model_mismatch(self, lg_scalar, grid_500):
        obs = simulate_truth_and_obs(lg_scalar, grid_500, seed=1)
        with pytest.raises(ModeModelMismatch):
            estimate_pi_obs(lg_scalar, obs, mode="lg_closed_form")

    def test_fixed_point_tol_at_the_residual_raises(self, lg_benchmark, grid_500):
        # the residual of the one-sweep solve is rounding, and a residual >= tol raises
        obs = simulate_truth_and_obs(lg_benchmark, grid_500, seed=1)
        estimate_pi_obs(lg_benchmark, obs, mode="fixed_point", tol=1e-12)
        with pytest.raises(FixedPointNotConverged):
            estimate_pi_obs(lg_benchmark, obs, mode="fixed_point", tol=0.0)

    @pytest.mark.parametrize("shift", [-800.0, 800.0])
    def test_fixed_point_is_invariant_under_a_log_weight_shift(self, double_well, shift):
        grid, sg = TimeGrid(1.0, 60), SpaceGrid(-5.5, 5.5, 121)
        obs = simulate_truth_and_obs(double_well, grid, seed=3)
        ens = simulate_innovation_ensemble(double_well, grid, obs, 300, seed=3)
        shifted = dataclasses.replace(
            ens, log_weights_innovation=ens.log_weights_innovation + shift)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CFLWarning)
            base, moved = (estimate_pi_obs(double_well, obs, ensemble=e, mode="fixed_point",
                                           space_grid=sg) for e in (ens, shifted))
        u = base.control_path
        assert np.max(np.abs(moved.control_path - u)) <= 1e-12 * np.max(np.abs(u))
        assert abs(moved.point_estimate - base.point_estimate) <= 1e-12 * abs(base.point_estimate)


class TestCostFunctional:
    def test_optimum_is_pure_gradient_term(self, lg_scalar, lg_setup):
        grid, sg, obs, Sigma, state, y = lg_setup
        ens = simulate_girsanov_ensemble(lg_scalar, grid, obs, 500, seed=5)
        base = cost_functional(lg_scalar, "sigma_obs", ens, y)
        w = np.exp(ens.log_weights_girsanov)
        manual = 0.0
        for k in range(grid.n_steps):
            q = w[:, k] * lg_scalar.sigma * y.eval_gradient(k, ens.states[:, k])
            manual += np.mean(q * q) * grid.dt
        assert base == pytest.approx(manual, rel=1e-12)

    def test_constant_perturbation_quadratic_gap(self, lg_scalar, lg_setup):
        grid, sg, obs, Sigma, state, y = lg_setup
        ens_g = simulate_girsanov_ensemble(lg_scalar, grid, obs, 800, seed=5)
        ens_i = simulate_innovation_ensemble(lg_scalar, grid, obs, 800, seed=6)
        for est_id, ens in (("sigma_obs", ens_g), ("pi_innovation", ens_i)):
            base = cost_functional_per_path(lg_scalar, est_id, ens, y)
            for eps in (0.1, -0.1, 0.5, -0.5):
                pert = cost_functional_per_path(lg_scalar, est_id, ens, y,
                                                perturbation=eps)
                gap = pert - base
                assert gap.mean() == pytest.approx(eps * eps * grid.t_end, rel=1e-12)
                assert gap.mean() > 3 * (gap.std(ddof=1) / np.sqrt(len(gap)) + 1e-15)

    def test_zero_h_costs_coincide(self, zero_h_setup):
        model, grid, sg, obs, y = zero_h_setup
        ens_g = simulate_girsanov_ensemble(model, grid, obs, 300, seed=2)
        ens_i = simulate_innovation_ensemble(model, grid, obs, 300, seed=2)
        j_sigma = cost_functional(model, "sigma_obs", ens_g, y)
        j_err = cost_functional(model, "sigma_obs_error", ens_g, y)
        j_pi = cost_functional(model, "pi_innovation", ens_i, y)
        assert j_sigma == j_err
        assert j_sigma == pytest.approx(j_pi, rel=1e-12)


class TestVarianceDecay:
    def test_zero_h_constant_f_trivial(self, grid_500):
        model = make_scalar("linear", {"a": -1.0}, h="constant", h_params={"c": 0.0},
                            f="constant", f_params={"c": 1.0})
        obs = simulate_truth_and_obs(model, grid_500, seed=3)
        sg = SpaceGrid(-8, 8, 201)
        y = solve_backward_kolmogorov(model, sg, grid_500)
        ens = simulate_girsanov_ensemble(model, grid_500, obs, 100, seed=3)
        report = variance_decay(model, y, ens, flavor="sigma")
        np.testing.assert_allclose(report.var_y, 0.0, atol=1e-20)
        np.testing.assert_allclose(report.dirichlet_rhs, 0.0, atol=1e-16)

    def test_pi_flavor_identity_record_averaged(self, lg_scalar, lg_setup):
        grid, sg, obs0, Sigma, state, y = lg_setup
        dvars, rhss = [], []
        for r in range(30):
            obs = simulate_truth_and_obs(lg_scalar, grid, seed=6000 + r)
            ens = simulate_innovation_ensemble(lg_scalar, grid, obs, 2000,
                                               seed=6000 + r)
            vd = variance_decay(lg_scalar, y, ens, flavor="pi")
            dvars.append(vd.var_y[-1] - vd.var_y[0])
            rhss.append(vd.cumulative_rhs[-1])
        diff = np.array(dvars) - np.array(rhss)
        se = diff.std(ddof=1) / np.sqrt(len(diff))
        assert abs(diff.mean()) < 0.1 * np.mean(rhss) + 3 * se

    def test_csv(self, tmp_path, lg_scalar, lg_setup):
        grid, sg, obs, Sigma, state, y = lg_setup
        ens = simulate_girsanov_ensemble(lg_scalar, grid, obs, 100, seed=4)
        report = variance_decay(lg_scalar, y, ens, flavor="sigma")
        path = tmp_path / "vd.csv"
        report.to_csv(path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "t,var,rhs,cum_rhs"
        assert len(lines) == grid.n_steps + 2


def test_prior_expectation_quadrature(lg_scalar, lg_setup):
    grid, sg, obs, Sigma, state, y = lg_setup
    # y_0(x) ~ e^{-1} x; prior N(0,1) mean is 0
    assert abs(prior_expectation_of_initial_slice(lg_scalar, y)) < 1e-10


def test_report_csv_row_shape(lg_scalar, lg_setup):
    grid, sg, obs, Sigma, state, y = lg_setup
    ens = simulate_girsanov_ensemble(lg_scalar, grid, obs, 60, seed=5)
    report = estimate_sigma_obs(lg_scalar, obs, y, ens)
    from fbsde_filter.estimators import EstimatorReport
    assert len(report.csv_row()) == len(EstimatorReport.csv_header())
    assert report.point_estimate == pytest.approx(
        report.y0_prior_term + report.stochastic_integral_term)
