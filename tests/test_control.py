import numpy as np
import pytest

from fbsde_filter.control import (
    PolicyField,
    _policy_value_path,
    certainty_equivalence_batch,
    certainty_equivalence_run,
    full_information_lq_cost,
    hjb_policy,
    lqg_alternating_iteration,
    lqg_optimal_cost,
    remark_consistency_check,
    separated_cost_estimate,
)
from fbsde_filter.errors import (
    GridMismatch,
    IterationNotConverged,
    ResamplingForbiddenInEstimatorMode,
)
from fbsde_filter.estimators import estimate_pi_innovation
from fbsde_filter.kalman import lq_control_riccati
from fbsde_filter.model import LinearGaussianModelSpec, SpaceGrid, TimeGrid
from fbsde_filter.particle import resample_multinomial
from fbsde_filter.pde_backward import solve_backward_with_source
from fbsde_filter.sde_sim import simulate_innovation_ensemble, simulate_truth_and_obs

from conftest import make_scalar

QF = [[1.0]]


class TestHjbPolicy:
    def test_zero_gain_zero_policy(self):
        model = make_scalar("linear", {"a": -1.0}, f="quadratic",
                            f_params={"weight": 1.0}, control_gain=0.0)
        field, value = hjb_policy(model, SpaceGrid(-6, 6, 201), TimeGrid(1.0, 50))
        assert np.max(np.abs(field.values)) == 0.0

    def test_lq_gain_matches_riccati(self):
        model = make_scalar("linear", {"a": -1.0}, f="quadratic",
                            f_params={"weight": 1.0}, control_gain=1.0)
        tg = TimeGrid(1.0, 2000)
        field, value = hjb_policy(model, SpaceGrid(-8, 8, 801), tg)
        ric = lq_control_riccati([[-1.0]], [[1.0]], QF, tg, sigma=1.0)
        xs = np.linspace(0.5, 2.0, 10)
        a_grid = field.policy_at(0, xs)
        a_ric = -ric.gains[0, 0, 0] * xs
        assert np.max(np.abs(a_grid - a_ric) / np.abs(a_ric)) < 2e-3

    def test_double_well_pushes_toward_target(self):
        # quadratic terminal centered at +1: control is positive left of the target
        model = make_scalar("double_well", sigma=0.5, f="quadratic",
                            f_params={"weight": 4.0, "center": 1.0},
                            control_gain=1.0)
        sg = SpaceGrid(-3, 3, 301)
        tg = TimeGrid(1.0, 200)
        with pytest.warns(Warning):
            field, value = hjb_policy(model, sg, tg)
        probe = np.array([-1.5, -0.5, 0.0, 0.5])
        a = field.policy_at(0, probe)
        assert np.all(a > 0.0)
        # brute-force one-step lookahead: minimize 0.5 a^2 dt + y(t+dt, x + (b+a) dt)
        alphas = np.linspace(-8, 8, 4001)
        for x in probe:
            b = model.drift(x)
            future = np.interp(x + (b + alphas) * tg.dt, sg.points(), value.values[1])
            best = alphas[np.argmin(0.5 * alphas**2 * tg.dt + future)]
            assert np.sign(best) == np.sign(field.policy_at(0, np.array([x]))[0])


class TestCertaintyEquivalence:
    def test_zero_control_matrix_costs_match_uncontrolled(self):
        model = LinearGaussianModelSpec(A=[[-1.0]], H=[[1.0]], G=[[0.0]], sigma=1.0,
                                        m0=[0.0], Sigma0=[[1.0]], f_bar=[1.0])
        grid = TimeGrid(1.0, 500)
        ric = lq_control_riccati(model.A, model.G, QF, grid, sigma=1.0)
        assert np.all(ric.gains == 0.0)
        c_pol, _ = certainty_equivalence_batch(model, PolicyField.from_gains(grid, ric.gains),
                                               grid, [5], QF)
        c_zero, _ = certainty_equivalence_batch(model, PolicyField.zero(grid), grid, [5], QF)
        assert c_pol[0] == c_zero[0]

    def test_batch_matches_single_run(self, lg_benchmark):
        grid = TimeGrid(1.0, 400)
        ric = lq_control_riccati(lg_benchmark.A, lg_benchmark.G, QF, grid, sigma=1.0)
        policy = PolicyField.from_gains(grid, ric.gains)
        costs, _ = certainty_equivalence_batch(lg_benchmark, policy, grid,
                                               [3, 4, 5], QF)
        for i, seed in enumerate((3, 4, 5)):
            single = certainty_equivalence_run(lg_benchmark, policy, grid, seed,
                                               terminal_hessian=QF)
            assert single.realized_cost == costs[i]

    def test_mean_cost_matches_lqg_closed_form(self, lg_benchmark):
        grid = TimeGrid(1.0, 1000)
        ric = lq_control_riccati(lg_benchmark.A, lg_benchmark.G, QF, grid, sigma=1.0)
        policy = PolicyField.from_gains(grid, ric.gains)
        costs, _ = certainty_equivalence_batch(lg_benchmark, policy, grid,
                                               list(range(400)), QF)
        target = lqg_optimal_cost(lg_benchmark, QF, grid)
        se = costs.std(ddof=1) / np.sqrt(len(costs))
        assert abs(costs.mean() - target) < 3 * se

    def test_full_information_limit(self, lg_benchmark):
        # h scaled by 100: realized cost approaches the full-information cost
        grid = TimeGrid(1.0, 20000)
        sharp = LinearGaussianModelSpec(A=[[-1.0]], H=[[100.0]], G=[[1.0]], sigma=1.0,
                                        m0=[0.0], Sigma0=[[1.0]], f_bar=[1.0])
        ric = lq_control_riccati(lg_benchmark.A, lg_benchmark.G, QF, grid, sigma=1.0)
        policy = PolicyField.from_gains(grid, ric.gains)
        costs, _ = certainty_equivalence_batch(sharp, policy, grid,
                                               list(range(300)), QF)
        j_full = full_information_lq_cost(lg_benchmark, QF, grid)
        j_partial = lqg_optimal_cost(lg_benchmark, QF, grid)
        se = costs.std(ddof=1) / np.sqrt(len(costs))
        assert costs.mean() > j_full - 3 * se
        assert costs.mean() < j_partial  # better information, lower cost

    def test_particle_filter_run(self, lg_benchmark):
        # nonlinear-path CE loop on the scalar view agrees with the LQG cost
        grid = TimeGrid(1.0, 300)
        ric = lq_control_riccati(lg_benchmark.A, lg_benchmark.G, QF, grid, sigma=1.0)
        scalar = lg_benchmark.as_scalar()
        policy = PolicyField.from_gains(grid, ric.gains)
        costs = [certainty_equivalence_run(
            scalar, policy, grid, seed,
            terminal_cost=lambda x: 0.5 * np.asarray(x)**2,
            filter_particles=800).realized_cost for seed in range(25)]
        costs = np.array(costs)
        target = lqg_optimal_cost(lg_benchmark, QF, grid)
        se = costs.std(ddof=1) / np.sqrt(len(costs))
        assert abs(costs.mean() - target) < 4 * se


class TestSeparatedCost:
    def test_unit_terminal_exact(self, grid_500):
        model = make_scalar("linear", {"a": -1.0}, f="constant",
                            f_params={"c": 1.0}, control_gain=1.0)
        obs = simulate_truth_and_obs(model, grid_500, seed=21)
        policy = PolicyField.zero(grid_500)
        y = solve_backward_with_source(model, SpaceGrid(-8, 8, 401), grid_500)
        ens = simulate_innovation_ensemble(model, grid_500, obs, 300, seed=21)
        report = separated_cost_estimate(model, policy, obs, ens, y)
        assert report.separated_cost_estimate == pytest.approx(1.0, abs=1e-12)
        assert report.mu_y0 == pytest.approx(1.0, abs=1e-12)

    def test_is_estimator_two_with_its_checks(self, grid_500):
        model = make_scalar("linear", {"a": -1.0}, f="quadratic",
                            f_params={"weight": 1.0}, control_gain=1.0)
        obs = simulate_truth_and_obs(model, grid_500, seed=21)
        policy = PolicyField.zero(grid_500)
        sg = SpaceGrid(-8, 8, 401)
        y = solve_backward_with_source(model, sg, grid_500)
        ens = simulate_innovation_ensemble(model, grid_500, obs, 300, seed=21)
        report = separated_cost_estimate(model, policy, obs, ens, y)
        ii = estimate_pi_innovation(model, obs, y, ens)
        assert (report.separated_cost_estimate, report.mc_std_err, report.mu_y0,
                report.seed) == (ii.point_estimate, ii.mc_std_err, ii.y0_prior_term, 21)
        with pytest.raises(ResamplingForbiddenInEstimatorMode):
            separated_cost_estimate(model, policy, obs, resample_multinomial(ens, seed=3), y)
        # y on twice the horizon, on twice the steps and on half the steps
        for other in (TimeGrid(2.0, 1000), TimeGrid(1.0, 1000), TimeGrid(1.0, 250)):
            with pytest.raises(GridMismatch):
                separated_cost_estimate(model, policy, obs, ens,
                                        solve_backward_with_source(model, sg, other))

    def test_zero_h_returns_unconditional_cost(self):
        model = make_scalar("linear", {"a": -1.0}, h="constant", h_params={"c": 0.0},
                            f="quadratic", f_params={"weight": 1.0},
                            control_gain=1.0)
        grid = TimeGrid(1.0, 200)
        obs = simulate_truth_and_obs(model, grid, seed=4)
        policy = PolicyField.zero(grid)
        y = solve_backward_with_source(model, SpaceGrid(-8, 8, 401), grid)
        ens = simulate_innovation_ensemble(model, grid, obs, 200, seed=4)
        report = separated_cost_estimate(model, policy, obs, ens, y)
        assert report.separated_cost_estimate == report.mu_y0

    def test_tower_property(self):
        # average of V(a | I) over observation records ~ mu[y_0]
        model = make_scalar("linear", {"a": -1.0}, f="quadratic",
                            f_params={"weight": 1.0}, control_gain=1.0)
        grid = TimeGrid(1.0, 400)
        sg = SpaceGrid(-8, 8, 801)
        ric = lq_control_riccati([[-1.0]], [[1.0]], QF, grid, sigma=1.0)
        policy = PolicyField.from_gains(grid, ric.gains)
        policy_arr = np.array([policy.policy_at(k, sg.points())
                               for k in range(grid.n_steps + 1)])
        y = solve_backward_with_source(model, sg, grid, policy=policy_arr,
                                       running_cost=lambda k, x, a: 0.5 * a * a)
        drift_fn = lambda k, x: model.drift(x) + model.control_gain * policy.policy_at(k, x)
        vals, mu = [], None
        for r in range(40):
            obs = simulate_truth_and_obs(model, grid, seed=400 + r,
                                         drift_fn=drift_fn)
            ens = simulate_innovation_ensemble(model, grid, obs, 600, seed=400 + r,
                                               drift_fn=drift_fn)
            report = separated_cost_estimate(model, policy, obs, ens, y)
            vals.append(report.separated_cost_estimate)
            mu = report.mu_y0
        vals = np.array(vals)
        se = vals.std(ddof=1) / np.sqrt(len(vals))
        assert abs(vals.mean() - mu) < 3 * se


class TestAlternatingIteration:
    def test_zero_control_matrix_single_sweep(self):
        model = LinearGaussianModelSpec(A=[[-1.0]], H=[[1.0]], G=[[0.0]], sigma=1.0,
                                        m0=[0.0], Sigma0=[[1.0]], f_bar=[1.0])
        result = lqg_alternating_iteration(model, TimeGrid(1.0, 200), QF)
        assert result.n_sweeps == 1
        np.testing.assert_array_equal(result.gains, 0.0)

    def test_converges_to_riccati_gains(self, lg_benchmark):
        grid = TimeGrid(1.0, 1000)
        obs = simulate_truth_and_obs(lg_benchmark, grid, seed=1)
        result = lqg_alternating_iteration(lg_benchmark, grid, QF, obs=obs)
        ric = lq_control_riccati(lg_benchmark.A, lg_benchmark.G, QF, grid, sigma=1.0)
        assert result.n_sweeps <= 20
        assert np.max(np.abs(result.gains - ric.gains)) < 1e-6
        assert result.filter_trace.shape == (grid.n_steps + 1, 1)

    def test_gains_independent_of_noise_level(self, lg_benchmark):
        grid = TimeGrid(1.0, 500)
        result_1 = lqg_alternating_iteration(lg_benchmark, grid, QF)
        louder = LinearGaussianModelSpec(A=[[-1.0]], H=[[1.0]], G=[[1.0]], sigma=2.0,
                                         m0=[0.0], Sigma0=[[1.0]], f_bar=[1.0])
        result_2 = lqg_alternating_iteration(louder, grid, QF)
        np.testing.assert_array_equal(result_1.gains, result_2.gains)

    def test_stiff_terminal_hessian_converges_to_riccati_gains(self, lg_benchmark):
        # Q_f dt = 1.5: the trial gains of the first sweeps make the value solve stiff
        result = lqg_alternating_iteration(lg_benchmark, TimeGrid(1.0, 100), [[150.0]])
        assert result.n_sweeps <= 20 and np.all(np.isfinite(result.gains))
        grid = TimeGrid(1.0, 200)
        gains = lqg_alternating_iteration(lg_benchmark, grid, [[150.0]]).gains
        ric = lq_control_riccati(lg_benchmark.A, lg_benchmark.G, [[150.0]], grid)
        assert np.max(np.abs(gains - ric.gains) / np.abs(ric.gains)) < 5e-3

    def test_sweep_cap(self, lg_benchmark):
        with pytest.raises(IterationNotConverged):
            lqg_alternating_iteration(lg_benchmark, TimeGrid(1.0, 200), QF,
                                      max_sweeps=1)


class TestRemarkIdentity:
    def test_optimal_control_residual(self, lg_benchmark, grid_1k):
        obs = simulate_truth_and_obs(lg_benchmark, grid_1k, seed=42)
        assert remark_consistency_check(lg_benchmark, obs) < 1e-8

    def test_zero_control_reduces_to_innovation_estimator(self, lg_benchmark, grid_1k):
        obs = simulate_truth_and_obs(lg_benchmark, grid_1k, seed=43)
        assert remark_consistency_check(lg_benchmark, obs, alpha="zero") < 1e-8

    def test_zero_h_trivial(self):
        model = LinearGaussianModelSpec(A=[[-1.0]], H=[[0.0]], sigma=1.0,
                                        m0=[0.7], Sigma0=[[1.0]], f_bar=[1.0])
        grid = TimeGrid(1.0, 300)
        obs = simulate_truth_and_obs(model, grid, seed=2)
        assert remark_consistency_check(model, obs) < 1e-12


def test_policy_optimality_under_perturbations():
    # comparison-theorem direction: perturbed policies never beat the HJB policy
    model = make_scalar("double_well", sigma=0.5, f="quadratic",
                        f_params={"weight": 1.0}, control_gain=1.0)
    sg = SpaceGrid(-3, 3, 301)
    tg = TimeGrid(1.0, 200)
    with pytest.warns(Warning):
        field, value = hjb_policy(model, sg, tg)
    mu_opt = model.prior.expectation(lambda x: value.eval(0, x))
    rng = np.random.default_rng(5)
    xs = sg.points()
    for trial in range(10):
        kind = trial % 2
        if kind == 0:
            delta = rng.uniform(-0.5, 0.5)
            perturbed = field.values + delta
        else:
            bump = rng.uniform(-1.0, 1.0) * np.exp(
                -(xs - rng.uniform(-2, 2))**2 / 0.5)
            perturbed = field.values + bump[None, :]
        y_pert = solve_backward_with_source(
            model, sg, tg, policy=perturbed,
            running_cost=lambda k, x, a: 0.5 * a * a)
        mu_pert = model.prior.expectation(lambda x: y_pert.eval(0, x))
        assert mu_pert >= mu_opt - 1e-6


def test_policy_value_path_fixed_point_property():
    # at the Riccati gains, policy evaluation reproduces the Riccati solution
    tg = TimeGrid(1.0, 1000)
    ric = lq_control_riccati([[-1.0]], [[1.0]], QF, tg, sigma=1.0)
    P = _policy_value_path(np.array([[-1.0]]), np.array([[1.0]]), ric.gains,
                           np.array(QF), tg)
    assert np.max(np.abs(P - ric.P)) < 1e-6
