import dataclasses
import warnings

import numpy as np
import pytest

from fbsde_filter.errors import CFLWarning, GridMismatch, LinearSolveFailure
from fbsde_filter.estimators import (
    _scalar_fixed_point,
    closed_loop_dual_controls,
    estimate_pi_obs,
    open_loop_dual_path,
)
from fbsde_filter.kalman import lq_control_riccati
from fbsde_filter.model import SpaceGrid, TimeGrid
from fbsde_filter.pde_backward import (
    solve_backward_kolmogorov,
    solve_backward_with_source,
    solve_feynman_kac,
    solve_hjb_quadratic,
    terminal_slice,
)
from fbsde_filter.sde_sim import simulate_innovation_ensemble, simulate_truth_and_obs

from conftest import make_scalar

# Frozen Monte Carlo oracles (10^6 Euler paths each, computed once):
#   P(X_T > 0 | X_0 = 0.5) for dX = (X - X^3) dt + 0.5 dB, T = 1, dt = 5e-4
DW_EXIT_PROB, DW_EXIT_SE = 0.917705, 0.000275
#   E[exp(-int_0^1 B_s^2 ds)] for standard BM from 0 (trapezoid integral, dt = 1e-3)
FK_EXPECTATION, FK_SE = 0.677191, 0.000238


class TestBackwardKolmogorov:
    def test_driftless_linear_terminal(self):
        # b = 0, f = x: y = x away from the truncation boundary layer
        model = make_scalar("constant", {"c": 0.0}, h="constant", h_params={"c": 0.0})
        sg = SpaceGrid(-8, 8, 401)
        y = solve_backward_kolmogorov(model, sg, TimeGrid(1.0, 200))
        xs = sg.points()
        window = np.abs(xs) <= 4.0
        assert np.max(np.abs(y.values[:, window] - xs[None, window])) < 1e-4

    def test_lg_closed_form(self):
        # b = -x, f = x: y_t(x) = e^{-(T-t)} x on the interior window
        model = make_scalar("linear", {"a": -1.0})
        sg = SpaceGrid(-8, 8, 801)
        tg = TimeGrid(1.0, 2000)
        y = solve_backward_kolmogorov(model, sg, tg)
        xs = sg.points()
        window = np.abs(xs) <= 4.0
        ts = tg.times()
        exact = np.exp(-(1.0 - ts))[:, None] * xs[None, :]
        assert np.max(np.abs((y.values - exact)[:, window])) < 1e-3

    def test_double_well_exit_probability_oracle(self):
        model = make_scalar("double_well", sigma=0.5, f="indicator_positive")
        with pytest.warns(CFLWarning):
            y = solve_backward_kolmogorov(model, SpaceGrid(-5.5, 5.5, 2401),
                                          TimeGrid(1.0, 8000))
        value = float(y.eval(0, 0.5))
        assert abs(value - DW_EXIT_PROB) < 3 * DW_EXIT_SE

    def test_discrete_maximum_principle(self):
        model = make_scalar("double_well", sigma=0.5, f="indicator_positive")
        with pytest.warns(CFLWarning):
            y = solve_backward_kolmogorov(model, SpaceGrid(-5.5, 5.5, 601),
                                          TimeGrid(1.0, 400))
        assert y.values.min() >= -1e-12
        assert y.values.max() <= 1.0 + 1e-12

    def test_gradient_of_linear_solution(self):
        model = make_scalar("linear", {"a": -1.0})
        sg = SpaceGrid(-8, 8, 401)
        tg = TimeGrid(1.0, 100)
        y = solve_backward_kolmogorov(model, sg, tg)
        xs = sg.points()
        window = np.abs(xs) <= 4.0
        # solution is linear in x, so the central-difference gradient is exact
        per_time_slope = y.values[:, 201] / xs[201]
        assert np.max(np.abs(y.gradient[:, window] - per_time_slope[:, None])) < 1e-4

    def test_the_gradient_is_formed_on_its_first_read(self):
        model = make_scalar("double_well", sigma=0.5, f="indicator_positive")
        sg = SpaceGrid(-5.5, 5.5, 601)
        with pytest.warns(CFLWarning):
            y = solve_backward_kolmogorov(model, sg, TimeGrid(1.0, 50))
        y.eval(3, np.linspace(-1.0, 1.0, 7))
        assert "gradient" not in vars(y)  # an unread gradient is never formed
        expected = np.gradient(y.values, sg.dx, axis=1)
        assert y.gradient.tobytes() == expected.tobytes()
        assert y.gradient is y.gradient


class TestTerminalSlice:
    def test_interpolated_indicator_has_no_half_cell_bias(self):
        # criterion-11 grid; node 300 sits on the jump.  With node values the
        # interpolant's jump moves right by dx/2 and this integral is -3.5e-3.
        model = make_scalar("double_well", sigma=0.5, f="indicator_positive")
        sg = SpaceGrid(-5.5, 5.5, 601)
        with pytest.warns(CFLWarning):
            y = solve_backward_kolmogorov(model, sg, TimeGrid(1.0, 10))
        assert y.values[-1, 300] == 0.5
        x = np.linspace(-1.0, 1.0, 2_000_001)  # nodes of a 1e-6 midpoint rule
        x = 0.5 * (x[1:] + x[:-1])
        density = np.exp(-0.5 * (x - 0.3) ** 2) / np.sqrt(2.0 * np.pi)
        bias = np.sum((y.eval(10, x) - (x > 0.0)) * density) * 1e-6
        assert abs(bias) < 1e-4

    def test_every_grid_solver_starts_from_the_terminal_slice(self, double_well):
        sg, tg = SpaceGrid(-5.5, 5.5, 601), TimeGrid(1.0, 20)
        want = terminal_slice(double_well, sg)
        obs = simulate_truth_and_obs(double_well, tg, seed=3)
        ens = simulate_innovation_ensemble(double_well, tg, obs, 100, seed=3)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CFLWarning)
            sweeps = [solve_backward_kolmogorov(double_well, sg, tg),
                      solve_feynman_kac(double_well, sg, tg),
                      solve_backward_with_source(double_well, sg, tg, policy=np.zeros((21, 601))),
                      solve_hjb_quadratic(double_well, sg, tg)[0]]
            sweeps.append(_scalar_fixed_point(double_well, tg, sg, ens, None, 1e-6)[1])
        for y in sweeps:
            assert y.values[-1].tobytes() == want.tobytes()

    @pytest.mark.parametrize("f", ["linear", "cubic", "sine", "gaussian_bump", "quadratic"])
    def test_registry_functions_without_a_jump_keep_their_node_values(self, f):
        model = make_scalar("linear", f=f)
        sg = SpaceGrid(-3.0, 3.0, 61)
        xs = sg.points()
        assert terminal_slice(model, sg).tobytes() == model.terminal(xs).tobytes()
        callable_f = lambda x: (np.asarray(x) > 0.0).astype(float)
        assert terminal_slice(model, sg, callable_f).tobytes() == callable_f(xs).tobytes()


class TestFeynmanKac:
    def test_zero_h_bitwise_equal_to_bke(self):
        model = make_scalar("linear", {"a": -1.0}, h="constant", h_params={"c": 0.0})
        sg = SpaceGrid(-8, 8, 201)
        tg = TimeGrid(1.0, 100)
        y_b = solve_backward_kolmogorov(model, sg, tg)
        y_f = solve_feynman_kac(model, sg, tg)
        assert np.array_equal(y_b.values, y_f.values)

    @pytest.mark.parametrize("reaction,sign", [("killing", -1.0), ("growth", 1.0)])
    def test_constant_h_ratio(self, reaction, sign):
        model = make_scalar("linear", {"a": -1.0}, h="constant", h_params={"c": 1.0},
                            f="gaussian_bump")
        sg = SpaceGrid(-8, 8, 401)
        tg = TimeGrid(1.0, 200)
        y_b = solve_backward_kolmogorov(model, sg, tg)
        y_f = solve_feynman_kac(model, sg, tg, reaction=reaction)
        ts = tg.times()
        ratio_exact = np.exp(sign * (1.0 - ts))
        ratio = y_f.values / y_b.values
        assert np.max(np.abs(ratio - ratio_exact[:, None])) < 1e-10

    def test_brownian_quadratic_killing_oracle(self):
        model = make_scalar("constant", {"c": 0.0}, h="linear",
                            f="constant", f_params={"c": 1.0})
        y = solve_feynman_kac(model, SpaceGrid(-8, 8, 1601), TimeGrid(1.0, 8000))
        value = float(y.eval(0, 0.0))
        assert abs(value - FK_EXPECTATION) < 3 * FK_SE


class TestSourcedSolve:
    def test_reduces_to_bke(self):
        model = make_scalar("linear", {"a": -1.0})
        sg = SpaceGrid(-8, 8, 201)
        tg = TimeGrid(1.0, 100)
        y_b = solve_backward_kolmogorov(model, sg, tg)
        y_s = solve_backward_with_source(model, sg, tg)
        np.testing.assert_array_equal(y_b.values, y_s.values)

    def test_pure_time_integral(self):
        model = make_scalar("constant", {"c": 0.0}, h="constant", h_params={"c": 0.0},
                            f="constant", f_params={"c": 0.0})
        tg = TimeGrid(1.0, 100)
        y = solve_backward_with_source(model, SpaceGrid(-4, 4, 101), tg,
                                       running_cost=lambda k, x, a: np.ones_like(x))
        expected = np.broadcast_to((1.0 - tg.times())[:, None], y.values.shape)
        np.testing.assert_allclose(y.values, expected, atol=1e-11)

    @pytest.mark.parametrize("shape", [(11, 40), (5, 41), (11, 41, 1), (41,)])
    def test_policy_array_of_another_shape_is_a_grid_mismatch(self, shape):
        model = make_scalar("linear", {"a": -1.0}, control_gain=1.0)
        with pytest.raises(GridMismatch):
            solve_backward_with_source(model, SpaceGrid(-4, 4, 41), TimeGrid(1.0, 10),
                                       policy=np.zeros(shape))

    def test_lq_policy_evaluation_matches_riccati(self):
        # fixed law a(x) = -k x: value solves the Lyapunov backward equation
        from fbsde_filter.control import _policy_value_path
        k_gain = 0.2
        model = make_scalar("linear", {"a": -1.0}, f="quadratic",
                            f_params={"weight": 1.0}, control_gain=1.0)
        sg = SpaceGrid(-8, 8, 801)
        tg = TimeGrid(1.0, 2000)
        policy = np.tile(-k_gain * sg.points(), (tg.n_steps + 1, 1))
        y = solve_backward_with_source(model, sg, tg, policy=policy,
                                       running_cost=lambda k, x, a: 0.5 * a * a)
        gains = np.full((tg.n_steps + 1, 1, 1), k_gain)
        P = _policy_value_path(np.array([[-1.0]]), np.array([[1.0]]), gains,
                               np.array([[1.0]]), tg)
        # offset from the sigma^2/2 tr P term (trapezoid)
        trace = 0.5 * P[:, 0, 0]
        offset = np.concatenate([
            (0.5 * tg.dt * (trace[:-1] + trace[1:]))[::-1].cumsum()[::-1], [0.0]])
        xs = np.linspace(-2, 2, 20)
        v_pde = y.eval(0, xs)
        v_ric = 0.5 * P[0, 0, 0] * xs**2 + offset[0]
        assert np.max(np.abs(v_pde - v_ric) / np.abs(v_ric)) < 1e-2


class TestHjbQuadratic:
    def test_zero_gain_reduces_to_policy_evaluation(self):
        model = make_scalar("linear", {"a": -1.0}, f="quadratic",
                            f_params={"weight": 1.0}, control_gain=0.0)
        sg = SpaceGrid(-8, 8, 201)
        tg = TimeGrid(1.0, 100)
        y, policy = solve_hjb_quadratic(model, sg, tg)
        assert np.max(np.abs(policy)) == 0.0
        y_eval = solve_backward_with_source(model, sg, tg)
        np.testing.assert_allclose(y.values, y_eval.values, atol=1e-14)

    def test_lq_policy_matches_control_riccati(self):
        model = make_scalar("linear", {"a": -1.0}, f="quadratic",
                            f_params={"weight": 1.0}, control_gain=1.0)
        sg = SpaceGrid(-8, 8, 801)
        tg = TimeGrid(1.0, 4000)
        y, policy = solve_hjb_quadratic(model, sg, tg)
        ric = lq_control_riccati([[-1.0]], [[1.0]], [[1.0]], tg, sigma=1.0)
        xs = np.concatenate([np.linspace(-2, -0.5, 10), np.linspace(0.5, 2, 10)])
        for k in (0, tg.n_steps // 2):
            a_grid = np.interp(xs, sg.points(), policy[k])
            a_ric = -ric.gains[k, 0, 0] * xs
            assert np.max(np.abs(a_grid - a_ric) / np.abs(a_ric)) < 1e-3

    def test_symmetric_double_well_policy_is_odd(self):
        model = make_scalar("double_well", sigma=0.5, f="quadratic",
                            f_params={"weight": 1.0}, control_gain=1.0)
        with pytest.warns(CFLWarning):
            _, policy = solve_hjb_quadratic(model, SpaceGrid(-3, 3, 301),
                                            TimeGrid(1.0, 200))
        assert np.max(np.abs(policy + policy[:, ::-1])) < 1e-10

    # the cli_jobs control model (f = x^2 on [-5.5, 5.5], g = 1) on a coarser grid
    @staticmethod
    def _double_well(sigma, gain=1.0):
        return make_scalar("double_well", sigma=sigma, f="quadratic",
                           f_params={"weight": 2.0}, control_gain=gain)

    @pytest.mark.parametrize("gain", [1e-4, 1e-6, 1e-8])
    def test_weak_gains_stay_within_order_g_squared_of_the_zero_gain_solve(self, gain):
        sg, tg = SpaceGrid(-5.5, 5.5, 111), TimeGrid(1.0, 50)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CFLWarning)
            y, _ = solve_hjb_quadratic(self._double_well(0.5, gain), sg, tg)
            y0 = solve_backward_kolmogorov(self._double_well(0.5, 0.0), sg, tg)
        # y - y0 solves the linear equation with source -(g dy/dx)^2 / 2 and zero
        # terminal: within g^2 T max|dy/dx|^2 / 2 by the maximum principle (twice that
        # here), plus a rounding of eps |f_T| per step
        bound = (gain**2 * tg.t_end * np.abs(y0.gradient).max() ** 2
                 + (tg.n_steps + 1) * np.finfo(float).eps * np.abs(y0.values[-1]).max())
        assert np.abs(y.values - y0.values).max() <= bound

    @pytest.mark.parametrize("gain", [5e-324, 1e-310, -1e-160])
    def test_a_gain_whose_square_underflows_takes_the_zero_gain_path(self, gain):
        sg, tg = SpaceGrid(-5.5, 5.5, 111), TimeGrid(1.0, 50)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CFLWarning)
            y, policy = solve_hjb_quadratic(self._double_well(0.5, gain), sg, tg)
            y0 = solve_backward_kolmogorov(self._double_well(0.5, 0.0), sg, tg)
        np.testing.assert_array_equal(y.values, y0.values)
        np.testing.assert_array_equal(policy, -gain * y0.gradient)

    @pytest.mark.parametrize("sigma,in_range", [(0.15, True), (0.14, False), (0.05, False)])
    def test_a_span_past_the_float64_range_is_a_linear_solve_failure(self, sigma, in_range):
        # max|f_T - c| / lambda = 15.125 / sigma^2: 672 at 0.15, 772 at 0.14
        sg, tg = SpaceGrid(-5.5, 5.5, 111), TimeGrid(1.0, 50)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CFLWarning)
            warnings.simplefilter("error", RuntimeWarning)
            if in_range:
                y, policy = solve_hjb_quadratic(self._double_well(sigma), sg, tg)
                assert np.isfinite(policy).all() and y.values.min() >= 0.0
            else:
                with pytest.raises(LinearSolveFailure, match="out of range"):
                    solve_hjb_quadratic(self._double_well(sigma), sg, tg)


S_STAR = np.sqrt(2.0) - 1.0  # the stationary filter variance of lg_benchmark


def _sup_errors(path_and_exact):
    """sup_k |path_k - exact_k| on TimeGrid(1, K) for K = 1 000 and 2 000."""
    return [np.max(np.abs(np.subtract(*path_and_exact(TimeGrid(1.0, K)))))
            for K in (1000, 2000)]


class TestOpenLoopDual:
    # ybar_k = (I + A dt) ybar_{k+1}, the dual of the Euler mean recursion
    def test_zero_matrix(self):
        ybar = open_loop_dual_path([[0.0]], [3.0], TimeGrid(1.0, 10))
        np.testing.assert_array_equal(ybar, 3.0)

    def test_scalar_exponential_first_order(self):
        # A = -1, f = 1: ybar_t -> exp(-(T - t)), with the error halving with dt
        coarse, fine = _sup_errors(lambda tg: (open_loop_dual_path([[-1.0]], [1.0], tg)[:, 0],
                                               np.exp(-(1.0 - tg.times()))))
        assert coarse < 2e-4 and 1.9 < coarse / fine < 2.1

    def test_nilpotent(self):
        # A^2 = 0: (I + A dt)^K = I + A T = exp(A T)
        ybar = open_loop_dual_path([[0.0, 1.0], [0.0, 0.0]], [0.0, 1.0], TimeGrid(1.0, 10))
        np.testing.assert_allclose(ybar[0], [1.0, 1.0], atol=1e-14)


class TestClosedLoopDual:
    def test_zero_h_matches_open_loop(self):
        tg = TimeGrid(1.0, 500)
        ybar, u = closed_loop_dual_controls([[-1.0]], [[0.0]], np.ones((501, 1, 1)), [1.0], tg)
        np.testing.assert_array_equal(ybar, open_loop_dual_path([[-1.0]], [1.0], tg))
        np.testing.assert_array_equal(u, 0.0)

    def test_stationary_covariance_first_order(self):
        # constant Sigma* : ybar_t -> exp(-(1 + Sigma*)(T - t)), u_k = -Sigma* ybar_{k+1}
        def closed(tg):
            ybar, u = closed_loop_dual_controls([[-1.0]], [[1.0]],
                                                np.full((tg.n_steps + 1, 1, 1), S_STAR),
                                                [1.0], tg)
            np.testing.assert_array_equal(u[:, 0], -S_STAR * ybar[1:, 0])
            return ybar[:, 0], np.exp(-(1.0 + S_STAR) * (1.0 - tg.times()))

        coarse, fine = _sup_errors(closed)
        assert coarse < 3e-4 and 1.9 < coarse / fine < 2.1

    def test_fixed_point_control_second_order(self, lg_benchmark):
        # estimator III's trapezoidal control from the stationary prior Sigma0 = Sigma*:
        # u_t -> -Sigma* exp(-(1 + Sigma*)(T - t)), with the error quartering with dt
        model = dataclasses.replace(lg_benchmark, Sigma0=[[S_STAR]])

        def control(tg):
            obs = simulate_truth_and_obs(model, tg, seed=7)
            report = estimate_pi_obs(model, obs, mode="fixed_point", tol=1e-10)
            exact = -S_STAR * np.exp(-(1.0 + S_STAR) * (1.0 - tg.times()))
            return report.control_path[:, 0], exact

        coarse, fine = _sup_errors(control)
        assert coarse < 3e-8 and 3.8 < coarse / fine < 4.2


def test_grid_function_csv(tmp_path):
    model = make_scalar("linear", {"a": -1.0})
    sg = SpaceGrid(-2, 2, 5)
    tg = TimeGrid(1.0, 3)
    y = solve_backward_kolmogorov(model, sg, tg)
    path = tmp_path / "y.csv"
    y.to_csv(path)
    lines = path.read_text().strip().split("\n")
    assert len(lines) == 5  # header + 4 time rows
    header = lines[0].split(",")
    assert header[0] == "t" and len(header) == 6
    row = np.array([float(v) for v in lines[-1].split(",")])
    assert row[0] == 1.0
    np.testing.assert_array_equal(row[1:], y.values[-1])
