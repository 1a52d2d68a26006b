import hashlib

import numpy as np
import pytest
from scipy.linalg import expm

from fbsde_filter.errors import RiccatiBlowup
from fbsde_filter.estimators import (
    closed_loop_dual_controls,
    open_loop_dual_estimate,
    open_loop_dual_path,
)
from fbsde_filter.kalman import (
    _clip_psd,
    kalman_bucy_mean,
    lq_control_riccati,
    model_kalman,
    model_riccati,
    riccati_filter,
)
from fbsde_filter.model import LinearGaussianModelSpec, TimeGrid
from fbsde_filter.sde_sim import ObservationRecord, simulate_truth_and_obs


class TestRiccatiFilter:
    def test_stationary_fixed_point(self):
        S = riccati_filter([[0.0]], [[1.0]], 1.0, [[1.0]], TimeGrid(1.0, 1000))
        np.testing.assert_allclose(S[:, 0, 0], 1.0, atol=1e-13)

    def test_pure_diffusion(self):
        grid = TimeGrid(1.0, 1000)
        S = riccati_filter([[0.0]], [[0.0]], 1.0, [[1.0]], grid)
        np.testing.assert_allclose(S[:, 0, 0], 1.0 + grid.times(), atol=1e-12)

    def test_pure_diffusion_matrix(self):
        grid = TimeGrid(1.0, 200)
        S0 = np.array([[1.0, 0.3], [0.3, 2.0]])
        S = riccati_filter(np.zeros((2, 2)), np.zeros((2, 1)), 0.5, S0, grid)
        expected = S0 + 0.25 * grid.t_end * np.eye(2)
        np.testing.assert_allclose(S[-1], expected, atol=1e-12)

    def test_benchmark_against_fine_grid(self):
        coarse = riccati_filter([[-1.0]], [[1.0]], 1.0, [[1.0]], TimeGrid(1.0, 1000))
        fine = riccati_filter([[-1.0]], [[1.0]], 1.0, [[1.0]], TimeGrid(1.0, 20000))
        assert abs(coarse[-1, 0, 0] - fine[-1, 0, 0]) < 1e-8
        # approaches the stationary root of -2 S + 1 - S^2 = 0
        long = riccati_filter([[-1.0]], [[1.0]], 1.0, [[1.0]], TimeGrid(8.0, 4000))
        assert abs(long[-1, 0, 0] - (np.sqrt(2.0) - 1.0)) < 1e-6

    def test_symmetry_and_psd_along_path(self):
        A = np.array([[0.0, 1.0], [-1.0, -0.5]])
        H = np.array([[1.0], [0.0]])
        S0 = np.array([[1.0, 0.2], [0.2, 0.5]])
        S = riccati_filter(A, H, 0.7, S0, TimeGrid(2.0, 500))
        np.testing.assert_allclose(S, np.swapaxes(S, 1, 2), atol=1e-12)
        eigs = np.linalg.eigvalsh(S)
        assert eigs.min() >= -1e-10

    def test_blowup_guard(self):
        with pytest.raises(RiccatiBlowup):
            riccati_filter([[5.0]], [[0.0]], 100.0, [[1.0]], TimeGrid(5.0, 500))

    def test_stiff_observation_gain(self):
        S = riccati_filter([[-1.0]], [[100.0]], 1.0, [[1.0]], TimeGrid(1.0, 1000))
        # stationary value approx sigma / H for large H
        assert abs(S[-1, 0, 0] - 0.01) < 2e-4


class TestKalmanBucyMean:
    def test_no_observation_is_linear_ode(self):
        grid = TimeGrid(1.0, 2000)
        A = np.array([[0.0, 1.0], [0.0, 0.0]])
        dZ = np.zeros((grid.n_steps, 1))
        obs = ObservationRecord(grid=grid, Z=np.zeros((grid.n_steps + 1, 1)), dZ=dZ)
        S = riccati_filter(A, np.zeros((2, 1)), 0.5, np.eye(2), grid)
        state = kalman_bucy_mean(A, np.zeros((2, 1)), S, [1.0, 2.0], obs)
        expected = expm(A.T * grid.t_end) @ np.array([1.0, 2.0])
        np.testing.assert_allclose(state.mean[-1], expected, rtol=1e-6)

    def test_zero_noise_equilibrium(self, lg_benchmark):
        grid = TimeGrid(1.0, 100)
        obs = ObservationRecord(grid=grid, Z=np.zeros(101), dZ=np.zeros(100),
                                X_truth=np.zeros(101))
        state = model_kalman(lg_benchmark, obs)
        np.testing.assert_array_equal(state.mean, 0.0)
        np.testing.assert_array_equal(state.innovation, 0.0)

    def test_filter_consistency(self, lg_benchmark):
        # mean error ~ 0 and error variance ~ Sigma_T over 2000 synthetic runs
        grid = TimeGrid(1.0, 400)
        Sigma = model_riccati(lg_benchmark, grid)
        errs = np.empty(2000)
        for r in range(2000):
            obs = simulate_truth_and_obs(lg_benchmark, grid, seed=7000 + r)
            state = kalman_bucy_mean(lg_benchmark.A, lg_benchmark.H, Sigma,
                                     lg_benchmark.m0, obs)
            errs[r] = state.mean[-1, 0] - obs.X_truth[-1]
        se = errs.std(ddof=1) / np.sqrt(len(errs))
        assert abs(errs.mean()) < 3 * se
        assert abs(errs.var(ddof=1) / Sigma[-1, 0, 0] - 1.0) < 0.10

    def test_duality_identity(self, lg_benchmark):
        # estimator assembled from the dual recursion equals f_bar^T m_T
        grid = TimeGrid(1.0, 1000)
        obs = simulate_truth_and_obs(lg_benchmark, grid, seed=42)
        Sigma = model_riccati(lg_benchmark, grid)
        state = kalman_bucy_mean(lg_benchmark.A, lg_benchmark.H, Sigma,
                                 lg_benchmark.m0, obs)
        dI = np.diff(state.innovation, axis=0)
        value = open_loop_dual_estimate(lg_benchmark.A, lg_benchmark.H, Sigma,
                                        lg_benchmark.f_bar, lg_benchmark.m0, dI, grid)
        target = float(lg_benchmark.f_bar @ state.mean[-1])
        assert abs(value - target) < 1e-10


def reference_clip_psd(path):
    """The per-step clip: each step with a negative eigenvalue is rebuilt from
    its eigh with those eigenvalues set to 0, the others are kept as they are."""
    out = path.copy()
    for k in range(out.shape[0]):
        w, V = np.linalg.eigh(out[k])
        if w.min() < 0.0:
            out[k] = (V * np.maximum(w, 0.0)) @ V.T
    return out


@pytest.mark.parametrize("n", [1, 2, 3])
def test_clip_psd_is_the_per_step_eigh_clip_bitwise(n):
    rng = np.random.default_rng(40 + n)
    M = rng.standard_normal((200, n, n))
    path = M @ M.transpose(0, 2, 1)
    indefinite = rng.random(200) < 0.4
    path[indefinite] -= 2.0 * np.eye(n)  # some steps get negative eigenvalues
    path = 0.5 * (path + path.transpose(0, 2, 1))
    assert np.count_nonzero(np.linalg.eigvalsh(path).min(axis=-1) < 0.0) > 20
    clipped = _clip_psd(path)
    assert clipped.tobytes() == reference_clip_psd(path).tobytes()  # signs of 0 too
    assert np.linalg.eigvalsh(clipped).min() > -1e-12


class TestClosedLoopDualTwoStates:
    A = np.array([[-1.0, 0.5], [0.0, -0.3]])
    H = np.array([[1.0], [0.4]])
    f_bar = np.array([1.0, -0.5])
    grid = TimeGrid(1.0, 1000)

    def setup_method(self):
        self.Sigma = riccati_filter(self.A, self.H, 0.8, np.eye(2), self.grid)

    def reference_loop(self):
        """The hand-written closed-loop dual: u_k = -H^T Sigma_k ybar_{k+1},
        ybar_k = ybar_{k+1} + dt A ybar_{k+1} + dt H u_k."""
        K, dt, H, A = self.grid.n_steps, self.grid.dt, self.H, self.A
        ybar, u = np.empty((K + 1, 2)), np.empty((K, 1))
        ybar[K] = self.f_bar
        for k in range(K - 1, -1, -1):
            u[k] = -H.T @ (self.Sigma[k] @ ybar[k + 1])
            ybar[k] = ybar[k + 1] + dt * (A @ ybar[k + 1]) + dt * (H @ u[k])
        return ybar, u

    def test_agrees_with_the_hand_written_loop(self):
        ybar, u = closed_loop_dual_controls(self.A, self.H, self.Sigma, self.f_bar, self.grid)
        ref_ybar, ref_u = self.reference_loop()
        assert np.max(np.abs(ybar - ref_ybar)) <= 1e-13 * np.max(np.abs(ref_ybar))
        assert np.max(np.abs(u - ref_u)) <= 1e-13 * np.max(np.abs(ref_u))

    def test_open_loop_dual_agrees_with_the_hand_written_loop(self):
        ref = np.empty((self.grid.n_steps + 1, 2))
        ref[-1] = self.f_bar
        for k in range(self.grid.n_steps - 1, -1, -1):
            ref[k] = ref[k + 1] + self.grid.dt * (self.A @ ref[k + 1])
        ybar = open_loop_dual_path(self.A, self.f_bar, self.grid)
        assert np.max(np.abs(ybar - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_each_step_telescopes_against_the_filtered_mean(self):
        ybar, u = closed_loop_dual_controls(self.A, self.H, self.Sigma, self.f_bar, self.grid)
        lg = LinearGaussianModelSpec(A=self.A, H=self.H, sigma=0.8, m0=[0.3, -0.2],
                                     Sigma0=np.eye(2), f_bar=self.f_bar)
        obs = simulate_truth_and_obs(lg, self.grid, seed=17)
        m = kalman_bucy_mean(self.A, self.H, self.Sigma, lg.m0, obs).mean
        dZ = obs.dZ.reshape(self.grid.n_steps, 1)
        # ybar_{k+1}^T m_{k+1} - ybar_k^T m_k = -u_k^T dZ_k
        lhs = np.einsum("kn,kn->k", ybar[1:], m[1:]) - np.einsum("kn,kn->k", ybar[:-1], m[:-1])
        rhs = -np.einsum("km,km->k", u, dZ)
        scale = np.abs(ybar[1:] * m[1:]).sum(axis=1) + np.abs(u * dZ).sum(axis=1)
        assert np.all(np.abs(lhs - rhs) <= 1e-14 * scale)


class TestControlRiccati:
    def test_zero_gain_lyapunov(self):
        ric = lq_control_riccati([[0.0]], [[0.0]], [[1.0]], TimeGrid(1.0, 100))
        np.testing.assert_allclose(ric.P[:, 0, 0], 1.0, atol=1e-13)
        np.testing.assert_array_equal(ric.gains, 0.0)

    def test_scalar_closed_form(self):
        # -dP/dt = -2P - P^2, P_T = 1: P(s) = 2 e^{-2s} / (2 + (1 - e^{-2s}))
        tg = TimeGrid(1.0, 1000)
        ric = lq_control_riccati([[-1.0]], [[1.0]], [[1.0]], tg, sigma=1.0)
        s = 1.0 - tg.times()
        exact = 2.0 * np.exp(-2.0 * s) / (2.0 + (1.0 - np.exp(-2.0 * s)))
        np.testing.assert_allclose(ric.P[:, 0, 0], exact, atol=1e-10)
        fine = lq_control_riccati([[-1.0]], [[1.0]], [[1.0]], TimeGrid(1.0, 20000),
                                  sigma=1.0)
        assert abs(ric.P[0, 0, 0] - fine.P[0, 0, 0]) < 1e-8

    @pytest.mark.parametrize("Qf", [50.0, 500.0, 5000.0, -1.0])
    def test_stiff_and_indefinite_terminal_hessians_follow_the_closed_form(self, Qf):
        # a = -1, g = 1: P(s) = 2a / (g^2 + (2a/Q_f - g^2) e^{-2as}), s = T - t.  Q_f dt
        # = 0.5, 5 and 50 make the first steps back from T stiff (substepped); a
        # negative Q_f keeps its sign, as no PSD clip touches the value Hessian.
        tg = TimeGrid(1.0, 100)
        s = 1.0 - tg.times()
        exact = -2.0 / (1.0 + (-2.0 / Qf - 1.0) * np.exp(2.0 * s))
        P = lq_control_riccati([[-1.0]], [[1.0]], [[Qf]], tg).P[:, 0, 0]
        assert np.max(np.abs(P - exact) / np.abs(exact)) < 1e-5

    def test_benchmark_path_is_pinned_bitwise(self):
        # the sha256 of P for a = -1, g = 1, Q_f = 1, K = 1000, where nothing substeps
        ric = lq_control_riccati([[-1.0]], [[1.0]], [[1.0]], TimeGrid(1.0, 1000))
        assert hashlib.sha256(ric.P.tobytes()).hexdigest() == \
            "ecd66aa3c8ed45199909299e6d6d457e3b56bd26d02065674afa053a4d95269c"

    def test_value_matches_hjb_grid(self):
        from fbsde_filter.model import SpaceGrid
        from fbsde_filter.pde_backward import solve_hjb_quadratic
        from conftest import make_scalar
        tg = TimeGrid(1.0, 500)
        ric = lq_control_riccati([[-1.0]], [[1.0]], [[1.0]], tg, sigma=1.0)
        model = make_scalar("linear", {"a": -1.0}, f="quadratic",
                            f_params={"weight": 1.0}, control_gain=1.0)
        sg = SpaceGrid(-8, 8, 801)
        y, _ = solve_hjb_quadratic(model, sg, tg)
        xs = np.linspace(-2.0, 2.0, 20)
        v_grid = y.eval(0, xs)
        v_ric = ric.value(0, xs)
        assert np.max(np.abs(v_grid - v_ric) / np.abs(v_ric)) < 1e-2

    def test_psd_along_path(self):
        A = np.array([[0.0, 1.0], [-2.0, -0.3]])
        G = np.array([[0.0], [1.0]])
        ric = lq_control_riccati(A, G, np.eye(2), TimeGrid(1.0, 500))
        np.testing.assert_allclose(ric.P, np.swapaxes(ric.P, 1, 2), atol=1e-12)
        assert np.linalg.eigvalsh(ric.P).min() >= -1e-10


def test_gaussian_state_csv(tmp_path, lg_benchmark):
    grid = TimeGrid(1.0, 4)
    obs = simulate_truth_and_obs(lg_benchmark, grid, seed=5)
    state = model_kalman(lg_benchmark, obs)
    path = tmp_path / "state.csv"
    state.to_csv(path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "t,m_1,sigma_11"
    assert len(lines) == 6
