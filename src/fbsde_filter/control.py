"""Partially observed optimal control built on the estimator machinery.

Provides the HJB state-control law, certainty-equivalence closed-loop runs
(control = filtered mean of the state policy), the separated-cost estimator
driven by the innovation ensemble, the linear-Gaussian alternating
filter/control iteration, and the consistency identity linking the running
cost h * alpha to the observation-based estimator of pi_T[f].  Both closed
loops draw their truth path from `sde_sim.truth_draws` on the control streams.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import FilterDivergence, IterationNotConverged
from .estimators import (
    closed_loop_dual_controls,
    estimate_pi_innovation,
    open_loop_dual_estimate,
)
from .io import write_csv
from .kalman import (
    kalman_bucy_mean,
    kalman_mean_step,
    kalman_transitions,
    lq_control_riccati,
    model_kalman,
    model_riccati,
    riccati_sweep,
)
from .model import (
    LinearGaussianModelSpec,
    ScalarModelSpec,
    SpaceGrid,
    TimeGrid,
    gaussian_quadrature,
)
from .pde_backward import GridFunction, interp_uniform, solve_hjb_quadratic
from .sde_sim import (
    STREAM_CONTROL_OBS,
    STREAM_CONTROL_STATE,
    STREAM_FILTER,
    ObservationRecord,
    PathEnsemble,
    check_ess_floor,
    check_n_paths,
    path_dot,
    truth_draws,
    truth_step,
    weighted_paths,
)


@dataclass(frozen=True)
class PolicyField:
    """A state-feedback control law a_t(x) on the time grid.

    Either a gain path (a_t(x) = -K_t x, provenance "lq_riccati") or a
    space-time grid of control values (provenance "hjb"), or zero.
    """

    time_grid: TimeGrid
    provenance: str
    values: np.ndarray | None = None      # (n_steps + 1, n_points)
    space_grid: SpaceGrid | None = None
    gains: np.ndarray | None = None       # (n_steps + 1, p, n)

    def policy_at(self, k: int, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.provenance == "zero":
            return np.zeros_like(x)
        if self.gains is not None:
            if self.gains.shape[1] == 1 and self.gains.shape[2] == 1 and x.ndim <= 1:
                return -float(self.gains[k, 0, 0]) * x
            return -(x @ self.gains[k].T)
        return interp_uniform(self.space_grid, self.values[k], x)

    @staticmethod
    def zero(time_grid: TimeGrid) -> "PolicyField":
        return PolicyField(time_grid=time_grid, provenance="zero")

    @staticmethod
    def from_gains(time_grid: TimeGrid, gains: np.ndarray) -> "PolicyField":
        return PolicyField(time_grid=time_grid, provenance="lq_riccati", gains=gains)


@dataclass(frozen=True)
class ControlRunReport:
    """Outcome of one control experiment."""

    realized_cost: float | None = None
    separated_cost_estimate: float | None = None
    mc_std_err: float | None = None
    mu_y0: float | None = None
    filter_trace: np.ndarray | None = None
    seed: int | None = None

    def csv_row(self):
        blank = lambda v: "" if v is None else v
        return (blank(self.seed), blank(self.realized_cost),
                blank(self.separated_cost_estimate), blank(self.mu_y0))

    @staticmethod
    def csv_header():
        return ["seed", "realized_cost", "separated_cost_estimate", "mu_y0"]


# ---------------------------------------------------------------------------
# HJB policy
# ---------------------------------------------------------------------------

def hjb_policy(model: ScalarModelSpec, space_grid: SpaceGrid, time_grid: TimeGrid,
               terminal=None):
    """Optimal state control for additive control and quadratic running cost.

    Returns (PolicyField, value GridFunction) with a_t(x) = -g dy/dx, where
    y = c - lambda log psi and psi is the uncontrolled sweep of exp(-(f_T - c) / lambda)
    (`solve_hjb_quadratic`): LinearSolveFailure past max|f_T - c| / lambda = 708.4, the
    sweep of psi - 1 below 1, and the plain sweep of f_T with a zero policy at g = 0.
    """
    value, policy_values = solve_hjb_quadratic(model, space_grid, time_grid,
                                               terminal=terminal)
    field = PolicyField(time_grid=time_grid, provenance="hjb",
                        values=policy_values, space_grid=space_grid)
    return field, value


# ---------------------------------------------------------------------------
# certainty-equivalence closed loop
# ---------------------------------------------------------------------------

def _policy_filter_mean_lg(policy: PolicyField, k: int, mean: np.ndarray,
                           var: float, n_controls: int):
    """pi_t[a_t] for a Gaussian filter state (vectorized over runs)."""
    if policy.provenance == "zero":
        return np.zeros((mean.shape[0], n_controls))
    if policy.gains is not None:
        return -np.einsum("pn,sn->sp", policy.gains[k], mean)
    xq, wts = gaussian_quadrature(mean[:, 0], var)
    aq = interp_uniform(policy.space_grid, policy.values[k], xq)
    return (aq @ wts)[:, None]


def certainty_equivalence_batch(model: LinearGaussianModelSpec,
                                policy: PolicyField, grid: TimeGrid,
                                seeds, terminal_hessian) -> tuple[np.ndarray, np.ndarray]:
    """Closed-loop runs alpha_t = pi_t[a_t] with a Kalman-Bucy filter.

    Vectorized across seeds; every seed draws from its own noise streams so
    batched and single runs are bit-identical.  Returns (realized costs,
    filter mean trace of the first seed).
    """
    seeds = list(seeds)
    S = len(seeds)
    if S == 0:
        raise ValueError("certainty_equivalence_batch needs at least one seed")
    n, p = model.n_state, model.G.shape[1]
    K, dt, sqdt = grid.n_steps, grid.dt, math.sqrt(grid.dt)
    Qf = np.atleast_2d(np.asarray(terminal_hessian, dtype=float))

    Sigma = model_riccati(model, grid)
    Phi, SH = kalman_transitions(model.A, model.H, Sigma, dt)

    draws = [truth_draws(model, seed, K, STREAM_CONTROL_STATE, STREAM_CONTROL_OBS)
             for seed in seeds]
    X, xi, eta = (np.stack(d) for d in zip(*draws))  # (S, n), (S, K, n), (S, K, m)

    m = np.tile(model.m0, (S, 1))
    cost = np.zeros(S)
    trace = np.empty((K + 1, n))
    trace[0] = m[0]
    H = model.H
    G = model.G
    for k in range(K):
        alpha = _policy_filter_mean_lg(policy, k, m, float(Sigma[k][0, 0]), p)
        cost += 0.5 * np.einsum("sp,sp->s", alpha, alpha) * dt
        drift_truth = X @ model.A + alpha @ G.T
        dZ = (X @ H) * dt + sqdt * eta[:, k, :]
        X = truth_step(X, drift_truth, xi[:, k, :], model.sigma, dt, k + 1)
        m = kalman_mean_step(m, dZ, Phi[k], SH[k], dt, shift=alpha @ G.T)
        trace[k + 1] = m[0]
    cost += 0.5 * np.einsum("si,ij,sj->s", X, Qf, X)
    return cost, trace


def certainty_equivalence_run(model, policy: PolicyField, grid: TimeGrid,
                              seed: int, terminal_hessian=None,
                              terminal_cost=None, filter_particles: int = 1000,
                              ess_floor: float = 0.1) -> ControlRunReport:
    """One closed-loop certainty-equivalence run.

    Linear-Gaussian models use the Kalman-Bucy filter (terminal cost
    0.5 x^T Q_f x); scalar models use a resampling particle filter and a
    callable terminal cost (defaulting to the model terminal function).
    """
    ess_floor = check_ess_floor(ess_floor)
    if isinstance(model, LinearGaussianModelSpec):
        if terminal_hessian is None:
            raise ValueError("linear-Gaussian control runs need terminal_hessian")
        costs, trace = certainty_equivalence_batch(model, policy, grid, [seed],
                                                   terminal_hessian)
        return ControlRunReport(realized_cost=float(costs[0]), filter_trace=trace,
                                seed=seed)
    K, dt, sqdt = grid.n_steps, grid.dt, math.sqrt(grid.dt)
    g = model.control_gain
    f_cost = terminal_cost if terminal_cost is not None else model.terminal
    n_particles = check_n_paths(filter_particles)
    steps = weighted_paths(model, grid, n_particles, seed, STREAM_FILTER,
                           ess_floor * n_particles, 0)
    x_truth, xi, eta = truth_draws(model, seed, K, STREAM_CONTROL_STATE, STREAM_CONTROL_OBS)

    cost = 0.0
    trace = np.empty(K + 1)
    for k in range(K + 1):  # step k - 1 is taken on the last dZ, its drift shifted by g alpha
        particles, w, wsum, ess, _, _ = steps.send(None if k == 0 else (b, c, dZ))
        if ess < 1.0 + 1e-9:
            raise FilterDivergence("particle filter collapsed to a single path")
        trace[k] = float(path_dot(w, particles) / wsum)
        if k == K:
            break
        alpha = float(path_dot(w, policy.policy_at(k, particles)) / wsum)
        cost += 0.5 * alpha * alpha * dt
        dZ = model.obs(x_truth) * dt + sqdt * eta[k]
        b = np.asarray(model.drift(particles), dtype=float) + g * alpha
        c = np.asarray(model.obs(particles), dtype=float)
        x_truth = truth_step(x_truth, model.drift(x_truth) + g * alpha, xi[k],
                             model.sigma, dt, k + 1)
    cost += float(f_cost(x_truth))
    return ControlRunReport(realized_cost=cost, filter_trace=trace, seed=seed)


# ---------------------------------------------------------------------------
# separated cost estimator
# ---------------------------------------------------------------------------

def separated_cost_estimate(model: ScalarModelSpec, obs: ObservationRecord,
                            ensemble: PathEnsemble,
                            y_value: GridFunction) -> ControlRunReport:
    """Estimate the conditional (separated) cost of a fixed Markov policy.

    y_value must be the policy-evaluation backward solution (running cost
    included) for the policy, and the ensemble must have been simulated under
    its controlled drift.  The estimate is estimator II with y_value,
    mu[y_0] + sum_k mean_i( w_ik y_k(X_ik) (h - pi_k[h]) ) dI_k, with its
    checks; its average over observation records is the unconditional cost
    mu[y_0].
    """
    report = estimate_pi_innovation(model, obs, y_value, ensemble)
    return ControlRunReport(separated_cost_estimate=report.point_estimate,
                            mc_std_err=report.mc_std_err,
                            mu_y0=report.y0_prior_term, seed=report.seed)


# ---------------------------------------------------------------------------
# linear-Gaussian alternating iteration and identities
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LqgIterationResult:
    gains: np.ndarray            # (n_steps + 1, p, n)
    P: np.ndarray                # (n_steps + 1, n, n)
    filter_trace: np.ndarray | None
    convergence: tuple           # per-sweep max gain change
    n_sweeps: int


def _policy_value_path(A, G, gains, Qf, grid: TimeGrid) -> np.ndarray:
    """Backward Lyapunov solve for the value Hessian of a fixed linear law.

    -dP/dt = F^T P + P F + K^T K with F = A^T - G K, P_T = Q_f: `riccati_sweep`
    in reversed time s = T - t on the reversed gains, substepped by 2 ||F|| (Frobenius).
    """
    def rate(P, Kg):
        F = A.T - G @ Kg
        return F.T @ P + P @ F + Kg.T @ Kg

    def scale(P, Kg):
        return 2.0 * np.hypot.reduce(A.T - G @ Kg, axis=None)

    return riccati_sweep(rate, Qf, grid, scale, coeffs=gains[::-1])[::-1]


def lqg_alternating_iteration(model: LinearGaussianModelSpec, grid: TimeGrid,
                              terminal_hessian, obs: ObservationRecord | None = None,
                              tol: float = 1e-6, max_sweeps: int = 20) -> LqgIterationResult:
    """Policy iteration on the linear law, then the filter under it.

    Each sweep evaluates the current law's value Hessian backward and improves
    the gains via K = G^T P; converged gains equal the certainty-equivalence LQ
    Riccati gains.  With an observation record the Kalman-Bucy mean is then run
    once along it under the returned gains (the filter trace).
    """
    A, G = model.A, model.G
    gains = np.zeros((grid.n_steps + 1, G.shape[1], model.n_state))
    convergence = []
    for sweep in range(max_sweeps):
        P = _policy_value_path(A, G, gains, terminal_hessian, grid)
        new_gains = np.einsum("ij,kjl->kil", G.T, P)
        change = float(np.max(np.abs(new_gains - gains)))
        convergence.append(change)
        gains = new_gains
        if change < tol:
            trace = None if obs is None else kalman_bucy_mean(
                A, model.H, model_riccati(model, grid), model.m0, obs, G=G, gains=gains).mean
            return LqgIterationResult(gains=gains, P=P, filter_trace=trace,
                                      convergence=tuple(convergence),
                                      n_sweeps=sweep + 1)
    raise IterationNotConverged(
        f"gain change {convergence[-1]:.3e} after {max_sweeps} sweeps"
    )


def lqg_optimal_cost(model: LinearGaussianModelSpec, terminal_hessian,
                     grid: TimeGrid) -> float:
    """Closed-form expected cost of the certainty-equivalence LQG loop.

    0.5 m0^T P_0 m0 + 0.5 int tr(H^T Sigma P Sigma H) dt
    + 0.5 tr(Q_f Sigma_T), assembled from the control and filter Riccati
    solutions (trapezoidal time integral).
    """
    ric = lq_control_riccati(model.A, model.G, terminal_hessian, grid,
                             sigma=model.sigma)
    Sigma = model_riccati(model, grid)
    H = model.H
    HtS = np.einsum("ji,kjl->kil", H, Sigma)        # (K+1, m, n) = H^T Sigma
    SH = np.einsum("kij,jl->kil", Sigma, H)         # (K+1, n, m) = Sigma H
    integrand = np.einsum("kij,kjl,kli->k", HtS, ric.P, SH)  # tr(H^T S P S H)
    dt = grid.dt
    trapezoid = 0.5 * dt * (integrand[:-1] + integrand[1:]).sum()
    integral = 0.5 * trapezoid
    Qf = np.atleast_2d(np.asarray(terminal_hessian, dtype=float))
    return float(
        0.5 * model.m0 @ (ric.P[0] @ model.m0)
        + integral
        + 0.5 * np.trace(Qf @ Sigma[-1])
    )


def full_information_lq_cost(model: LinearGaussianModelSpec, terminal_hessian,
                             grid: TimeGrid) -> float:
    """Expected LQ cost when the state is observed exactly (prior-averaged)."""
    ric = lq_control_riccati(model.A, model.G, terminal_hessian, grid,
                             sigma=model.sigma)
    return float(
        0.5 * model.m0 @ (ric.P[0] @ model.m0)
        + 0.5 * np.trace(ric.P[0] @ model.Sigma0)
        + ric.value_offset[0]
    )


def remark_consistency_check(model: LinearGaussianModelSpec,
                             obs: ObservationRecord,
                             alpha: str = "optimal") -> float:
    """Residual of the running-cost identity recovering pi_T[f].

    Computes |f_bar^T m_T - (ybar_0^T m_0 - sum alpha_k^T pi_k[h] dt
    + sum ybar_{k+1}^T g_k dI_k)| on the gains g_k of `kalman_transitions`, with alpha
    the closed-loop control (alpha="optimal", where the last sum is -sum alpha_k^T dI_k)
    or zero (alpha="zero": the averaged innovation estimator identity,
    `open_loop_dual_estimate`).  All quantities come from the Kalman-Bucy closed
    forms on the observation grid.
    """
    if alpha not in ("optimal", "zero"):
        raise ValueError(f"unknown alpha mode {alpha!r}")
    grid = obs.grid
    Sigma = model_riccati(model, grid)
    state = model_kalman(model, obs, Sigma)
    dI = np.diff(state.innovation, axis=0)
    lhs = float(model.f_bar @ state.mean[-1])
    if alpha == "zero":
        return abs(lhs - open_loop_dual_estimate(model.A, model.H, Sigma, model.f_bar,
                                                 model.m0, dI, grid))

    ybar, alpha_path = closed_loop_dual_controls(model.A, model.H, Sigma, model.f_bar, grid)
    pi_h = state.mean @ model.H  # (K+1, m)
    rhs = float(ybar[0] @ model.m0)
    rhs -= float(np.einsum("km,km->", alpha_path, pi_h[:-1])) * grid.dt
    rhs -= float(np.einsum("km,km->", alpha_path, dI))
    return abs(lhs - rhs)


def control_reports_to_csv(path, reports) -> None:
    write_csv(path, ControlRunReport.csv_header(),
              (r.csv_row() for r in reports))
