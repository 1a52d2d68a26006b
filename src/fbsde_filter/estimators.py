"""The four minimum-variance estimators and their diagnostics.

Each estimator has the form  estimate = Y0_term - sum_k u_k * d(driver)_k
with a left-point (Ito) Riemann sum over the simulation grid.  The optimal
controls are realized from a backward-PDE solution y and a weighted path
ensemble:

  sigma_obs        driver dZ, control -w_girsanov * y * h        (unnormalized)
  pi_innovation    driver dI, control -w_innov * y * (h - pi[h]) (normalized)
  pi_obs           driver dZ, deterministic control from the closed-loop
                   backward recursion (linear-Gaussian) or the frozen-data
                   fixed point, solved in one causal backward sweep
  sigma_obs_error  driver dW, control -w_girsanov * y_fk * h with y_fk from
                   the Feynman-Kac solve (requires synthetic truth)

The prior term uses Gauss-Hermite quadrature against the initial law, scaled
by the mean initial ensemble weight so that estimates are exactly linear in
the weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    FixedPointNotConverged,
    GridMismatch,
    MissingTruthPath,
    ModeModelMismatch,
    ResamplingForbiddenInEstimatorMode,
)
from .io import write_csv
from .kalman import covariance_path, model_riccati
from .model import (
    LinearGaussianModelSpec,
    ScalarModelSpec,
    SpaceGrid,
    TimeGrid,
    gaussian_quadrature,
    scalar_view,
)
from .pde_backward import (
    GridFunction,
    _factored_generator,
    _warn_upwind,
    interp_matrix,
    terminal_slice,
)
from .sde_sim import (
    ObservationRecord,
    PathEnsemble,
    cumulative_path,
    normalized_weights,
    per_step_path,
)

ESTIMATOR_IDS = ("sigma_obs", "pi_innovation", "pi_obs", "sigma_obs_error")


@dataclass(frozen=True)
class VarianceDecayReport:
    """Backward-variance diagnostics for one weighted ensemble."""

    grid: TimeGrid
    var_y: np.ndarray            # ensemble variance of weight * y(X) per time
    var_std_err: np.ndarray      # sampling error of the variance estimate
    dirichlet_rhs: np.ndarray    # carre-du-champ estimate per time
    cumulative_rhs: np.ndarray   # left-point integral of the rhs

    def to_csv(self, path) -> None:
        times = self.grid.times()
        rows = (
            (times[k], self.var_y[k], self.dirichlet_rhs[k], self.cumulative_rhs[k])
            for k in range(len(times))
        )
        write_csv(path, ["t", "var", "rhs", "cum_rhs"], rows)


@dataclass(frozen=True)
class EstimatorReport:
    """Point estimate of one conditional-expectation estimator."""

    estimator_id: str
    point_estimate: float
    mc_std_err: float
    y0_prior_term: float
    stochastic_integral_term: float
    control_path: np.ndarray
    n_paths: int
    seed: int | None = None
    dt: float | None = None
    weight_collapse: bool = False
    n_iterations: int | None = None
    diagnostics: VarianceDecayReport | None = None

    def csv_row(self):
        return (self.estimator_id, self.point_estimate, self.mc_std_err,
                self.y0_prior_term, self.stochastic_integral_term,
                self.n_paths, self.dt if self.dt is not None else "",
                self.seed if self.seed is not None else "")

    @staticmethod
    def csv_header():
        return ["estimator_id", "estimate", "std_err", "mu_y0",
                "integral_term", "n_paths", "dt", "seed"]


# ---------------------------------------------------------------------------
# shared pieces
# ---------------------------------------------------------------------------

def _require_raw(ensemble: PathEnsemble) -> None:
    if ensemble.resample_steps:
        raise ResamplingForbiddenInEstimatorMode(
            "minimum-variance estimators require a non-resampled ensemble"
        )


def _check_grids(obs: ObservationRecord, ensemble: PathEnsemble,
                 y: GridFunction | None = None) -> None:
    if not obs.grid.matches(ensemble.grid):
        raise GridMismatch("ensemble and observation record use different grids")
    if y is not None and not obs.grid.matches(y.time_grid):
        raise GridMismatch("grid function and observation record use different grids")


def prior_expectation_of_initial_slice(model, y: GridFunction) -> float:
    """mu[y_0] by Gauss-Hermite quadrature against the model prior."""
    prior = model.prior
    return prior.expectation(lambda x: y.eval(0, x))


def _weighted_fold(model, y, ensemble, weight_kind, centered, driver):
    """Per-path Ito fold sum_k w_k y_k(X_k) c_k d_k and the averaged control.

    c_k = h(X_k), minus pi_k[h] when `centered`; the increment d_k =
    driver(k, h(X_k)) is one number per step or one per path.
    """
    lw = ensemble.log_weights(weight_kind)
    K = ensemble.grid.n_steps
    h_fn = scalar_view(model).obs_fn
    acc = np.zeros(ensemble.n_paths)
    control = np.empty(K)
    for k in range(K):
        xk = ensemble.states[:, k]
        hk = np.asarray(h_fn(xk), dtype=float)
        coeff = hk - ensemble.pi_h_path[k] if centered else hk
        integrand = np.exp(lw[:, k]) * y.eval(k, xk) * coeff
        control[k] = -integrand.mean()
        acc += integrand * driver(k, hk)
    return acc, control


def _finish_report(estimator_id, model, y, ensemble, acc, control, seed=None):
    n = ensemble.n_paths
    w0 = np.exp(ensemble.log_weights()[:, 0]).mean()
    mu_term = w0 * prior_expectation_of_initial_slice(model, y)
    integral = float(acc.mean())
    return EstimatorReport(
        estimator_id=estimator_id,
        point_estimate=mu_term + integral,
        mc_std_err=float(acc.std(ddof=1) / math.sqrt(n)),
        y0_prior_term=float(mu_term),
        stochastic_integral_term=integral,
        control_path=control,
        n_paths=n,
        seed=ensemble.seed if seed is None else seed,
        dt=ensemble.grid.dt,
        weight_collapse=ensemble.collapse_step is not None,
    )


# ---------------------------------------------------------------------------
# estimators I, II, IV
# ---------------------------------------------------------------------------

def estimate_sigma_obs(model, obs: ObservationRecord, y: GridFunction,
                       ensemble: PathEnsemble) -> EstimatorReport:
    """Observation-driven estimator of the unnormalized expectation sigma_T[f].

    estimate = mu[y_0] + sum_k mean_i( w_ik y_k(X_ik) h(X_ik) ) dZ_k with
    Girsanov weights; y solves the backward Kolmogorov equation for f.
    """
    _require_raw(ensemble)
    _check_grids(obs, ensemble, y)
    dZ = np.asarray(obs.dZ, dtype=float).reshape(-1)
    acc, control = _weighted_fold(model, y, ensemble, "girsanov", False, lambda k, h: dZ[k])
    return _finish_report("sigma_obs", model, y, ensemble, acc, control)


def estimate_pi_innovation(model, obs: ObservationRecord, y: GridFunction,
                           ensemble: PathEnsemble,
                           pi_h_source=None) -> EstimatorReport:
    """Innovation-driven estimator of the normalized expectation pi_T[f].

    estimate = mu[y_0] + sum_k mean_i( w_ik y_k(X_ik) (h - pi_k[h]) ) dI_k
    with mean-field innovation weights.  The pi[h] path and innovation
    increments stored on the ensemble are used; an explicit pi_h_source only
    validates against them.
    """
    _require_raw(ensemble)
    _check_grids(obs, ensemble, y)
    if ensemble.pi_h_path is None or ensemble.innovation_increments is None:
        raise ValueError("ensemble was not simulated with innovation weights")
    if pi_h_source is not None:
        given = per_step_path(pi_h_source, ensemble.grid, "pi_h source")
        if not np.allclose(given, ensemble.pi_h_path, atol=1e-12):
            raise GridMismatch("pi_h source differs from the ensemble's realized path")
    dI = ensemble.innovation_increments
    acc, control = _weighted_fold(model, y, ensemble, "innovation", True, lambda k, h: dI[k])
    return _finish_report("pi_innovation", model, y, ensemble, acc, control)


def estimate_sigma_obs_error(model, obs: ObservationRecord, y_fk: GridFunction,
                             ensemble: PathEnsemble) -> EstimatorReport:
    """Observation-error-driven estimator of sigma_T[f].

    estimate = mu[y_fk,0]
             + sum_k mean_i( w_ik y_fk,k(X_ik) h(X_ik) dW_ik )

    where dW_ik = dZ_k - h(X_ik) dt is the per-path observation error of the
    ensemble member (the increment that makes the weighted backward process
    a martingale), and y_fk solves the reaction variant of the backward
    equation with the +h^2 y term (solve_feynman_kac(..., reaction="growth")).
    The op is restricted to synthetic records, where the data-generating
    observation error is available for diagnostics.
    """
    _require_raw(ensemble)
    _check_grids(obs, ensemble, y_fk)
    if obs.X_truth is None:
        raise MissingTruthPath("estimator needs a synthetic observation record")
    dZ = np.asarray(obs.dZ, dtype=float).reshape(-1)
    dt = ensemble.grid.dt
    acc, control = _weighted_fold(model, y_fk, ensemble, "girsanov", False,
                                  lambda k, h: dZ[k] - h * dt)
    return _finish_report("sigma_obs_error", model, y_fk, ensemble, acc, control)


# ---------------------------------------------------------------------------
# estimator III
# ---------------------------------------------------------------------------

def closed_loop_dual_controls(A, H, Sigma_path, f_bar, grid: TimeGrid):
    """Discrete-dual closed-loop backward recursion.

    ybar_k = (I + A dt - H H^T Sigma_k dt) ybar_{k+1},
    u_k    = -H^T Sigma_k ybar_{k+1},

    which is the left-point discretization of the closed-loop backward
    equation paired exactly with the filtered-mean recursion: the resulting
    estimate ybar_0^T m_0 - sum u_k^T dZ_k telescopes to f_bar^T m_T to
    machine precision on the same grid.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    H = np.atleast_2d(np.asarray(H, dtype=float))
    f_bar = np.asarray(f_bar, dtype=float).reshape(-1)
    Sigma = covariance_path(Sigma_path, grid)
    K, dt = grid.n_steps, grid.dt
    ybar, u = np.empty((K + 1, A.shape[0])), np.empty((K, H.shape[1]))
    ybar[K] = f_bar
    for k in range(K - 1, -1, -1):
        u[k] = -H.T @ (Sigma[k] @ ybar[k + 1])
        ybar[k] = ybar[k + 1] + dt * (A @ ybar[k + 1]) + dt * (H @ u[k])
    return ybar, u


def open_loop_dual_path(A, f_bar, grid: TimeGrid) -> np.ndarray:
    """Open-loop dual recursion ybar_k = (I + A dt) ybar_{k+1}, ybar_K = f_bar."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    f_bar = np.asarray(f_bar, dtype=float).reshape(-1)
    K = grid.n_steps
    ybar = np.empty((K + 1, f_bar.shape[0]))
    ybar[K] = f_bar
    for k in range(K - 1, -1, -1):
        ybar[k] = ybar[k + 1] + grid.dt * (A @ ybar[k + 1])
    return ybar


def open_loop_dual_estimate(A, H, Sigma_path, f_bar, m0, innovation_increments,
                            grid: TimeGrid) -> float:
    """Averaged innovation estimator in closed form.

    Uses the open-loop dual path and the left-point sum of
    ybar_{k+1}^T Sigma_k H dI_k, which telescopes exactly against the
    filtered-mean recursion (duality identity).
    """
    H = np.atleast_2d(np.asarray(H, dtype=float))
    Sigma = covariance_path(Sigma_path, grid)
    K = grid.n_steps
    dI = np.asarray(innovation_increments, dtype=float).reshape(K, H.shape[1])
    ybar = open_loop_dual_path(A, f_bar, grid)
    total = np.sum([float(ybar[k + 1] @ (Sigma[k] @ (H @ dI[k]))) for k in range(K)])
    return float(ybar[0] @ np.asarray(m0, dtype=float).reshape(-1)) + total


def _check_fixed_point(residual, tol: float) -> None:
    """Raise unless u changes by less than tol under one more map (residual = u - map(u))."""
    change = float(np.max(np.abs(residual)))
    if not change < tol:
        raise FixedPointNotConverged(f"control changes by {change:.3e} under one more sweep")


def _lg_fixed_point(model: LinearGaussianModelSpec, Sigma, grid: TimeGrid, tol: float):
    """The ODE-level control of estimate_pi_obs, solved causally in reverse time.

    The map's step L ybar_k = R ybar_{k+1} + dt/2 H (u_k + u_{k+1}), L, R = I -/+ dt/2 A,
    with u_k = -H^T Sigma_k ybar_k gives (L + dt/2 H H^T Sigma_k) ybar_k = R ybar_{k+1}
    + dt/2 H u_{k+1}; ybar_k is then re-formed by the map's step for the residual.
    """
    dt, K, H = grid.dt, grid.n_steps, model.H
    ident = np.eye(model.n_state)
    left = ident - 0.5 * dt * model.A
    left_inv, right = np.linalg.inv(left), ident + 0.5 * dt * model.A
    ybar, u = np.empty((K + 1, model.n_state)), np.empty((K + 1, model.n_obs))
    ybar[K] = model.f_bar
    u[K] = -H.T @ (Sigma[K] @ ybar[K])
    for k in range(K - 1, -1, -1):
        rhs = right @ ybar[k + 1] + 0.5 * dt * (H @ u[k + 1])
        try:
            yk = np.linalg.solve(left + 0.5 * dt * (H @ H.T @ Sigma[k]), rhs)
        except np.linalg.LinAlgError as exc:
            raise FixedPointNotConverged(f"singular step matrix at step {k}") from exc
        u[k] = -H.T @ (Sigma[k] @ yk)
        ybar[k] = left_inv @ (right @ ybar[k + 1] + 0.5 * dt * (H @ (u[k] + u[k + 1])))
    _check_fixed_point(u + np.einsum("ji,kjl,kl->ki", H, Sigma, ybar), tol)
    return u, ybar


def _scalar_fixed_point(model: ScalarModelSpec, grid: TimeGrid, space_grid: SpaceGrid,
                        ensemble, pi_source, tol: float):
    """The grid-PDE control of estimate_pi_obs, solved causally in reverse time.

    P[k] @ y_k = pi_k[y_k (h - pi_k[h])], pi_k by quadrature against `pi_source` or
    by the ensemble's innovation weights, max-shifted per step.  With S = (I - dt L)^-1
    factored once, the map's step y_k = S (y_{k+1} + dt u_k h) and u_k = -P[k] @ y_k
    give u_k = -P[k] @ S y_{k+1} / (1 + dt P[k] @ S h); y_k is then formed exactly
    as solve_backward_with_source forms it, for the residual.
    """
    K, dt = grid.n_steps, grid.dt
    if pi_source is not None:
        x = np.array([gaussian_quadrature(m, v)[0] for m, v in
                      zip(pi_source.mean[: K + 1, 0], pi_source.covariance[: K + 1, 0, 0])])
        w = np.broadcast_to(gaussian_quadrature(0.0, 1.0)[1], x.shape)
    else:
        x = ensemble.states.T
        w = np.array([wk / wsum for wk, wsum, _ in
                      map(normalized_weights, ensemble.log_weights("innovation").T)])
    hx = np.asarray(model.obs_fn(x), dtype=float)
    P = interp_matrix(space_grid, x, w * (hx - np.einsum("ki,ki->k", w, hx)[:, None]))
    xs = space_grid.points()
    h_grid = np.asarray(model.obs_fn(xs), dtype=float)
    values = np.empty((K + 1, space_grid.n_points))
    values[K] = terminal_slice(model, space_grid)
    solve, upwind = _factored_generator(model, space_grid, dt)
    denominators = 1.0 + dt * (P[:K] @ solve(h_grid))
    if not np.all(np.isfinite(denominators) & (denominators != 0.0)):
        raise FixedPointNotConverged("zero or non-finite denominator in the control solve")
    u = np.empty(K + 1)
    for k in range(K - 1, -1, -1):
        u[k] = -np.dot(P[k], solve(values[k + 1])) / denominators[k]
        values[k] = solve(values[k + 1] + dt * (u[k] * h_grid))
    u[K] = -np.dot(P[K], values[K])
    _warn_upwind(upwind, "sourced backward solve")
    _check_fixed_point(u + np.einsum("kj,kj->k", P, values), tol)
    return u, GridFunction.from_values(space_grid, grid, values)


def estimate_pi_obs(model, obs: ObservationRecord, ensemble: PathEnsemble | None = None,
                    mode: str = "lg_closed_form", pi_source=None,
                    space_grid: SpaceGrid | None = None,
                    Sigma_path=None, tol: float = 1e-6) -> EstimatorReport:
    """Observation-driven estimator of pi_T[f] with a deterministic control.

    mode="lg_closed_form" (linear-Gaussian models): the control comes from
    the closed-loop dual recursion; the estimate equals f_bar^T m_T of the
    Kalman-Bucy filter on the same grid to machine precision.

    mode="fixed_point": the frozen-data control u_k = -pi_k[y_k (h - pi_k[h])],
    y sourced by u h, is linear in y_k alone and is solved in one reverse-time
    sweep: on the trapezoidal ODE for linear-Gaussian models, on the backward
    PDE -dy/dt = L y + u_t h(x) for scalar ones, with pi_k from `pi_source` (a
    GaussianState, by quadrature) or the weighted `ensemble`.  It raises
    FixedPointNotConverged if u changes by `tol` or more under one more map.
    """
    grid = obs.grid
    K = grid.n_steps
    if mode not in ("lg_closed_form", "fixed_point"):
        raise ModeModelMismatch(f"unknown mode {mode!r}")
    lg = isinstance(model, LinearGaussianModelSpec)
    if mode == "lg_closed_form" and not lg:
        raise ModeModelMismatch("lg_closed_form requires a linear-Gaussian model")

    n_paths = 0
    if lg:
        Sigma = covariance_path(
            Sigma_path if Sigma_path is not None else model_riccati(model, grid), grid)
        if mode == "lg_closed_form":
            ybar, u = closed_loop_dual_controls(model.A, model.H, Sigma, model.f_bar, grid)
        else:
            u, ybar = _lg_fixed_point(model, Sigma, grid, tol)
        mu_term = float(ybar[0] @ model.m0)
        dZm = np.asarray(obs.dZ, dtype=float).reshape(K, model.n_obs)
        integral = -float(np.einsum("km,km->", u[:K], dZm))
    else:
        if not isinstance(model, ScalarModelSpec):
            raise ModeModelMismatch("fixed_point requires a scalar or linear-Gaussian model")
        if space_grid is None:
            raise ValueError("fixed_point mode on scalar models needs a space grid")
        if pi_source is None and ensemble is None:
            raise ValueError("fixed_point mode needs a pi source (GaussianState or ensemble)")
        if ensemble is not None:
            _require_raw(ensemble)
            _check_grids(obs, ensemble)
            n_paths = ensemble.n_paths
        u, y = _scalar_fixed_point(model, grid, space_grid, ensemble, pi_source, tol)
        mu_term = prior_expectation_of_initial_slice(model, y)
        integral = -float(np.dot(u[:-1], np.asarray(obs.dZ, dtype=float).reshape(-1)))
    return EstimatorReport(
        estimator_id="pi_obs",
        point_estimate=mu_term + integral,
        mc_std_err=0.0,
        y0_prior_term=mu_term,
        stochastic_integral_term=integral,
        control_path=u,
        n_paths=n_paths,
        seed=obs.seed,
        dt=grid.dt,
        n_iterations=1 if mode == "fixed_point" else None,
    )


# ---------------------------------------------------------------------------
# cost functional and variance decay
# ---------------------------------------------------------------------------

def cost_functional_per_path(model, estimator_id: str, ensemble: PathEnsemble,
                             y: GridFunction, perturbation=None) -> np.ndarray:
    """Per-path quadratic cost int (||Q||^2 + ||U + V||^2) dt.

    Q_k = w_k sigma dy/dx(X_k); the control is the estimator's optimum plus
    `perturbation` (a constant or a callable (t, x, w) -> shift), so the
    second term reduces to the squared perturbation.
    """
    kind = {"sigma_obs": "girsanov", "sigma_obs_error": "girsanov",
            "pi_innovation": "innovation"}.get(estimator_id)
    if kind is None:
        raise ValueError(f"cost functional undefined for {estimator_id!r}")
    lw = ensemble.log_weights(kind)
    sigma = model.sigma
    grid = ensemble.grid
    dt = grid.dt
    K = grid.n_steps
    times = grid.times()
    cost = np.zeros(ensemble.n_paths)
    for k in range(K):
        xk = ensemble.states[:, k]
        w = np.exp(lw[:, k])
        q = w * sigma * y.eval_gradient(k, xk)
        total = q * q
        if callable(perturbation):
            total = total + np.square(np.asarray(perturbation(times[k], xk, w), dtype=float))
        elif perturbation is not None:
            total = total + np.square(float(perturbation))
        cost += total * dt
    return cost


def cost_functional(model, estimator_id: str, ensemble: PathEnsemble,
                    y: GridFunction, perturbation=None) -> float:
    """Ensemble average of the estimator's quadratic cost functional."""
    return float(cost_functional_per_path(
        model, estimator_id, ensemble, y, perturbation).mean())


def variance_decay(model, y: GridFunction, ensemble: PathEnsemble,
                   flavor: str = "sigma") -> VarianceDecayReport:
    """Backward-variance diagnostics.

    var_y[k] is the ensemble variance of w_k y_k(X_k); the Dirichlet-form
    right-hand side is sigma^2 E[(w dy/dx)^2] plus the centered square of
    w y h (sigma flavor) or w y (h - pi[h]) (pi flavor); cumulative_rhs is
    its left-point time integral.
    """
    if flavor not in ("sigma", "pi"):
        raise ValueError(f"unknown flavor {flavor!r}")
    centered = flavor == "pi"
    lw = ensemble.log_weights("innovation" if centered else "girsanov")
    h_fn = scalar_view(model).obs_fn
    grid = ensemble.grid
    K = grid.n_steps
    n = ensemble.n_paths
    sigma2 = model.sigma**2
    var_y = np.empty(K + 1)
    var_se = np.empty(K + 1)
    rhs = np.empty(K + 1)
    pih = ensemble.pi_h_path
    for k in range(K + 1):
        xk = ensemble.states[:, k]
        w = np.exp(lw[:, k])
        ytil = w * y.eval(k, xk)
        centered_y = ytil - ytil.mean()
        var_y[k] = np.dot(centered_y, centered_y) / (n - 1)
        m4 = np.mean(centered_y**4)
        var_se[k] = math.sqrt(max(m4 - var_y[k] ** 2, 0.0) / n)
        q = w * y.eval_gradient(k, xk)
        coeff = np.asarray(h_fn(xk), dtype=float)
        if centered:
            coeff = coeff - (pih[k] if k < K else pih[K - 1])
        v = ytil * coeff
        v_centered = v - v.mean()
        rhs[k] = sigma2 * np.mean(q * q) + np.mean(v_centered * v_centered)
    cumulative = cumulative_path(rhs[:-1]) * grid.dt
    return VarianceDecayReport(grid=grid, var_y=var_y, var_std_err=var_se,
                               dirichlet_rhs=rhs, cumulative_rhs=cumulative)
