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

Every reader of the weighted backward process w_k y_k(X_k) walks the ensemble
through one generator, `_blocks`, a block of time steps per numpy call with its
checks and its count of grid exits.  Its consumers, the Ito fold
`_weighted_fold` of estimators I, II and IV, `cost_functional_per_path` and
`variance_decay`, reduce one contiguous row per step and add per-path sums in
step order, bitwise a step-by-step loop.
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
from .io import write_columns
from .kalman import covariance_path, dual_sweep, kalman_transitions, model_riccati
from .model import (
    LinearGaussianModelSpec,
    ScalarModelSpec,
    SpaceGrid,
    TimeGrid,
    gaussian_quadrature,
    scalar_view,
)
from .pde_backward import GridFunction, _factored, _sweep, interp_matrix, terminal_slice
from .sde_sim import (
    ObservationRecord,
    PathEnsemble,
    cumulative_path,
    normalized_weights,
    raw_weights,
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
    grid_exit_fraction: float    # share of the states read outside the space grid

    def to_csv(self, path) -> None:
        write_columns(path, {"t": self.grid.times(), "var": self.var_y,
                             "rhs": self.dirichlet_rhs, "cum_rhs": self.cumulative_rhs})


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
    # share of the states outside the space grid (estimator III: their pi-mass); None without one
    grid_exit_fraction: float | None = None

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


def _check_grids(obs: ObservationRecord, ensemble: PathEnsemble) -> None:
    if not obs.grid.matches(ensemble.grid):
        raise GridMismatch("ensemble and observation record use different grids")


def prior_expectation_of_initial_slice(model, y: GridFunction) -> float:
    """mu[y_0] by Gauss-Hermite quadrature against the model prior."""
    prior = model.prior
    return prior.expectation(lambda x: y.eval(0, x))


# elements per block of the ensemble walk: max(1, _FOLD_BLOCK // N) time steps
# are read per numpy call (32 at N = 500), so a block temporary holds at most
# 128 KB unless one step alone is larger
_FOLD_BLOCK = 1 << 14


def _blocks(ensemble: PathEnsemble, kind: str, y: GridFunction, n_rows: int):
    """Walk the first n_rows time steps of a raw ensemble a block at a time.

    Yields (rows, x, w, exits): a slice of B steps (one step index when
    N > _FOLD_BLOCK / 2), the C-ordered states and weights exp(log w) of `kind`
    on them, of shape (B, N) (or (N,)), and the count of those states outside
    y's space grid, which y.eval clamps.  Raises ResamplingForbiddenInEstimatorMode,
    GridMismatch for a y on another time grid, and WeightUnderflow when every
    weight of a step is 0.
    """
    _require_raw(ensemble)
    if not y.time_grid.matches(ensemble.grid):
        raise GridMismatch("grid function and ensemble use different time grids")
    states, lw = ensemble.states.T, ensemble.log_weights(kind).T
    x_min, x_max = y.space_grid.x_min, y.space_grid.x_max
    step = max(1, _FOLD_BLOCK // ensemble.n_paths)
    for a in range(0, n_rows, step):
        rows = a if step == 1 else slice(a, min(a + step, n_rows))
        x = np.ascontiguousarray(states[rows])
        w = raw_weights(np.ascontiguousarray(lw[rows]), a)
        exits = 0
        if x.min() < x_min or x.max() > x_max:
            exits = np.count_nonzero(x < x_min) + np.count_nonzero(x > x_max)
        yield rows, x, w, exits


def _add_rows(acc: np.ndarray, block: np.ndarray) -> None:
    """acc += each per-step row of a block, in step order: the bits of adding
    one step at a time."""
    for row in block.reshape(-1, acc.shape[0]):
        acc += row


def _weighted_fold(model, y, ensemble, weight_kind, centered, driver):
    """Per-path Ito fold sum_k w_k y_k(X_k) c_k d_k, the averaged control and
    the share of the folded states that lie outside the space grid.

    c_k = h(X_k), minus pi_k[h] when `centered`; the increments
    driver(rows, h) of a block of `_blocks` are one number per step (shape
    (B, 1)) or one per path.  Each step's control is the mean of one
    contiguous row, so the results are the bits of the one-step-at-a-time fold.
    """
    K, n = ensemble.grid.n_steps, ensemble.n_paths
    h_fn = scalar_view(model).obs_fn
    acc = np.zeros(n)
    control = np.empty(K)
    exits = 0
    for rows, x, w, outside in _blocks(ensemble, weight_kind, y, K):
        h = np.asarray(h_fn(x), dtype=float)
        coeff = h - ensemble.pi_h_path[rows, None] if centered else h
        integrand = y.eval(rows, x)  # then (w y) coeff in place, the same bits
        integrand *= w
        integrand *= coeff
        control[rows] = -integrand.mean(axis=-1)
        _add_rows(acc, integrand * driver(rows, h))
        exits += outside
    return acc, control, exits / (n * K)


def _finish_report(estimator_id, model, y, ensemble, acc, control, grid_exit_fraction):
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
        seed=ensemble.seed,
        dt=ensemble.grid.dt,
        weight_collapse=ensemble.collapse_step is not None,
        grid_exit_fraction=grid_exit_fraction,
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
    _check_grids(obs, ensemble)
    dZ = np.asarray(obs.dZ, dtype=float).reshape(-1)
    fold = _weighted_fold(model, y, ensemble, "girsanov", False,
                          lambda rows, h: dZ[rows, None])
    return _finish_report("sigma_obs", model, y, ensemble, *fold)


def estimate_pi_innovation(model, obs: ObservationRecord, y: GridFunction,
                           ensemble: PathEnsemble) -> EstimatorReport:
    """Innovation-driven estimator of the normalized expectation pi_T[f].

    estimate = mu[y_0] + sum_k mean_i( w_ik y_k(X_ik) (h - pi_k[h]) ) dI_k
    with mean-field innovation weights, on the pi[h] path and innovation
    increments stored on the ensemble.
    """
    _check_grids(obs, ensemble)
    if ensemble.pi_h_path is None or ensemble.innovation_increments is None:
        raise ValueError("ensemble was not simulated with innovation weights")
    dI = ensemble.innovation_increments
    fold = _weighted_fold(model, y, ensemble, "innovation", True,
                          lambda rows, h: dI[rows, None])
    return _finish_report("pi_innovation", model, y, ensemble, *fold)


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
    _check_grids(obs, ensemble)
    if obs.X_truth is None:
        raise MissingTruthPath("estimator needs a synthetic observation record")
    dZ = np.asarray(obs.dZ, dtype=float).reshape(-1)
    dt = ensemble.grid.dt
    fold = _weighted_fold(model, y_fk, ensemble, "girsanov", False,
                          lambda rows, h: dZ[rows, None] - h * dt)
    return _finish_report("sigma_obs_error", model, y_fk, ensemble, *fold)


# ---------------------------------------------------------------------------
# estimator III
# ---------------------------------------------------------------------------

def closed_loop_dual_controls(A, H, Sigma_path, f_bar, grid: TimeGrid):
    """Discrete-dual closed-loop backward recursion.

    ybar_k = Phi_k^T ybar_{k+1} = (I + A dt - H H^T Sigma_k dt) ybar_{k+1},
    u_k    = -(Sigma_k H)^T ybar_{k+1},

    the `dual_sweep` on the transitions of the filtered-mean recursion
    (`kalman_transitions`): the left-point discretization of the closed-loop
    backward equation paired exactly with that recursion, so the estimate
    ybar_0^T m_0 - sum u_k^T dZ_k telescopes to f_bar^T m_T to machine
    precision on the same grid.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    H = np.atleast_2d(np.asarray(H, dtype=float))
    Phi, SH = kalman_transitions(A, H, covariance_path(Sigma_path, grid), grid.dt)
    ybar = dual_sweep(Phi, np.asarray(f_bar, dtype=float).reshape(-1))
    return ybar, -np.einsum("knm,kn->km", SH, ybar[1:])


def open_loop_dual_path(A, f_bar, grid: TimeGrid) -> np.ndarray:
    """Open-loop dual recursion ybar_k = (I + A dt) ybar_{k+1}, ybar_K = f_bar:
    the `dual_sweep` on I + A^T dt."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    Phi = np.eye(A.shape[0]) + A.T * grid.dt
    return dual_sweep(np.broadcast_to(Phi, (grid.n_steps,) + Phi.shape),
                      np.asarray(f_bar, dtype=float).reshape(-1))


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
    total = np.einsum("kn,knm,km->", ybar[1:], Sigma[:-1] @ H, dI)
    return float(ybar[0] @ np.asarray(m0, dtype=float).reshape(-1) + total)


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
    give, with z = S y_{k+1}, u_k = -P[k] @ z / (1 + dt P[k] @ S h) and
    y_k = z + dt u_k S h: the step of one uncontrolled `_sweep` on the factors
    that formed S h.  Also returns the pi-mass that interp_matrix clamps,
    sum_k sum_i w_ki 1{x_ki off the grid} / (K + 1), with w_k the normalised
    weights of step k's states (the quadrature nodes' weights or the ensemble's
    innovation weights).
    """
    K, dt = grid.n_steps, grid.dt
    if pi_source is not None:
        x = np.array([gaussian_quadrature(m, v)[0] for m, v in
                      zip(pi_source.mean[: K + 1, 0], pi_source.covariance[: K + 1, 0, 0])])
        w = np.broadcast_to(gaussian_quadrature(0.0, 1.0)[1], x.shape)
    else:
        x = ensemble.states.T
        w, wsum, _ = normalized_weights(ensemble.log_weights("innovation"))
        w = (w / wsum).T
    exits = w[(x < space_grid.x_min) | (x > space_grid.x_max)].sum() / (K + 1)
    hx = np.asarray(model.obs_fn(x), dtype=float)
    P = interp_matrix(space_grid, x, w * (hx - np.einsum("ki,ki->k", w, hx)[:, None]))
    xs = space_grid.points()
    y_end = terminal_slice(model, space_grid)
    factored = _factored(np.asarray(model.drift(xs), dtype=float), model.sigma,
                         space_grid.dx, dt)
    Sh = factored[0](np.asarray(model.obs_fn(xs), dtype=float))
    denominators = 1.0 + dt * (P[:K] @ Sh)
    if not np.all(np.isfinite(denominators) & (denominators != 0.0)):
        raise FixedPointNotConverged("zero or non-finite denominator in the control solve")
    u = np.empty(K + 1)

    def control_step(k, z):
        u[k] = -np.dot(P[k], z) / denominators[k]
        return z + (dt * u[k]) * Sh

    values = _sweep(model, space_grid, grid, "sourced backward solve", y_end,
                    step=control_step, factored=factored)
    u[K] = -np.dot(P[K], values[K])
    _check_fixed_point(u + np.einsum("kj,kj->k", P, values), tol)
    return u, GridFunction.from_values(space_grid, grid, values), float(exits)


def check_pi_obs_mode(model, mode: str) -> None:
    """Raise ModeModelMismatch unless estimate_pi_obs runs `mode` on `model`."""
    if mode not in ("lg_closed_form", "fixed_point"):
        raise ModeModelMismatch(f"unknown mode {mode!r}")
    if mode == "lg_closed_form" and not isinstance(model, LinearGaussianModelSpec):
        raise ModeModelMismatch("lg_closed_form requires a linear-Gaussian model")


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
    check_pi_obs_mode(model, mode)
    lg = isinstance(model, LinearGaussianModelSpec)

    n_paths, grid_exit_fraction = 0, None
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
        u, y, grid_exit_fraction = _scalar_fixed_point(model, grid, space_grid, ensemble,
                                                       pi_source, tol)
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
        grid_exit_fraction=grid_exit_fraction,
    )


# ---------------------------------------------------------------------------
# cost functional and variance decay
# ---------------------------------------------------------------------------

def cost_functional_per_path(model, estimator_id: str, ensemble: PathEnsemble,
                             y: GridFunction, perturbation: float = 0.0) -> np.ndarray:
    """Per-path quadratic cost int (||Q||^2 + ||U + V||^2) dt.

    Q_k = w_k sigma dy/dx(X_k); the control is the estimator's optimum shifted
    by the constant `perturbation`, so the second term reduces to its square.
    """
    kind = {"sigma_obs": "girsanov", "sigma_obs_error": "girsanov",
            "pi_innovation": "innovation"}.get(estimator_id)
    if kind is None:
        raise ValueError(f"cost functional undefined for {estimator_id!r}")
    shift = float(perturbation)
    dt = ensemble.grid.dt
    cost = np.zeros(ensemble.n_paths)
    for rows, x, w, _ in _blocks(ensemble, kind, y, ensemble.grid.n_steps):
        q = w * model.sigma * y.eval_gradient(rows, x)
        _add_rows(cost, (q * q + shift * shift) * dt)
    return cost


def cost_functional(model, estimator_id: str, ensemble: PathEnsemble,
                    y: GridFunction, perturbation: float = 0.0) -> float:
    """Ensemble average of the estimator's quadratic cost functional."""
    return float(cost_functional_per_path(
        model, estimator_id, ensemble, y, perturbation).mean())


def variance_decay(model, y: GridFunction, ensemble: PathEnsemble,
                   flavor: str = "sigma") -> VarianceDecayReport:
    """Backward-variance diagnostics.

    var_y[k] is the ensemble variance of w_k y_k(X_k); the Dirichlet-form
    right-hand side is sigma^2 E[(w dy/dx)^2] plus the centered square of
    w y h (sigma flavor) or w y (h - pi[h]) (pi flavor, pi_{K-1}[h] at step K);
    cumulative_rhs is its left-point time integral.  The moments of each step
    reduce one contiguous row, the bits of a one-step-at-a-time loop.
    """
    if flavor not in ("sigma", "pi"):
        raise ValueError(f"unknown flavor {flavor!r}")
    centered = flavor == "pi"
    h_fn = scalar_view(model).obs_fn
    grid = ensemble.grid
    K, n = grid.n_steps, ensemble.n_paths
    sigma2 = model.sigma**2
    pi_steps = np.minimum(np.arange(K + 1), K - 1)  # step K reuses pi_{K-1}[h]
    var_y, var_se, rhs = np.empty((3, K + 1))
    exits = 0
    blocks = _blocks(ensemble, "innovation" if centered else "girsanov", y, K + 1)
    for rows, x, w, outside in blocks:
        exits += outside
        ytil = w * y.eval(rows, x)
        dev = ytil - ytil.mean(axis=-1, keepdims=True)
        # numpy's own loop per row, as sde_sim.path_dot(dev_k, dev_k)
        var_y[rows] = var = np.einsum("...i,...i->...", dev, dev) / (n - 1)
        m4 = np.mean(dev**4, axis=-1)
        var_se[rows] = np.sqrt(np.maximum(m4 - var**2, 0.0) / n)
        q = w * y.eval_gradient(rows, x)
        coeff = np.asarray(h_fn(x), dtype=float)
        if centered:
            coeff = coeff - ensemble.pi_h_path[pi_steps[rows], None]
        v = ytil * coeff
        v_dev = v - v.mean(axis=-1, keepdims=True)
        rhs[rows] = sigma2 * np.mean(q * q, axis=-1) + np.mean(v_dev * v_dev, axis=-1)
    cumulative = cumulative_path(rhs[:-1]) * grid.dt
    return VarianceDecayReport(grid=grid, var_y=var_y, var_std_err=var_se,
                               dirichlet_rhs=rhs, cumulative_rhs=cumulative,
                               grid_exit_fraction=exits / (n * (K + 1)))
