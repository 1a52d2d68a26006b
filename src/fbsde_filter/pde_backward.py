"""Deterministic backward-in-time PDE and ODE solvers.

Realizes the backward equations behind the estimators: the backward
Kolmogorov equation, its Feynman-Kac variant with multiplicative killing,
policy-evaluation equations with a running-cost source, the quadratic-cost
HJB equation, and the linear-Gaussian backward vector ODEs (open loop and
closed loop).

Grid solvers use implicit reverse-time stepping (backward Euler in reverse
time) with tridiagonal solves, central differencing of the advection term,
and automatic first-order upwinding at nodes whose cell Peclet number
|b| dx / (sigma^2/2) exceeds 2.  Boundaries are homogeneous Neumann; the
killing term is applied through a per-step integrating factor, which is exact
for observation maps that are constant in space.  The terminal slice y_T holds
f at the nodes, or cell averages for a terminal with a jump (`terminal_slice`).

The Kolmogorov, Feynman-Kac and sourced solves share one sweep.  One band
kernel writes the LAPACK bands of I - dt L from the drift.  With a drift
constant in time (no policy), they are factored once (gttrf) and each step is
one gttrs solve; when the drift moves (a policy, or the HJB inner iteration),
each step or iteration is one gtsv solve, with bitwise the same arithmetic.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm
from scipy.linalg import solve_banded  # noqa: F401  unused: perfbench/tracer.py rebinds it
from scipy.linalg.lapack import dgtsv, dgttrf, dgttrs

from .errors import CFLWarning, GridMismatch, LinearSolveFailure, PolicyIterationDiverged
from .io import write_csv
from .kalman import backward_rk4_sweep, covariance_path
from .model import CELL_AVERAGES, NamedFunction, ScalarModelSpec, SpaceGrid, TimeGrid


def interp_uniform(space_grid: SpaceGrid, fp: np.ndarray, x) -> np.ndarray:
    """np.interp(x, space_grid.points(), fp), bitwise, by index arithmetic.

    x is clipped to the grid, which reproduces np.interp's end values.  The
    bracketing node j (nodes[j] <= x < nodes[j + 1]) comes from (x - x_min) / dx,
    corrected by one node either way: the estimate is off by less than one
    node unless the spacing nears the float resolution of the end points.
    The value is then np.interp's own expression, fp[j] at nodes and
    slope_j (x - nodes[j]) + fp[j] between them.
    """
    x = np.asarray(x, dtype=float)
    nodes, upper, widths = space_grid.bracket
    slopes = np.empty_like(fp, dtype=float)
    np.subtract(fp[1:], fp[:-1], out=slopes[:-1])
    slopes[:-1] /= widths
    slopes[-1] = 0.0  # read only at x = x_max, a node
    xc = x.reshape(-1).clip(space_grid.x_min, space_grid.x_max)
    t = xc - space_grid.x_min
    t /= space_grid.dx
    np.fmax(t, 0.0, out=t)  # a NaN x takes node 0 and stays NaN below
    j = t.astype(np.intp)
    j -= xc < nodes[j]
    j += xc >= upper[j]
    xj = nodes[j]
    yj = fp[j]
    out = xc - xj
    out *= slopes[j]
    out += yj
    np.copyto(out, yj, where=xc == xj)
    return out.reshape(x.shape)[()]


def interp_matrix(space_grid: SpaceGrid, x, c) -> np.ndarray:
    """P with P[r] @ fp = sum_i c[r, i] interp_uniform(space_grid, fp, x[r, i]) to
    rounding: c (1 - theta) goes to node j and c theta to node j + 1, where j + theta
    is interp_uniform's reading of the node indices at x (theta is NaN at a NaN x)."""
    x = np.asarray(x, dtype=float)
    rows, J = x.shape[0], space_grid.n_points
    theta = interp_uniform(space_grid, np.arange(J, dtype=float), x).reshape(rows, -1)
    j = np.minimum(np.fmax(theta, 0.0).astype(np.intp), J - 2)
    theta -= j
    j += (np.arange(rows) * J)[:, None]
    c = np.asarray(c, dtype=float)
    P = np.bincount(j.ravel(), (c - c * theta).ravel(), minlength=rows * J)
    P[1:] += np.bincount(j.ravel(), (c * theta).ravel(), minlength=rows * J)[:-1]
    return P.reshape(rows, J)


@dataclass(frozen=True)
class GridFunction:
    """A space-time field y[k][j] with its spatial gradient dy[k][j]."""

    space_grid: SpaceGrid
    time_grid: TimeGrid
    values: np.ndarray    # (n_steps + 1, n_points), time-major
    gradient: np.ndarray  # central differences, one-sided at boundaries

    def __post_init__(self):
        expected = (self.time_grid.n_steps + 1, self.space_grid.n_points)
        if self.values.shape != expected:
            raise GridMismatch(f"values must have shape {expected}")
        if not np.all(np.isfinite(self.values)):
            raise LinearSolveFailure("grid function contains non-finite values")

    @staticmethod
    def from_values(space_grid, time_grid, values) -> "GridFunction":
        grad = np.gradient(values, space_grid.dx, axis=1)
        return GridFunction(space_grid, time_grid, values, grad)

    def eval(self, k: int, x) -> np.ndarray:
        return interp_uniform(self.space_grid, self.values[k], x)

    def eval_gradient(self, k: int, x) -> np.ndarray:
        return interp_uniform(self.space_grid, self.gradient[k], x)

    def to_csv(self, path) -> None:
        xs = self.space_grid.points()
        header = ["t"] + [format(x, ".17g") for x in xs]
        times = self.time_grid.times()
        rows = (np.concatenate([[times[k]], self.values[k]])
                for k in range(len(times)))
        write_csv(path, header, rows)


@dataclass(frozen=True)
class BackwardVector:
    """Time-indexed n-vector path of a linear backward ODE solution."""

    time_grid: TimeGrid
    values: np.ndarray  # (n_steps + 1, n)

    def __post_init__(self):
        if self.values.shape[0] != self.time_grid.n_steps + 1:
            raise GridMismatch("values must have n_steps + 1 rows")


# ---------------------------------------------------------------------------
# tridiagonal operator assembly
# ---------------------------------------------------------------------------

def _implicit_bands(b: np.ndarray, sigma: float, dx: float, dt: float):
    """LAPACK bands (dl, d, du) of I - dt L for L = b d/dx + (sigma^2/2) d^2/dx^2,
    and whether L upwinds an interior node.

    Homogeneous Neumann boundaries via ghost-node reflection.  Nodes with
    cell Peclet number above 2 switch to first-order upwinding.  A non-finite
    drift raises LinearSolveFailure (an infinite outward one would drop out
    at a boundary).
    """
    if not np.isfinite(b).all():
        raise LinearSolveFailure("non-finite drift in the backward generator")
    D = 0.5 * sigma * sigma

    # Continuous central-to-upwind blend: pure central up to cell Peclet 2,
    # pure upwind from 4, linear in between.  The blend weight w keeps all
    # off-diagonal entries nonnegative ((1 - w) pe <= 2 throughout) and, being
    # continuous in b, avoids switching cycles inside policy iterations.
    w = np.clip(0.5 * (np.abs(b) * dx / D - 2.0), 0.0, 1.0)
    central = (1.0 - w) * b / (2.0 * dx)
    wb = w * b / dx
    pos = np.maximum(wb, 0.0)
    neg = np.minimum(wb, 0.0)
    sub = (D / dx**2 - central) - neg
    diag = (-2.0 * D / dx**2 - pos) + neg
    sup = (D / dx**2 + central) + pos

    # Boundary rows: reflected ghost doubles the inward diffusion coupling;
    # advection is one-sided upwind when the drift points into the domain and
    # drops out (zero-slope reading) when it points outward, which keeps the
    # rows strongly coupled to the interior for stiff inward drifts.
    inflow_left, inflow_right = max(b[0], 0.0), min(b[-1], 0.0)
    diag[0] = -2.0 * D / dx**2 - inflow_left / dx
    sup[0] = 2.0 * D / dx**2 + inflow_left / dx
    diag[-1] = -2.0 * D / dx**2 + inflow_right / dx
    sub[-1] = 2.0 * D / dx**2 - inflow_right / dx

    return -dt * sub[1:], 1.0 - dt * diag, -dt * sup[:-1], bool(np.count_nonzero(w[1:-1]))


def _factored_generator(model, space_grid: SpaceGrid, dt: float):
    """I - dt L for the uncontrolled drift, factored once with gttrf: returns a
    solver making one gttrs call per right-hand side, and whether L upwinds.
    The gtsv of `_solve_bands` runs the same elimination and pivoting, so the
    two give bitwise the same solutions."""
    b0 = np.asarray(model.drift(space_grid.points()), dtype=float)
    *bands, upwind = _implicit_bands(b0, model.sigma, space_grid.dx, dt)
    if not all(np.isfinite(band).all() for band in bands):
        raise LinearSolveFailure("non-finite values in tridiagonal operator")
    dl, d, du, du2, ipiv, info = dgttrf(*bands, overwrite_dl=1, overwrite_d=1,
                                        overwrite_du=1)
    if info != 0:
        raise LinearSolveFailure(f"singular tridiagonal operator (gttrf info {info})")

    def solve(rhs):
        out, info = dgttrs(dl, d, du, du2, ipiv, rhs)
        if info != 0 or not np.isfinite(out).all():
            raise LinearSolveFailure("non-finite values in tridiagonal solve")
        return out

    return solve, upwind


def _solve_bands(dl, d, du, rhs):
    """One gtsv solve of the tridiagonal system (`_implicit_bands`) x = rhs; the
    bands are overwritten, rhs is not."""
    _, _, _, out, info = dgtsv(dl, d, du, rhs, overwrite_dl=1, overwrite_d=1,
                               overwrite_du=1)
    if info != 0:
        raise LinearSolveFailure(f"singular tridiagonal operator (gtsv info {info})")
    if not np.isfinite(out).all():
        raise LinearSolveFailure("non-finite values in tridiagonal solve")
    return out


def _gradient(y: np.ndarray, dx: float) -> np.ndarray:
    """np.gradient(y, dx) of a 1-D y, bitwise: central differences inside,
    one-sided at the ends."""
    out = np.empty_like(y)
    out[1:-1] = (y[2:] - y[:-2]) / (2.0 * dx)
    out[0] = (y[1] - y[0]) / dx
    out[-1] = (y[-1] - y[-2]) / dx
    return out


def _warn_upwind(used: bool, context: str) -> None:
    if used:
        warnings.warn(
            f"cell Peclet number exceeded 2 in {context}; "
            "first-order upwinding applied at the affected nodes",
            CFLWarning,
        )


# ---------------------------------------------------------------------------
# scalar grid solvers
# ---------------------------------------------------------------------------

def solve_backward_kolmogorov(model: ScalarModelSpec, space_grid: SpaceGrid,
                              time_grid: TimeGrid) -> GridFunction:
    """Solve -dy/dt = b dy/dx + (sigma^2/2) d2y/dx2 backward from y_T = f."""
    return _sweep(model, space_grid, time_grid, "backward Kolmogorov solve")


def solve_feynman_kac(model: ScalarModelSpec, space_grid: SpaceGrid,
                      time_grid: TimeGrid, reaction: str = "killing") -> GridFunction:
    """Solve -dy/dt = L y -/+ h(x)^2 y backward from y_T = f.

    reaction="killing" uses the damping term -h^2 y; reaction="growth" the
    amplifying term +h^2 y (the variant whose weighted backward process is a
    martingale along the Girsanov ensemble, as the observation-error
    estimator requires).  The reaction is applied as a per-step integrating
    factor exp(-/+ h^2 dt), exact for constant h; for h = 0 the output is
    bitwise identical to the plain backward Kolmogorov solve.
    """
    if reaction not in ("killing", "growth"):
        raise ValueError(f"unknown reaction {reaction!r}")
    sign = -1.0 if reaction == "killing" else 1.0
    h = np.asarray(model.obs(space_grid.points()), dtype=float)
    return _sweep(model, space_grid, time_grid, "backward Kolmogorov solve",
                  damp=np.exp(sign * h ** 2 * time_grid.dt))


def solve_backward_with_source(model: ScalarModelSpec, space_grid: SpaceGrid,
                               time_grid: TimeGrid, policy=None,
                               running_cost=None, terminal=None) -> GridFunction:
    """Policy evaluation: -dy/dt = L^{x,a} y + c_k(x, a_k(x)), y_T = f.

    The generator uses the controlled drift b(x) + g a_k(x) where g is the
    model's control gain.  `policy` is an (n_steps + 1, n_points) array or a
    callable (k, x) -> a; `running_cost` is a callable (k, x, a) -> cost
    (defaults to zero).  `terminal` overrides the model terminal function.
    """
    if policy is not None and not callable(policy):
        policy = np.asarray(policy, dtype=float)
        expected = (time_grid.n_steps + 1, space_grid.n_points)
        if policy.shape != expected:
            raise GridMismatch(f"policy must have shape {expected}, got {policy.shape}")
    return _sweep(model, space_grid, time_grid, "sourced backward solve",
                  policy=policy, running_cost=running_cost, terminal=terminal)


def terminal_slice(model, space_grid: SpaceGrid, terminal=None) -> np.ndarray:
    """y_T on the nodes: f (`terminal`, else the model's) at each node or, for a
    registry f with a cell-average rule, its mean over each node's dual cell
    [x - dx/2, x + dx/2] cut at the grid ends (1/2 at the indicator's jump node).
    A non-finite node value raises LinearSolveFailure."""
    f = getattr(model, "terminal_fn", model.terminal) if terminal is None else terminal
    xs = space_grid.points()
    average = CELL_AVERAGES.get(f.name) if isinstance(f, NamedFunction) else None
    if average is None:
        values = np.asarray(f(xs), dtype=float)
    else:
        half = 0.5 * space_grid.dx
        values = average(np.maximum(xs - half, space_grid.x_min),
                         np.minimum(xs + half, space_grid.x_max), f.params)
    if not np.isfinite(values).all():
        raise LinearSolveFailure("non-finite terminal values on the space grid")
    return values


def _sweep(model, space_grid, time_grid, context, policy=None, running_cost=None,
           terminal=None, damp=None):
    """Reverse-time sweep of -dy/dt = L^{x,a} y + c_k(x, a_k), y_T = f (see the
    module docstring); `damp` is the Feynman-Kac factor applied after each step."""
    xs = space_grid.points()
    dt = time_grid.dt
    K = time_grid.n_steps
    values = np.empty((K + 1, space_grid.n_points))
    values[K] = terminal_slice(model, space_grid, terminal)
    if policy is None:
        a = np.zeros_like(xs)
        factored, any_upwind = _factored_generator(model, space_grid, dt)
    else:
        b0, any_upwind = np.asarray(model.drift(xs), dtype=float), False
    for k in range(K - 1, -1, -1):
        if policy is not None:
            a = np.asarray(policy(k, xs) if callable(policy) else policy[k], dtype=float)
            *bands, up = _implicit_bands(b0 + model.control_gain * a, model.sigma,
                                         space_grid.dx, dt)
            any_upwind = any_upwind or up
        rhs = values[k + 1]
        if running_cost is not None:
            rhs = rhs + dt * np.asarray(running_cost(k, xs, a), dtype=float)
        y = factored(rhs) if policy is None else _solve_bands(*bands, rhs)
        values[k] = y if damp is None else damp * y
    _warn_upwind(any_upwind, context)
    return GridFunction.from_values(space_grid, time_grid, values)


def solve_hjb_quadratic(model: ScalarModelSpec, space_grid: SpaceGrid,
                        time_grid: TimeGrid, terminal=None,
                        max_inner: int = 50, tol: float = 1e-8):
    """HJB solve for additive control and quadratic running cost 0.5 a^2.

    Drift b(x) + g a; the pointwise minimizer is a = -g dy/dx.  Each reverse
    time step runs a frozen-gradient policy iteration until the policy update
    changes by less than `tol`.  Returns the value field and the policy array
    a[k][j].
    """
    if max_inner < 1:
        raise ValueError(f"max_inner must be >= 1, got {max_inner}")
    xs = space_grid.points()
    dx = space_grid.dx
    dt = time_grid.dt
    K = time_grid.n_steps
    b0 = np.asarray(model.drift(xs), dtype=float)
    g = model.control_gain

    values = np.empty((K + 1, space_grid.n_points))
    policy = np.empty_like(values)
    values[K] = terminal_slice(model, space_grid, terminal)
    policy[K] = -g * _gradient(values[K], dx)
    any_upwind = False
    for k in range(K - 1, -1, -1):
        a = policy[k + 1]
        prev_change = np.inf
        relax = 1.0
        for it in range(max_inner):
            *bands, up = _implicit_bands(b0 + g * a, model.sigma, dx, dt)
            any_upwind = any_upwind or up
            y = _solve_bands(*bands, values[k + 1] + dt * 0.5 * a * a)
            step = -g * _gradient(y, dx) - a
            change = float(np.abs(step).max())
            if change >= prev_change:
                relax = max(0.25 * relax, 0.0625)  # damp oscillating sweeps
            a = a + relax * step
            prev_change = change
            if change < tol:
                break
        else:
            raise PolicyIterationDiverged(
                f"policy iteration did not converge at step {k} "
                f"(last change {change:.3e})"
            )
        values[k] = y
        policy[k] = a
    _warn_upwind(any_upwind, "HJB solve")
    return GridFunction.from_values(space_grid, time_grid, values), policy


# ---------------------------------------------------------------------------
# linear-Gaussian backward ODEs
# ---------------------------------------------------------------------------

def linear_backward_vector(A, f_bar, time_grid: TimeGrid) -> BackwardVector:
    """Solve -dy/dt = A y, y_T = f_bar: y_{t_k} = exp((T - t_k) A) f_bar.

    Stepped with the scaling-and-squaring matrix exponential of dt*A, so each
    step is exact to machine precision.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    f_bar = np.asarray(f_bar, dtype=float).reshape(-1)
    K = time_grid.n_steps
    E = expm(time_grid.dt * A)
    values = np.empty((K + 1, f_bar.shape[0]))
    values[K] = f_bar
    for k in range(K - 1, -1, -1):
        values[k] = E @ values[k + 1]
    return BackwardVector(time_grid, values)


def linear_backward_closed_loop(A, H, Sigma_path, f_bar, time_grid: TimeGrid):
    """Solve the closed-loop equation -dy/dt = A y - H H^T Sigma_t y.

    Fourth-order Runge-Kutta backward integration with the covariance path
    interpolated linearly at half steps.  Also emits the control path
    u_k = -H^T Sigma_k y_k.  Returns (BackwardVector, u) with u of shape
    (n_steps + 1, n_obs).
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    H = np.atleast_2d(np.asarray(H, dtype=float))
    f_bar = np.asarray(f_bar, dtype=float).reshape(-1)
    Sigma = covariance_path(Sigma_path, time_grid)
    HHt = H @ H.T

    def rate(y, S):
        # dy/dt for the forward-time variable (integrated backward)
        return -(A @ y - HHt @ (S @ y))

    values = backward_rk4_sweep(rate, f_bar, time_grid, coeffs=Sigma)
    u = -np.einsum("ji,kjl,kl->ki", H, Sigma, values)
    return BackwardVector(time_grid, values), u
