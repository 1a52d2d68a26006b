"""Deterministic backward-in-time PDE solvers on a space grid.

Realizes the backward equations behind the estimators: the backward
Kolmogorov equation, its Feynman-Kac variant with multiplicative killing,
policy-evaluation equations with a running-cost source, and the quadratic-cost
HJB equation.  The linear-Gaussian backward side is `kalman.dual_sweep`.

Grid solvers use implicit reverse-time stepping (backward Euler in reverse
time) with tridiagonal solves, central differencing of the advection term,
and automatic first-order upwinding at nodes whose cell Peclet number
|b| dx / (sigma^2/2) exceeds 2.  Boundaries are homogeneous Neumann; the
killing term is applied through a per-step integrating factor, which is exact
for observation maps that are constant in space.  The terminal slice y_T holds
f at the nodes, or cell averages for a terminal with a jump (`terminal_slice`).

The Kolmogorov, Feynman-Kac, sourced and HJB solves and estimator III's control
share one reverse-time sweep, `_sweep`, with a per-step map of each solve (the
Feynman-Kac factor, the control step).  `_factored` writes the LAPACK bands of
I - dt L from the drift and factors them (gttrf) into one gttrs call per step:
once for a drift constant in time, once per step under a policy.  The
quadratic-cost HJB is the uncontrolled sweep of exp(-y / lambda) (Fleming's
logarithmic transformation).

The two tridiagonal LAPACK routines (dgttrf, dgttrs) come from scipy's compiled
LAPACK module, `scipy.linalg._flapack`, which `_lapack` loads on the first grid
solve and reuses from then on.  It loads that extension file on its
own, under its own name in `sys.modules`, after the top-level `scipy` package
(which loads its submodules lazily and, on Windows, registers scipy's DLL
directory), and never runs `scipy.linalg/__init__`.  That package import cost
190-318 ms under `python -X importtime` on a 2-vCPU host, mostly scipy's
array-API layer, which imports `numpy.f2py`, `numpy.testing` and `numpy.ma`;
the module alone loads in about 5 ms.  A later `import scipy.linalg` reuses the
registered module, so `scipy.linalg.lapack.dgttrf` and `dgttrs` are the very
objects the solves call.  Nothing is loaded at import: the linear-Gaussian
closed forms, the simulators and the particle filters never solve on a grid.

scipy.linalg itself is imported only for `solve_banded`, served by the module
`__getattr__` for `perfbench/tracer.py`, which looks it up by name; nothing here
calls it.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import os
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import CFLWarning, GridMismatch, LinearSolveFailure
from .io import fmt, write_columns
from .model import CELL_AVERAGES, NamedFunction, ScalarModelSpec, SpaceGrid, TimeGrid


@functools.cache
def _lapack():
    """scipy's compiled LAPACK module, `scipy.linalg._flapack`, loaded on the first
    call without `scipy.linalg/__init__` and registered under its own name, or the
    one already in sys.modules (see the module docstring)."""
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    import scipy
    stem = os.path.join(scipy.__path__[0], "linalg", "_flapack")
    path = next((stem + suffix for suffix in importlib.machinery.EXTENSION_SUFFIXES
                 if os.path.isfile(stem + suffix)), None)
    if path is None:
        suffix = importlib.machinery.EXTENSION_SUFFIXES[0]
        raise ImportError(f"scipy's LAPACK module {stem}{suffix} is missing", name=name)
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
    except BaseException:  # as the import system does: leave no half-made module behind
        del sys.modules[name]
        raise
    return module


def __getattr__(name: str):
    if name == "solve_banded":
        import scipy.linalg
        return scipy.linalg.solve_banded
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _cells(space_grid: SpaceGrid, x: np.ndarray):
    """(j, theta) of a flat x on the uniform grid: t = (x - x_min) / dx clamped to
    [0, n_points - 1], j = floor(t) and theta = t - j.  t is formed as
    (x - x_min) / (x_max - x_min) * (n_points - 1) from x clipped to the grid, so
    it is exactly 0 and n_points - 1 at and beyond the ends, never overflows, and
    needs no clamp of its own.  A NaN x gives j = 0 and a NaN theta; it never
    reaches the cast to intp."""
    t = np.clip(x, space_grid.x_min, space_grid.x_max)
    t -= space_grid.x_min
    t /= space_grid.x_max - space_grid.x_min
    t *= space_grid.n_points - 1
    j = np.fmax(t, 0.0).astype(np.intp)
    t -= j
    return j, t


def interp_uniform(space_grid: SpaceGrid, fp: np.ndarray, x) -> np.ndarray:
    """Piecewise-linear interpolation of node values fp at x, clamped to the grid.

    With t = (x - x_min) / dx clamped to [0, n_points - 1], j = floor(t) and
    theta = t - j (`_cells`), the value is fp[j] + theta (fp[j + 1] - fp[j]): two
    gathers and a few passes, with no table built per call.  It agrees with
    np.interp(x, space_grid.points(), fp) to rounding, not bitwise: t carries an
    error of a few n_points * eps, so the value is within about
    4 n_points eps max|fp| of the interpolant on the exact nodes x_min + i dx, and
    of np.interp on a grid within a width of 0 (np.interp reads the linspace
    nodes, which sit up to eps |x| / dx node widths off the exact ones).  It is
    exact at and beyond both ends (fp[0] and fp[-1]), and a NaN x reads NaN,
    without a warning.

    A 1-D fp is read at every x, of any shape.  Stacked rows, fp of shape
    (B, n_points) against x of shape (B, N), read row r of fp at row r of x
    (one call for a block of time steps), bitwise the B row-by-row calls.
    """
    x = np.asarray(x, dtype=float)
    j, theta = _cells(space_grid, x.reshape(-1))
    if fp.ndim > 1:  # index row r of the flattened rows at offset r * n_points
        rows, n = fp.shape
        j = (j.reshape(rows, -1) + np.arange(0, rows * n, n)[:, None]).reshape(-1)
    flat = fp.reshape(-1)
    lo = flat.take(j)
    # fp[j + 1]; theta is 0 at the last node, where the clip reads lo itself or,
    # in stacked rows, the next row's first node
    out = flat[1:].take(j, mode="clip")
    out -= lo
    out *= theta
    out += lo
    return out.reshape(x.shape)[()]


def interp_matrix(space_grid: SpaceGrid, x, c) -> np.ndarray:
    """P with P[r] @ fp = sum_i c[r, i] interp_uniform(space_grid, fp, x[r, i]) to
    rounding: c (1 - theta) goes to node j and c theta to node j + 1, with
    interp_uniform's (j, theta) at x (theta is NaN at a NaN x)."""
    x = np.asarray(x, dtype=float)
    rows, J = x.shape[0], space_grid.n_points
    j, theta = _cells(space_grid, x.reshape(-1))
    end = j == J - 1  # theta is 0 there: the weight moves onto the last cell's right end
    j[end], theta[end] = J - 2, 1.0
    j += np.repeat(np.arange(rows) * J, j.size // rows)
    c = np.asarray(c, dtype=float).reshape(-1)
    P = np.bincount(j, c - c * theta, minlength=rows * J)
    P[1:] += np.bincount(j, c * theta, minlength=rows * J)[:-1]
    return P.reshape(rows, J)


@dataclass(frozen=True)
class GridFunction:
    """A space-time field y[k][j] on the nodes; its spatial gradient dy[k][j] (central
    differences, one-sided at the boundaries) is formed on the first read."""

    space_grid: SpaceGrid
    time_grid: TimeGrid
    values: np.ndarray    # (n_steps + 1, n_points), time-major

    def __post_init__(self):
        expected = (self.time_grid.n_steps + 1, self.space_grid.n_points)
        if self.values.shape != expected:
            raise GridMismatch(f"values must have shape {expected}")
        if not np.all(np.isfinite(self.values)):
            raise LinearSolveFailure("grid function contains non-finite values")

    @functools.cached_property
    def gradient(self) -> np.ndarray:
        return np.gradient(self.values, self.space_grid.dx, axis=1)

    def eval(self, k: int | slice, x) -> np.ndarray:
        """y_k(x) for one step k, or, for a slice k of B steps and x of shape
        (B, N), row r of x read on step k.start + r (`interp_uniform`'s stacked rows)."""
        return interp_uniform(self.space_grid, self.values[k], x)

    def eval_gradient(self, k: int | slice, x) -> np.ndarray:
        """dy_k/dx(x), with k one step or a slice of steps as in `eval`."""
        return interp_uniform(self.space_grid, self.gradient[k], x)

    def to_csv(self, path) -> None:
        columns = {"t": self.time_grid.times()}
        columns.update(zip(map(fmt, self.space_grid.points()), self.values.T))
        write_columns(path, columns)


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
    # off-diagonal entries nonnegative ((1 - w) pe <= 2 throughout).
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


def _factored(b: np.ndarray, sigma: float, dx: float, dt: float):
    """I - dt L for the drift values b (`_implicit_bands`), factored once with gttrf:
    returns a solver making one gttrs call per right-hand side, and whether L
    upwinds.  gttrs runs gtsv's elimination and pivoting, so a solve has the bits
    of scipy's solve_banded of the same bands."""
    *bands, upwind = _implicit_bands(b, sigma, dx, dt)
    if not all(np.isfinite(band).all() for band in bands):
        raise LinearSolveFailure("non-finite values in tridiagonal operator")
    lapack = _lapack()
    dl, d, du, du2, ipiv, info = lapack.dgttrf(*bands, overwrite_dl=1, overwrite_d=1,
                                               overwrite_du=1)
    if info != 0:
        raise LinearSolveFailure(f"singular tridiagonal operator (gttrf info {info})")
    gttrs = lapack.dgttrs

    def solve(rhs):
        out, info = gttrs(dl, d, du, du2, ipiv, rhs)
        if info != 0 or not np.isfinite(out).all():
            raise LinearSolveFailure("non-finite values in tridiagonal solve")
        return out

    return solve, upwind


# ---------------------------------------------------------------------------
# scalar grid solvers
# ---------------------------------------------------------------------------

def solve_backward_kolmogorov(model: ScalarModelSpec, space_grid: SpaceGrid,
                              time_grid: TimeGrid) -> GridFunction:
    """Solve -dy/dt = b dy/dx + (sigma^2/2) d2y/dx2 backward from y_T = f."""
    values = _sweep(model, space_grid, time_grid, "backward Kolmogorov solve",
                    terminal_slice(model, space_grid))
    return GridFunction(space_grid, time_grid, values)


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
    damp = np.exp(sign * h ** 2 * time_grid.dt)
    values = _sweep(model, space_grid, time_grid, "backward Kolmogorov solve",
                    terminal_slice(model, space_grid),
                    step=lambda k, y: damp * y)
    return GridFunction(space_grid, time_grid, values)


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
    values = _sweep(model, space_grid, time_grid, "sourced backward solve",
                    terminal_slice(model, space_grid, terminal), policy=policy,
                    running_cost=running_cost)
    return GridFunction(space_grid, time_grid, values)


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


def _sweep(model, space_grid, time_grid, context, y_end, policy=None, running_cost=None,
           step=None, factored=None) -> np.ndarray:
    """The (n_steps + 1, n_points) values of the reverse-time sweep of
    -dy/dt = L^{x,a} y + c_k(x, a_k), y_T = y_end (see the module docstring):
    values[k] is step(k, y), or y, for the solve y of (I - dt L) y = values[k + 1]
    + dt c_k; I - dt L is factored once (or given: `factored`, the caller's
    `_factored` pair of the model's drift), or once per step under a policy."""
    xs = space_grid.points()
    dt, dx, sigma = time_grid.dt, space_grid.dx, model.sigma
    K = time_grid.n_steps
    values = np.empty((K + 1, space_grid.n_points))
    values[K] = y_end
    b0 = None if factored else np.asarray(model.drift(xs), dtype=float)
    a = np.zeros_like(xs)
    solve, any_upwind = factored or (_factored(b0, sigma, dx, dt) if policy is None
                                     else (None, False))
    for k in range(K - 1, -1, -1):
        if policy is not None:
            a = np.asarray(policy(k, xs) if callable(policy) else policy[k], dtype=float)
            solve, up = _factored(b0 + model.control_gain * a, sigma, dx, dt)
            any_upwind = any_upwind or up
        rhs = values[k + 1]
        if running_cost is not None:
            rhs = rhs + dt * np.asarray(running_cost(k, xs, a), dtype=float)
        y = solve(rhs)
        values[k] = y if step is None else step(k, y)
    if any_upwind:
        warnings.warn(f"cell Peclet number exceeded 2 in {context}; first-order upwinding "
                      "applied at the affected nodes", CFLWarning)
    return values


# psi_T = exp(-(f_T - c) / lambda) stays a normal float64 while |f_T - c| / lambda <= this
LOG_TRANSFORM_RANGE = -float(np.log(np.finfo(float).tiny))


def solve_hjb_quadratic(model: ScalarModelSpec, space_grid: SpaceGrid,
                        time_grid: TimeGrid, terminal=None):
    """HJB solve for additive control and quadratic running cost 0.5 a^2.

    -dy/dt = b dy/dx + (sigma^2/2) d2y/dx2 - (g dy/dx)^2 / 2, y_T = f: drift
    b + g a, whose pointwise minimizer is a = -g dy/dx.  With lambda = sigma^2/g^2
    and a constant c, Fleming's logarithmic transformation y = c - lambda log psi
    turns it into the uncontrolled backward Kolmogorov equation for psi, from
    psi_T = exp(-(f_T - c) / lambda): one factored sweep on the model's own drift,
    one gttrs solve per step.  f_T is `terminal_slice` (cell averages kept) and c
    the midpoint of its range, so psi_T lies in [exp(-s), exp(s)] with
    s = max|f_T - c| / lambda.

    - Range: s above LOG_TRANSFORM_RANGE (708.4, where psi_T would leave the
      normal float64 range) raises LinearSolveFailure before any exp.
    - Weak gain (s < 1): the sweep carries phi = psi - 1 from expm1 and reads
      y = c - lambda log1p(phi), the same linear solve (L 1 = 0 under the
      Neumann rows) without the cancellation of log psi near 1.
    - A gain with (g/sigma)^2 below the normal range, g = 0 included, is the
      plain sweep of f_T.

    y_T is f_T exactly.  Returns the value field and the policy
    a[k][j] = -g dy/dx, on the value field's own gradient.
    """
    f_end = terminal_slice(model, space_grid, terminal)
    g, sigma = float(model.control_gain), float(model.sigma)
    inv_lambda = (g / sigma) * (g / sigma)  # Python floats: no numpy warning
    if inv_lambda < np.finfo(float).tiny:
        values = _sweep(model, space_grid, time_grid, "HJB solve", f_end)
    else:
        lo, hi = float(f_end.min()), float(f_end.max())
        c, s = 0.5 * lo + 0.5 * hi, (0.5 * hi - 0.5 * lo) * inv_lambda
        if not s <= LOG_TRANSFORM_RANGE:
            raise LinearSolveFailure(
                f"HJB log transform out of range: max|f_T - c| / lambda = {s:.4g} exceeds "
                f"{LOG_TRANSFORM_RANGE:.4g} (lambda = sigma^2 / g^2 = {1.0 / inv_lambda:.4g})")
        weak = s < 1.0
        u = (f_end - c) * -inv_lambda
        values = _sweep(model, space_grid, time_grid, "HJB solve",
                        np.expm1(u) if weak else np.exp(u))
        if not weak and not values.min() > 0.0:
            raise LinearSolveFailure("HJB log transform: the sweep of psi left the positive range")
        values = c - (np.log1p(values) if weak else np.log(values)) / inv_lambda
        values[-1] = f_end
    value = GridFunction(space_grid, time_grid, values)
    return value, -g * value.gradient

