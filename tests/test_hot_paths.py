"""The uniform-grid interpolation, the step-keyed ensemble noise, the cubic
kernels, the backward sweeps, the HJB log transform, the one-sweep fixed
point of estimator III, and the blocked ensemble walk under the Ito fold of
estimators I, II and IV, the cost functional and the variance decay equal or
match the reference computations they replace."""

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_banded

from fbsde_filter import estimators, pde_backward
from fbsde_filter.control import PolicyField
from fbsde_filter.errors import (
    CFLWarning,
    FixedPointNotConverged,
    LinearSolveFailure,
)
from fbsde_filter.estimators import (
    _lg_fixed_point,
    _scalar_fixed_point,
    cost_functional_per_path,
    estimate_pi_obs,
    prior_expectation_of_initial_slice,
    variance_decay,
)
from fbsde_filter.kalman import model_kalman, model_riccati
from fbsde_filter.model import SpaceGrid, TimeGrid, gaussian_quadrature, registry_eval
from fbsde_filter.pde_backward import (
    LOG_TRANSFORM_RANGE,
    GridFunction,
    _factored,
    interp_matrix,
    interp_uniform,
    solve_backward_kolmogorov,
    solve_backward_with_source,
    solve_feynman_kac,
    solve_hjb_quadratic,
    terminal_slice,
)
from fbsde_filter.sde_sim import (
    STREAM_GIRSANOV,
    PathEnsemble,
    _ensemble_noise,
    path_generator,
    simulate_innovation_ensemble,
    simulate_truth_and_obs,
)

from conftest import make_scalar


EPS = np.finfo(float).eps


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def probe_points(grid: SpaceGrid, rng) -> np.ndarray:
    """Nodes, their nextafter neighbours, the exact ends, points beyond both
    ends and uniform points inside."""
    nodes = np.linspace(grid.x_min, grid.x_max, grid.n_points)
    width = grid.x_max - grid.x_min
    return np.concatenate([
        nodes, np.nextafter(nodes, np.inf), np.nextafter(nodes, -np.inf),
        [grid.x_min, grid.x_max, grid.x_min - width, grid.x_max + width, -1e300, 1e300],
        rng.uniform(grid.x_min - 0.1 * width, grid.x_max + 0.1 * width, 300),
    ])


def interp_on_exact_nodes(grid: SpaceGrid, fp: np.ndarray, x: np.ndarray) -> np.ndarray:
    """fp read at x on the nodes x_min + i dx, in extended precision (np.longdouble)."""
    ld, n = np.longdouble, grid.n_points
    t = (np.clip(x, grid.x_min, grid.x_max).astype(ld) - ld(grid.x_min)) \
        / (ld(grid.x_max) - ld(grid.x_min)) * ld(n - 1)
    j = np.minimum(np.floor(t), n - 2).astype(np.intp)
    f = fp.astype(ld)
    return (f[j] + (t - j) * (f[j + 1] - f[j])).astype(float)


def rounding_bound(fp: np.ndarray) -> float:
    # t = (x - x_min) / dx carries an error of a few n_points eps
    return 4 * fp.shape[-1] * EPS * np.abs(fp).max()


@given(n_points=st.integers(3, 1001), lower=st.floats(0.0, 1.0),
       width=st.floats(1e-2, 1e3), scale=st.floats(1e-3, 1e3),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_interp_uniform_matches_np_interp_to_rounding(n_points, lower, width, scale, seed):
    # a grid within one width of 0, as every grid of the library is
    grid = SpaceGrid(-lower * width, (1.0 - lower) * width, n_points)
    rng = np.random.default_rng(seed)
    fp = scale * rng.standard_normal(n_points)
    x = probe_points(grid, rng)
    got = interp_uniform(grid, fp, x)
    assert np.all(np.abs(got - np.interp(x, grid.points(), fp)) <= rounding_bound(fp))
    assert np.all(got[x <= grid.x_min] == fp[0]) and np.all(got[x >= grid.x_max] == fp[-1])
    assert same_bits(interp_uniform(grid, fp, x.reshape(3, -1)), got.reshape(3, -1))
    one = interp_uniform(grid, fp, x[1])
    assert type(one) is np.float64 and same_bits(one, got[1])
    # stacked rows: row r of x read on row r of fp, as one call per row reads it
    stacked_fp = np.stack([fp, -fp, fp[::-1]])
    stacked_x = np.stack([x, x[::-1], rng.permutation(x)])
    by_row = [interp_uniform(grid, f, xr) for f, xr in zip(stacked_fp, stacked_x)]
    assert same_bits(interp_uniform(grid, stacked_fp, stacked_x), np.stack(by_row))


@given(n_points=st.integers(3, 1001), x_min=st.floats(-1e3, 1e3),
       width=st.floats(1e-2, 1e3), scale=st.floats(1e-3, 1e3),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_interp_uniform_reads_the_exact_nodes_to_rounding_on_any_grid(
        n_points, x_min, width, scale, seed):
    # np.interp reads the linspace nodes, which sit up to eps |x| / dx node
    # widths off x_min + i dx: far from 0 against the width, that is more than
    # the rounding bound, so the reference here reads the exact nodes
    grid = SpaceGrid(x_min, x_min + width, n_points)
    rng = np.random.default_rng(seed)
    fp = scale * rng.standard_normal(n_points)
    x = probe_points(grid, rng)
    got = interp_uniform(grid, fp, x)
    assert np.all(np.abs(got - interp_on_exact_nodes(grid, fp, x)) <= rounding_bound(fp))
    assert np.all(got[x <= grid.x_min] == fp[0]) and np.all(got[x >= grid.x_max] == fp[-1])


def test_interp_uniform_reads_nan_as_nan_without_a_warning():
    grid = SpaceGrid(-4.0, 4.0, 81)
    fp = np.random.default_rng(3).standard_normal(81)
    x = np.array([np.nan, -np.inf, -4.0, 0.3, 4.0, np.inf, 1.7e308, -1.7e308])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = interp_uniform(grid, fp, x)
        stacked = interp_uniform(grid, np.stack([fp, fp]), np.stack([x, x[::-1]]))
        row = interp_matrix(grid, x.reshape(2, -1), np.ones((2, 4)))
        assert np.isnan(interp_uniform(grid, fp, np.nan))
    assert np.isnan(got[0]) and np.isfinite(got[1:]).all()
    assert np.isnan(stacked[0, 0]) and np.isnan(stacked[1, -1])
    assert np.isnan(stacked).sum() == 2
    assert np.isnan(row[0] @ fp) and np.isfinite(row[1]).all()
    assert same_bits(got[[1, 2, 7]], np.full(3, fp[0]))
    assert same_bits(got[[4, 5, 6]], np.full(3, fp[-1]))


def test_points_are_the_cached_read_only_linspace():
    grid = SpaceGrid(-5.5, 5.5, 601)
    assert grid.points() is grid.points()
    assert same_bits(grid.points(), np.linspace(-5.5, 5.5, 601))
    with pytest.raises(ValueError):
        grid.points()[0] = 0.0


def test_grid_function_and_policy_field_read_interp_uniform():
    sg, tg = SpaceGrid(-4.0, 4.0, 81), TimeGrid(1.0, 3)
    rng = np.random.default_rng(11)
    values = rng.standard_normal((4, 81))
    y = GridFunction.from_values(sg, tg, values)
    policy = PolicyField(time_grid=tg, provenance="hjb", values=values, space_grid=sg)
    x = probe_points(sg, rng)
    for k in range(4):
        assert same_bits(y.eval(k, x), interp_uniform(sg, values[k], x))
        assert same_bits(y.eval_gradient(k, x), interp_uniform(sg, y.gradient[k], x))
        assert same_bits(policy.policy_at(k, x), interp_uniform(sg, values[k], x))
    steps = np.stack([x, x[::-1]])  # a slice of steps reads one row of x per step
    assert same_bits(y.eval(slice(1, 3), steps),
                     [y.eval(1, x), y.eval(2, x[::-1])])
    assert same_bits(y.eval_gradient(slice(2, 4), steps),
                     [y.eval_gradient(2, x), y.eval_gradient(3, x[::-1])])


@pytest.mark.parametrize("with_obs_noise", [False, True])
# three blocks each: filled by the caller (301 paths) and on the worker (30 000)
@pytest.mark.parametrize("n_paths, n_steps", [(301, 1000), (30_000, 10)])
def test_ensemble_noise_rows_equal_the_step_generators(with_obs_noise, n_paths, n_steps):
    seed = 2**40 + 7
    u0, z0, rows = _ensemble_noise(seed, STREAM_GIRSANOV, n_paths, n_steps,
                                   with_obs_noise=with_obs_noise)
    gen = path_generator(seed, STREAM_GIRSANOV, 0)
    assert same_bits(u0, gen.random(n_paths))
    assert same_bits(z0, gen.standard_normal(n_paths))
    rows = list(rows)  # each row stays valid after the stream moves on
    assert len(rows) == n_steps
    for k, row in enumerate(rows):
        gen = path_generator(seed, STREAM_GIRSANOV, k + 1)
        if with_obs_noise:  # the state row, then the observation row, of one key
            assert row.shape == (2, n_paths)
            assert same_bits(row[0], gen.standard_normal(n_paths))
            assert same_bits(row[1], gen.standard_normal(n_paths))
        else:
            assert same_bits(row, gen.standard_normal(n_paths))


@pytest.mark.parametrize("seed, stream, n_steps", [
    (-1, 1, 10), (2**64, 1, 10), (0, -1, 10), (0, 2**16, 10), (0, 1, 2**48),
])
def test_ensemble_noise_rejects_key_parts_outside_their_fields(seed, stream, n_steps):
    # checked before any array is allocated; the last step's key index is n_steps
    with pytest.raises(ValueError):
        _ensemble_noise(seed, stream, 3, n_steps)


def test_cubic_kernels_multiply_out_the_cube_within_one_ulp_of_the_power():
    x = np.random.default_rng(3).uniform(-6.0, 6.0, 10_000)
    cube = x * x * x
    assert np.all(np.abs(cube - x**3) <= np.spacing(np.abs(x**3)))
    assert same_bits(registry_eval("cubic", {"c": 0.3}, x), 0.3 * cube)
    assert same_bits(registry_eval("double_well", {}, x), x - cube)
    assert registry_eval("double_well", {}, 2.0) == -6.0


# ---------------------------------------------------------------------------
# the backward sweeps against the solve_banded loops they replaced, and the HJB
# against the sweep of its log transform
# ---------------------------------------------------------------------------

def _generator_bands(b: np.ndarray, sigma: float, dx: float):
    """Tridiagonal bands (sub, diag, sup) of b d/dx + (sigma^2/2) d^2/dx^2.

    Homogeneous Neumann boundaries via ghost-node reflection.  Nodes with
    cell Peclet number above 2 switch to first-order upwinding; returns the
    bands and whether any node was upwinded.  A non-finite drift raises
    LinearSolveFailure (an infinite outward one would drop out at a boundary).
    """
    if not np.all(np.isfinite(b)):
        raise LinearSolveFailure("non-finite drift in the backward generator")
    J = b.shape[0]
    D = 0.5 * sigma * sigma
    sub = np.full(J, D / dx**2)
    diag = np.full(J, -2.0 * D / dx**2)
    sup = np.full(J, D / dx**2)

    # Continuous central-to-upwind blend: pure central up to cell Peclet 2,
    # pure upwind from 4, linear in between.  The blend weight w keeps all
    # off-diagonal entries nonnegative ((1 - w) pe <= 2 throughout) and, being
    # continuous in b, avoids switching cycles inside policy iterations.
    pe = np.abs(b) * dx / D
    w = np.clip(0.5 * (pe - 2.0), 0.0, 1.0)
    upwind = w > 0.0

    central_coef = (1.0 - w) * b / (2.0 * dx)
    sup = sup + central_coef
    sub = sub - central_coef

    pos = w * np.maximum(b, 0.0) / dx
    neg = w * np.minimum(b, 0.0) / dx
    sup = sup + pos
    sub = sub - neg
    diag = diag - pos + neg

    # Boundary rows: reflected ghost doubles the inward diffusion coupling;
    # advection is one-sided upwind when the drift points into the domain and
    # drops out (zero-slope reading) when it points outward, which keeps the
    # rows strongly coupled to the interior for stiff inward drifts.
    diag[0] = -2.0 * D / dx**2
    sup[0] = 2.0 * D / dx**2
    inflow_left = max(b[0], 0.0)
    sup[0] += inflow_left / dx
    diag[0] -= inflow_left / dx
    diag[-1] = -2.0 * D / dx**2
    sub[-1] = 2.0 * D / dx**2
    inflow_right = min(b[-1], 0.0)
    sub[-1] -= inflow_right / dx
    diag[-1] += inflow_right / dx

    return sub, diag, sup, bool(upwind[1:-1].any())


def _implicit_ab(sub, diag, sup, dt):
    """Banded matrix of (I - dt L) in solve_banded layout."""
    J = diag.shape[0]
    ab = np.zeros((3, J))
    ab[0, 1:] = -dt * sup[:-1]
    ab[1, :] = 1.0 - dt * diag
    ab[2, :-1] = -dt * sub[1:]
    return ab


@dataclass(frozen=True)
class NodalModel:
    """A scalar model given by its drift, h and f at the grid nodes."""

    b: np.ndarray
    h: np.ndarray
    f: np.ndarray
    sigma: float
    control_gain: float = 0.0

    def drift(self, x):
        return self.b

    def obs(self, x):
        return self.h

    def terminal(self, x):
        return self.f


def reference_sweep(model, sg, tg, damp=None, source=None, policy=None):
    """Assemble I - dt L and call scipy.linalg.solve_banded at every step, from
    the solvers' terminal slice."""
    xs = sg.points()
    dt, K = tg.dt, tg.n_steps
    b0 = np.asarray(model.drift(xs), dtype=float)
    values = np.empty((K + 1, sg.n_points))
    values[K] = terminal_slice(model, sg)
    for k in range(K - 1, -1, -1):
        a = np.zeros_like(xs) if policy is None else policy[k]
        sub, diag, sup, _ = _generator_bands(b0 + model.control_gain * a, model.sigma, sg.dx)
        rhs = values[k + 1].copy()
        if source is not None:
            rhs += dt * source[k]
        y = solve_banded((1, 1), _implicit_ab(sub, diag, sup, dt), rhs)
        values[k] = y if damp is None else damp * y
    return values


def nodal_model(rng, sg, sigma, control_gain=0.0):
    """Drift with cell Peclet numbers spread over [0, 8): central, blended
    (2 < pe < 4) and fully upwinded (pe >= 4) rows all occur."""
    D = 0.5 * sigma * sigma
    pe = rng.uniform(0.0, 8.0, sg.n_points)
    pe[1:5] = [0.0, 1.0, 3.0, 6.0]  # interior nodes
    b = rng.choice([-1.0, 1.0], sg.n_points) * pe * D / sg.dx
    return NodalModel(b=b, h=rng.uniform(-2.0, 2.0, sg.n_points),
                      f=rng.standard_normal(sg.n_points), sigma=sigma,
                      control_gain=control_gain)


sweep_cases = dict(n_points=st.integers(6, 201), width=st.floats(0.1, 20.0),
                   sigma=st.floats(0.05, 3.0), n_steps=st.integers(1, 30),
                   dt=st.floats(1e-4, 0.5), seed=st.integers(0, 2**32 - 1))


@given(**sweep_cases)
@settings(max_examples=150, deadline=None)
def test_policy_free_sweeps_equal_the_per_step_solve_banded_loop(
        n_points, width, sigma, n_steps, dt, seed):
    rng = np.random.default_rng(seed)
    sg, tg = SpaceGrid(-0.5 * width, 0.5 * width, n_points), TimeGrid(dt * n_steps, n_steps)
    model = nodal_model(rng, sg, sigma)
    source = rng.standard_normal((n_steps, n_points))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CFLWarning)
        bke = solve_backward_kolmogorov(model, sg, tg)
        killing = solve_feynman_kac(model, sg, tg, reaction="killing")
        growth = solve_feynman_kac(model, sg, tg, reaction="growth")
        sourced = solve_backward_with_source(model, sg, tg,
                                             running_cost=lambda k, xs, a: source[k])
    assert same_bits(bke.values, reference_sweep(model, sg, tg))
    for fk, sign in ((killing, -1.0), (growth, 1.0)):
        damp = np.exp(sign * model.h ** 2 * tg.dt)
        assert same_bits(fk.values, reference_sweep(model, sg, tg, damp=damp))
    assert same_bits(sourced.values, reference_sweep(model, sg, tg, source=source))


@given(**sweep_cases)
@settings(max_examples=50, deadline=None)
def test_policy_sweep_equals_the_per_step_solve_banded_loop(
        n_points, width, sigma, n_steps, dt, seed):
    rng = np.random.default_rng(seed)
    sg, tg = SpaceGrid(-0.5 * width, 0.5 * width, n_points), TimeGrid(dt * n_steps, n_steps)
    model = nodal_model(rng, sg, sigma, control_gain=rng.uniform(-2.0, 2.0))
    policy = rng.uniform(-1.0, 1.0, (n_steps + 1, n_points)) * np.abs(model.b).max()
    source = rng.standard_normal((n_steps, n_points))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CFLWarning)
        by_array = solve_backward_with_source(model, sg, tg, policy=policy,
                                              running_cost=lambda k, xs, a: source[k])
        by_callable = solve_backward_with_source(model, sg, tg,
                                                 policy=lambda k, xs: policy[k],
                                                 running_cost=lambda k, xs, a: source[k])
    reference = reference_sweep(model, sg, tg, source=source, policy=policy)
    assert same_bits(by_array.values, reference)
    assert same_bits(by_callable.values, reference)


def reference_psi(model, sg, tg, u, weak):
    """The uncontrolled solve_banded sweep of psi_T = exp(u), or 1 + the sweep of
    expm1(u) when weak (the same linear solve, rounded relative to psi - 1); None
    where it is not finite and positive.  A drift that jumps between neighbouring
    nodes makes the elimination pivot, and then the sweep of a psi_T spanning up to
    e^(+-708) can overflow or lose its smallest values."""
    try:
        psi = reference_sweep(replace(model, f=np.expm1(u) if weak else np.exp(u)), sg, tg)
    except ValueError:  # solve_banded refuses the right-hand side after an overflowed step
        return None
    psi = psi + 1.0 if weak else psi
    return psi if np.isfinite(psi).all() and psi.min() > 0.0 else None


@given(n_points=st.integers(6, 121), width=st.floats(0.5, 20.0),
       sigma=st.floats(0.1, 3.0), n_steps=st.integers(1, 12), dt=st.floats(1e-3, 0.2),
       gain=st.one_of(st.sampled_from([0.0, 5e-324, -1e-160, 1e-8]), st.floats(-2.0, 2.0)),
       scale=st.floats(0.0, 3.0), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_hjb_is_the_uncontrolled_sweep_of_its_log_transform(n_points, width, sigma, n_steps,
                                                            dt, gain, scale, seed):
    """exp(-(y - c) / lambda), recomputed from the returned values, is the
    uncontrolled solve_banded sweep of psi_T = exp(-(f_T - c) / lambda) to rounding;
    the policy is bitwise -g times the value's gradient; the value is even in g and
    the policy odd, bit for bit.  A gain whose (g / sigma)^2 is below the normal
    range is the plain sweep of f_T; a span past the range raises."""
    rng = np.random.default_rng(seed)
    sg, tg = SpaceGrid(-0.5 * width, 0.5 * width, n_points), TimeGrid(dt * n_steps, n_steps)
    model = nodal_model(rng, sg, sigma, control_gain=gain)
    model = replace(model, f=scale * model.f)
    uncontrolled = replace(model, control_gain=0.0)
    inv_lambda = (gain / sigma) * (gain / sigma)
    c = 0.5 * model.f.min() + 0.5 * model.f.max()
    span = (0.5 * model.f.max() - 0.5 * model.f.min()) * inv_lambda
    transform = inv_lambda >= np.finfo(float).tiny
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CFLWarning)
        if span > LOG_TRANSFORM_RANGE:
            with pytest.raises(LinearSolveFailure, match="out of range"):
                solve_hjb_quadratic(model, sg, tg)
            return
        if transform:
            u, weak = (model.f - c) * -inv_lambda, span < 1.0
            psi = reference_psi(uncontrolled, sg, tg, u, weak)
            if psi is None:
                with pytest.raises(LinearSolveFailure):
                    solve_hjb_quadratic(model, sg, tg)
                return
        y, policy = solve_hjb_quadratic(model, sg, tg)
        y_neg, policy_neg = solve_hjb_quadratic(replace(model, control_gain=-gain), sg, tg)
    if transform:
        recomputed = np.exp((y.values - c) * -inv_lambda)
        # the read-out rounds y by eps |y|, and |y - c| / lambda is at most the span
        bound = 4.0 * EPS * (np.abs(y.values).max() * inv_lambda + span + 1.0)
        assert np.abs(recomputed / psi - 1.0).max() <= bound
    else:
        assert same_bits(y.values, reference_sweep(uncontrolled, sg, tg))
    assert same_bits(y.values[-1], model.f)
    assert same_bits(policy, -gain * y.gradient)
    assert same_bits(y_neg.values, y.values)
    assert same_bits(policy_neg, -policy)


@given(node=st.integers(0, 40), step=st.integers(0, 9),
       bad=st.sampled_from([np.nan, np.inf, -np.inf]),
       where=st.sampled_from(["drift", "source", "terminal"]))
@settings(max_examples=60, deadline=None)
def test_a_non_finite_drift_source_or_terminal_is_a_linear_solve_failure(
        node, step, bad, where):
    sg, tg = SpaceGrid(-2.0, 2.0, 41), TimeGrid(1.0, 10)
    model = nodal_model(np.random.default_rng(node), sg, 0.7)
    source = np.zeros((10, 41))
    if where == "drift":
        model.b[node] = bad
    elif where == "terminal":
        model.f[node] = bad
    else:
        source[step, node] = bad
    message = {"drift": "non-finite drift", "terminal": "non-finite terminal",
               "source": "non-finite values"}[where]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CFLWarning)
        warnings.simplefilter("error", RuntimeWarning)  # no numpy warning on the way
        with pytest.raises(LinearSolveFailure, match=message):
            solve_backward_with_source(model, sg, tg, running_cost=lambda k, xs, a: source[k])
        if where != "source":
            with pytest.raises(LinearSolveFailure, match=message):
                solve_backward_kolmogorov(model, sg, tg)
            with pytest.raises(LinearSolveFailure, match=message):
                solve_feynman_kac(model, sg, tg)
            with pytest.raises(LinearSolveFailure, match=message):
                solve_hjb_quadratic(model, sg, tg)


def reference_fixed_point(model, obs, sg, ensemble=None, pi_source=None,
                          tol=1e-6, max_iter=50):
    """The scalar control iteration of estimate_pi_obs(mode="fixed_point"),
    with h re-evaluated in every step and the per-step solve_banded sweep."""
    grid = obs.grid
    K = grid.n_steps
    h = model.obs_fn
    if pi_source is not None:
        quad = [gaussian_quadrature(float(pi_source.mean[k][0]),
                                    float(pi_source.covariance[k][0, 0]))
                for k in range(K + 1)]
        pih = np.array([float(np.dot(wq, h(xq))) for xq, wq in quad])
    else:
        w = np.exp(ensemble.log_weights("innovation"))
        wsum = w.sum(axis=0)
        pih = np.einsum("ik,ik->k", w, np.asarray(h(ensemble.states), dtype=float)) / wsum
    xs = sg.points()
    u = np.zeros(K + 1)
    for _ in range(max_iter):
        source = [u[k] * np.asarray(h(xs), dtype=float) for k in range(K)]
        y = GridFunction.from_values(sg, grid, reference_sweep(model, sg, grid, source=source))
        if pi_source is not None:
            projected = np.array([float(np.dot(wq, y.eval(k, xq) * (h(xq) - pih[k])))
                                  for k, (xq, wq) in enumerate(quad)])
        else:
            projected = np.empty(K + 1)
            for k in range(K + 1):
                xk = ensemble.states[:, k]
                vals = y.eval(k, xk) * (np.asarray(h(xk), dtype=float) - pih[k])
                projected[k] = float(np.dot(w[:, k], vals) / wsum[k])
        change = float(np.max(np.abs(-projected - u)))
        u = -projected
        if change < tol:
            break
    else:
        raise AssertionError("reference iteration did not converge")
    mu = prior_expectation_of_initial_slice(model, y)
    return u, mu - float(np.dot(u[:-1], np.asarray(obs.dZ, dtype=float).reshape(-1)))


def lg_control_map(model, Sigma, grid, u):
    """One application of the linear-Gaussian control map: the trapezoidal
    sourced sweep with u, then u_k = -H^T Sigma_k ybar_k."""
    dt, K, H = grid.dt, grid.n_steps, model.H
    ident = np.eye(model.n_state)
    left_inv = np.linalg.inv(ident - 0.5 * dt * model.A)
    right = ident + 0.5 * dt * model.A
    ybar = np.empty((K + 1, model.n_state))
    ybar[K] = model.f_bar
    for k in range(K - 1, -1, -1):
        ybar[k] = left_inv @ (right @ ybar[k + 1] + 0.5 * dt * (H @ (u[k] + u[k + 1])))
    return -np.einsum("ji,kjl,kl->ki", H, Sigma, ybar), ybar


def reference_lg_fixed_point(model, Sigma, grid, tol=1e-6, max_iter=50):
    """The linear-Gaussian control iteration: u <- lg_control_map(u) from u = 0."""
    u = np.zeros((grid.n_steps + 1, model.n_obs))
    for _ in range(max_iter):
        u_new, _ = lg_control_map(model, Sigma, grid, u)
        change = float(np.max(np.abs(u_new - u)))
        u = u_new
        if change < tol:
            return u
    raise AssertionError("reference iteration did not converge")


def rel_diff(a, b) -> float:
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


def check_scalar_fixed_point(model, obs, sg, report, u_ref, estimate_ref, **source):
    """The direct control is the report's, one more sourced sweep reproduces
    its y, it is within tol of the reference iteration, and a tol at the
    achieved residual raises."""
    grid = obs.grid
    u, y, _ = _scalar_fixed_point(model, grid, sg, tol=1e-6, **source)
    h = np.asarray(model.obs_fn(sg.points()), dtype=float)
    y_again = solve_backward_with_source(model, sg, grid, running_cost=lambda k, xs, a: u[k] * h)
    assert report.n_iterations == 1
    assert same_bits(report.control_path, u)
    assert rel_diff(y_again.values, y.values) <= 1e-12
    assert np.max(np.abs(u - u_ref)) < 1e-6
    assert abs(report.point_estimate - estimate_ref) < 1e-6
    # the residual is rounding: far below 1e-12, and never below tol = 0
    _scalar_fixed_point(model, grid, sg, tol=1e-12, **source)
    with pytest.raises(FixedPointNotConverged, match="under one more sweep"):
        _scalar_fixed_point(model, grid, sg, tol=0.0, **source)


def zero_denominator_interp_matrix(model, sg, grid, k):
    """A wrapper of interp_matrix whose row k makes 1 + dt P[k] @ (S h)
    exactly zero, S = (I - dt L)^{-1}."""
    xs = sg.points()
    solve, _ = _factored(np.asarray(model.drift(xs), dtype=float), model.sigma, sg.dx, grid.dt)
    sh = solve(np.asarray(model.obs_fn(xs), dtype=float))
    for j in np.argsort(-np.abs(sh))[:5]:
        v = -1.0 / (grid.dt * sh[j])
        for v in [v, *np.nextafter(v, [np.inf, -np.inf]),
                  *np.nextafter(np.nextafter(v, [np.inf, -np.inf]), [np.inf, -np.inf])]:
            if 1.0 + grid.dt * (v * sh[j]) == 0.0:
                row = np.zeros(sg.n_points)
                row[j] = v

                def wrapper(*args):
                    P = interp_matrix(*args)
                    P[k] = row
                    return P
                return wrapper
    raise AssertionError("no exactly zero denominator near -1 / (dt S h)")


def per_step_fixed_point(model, grid, space_grid, ensemble, pi_source):
    """Estimator III's one-sweep fixed point as its own reverse-time loop, with
    scipy's solve_banded of I - dt L in place of the factored solve: the control
    path and the values that `_scalar_fixed_point` must give bit for bit."""
    K, dt = grid.n_steps, grid.dt
    if pi_source is not None:
        x = np.array([gaussian_quadrature(m, v)[0] for m, v in
                      zip(pi_source.mean[: K + 1, 0], pi_source.covariance[: K + 1, 0, 0])])
        w = np.broadcast_to(gaussian_quadrature(0.0, 1.0)[1], x.shape)
    else:
        x = ensemble.states.T
        lw = ensemble.log_weights("innovation")
        w = np.exp(lw - lw.max(axis=0))
        w = (w / w.sum(axis=0)).T
    hx = np.asarray(model.obs_fn(x), dtype=float)
    P = interp_matrix(space_grid, x, w * (hx - np.einsum("ki,ki->k", w, hx)[:, None]))
    xs = space_grid.points()
    sub, diag, sup, _ = _generator_bands(np.asarray(model.drift(xs), dtype=float),
                                         model.sigma, space_grid.dx)
    ab = _implicit_ab(sub, diag, sup, dt)
    Sh = solve_banded((1, 1), ab, np.asarray(model.obs_fn(xs), dtype=float))
    denominators = 1.0 + dt * (P[:K] @ Sh)
    values = np.empty((K + 1, space_grid.n_points))
    values[K] = terminal_slice(model, space_grid)
    u = np.empty(K + 1)
    for k in range(K - 1, -1, -1):
        z = solve_banded((1, 1), ab, values[k + 1])
        u[k] = -np.dot(P[k], z) / denominators[k]
        values[k] = z + (dt * u[k]) * Sh
    u[K] = -np.dot(P[K], values[K])
    return u, values


@pytest.mark.parametrize("source", ["ensemble", "gaussian"])
def test_fixed_point_on_the_cli_jobs_grid_equals_the_per_step_loop(double_well, lg_benchmark,
                                                                   lg_scalar, source):
    grid, sg = TimeGrid(1.0, 500), SpaceGrid(-5.5, 5.5, 601)
    if source == "ensemble":
        model, pi_source = double_well, None
        obs = simulate_truth_and_obs(model, grid, seed=1)
        ensemble = simulate_innovation_ensemble(model, grid, obs, 300, seed=1)
    else:
        model, ensemble = lg_scalar, None
        pi_source = model_kalman(lg_benchmark, simulate_truth_and_obs(lg_benchmark, grid, seed=1))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CFLWarning)
        u, y, _ = _scalar_fixed_point(model, grid, sg, ensemble, pi_source, 1e-6)
    u_ref, values_ref = per_step_fixed_point(model, grid, sg, ensemble, pi_source)
    assert same_bits(u, u_ref)
    assert same_bits(y.values, values_ref)


@pytest.mark.parametrize("source", ["ensemble", "gaussian"])
def test_a_fixed_point_factors_once_and_warns_of_upwinding_once(monkeypatch, double_well,
                                                                lg_benchmark, lg_scalar,
                                                                source):
    grid, sg = TimeGrid(1.0, 60), SpaceGrid(-5.5, 5.5, 121)
    if source == "ensemble":
        model, pi_source = double_well, None
        obs = simulate_truth_and_obs(model, grid, seed=2)
        ensemble = simulate_innovation_ensemble(model, grid, obs, 100, seed=2)
    else:
        model, ensemble = lg_scalar, None
        pi_source = model_kalman(lg_benchmark, simulate_truth_and_obs(lg_benchmark, grid, seed=2))
    upwinds = []

    def counted(*args):
        solve, upwind = _factored(*args)
        upwinds.append(upwind)
        return solve, upwind

    for module in (estimators, pde_backward):
        monkeypatch.setattr(module, "_factored", counted)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        _scalar_fixed_point(model, grid, sg, ensemble, pi_source, 1e-6)
    assert len(upwinds) == 1
    assert sum(issubclass(w.category, CFLWarning) for w in caught) == int(upwinds[0])
    assert upwinds[0] == (source == "ensemble")  # the double well's drift upwinds here


@pytest.mark.parametrize("seed", [3, 17])
def test_fixed_point_with_an_ensemble_matches_the_reference_iteration(double_well, seed):
    grid, sg = TimeGrid(1.0, 60), SpaceGrid(-5.5, 5.5, 121)
    obs = simulate_truth_and_obs(double_well, grid, seed=seed)
    ens = simulate_innovation_ensemble(double_well, grid, obs, 300, seed=seed)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CFLWarning)
        report = estimate_pi_obs(double_well, obs, ensemble=ens, mode="fixed_point",
                                 space_grid=sg)
        u, estimate = reference_fixed_point(double_well, obs, sg, ensemble=ens)
        check_scalar_fixed_point(double_well, obs, sg, report, u, estimate,
                                 ensemble=ens, pi_source=None)


@pytest.mark.parametrize("n_paths, seed", [(100, 1), (100, 2), (100, 3),
                                           (300, 1), (300, 2), (300, 3)])
def test_fixed_point_on_the_cli_jobs_grid_matches_the_reference_iteration(double_well,
                                                                         n_paths, seed):
    grid, sg = TimeGrid(1.0, 500), SpaceGrid(-5.5, 5.5, 601)
    obs = simulate_truth_and_obs(double_well, grid, seed=seed)
    ens = simulate_innovation_ensemble(double_well, grid, obs, n_paths, seed=seed)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CFLWarning)
        u, y, _ = _scalar_fixed_point(double_well, grid, sg, ens, None, 1e-6)
        u_ref, _ = reference_fixed_point(double_well, obs, sg, ensemble=ens)
        h = np.asarray(double_well.obs_fn(sg.points()), dtype=float)
        y_again = solve_backward_with_source(double_well, sg, grid,
                                             running_cost=lambda k, xs, a: u[k] * h)
    assert np.max(np.abs(u - u_ref)) < 1e-6
    assert rel_diff(y_again.values, y.values) <= 1e-12


def test_fixed_point_with_a_gaussian_source_matches_the_reference_iteration(lg_benchmark,
                                                                            lg_scalar):
    grid, sg = TimeGrid(1.0, 80), SpaceGrid(-8.0, 8.0, 161)
    obs = simulate_truth_and_obs(lg_benchmark, grid, seed=9)
    state = model_kalman(lg_benchmark, obs)
    report = estimate_pi_obs(lg_scalar, obs, mode="fixed_point", pi_source=state,
                             space_grid=sg)
    u, estimate = reference_fixed_point(lg_scalar, obs, sg, pi_source=state)
    check_scalar_fixed_point(lg_scalar, obs, sg, report, u, estimate,
                             ensemble=None, pi_source=state)


def test_linear_gaussian_fixed_point_matches_the_reference_iteration(lg_benchmark):
    grid = TimeGrid(1.0, 200)
    obs = simulate_truth_and_obs(lg_benchmark, grid, seed=4)
    Sigma = model_riccati(lg_benchmark, grid)
    report = estimate_pi_obs(lg_benchmark, obs, mode="fixed_point", Sigma_path=Sigma)
    u, ybar = _lg_fixed_point(lg_benchmark, Sigma, grid, 1e-6)
    u_again, ybar_again = lg_control_map(lg_benchmark, Sigma, grid, u)
    assert report.n_iterations == 1
    assert same_bits(report.control_path, u)
    assert rel_diff(ybar_again, ybar) <= 1e-12
    assert np.max(np.abs(u - reference_lg_fixed_point(lg_benchmark, Sigma, grid))) < 1e-6
    residual = float(np.max(np.abs(u - u_again)))
    _lg_fixed_point(lg_benchmark, Sigma, grid, np.nextafter(residual, np.inf))
    with pytest.raises(FixedPointNotConverged):
        _lg_fixed_point(lg_benchmark, Sigma, grid, residual)


@pytest.mark.parametrize("source", ["ensemble", "gaussian"])
def test_scalar_fixed_point_with_a_zero_denominator_raises(monkeypatch, lg_benchmark,
                                                           lg_scalar, source):
    grid, sg = TimeGrid(1.0, 64), SpaceGrid(-8.0, 8.0, 161)
    obs = simulate_truth_and_obs(lg_benchmark, grid, seed=5)
    kwargs = ({"ensemble": simulate_innovation_ensemble(lg_scalar, grid, obs, 200, seed=5)}
              if source == "ensemble" else {"pi_source": model_kalman(lg_benchmark, obs)})
    monkeypatch.setattr(estimators, "interp_matrix",
                        zero_denominator_interp_matrix(lg_scalar, sg, grid, k=10))
    with pytest.raises(FixedPointNotConverged, match="denominator"):
        estimate_pi_obs(lg_scalar, obs, mode="fixed_point", space_grid=sg, **kwargs)


@given(n_points=st.integers(3, 401), x_min=st.floats(-1e3, 1e3),
       width=st.floats(1e-2, 1e3), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_interp_matrix_rows_are_the_interpolated_sums(n_points, x_min, width, seed):
    grid = SpaceGrid(x_min, x_min + width, n_points)
    rng = np.random.default_rng(seed)
    fp = rng.standard_normal(n_points)
    x = probe_points(grid, rng)[: 3 * n_points].reshape(3, -1)
    c = rng.standard_normal(x.shape)
    P = interp_matrix(grid, x, c)
    sums = np.array([np.dot(c[r], interp_uniform(grid, fp, x[r])) for r in range(3)])
    assert P.shape == (3, n_points)
    # theta is read off a node index, so it carries rounding of order n_points * eps
    bound = 4 * n_points * EPS * np.abs(c).sum(axis=1) * np.abs(fp).max()
    assert np.all(np.abs(P @ fp - sums) <= bound)


FOLD_BLOCK = estimators._FOLD_BLOCK


def reference_fold(model, y, ensemble, weight_kind, centered, driver):
    """The fold of estimators I, II and IV one time step per numpy call, as it was
    before it took blocks of steps; driver(k, h) gives the increments of step k."""
    lw = ensemble.log_weights(weight_kind)
    K = ensemble.grid.n_steps
    h_fn = model.obs_fn
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


@given(n_paths=st.one_of(
           st.sampled_from([2, FOLD_BLOCK // 2, FOLD_BLOCK // 2 + 1, FOLD_BLOCK - 1,
                            FOLD_BLOCK, FOLD_BLOCK + 1, FOLD_BLOCK + 3001]),
           st.integers(3, 3000)),
       n_steps=st.integers(1, 90), h=st.sampled_from(["linear", "cubic", "sine"]),
       path_major=st.booleans(), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_blocked_fold_equals_the_per_step_fold(n_paths, n_steps, h, path_major, seed):
    rows = max(1, FOLD_BLOCK // n_paths)
    assume(rows == 1 or n_steps % rows)  # a last block shorter than the others
    rng = np.random.default_rng(seed)
    grid, space = TimeGrid(1.0, n_steps), SpaceGrid(-3.0, 3.0, 121)
    dt = grid.dt
    model = make_scalar("linear", {"a": -1.0}, h=h, h_params={"c": 0.7})
    y = GridFunction.from_values(space, grid, rng.standard_normal((n_steps + 1, 121)))
    states = 1.5 * rng.standard_normal((n_steps + 1, n_paths))  # some beyond +-3
    lw = rng.standard_normal((n_steps + 1, n_paths))
    dZ, dI = np.sqrt(dt) * rng.standard_normal((2, n_steps))
    order = "C" if path_major else "K"
    ens = PathEnsemble(grid=grid, states=np.asarray(states.T, order=order),
                       log_weights_girsanov=np.asarray(lw.T, order=order),
                       pi_h_path=rng.standard_normal(n_steps), innovation_increments=dI)
    drivers = (
        (lambda k, h: dZ[k], lambda rows, h: dZ[rows, None]),
        (lambda k, h: dI[k], lambda rows, h: dI[rows, None]),
        (lambda k, h: dZ[k] - h * dt, lambda rows, h: dZ[rows, None] - h * dt),
    )
    outside = states[:-1]
    exits = np.count_nonzero((outside < -3.0) | (outside > 3.0)) / outside.size
    for centered in (False, True):
        for reference_driver, driver in drivers:
            acc, control = reference_fold(model, y, ens, "girsanov", centered,
                                          reference_driver)
            fold = estimators._weighted_fold(model, y, ens, "girsanov", centered, driver)
            assert same_bits(fold[0], acc) and same_bits(fold[1], control)
            assert fold[2] == exits


def reference_cost_per_path(model, estimator_id, ensemble, y, perturbation=None):
    """cost_functional_per_path one time step per numpy call, as it was before it
    walked blocks of steps (its constant-perturbation form)."""
    kind = "innovation" if estimator_id == "pi_innovation" else "girsanov"
    lw = ensemble.log_weights(kind)
    cost = np.zeros(ensemble.n_paths)
    for k in range(ensemble.grid.n_steps):
        xk = ensemble.states[:, k]
        w = np.exp(lw[:, k])
        q = w * model.sigma * y.eval_gradient(k, xk)
        total = q * q
        if perturbation is not None:
            total = total + np.square(float(perturbation))
        cost += total * ensemble.grid.dt
    return cost


def reference_variance_decay(model, y, ensemble, flavor):
    """variance_decay one time step per numpy call, as it was before it walked
    blocks of steps: (var_y, var_std_err, dirichlet_rhs, cumulative_rhs)."""
    centered = flavor == "pi"
    lw = ensemble.log_weights("innovation" if centered else "girsanov")
    K, n = ensemble.grid.n_steps, ensemble.n_paths
    pih = ensemble.pi_h_path
    var_y, var_se, rhs = np.empty(K + 1), np.empty(K + 1), np.empty(K + 1)
    for k in range(K + 1):
        xk = ensemble.states[:, k]
        w = np.exp(lw[:, k])
        ytil = w * y.eval(k, xk)
        centered_y = ytil - ytil.mean()
        var_y[k] = np.einsum("i,i->", centered_y, centered_y) / (n - 1)
        m4 = np.mean(centered_y**4)
        var_se[k] = math.sqrt(max(m4 - var_y[k] ** 2, 0.0) / n)
        q = w * y.eval_gradient(k, xk)
        coeff = np.asarray(model.obs_fn(xk), dtype=float)
        if centered:
            coeff = coeff - (pih[k] if k < K else pih[K - 1])
        v = ytil * coeff
        v_centered = v - v.mean()
        rhs[k] = model.sigma**2 * np.mean(q * q) + np.mean(v_centered * v_centered)
    cumulative = np.concatenate([[0.0], np.cumsum(rhs[:-1])]) * ensemble.grid.dt
    return var_y, var_se, rhs, cumulative


def ulps_apart(a, b) -> int:
    return int(np.abs(np.asarray(a, dtype=float).view(np.int64)
                      - np.asarray(b, dtype=float).view(np.int64)).max())


@pytest.mark.parametrize("n_paths", [2, 500, FOLD_BLOCK // 2 - 1, FOLD_BLOCK // 2,
                                     FOLD_BLOCK // 2 + 1])
@pytest.mark.parametrize("path_major", [False, True])
def test_blocked_cost_and_variance_equal_the_per_step_loops(n_paths, path_major):
    # K + 1 = 51 rows: every N leaves a last block shorter than the others, and
    # N = 8 193 walks one step (a 1-D block) at a time
    rng = np.random.default_rng(n_paths)
    n_steps = 50
    grid, space = TimeGrid(1.0, n_steps), SpaceGrid(-3.0, 3.0, 121)
    model = make_scalar("linear", {"a": -1.0}, sigma=0.7, h="cubic", h_params={"c": 0.7})
    y = GridFunction.from_values(space, grid, rng.standard_normal((n_steps + 1, 121)))
    states = 1.5 * rng.standard_normal((n_steps + 1, n_paths))  # some beyond +-3
    lw_g, lw_i = rng.standard_normal((2, n_steps + 1, n_paths))
    order = "C" if path_major else "K"
    ens = PathEnsemble(grid=grid, states=np.asarray(states.T, order=order),
                       log_weights_girsanov=np.asarray(lw_g.T, order=order),
                       log_weights_innovation=np.asarray(lw_i.T, order=order),
                       pi_h_path=rng.standard_normal(n_steps))
    for estimator_id in ("sigma_obs", "pi_innovation"):
        for eps in (None, 0.3):
            extra = () if eps is None else (eps,)
            assert same_bits(cost_functional_per_path(model, estimator_id, ens, y, *extra),
                             reference_cost_per_path(model, estimator_id, ens, y, eps))
    for flavor in ("sigma", "pi"):
        report = variance_decay(model, y, ens, flavor)
        var_y, var_se, rhs, cumulative = reference_variance_decay(model, y, ens, flavor)
        assert same_bits(report.var_y, var_y), flavor
        assert same_bits(report.dirichlet_rhs, rhs), flavor
        assert same_bits(report.cumulative_rhs, cumulative), flavor
        # the reference squares a numpy scalar, which may round apart from the
        # array square by one unit in the last place
        assert ulps_apart(report.var_std_err, var_se) <= 1, flavor
