"""The uniform-grid interpolation, the re-keyed ensemble noise and the cubic
kernels equal the reference computations they replace."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fbsde_filter.control import PolicyField
from fbsde_filter.model import SpaceGrid, TimeGrid, registry_eval
from fbsde_filter.pde_backward import GridFunction, interp_uniform
from fbsde_filter.sde_sim import STREAM_GIRSANOV, _ensemble_noise, path_generator


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


@given(n_points=st.integers(3, 1001), x_min=st.floats(-1e3, 1e3),
       width=st.floats(1e-2, 1e3), scale=st.floats(1e-3, 1e3),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_interp_uniform_equals_np_interp_bitwise(n_points, x_min, width, scale, seed):
    grid = SpaceGrid(x_min, x_min + width, n_points)
    rng = np.random.default_rng(seed)
    fp = scale * rng.standard_normal(n_points)
    fp[rng.integers(0, n_points, 3)] = -0.0  # signed zeros at nodes must survive
    fp[rng.integers(0, n_points, 3)] = 0.0
    x = probe_points(grid, rng)
    reference = np.interp(x, np.linspace(grid.x_min, grid.x_max, n_points), fp)
    assert same_bits(interp_uniform(grid, fp, x), reference)
    assert same_bits(interp_uniform(grid, fp, x.reshape(3, -1)), reference.reshape(3, -1))
    one = interp_uniform(grid, fp, x[1])
    assert type(one) is np.float64 and same_bits(one, reference[1])


def test_points_are_the_cached_read_only_linspace():
    grid = SpaceGrid(-5.5, 5.5, 601)
    assert grid.points() is grid.points()
    assert same_bits(grid.points(), np.linspace(-5.5, 5.5, 601))
    with pytest.raises(ValueError):
        grid.points()[0] = 0.0


def test_grid_function_and_policy_field_evaluate_as_np_interp():
    sg, tg = SpaceGrid(-4.0, 4.0, 81), TimeGrid(1.0, 3)
    rng = np.random.default_rng(11)
    values = rng.standard_normal((4, 81))
    y = GridFunction.from_values(sg, tg, values)
    policy = PolicyField(time_grid=tg, provenance="hjb", values=values, space_grid=sg)
    x = probe_points(sg, rng)
    xs = np.linspace(-4.0, 4.0, 81)
    for k in range(4):
        assert same_bits(y.eval(k, x), np.interp(x, xs, values[k]))
        assert same_bits(y.eval_gradient(k, x), np.interp(x, xs, y.gradient[k]))
        assert same_bits(policy.policy_at(k, x), np.interp(x, xs, values[k]))


@pytest.mark.parametrize("with_obs_noise", [False, True])
def test_ensemble_noise_rows_equal_the_per_path_generators(with_obs_noise):
    seed, n_paths, n_steps = 2**40 + 7, 301, 25
    u0, z0, xi, eta = _ensemble_noise(seed, STREAM_GIRSANOV, n_paths, n_steps,
                                      with_obs_noise=with_obs_noise)
    assert (eta is not None) == with_obs_noise
    for i in (0, 1, n_paths // 2, n_paths - 1):
        gen = path_generator(seed, STREAM_GIRSANOV, i)
        assert same_bits(u0[i], gen.random())
        assert same_bits(z0[i], gen.standard_normal())
        assert same_bits(xi[i], gen.standard_normal(n_steps))
        if with_obs_noise:
            assert same_bits(eta[i], gen.standard_normal(n_steps))


@pytest.mark.parametrize("seed, stream, n_paths", [
    (-1, 1, 3), (2**64, 1, 3), (0, -1, 3), (0, 2**16, 3), (0, 1, 2**48 + 1),
])
def test_ensemble_noise_rejects_key_parts_outside_their_fields(seed, stream, n_paths):
    # checked before any array is allocated
    with pytest.raises(ValueError):
        _ensemble_noise(seed, stream, n_paths, 10)


def test_cubic_kernels_multiply_out_the_cube_within_one_ulp_of_the_power():
    x = np.random.default_rng(3).uniform(-6.0, 6.0, 10_000)
    cube = x * x * x
    assert np.all(np.abs(cube - x**3) <= np.spacing(np.abs(x**3)))
    assert same_bits(registry_eval("cubic", {"c": 0.3}, x), 0.3 * cube)
    assert same_bits(registry_eval("double_well", {}, x), x - cube)
    assert registry_eval("double_well", {}, 2.0) == -6.0
