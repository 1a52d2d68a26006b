"""Properties of the shared forward and backward kernels."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fbsde_filter.errors import FixedPointNotConverged, GridMismatch
from fbsde_filter.estimators import estimate_pi_obs, open_loop_dual_estimate
from fbsde_filter.kalman import kalman_bucy_mean, model_riccati, riccati_sweep
from fbsde_filter.model import GaussianMixturePrior, TimeGrid
from fbsde_filter.sde_sim import (
    STREAM_RESAMPLE,
    normalized_weights,
    path_generator,
    resample_indices,
    simulate_truth_and_obs,
)

# one step (N,) or one column per time (N, K + 1)
log_weight_arrays = arrays(np.float64,
                           st.tuples(st.integers(1, 200))
                           | st.tuples(st.integers(1, 200), st.integers(1, 6)),
                           elements=st.floats(-30.0, 30.0))


@given(log_weight_arrays, st.floats(-100.0, 100.0))
@settings(max_examples=60, deadline=None)
def test_ess_is_shift_invariant_and_between_one_and_n(lw, shift):
    ess = normalized_weights(lw)[2]
    n = lw.shape[0]
    assert np.all((1.0 - 1e-12 <= ess) & (ess <= n * (1.0 + 1e-12)))
    np.testing.assert_allclose(normalized_weights(lw + shift)[2], ess, rtol=1e-9)


@pytest.mark.parametrize("n_paths", [1, 7, 500, 20_001])
def test_normalized_weights_of_every_time_are_the_one_step_call_per_column(n_paths):
    rng = np.random.default_rng(n_paths)
    lw = (20.0 * rng.standard_normal((6, n_paths))).T  # time-major, as the ensembles
    w, wsum, ess = normalized_weights(lw)
    for k in range(lw.shape[1]):
        w_k, wsum_k, _ = normalized_weights(lw[:, k])
        assert w[:, k].tobytes() == w_k.tobytes()
        assert wsum[k] == wsum_k
    # the ESS path of the former two-dimensional kernel, kept as the reference
    assert ess.tobytes() == (wsum * wsum / np.einsum("ij,ij->j", w, w)).tobytes()


@given(arrays(np.float64, st.integers(1, 100), elements=st.floats(0.0, 1.0)),
       st.integers(0, 2**32))
@settings(max_examples=60, deadline=None)
def test_resampling_keeps_n_indices_and_skips_zero_weights(w, seed):
    w[np.argmax(w)] = 1.0  # at least one positive weight
    idx = resample_indices(path_generator(seed, STREAM_RESAMPLE, 0), w, w.sum())
    assert idx.shape == w.shape
    assert idx.min() >= 0 and idx.max() < w.shape[0]
    assert np.all(w[idx] > 0.0)


def test_normalized_weights_resample_only_positive_paths():
    lw = np.array([0.0, -np.inf, 1.0, -np.inf])
    w, wsum, ess = normalized_weights(lw)
    idx = resample_indices(path_generator(3, STREAM_RESAMPLE, 0), w, wsum)
    assert set(idx.tolist()) <= {0, 2}
    assert 1.0 <= ess <= 2.0


def test_prior_from_draws_matches_sample_bitwise():
    prior = GaussianMixturePrior((-1.0, 2.0), (0.3, 0.5), (0.4, 0.6))
    sampled = prior.sample(path_generator(5, 1, 7), 1000)
    gen = path_generator(5, 1, 7)
    drawn = prior.from_draws(gen.random(1000), gen.standard_normal(1000))
    assert sampled.tobytes() == drawn.tobytes()


@pytest.mark.parametrize("n_sub", [1, 3])
@pytest.mark.parametrize("linear_coeff", [False, True])
def test_riccati_sweep_is_fourth_order(linear_coeff, n_sub):
    # dy/dt = a(t) y with y(0) = 1: y(T) = exp(int_0^T a); a linear in t is read
    # exactly at the stage times, substeps or not, so the order is that of RK4.
    # A scale of (n_sub - 1/2) / (4 dt) forces n_sub substeps per step.
    a0, a1, T = 1.3, (0.8 if linear_coeff else 0.0), 2.0
    exact = math.exp(a0 * T + 0.5 * a1 * T * T)

    def error(n_steps):
        grid = TimeGrid(T, n_steps)
        scale = lambda y, _: (n_sub - 0.5) / (4.0 * grid.dt)
        if linear_coeff:
            path = riccati_sweep(lambda y, a: a * y, [[1.0]], grid, scale,
                                 coeffs=a0 + a1 * grid.times())
        else:
            path = riccati_sweep(lambda y, _: a0 * y, [[1.0]], grid, scale)
        return abs(path[-1, 0, 0] - exact)

    ratio = error(20) / error(40)
    assert 14.0 < ratio < 18.0


def test_kalman_mean_with_zero_gains_equals_the_plain_mean_bitwise(lg_benchmark):
    grid = TimeGrid(1.0, 200)
    obs = simulate_truth_and_obs(lg_benchmark, grid, seed=4)
    Sigma = model_riccati(lg_benchmark, grid)
    m0 = [0.5]
    plain = kalman_bucy_mean(lg_benchmark.A, lg_benchmark.H, Sigma, m0, obs)
    zero = kalman_bucy_mean(lg_benchmark.A, lg_benchmark.H, Sigma, m0, obs,
                            G=lg_benchmark.G, gains=np.zeros((201, 1, 1)))
    assert plain.mean.tobytes() == zero.mean.tobytes()
    assert plain.innovation.tobytes() == zero.innovation.tobytes()


def test_sigma_path_of_the_wrong_length_is_rejected(lg_benchmark):
    grid = TimeGrid(1.0, 100)
    obs = simulate_truth_and_obs(lg_benchmark, grid, seed=2)
    long = model_riccati(lg_benchmark, TimeGrid(2.0, 200))[:, 0, 0]
    m = lg_benchmark
    with pytest.raises(GridMismatch):
        open_loop_dual_estimate(m.A, m.H, long, m.f_bar, m.m0, obs.dZ, grid)
    with pytest.raises(GridMismatch):
        estimate_pi_obs(m, obs, mode="fixed_point", Sigma_path=long)


def test_fixed_point_with_a_singular_step_reports_non_convergence(lg_benchmark):
    # dt = 1/16, A = -1, H = 1: the step matrix (1 + dt/2) + (dt/2) Sigma_k is
    # exactly zero at Sigma_k = -33
    grid = TimeGrid(1.0, 16)
    obs = simulate_truth_and_obs(lg_benchmark, grid, seed=2)
    Sigma = model_riccati(lg_benchmark, grid)[:, 0, 0].copy()
    Sigma[5] = -33.0
    with pytest.raises(FixedPointNotConverged, match="singular"):
        estimate_pi_obs(lg_benchmark, obs, mode="fixed_point", Sigma_path=Sigma)
