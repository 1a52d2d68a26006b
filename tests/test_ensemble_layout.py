"""The forward ensemble is stored time-major behind its (N, K + 1) interface.

The simulators fill (K + 1, N) buffers and hand out their `.T` views, so the
per-step column states[:, k] is one contiguous row, and resampling keeps that
layout; every consumer must give the same numbers on a path-major (C-ordered)
copy of the same ensemble.
"""

import dataclasses

import numpy as np
import pytest

from fbsde_filter.control import PolicyField, separated_cost_estimate
from fbsde_filter.estimators import (
    cost_functional_per_path,
    estimate_pi_innovation,
    estimate_sigma_obs,
    estimate_sigma_obs_error,
    variance_decay,
)
from fbsde_filter.model import SpaceGrid, TimeGrid
from fbsde_filter.particle import pi_estimate, resample_multinomial, sigma_estimate
from fbsde_filter.pde_backward import solve_backward_kolmogorov, solve_feynman_kac
from fbsde_filter.sde_sim import (
    STREAM_GIRSANOV,
    STREAM_RESAMPLE,
    _ensemble_noise,
    normalized_weights,
    path_generator,
    resample_indices,
    simulate_girsanov_ensemble,
    simulate_innovation_ensemble,
    simulate_truth_and_obs,
)

from conftest import make_scalar

GRID = TimeGrid(1.0, 40)
SPACE = SpaceGrid(-6.0, 6.0, 241)
MODEL = make_scalar("double_well", sigma=0.5, f="quadratic", f_params={"weight": 1.0})
WEIGHT_FIELDS = ("log_weights_innovation", "log_weights_girsanov")


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def path_major(ensemble):
    """A copy of the ensemble whose arrays are C-ordered (N, K + 1)."""
    return dataclasses.replace(ensemble, states=np.ascontiguousarray(ensemble.states), **{
        name: np.ascontiguousarray(getattr(ensemble, name))
        for name in WEIGHT_FIELDS if getattr(ensemble, name) is not None})


@pytest.mark.parametrize("simulate", [simulate_girsanov_ensemble,
                                      simulate_innovation_ensemble])
@pytest.mark.parametrize("with_record", [True, False])
def test_ensemble_columns_and_noise_rows_are_contiguous(simulate, with_record):
    obs = simulate_truth_and_obs(MODEL, GRID, seed=3) if with_record else None
    ens = simulate(MODEL, GRID, obs, 70, seed=3)
    assert ens.states.shape == (70, GRID.n_steps + 1)
    assert ens.states.T.flags.c_contiguous
    assert ens.log_weights().T.flags.c_contiguous
    _, _, rows = _ensemble_noise(3, STREAM_GIRSANOV, 70, GRID.n_steps,
                                 with_obs_noise=not with_record)
    rows = list(rows)
    assert len(rows) == GRID.n_steps
    for row in rows:
        assert row.shape == ((70,) if with_record else (2, 70)) and row.flags.c_contiguous
    # resampling keeps the layout, and the values of whole-path reindexing
    k = GRID.n_steps // 2
    resampled = resample_multinomial(ens, seed=4, at_step=k)
    w, wsum, _ = normalized_weights(ens.log_weights()[:, k])
    idx = resample_indices(path_generator(4, STREAM_RESAMPLE, 0), w, wsum)
    assert resampled.states.T.flags.c_contiguous
    assert same_bits(resampled.states, ens.states[idx])
    for name in WEIGHT_FIELDS:
        lw = getattr(ens, name)
        if lw is not None:
            expected = lw[idx].copy()
            expected[:, k:] -= expected[:, k][:, None]
            assert getattr(resampled, name).T.flags.c_contiguous
            assert same_bits(getattr(resampled, name), expected)


def test_estimators_are_bitwise_the_same_on_a_path_major_copy():
    obs = simulate_truth_and_obs(MODEL, GRID, seed=5)
    girsanov = simulate_girsanov_ensemble(MODEL, GRID, obs, 150, seed=5)
    innovation = simulate_innovation_ensemble(MODEL, GRID, obs, 150, seed=6)
    y = solve_backward_kolmogorov(MODEL, SPACE, GRID)
    y_fk = solve_feynman_kac(MODEL, SPACE, GRID, reaction="growth")
    runs = (("sigma_obs", estimate_sigma_obs, y, girsanov),
            ("pi_innovation", estimate_pi_innovation, y, innovation),
            ("sigma_obs_error", estimate_sigma_obs_error, y_fk, girsanov))
    for name, estimate, y_solution, ens in runs:
        a, b = (estimate(MODEL, obs, y_solution, e) for e in (ens, path_major(ens)))
        for field in ("point_estimate", "mc_std_err", "y0_prior_term",
                      "stochastic_integral_term", "control_path"):
            assert same_bits(getattr(a, field), getattr(b, field)), (name, field)
    for estimator_id, ens in (("sigma_obs", girsanov), ("pi_innovation", innovation)):
        a, b = (cost_functional_per_path(MODEL, estimator_id, e, y, 0.3)
                for e in (ens, path_major(ens)))
        assert same_bits(a, b), estimator_id
    for flavor, ens in (("sigma", girsanov), ("pi", innovation)):
        a, b = (variance_decay(MODEL, y, e, flavor) for e in (ens, path_major(ens)))
        for field in ("var_y", "var_std_err", "dirichlet_rhs", "cumulative_rhs"):
            assert same_bits(getattr(a, field), getattr(b, field)), (flavor, field)
    policy = PolicyField.zero(GRID)
    a = separated_cost_estimate(MODEL, policy, obs, innovation, y)
    b = separated_cost_estimate(MODEL, policy, obs, path_major(innovation), y)
    assert a == b


def test_conditional_estimates_agree_on_a_path_major_copy():
    # their axis-0 sums run in another order on the other layout; g > 0 keeps
    # the sums free of cancellation
    positive = lambda x: 1.0 + x * x
    obs = simulate_truth_and_obs(MODEL, GRID, seed=7)
    girsanov = simulate_girsanov_ensemble(MODEL, GRID, obs, 150, seed=7)
    innovation = simulate_innovation_ensemble(MODEL, GRID, obs, 150, seed=7)
    runs = [(sigma_estimate, girsanov, {}), (pi_estimate, innovation, {}),
            (pi_estimate, innovation, {"normalization": "external",
                                       "normalizer": np.full(GRID.n_steps + 1, 2.0)})]
    for estimate, ens, kwargs in runs:
        a = estimate(ens, positive, **kwargs)
        b = estimate(path_major(ens), positive, **kwargs)
        for field in ("values", "std_err", "ess"):
            np.testing.assert_allclose(getattr(a, field), getattr(b, field),
                                       rtol=1e-13, atol=0.0)
