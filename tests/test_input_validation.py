"""Seeds and stream keys, ESS floors, singular prior covariances and multi-channel
zero policies."""

import numpy as np
import pytest

from fbsde_filter.cli import main
from fbsde_filter.control import (
    PolicyField,
    certainty_equivalence_batch,
    certainty_equivalence_run,
)
from fbsde_filter.model import LinearGaussianModelSpec, TimeGrid
from fbsde_filter.particle import pi_estimate, run_particle_filter
from fbsde_filter.sde_sim import (
    STREAM_GIRSANOV,
    path_generator,
    simulate_girsanov_ensemble,
    simulate_innovation_ensemble,
    simulate_truth_and_obs,
)

from conftest import make_scalar


@pytest.mark.parametrize("seed, stream, path_index", [
    (-1, 1, 0), (2**64, 1, 0), (0, -1, 0), (0, 2**16, 0), (0, 1, -1), (0, 1, 2**48),
])
def test_path_generator_rejects_key_parts_outside_their_fields(seed, stream, path_index):
    with pytest.raises(ValueError):
        path_generator(seed, stream, path_index)


def test_path_index_cannot_alias_another_stream():
    # 2**49 | (1 << 48) would equal the key word of (stream 3, path 0)
    with pytest.raises(ValueError):
        path_generator(0, 1, 2**49)
    top = path_generator(2**64 - 1, 2**16 - 1, 2**48 - 1).random()
    assert top != path_generator(0, STREAM_GIRSANOV, 0).random()


def test_cli_rejects_a_negative_seed_with_exit_code_2(tmp_path, capsys):
    cfg = tmp_path / "model.ini"
    cfg.write_text("[model]\ndrift = linear\nsigma = 1\nh = linear\nf = linear\n"
                   "[grid]\nt_end = 1\nn_steps = 10\n")
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--config", str(cfg), "--seed", "-1", "--out", str(tmp_path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--seed" in err and "Traceback" not in err


@pytest.mark.parametrize("ess_floor", [1.5, -0.1, np.nan])
def test_an_ess_floor_outside_zero_to_one_is_rejected(ess_floor):
    model = make_scalar("linear", {"a": -1.0}, f="quadratic", control_gain=1.0)
    grid = TimeGrid(1.0, 10)
    obs = simulate_truth_and_obs(model, grid, seed=1)
    ens = simulate_innovation_ensemble(model, grid, obs, 50, seed=1)
    calls = [
        lambda: run_particle_filter(model, grid, obs, 50, 1, ess_floor=ess_floor),
        lambda: certainty_equivalence_run(model, PolicyField.zero(grid), grid, 1,
                                          filter_particles=50, ess_floor=ess_floor),
        lambda: simulate_girsanov_ensemble(model, grid, obs, 50, 1, ess_floor=ess_floor),
        lambda: simulate_innovation_ensemble(model, grid, obs, 50, 1, ess_floor=ess_floor),
        lambda: pi_estimate(ens, lambda x: x, ess_floor=ess_floor),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="ess_floor"):
            call()
    for floor in (0.0, 1.0):  # the ends of the range stay allowed
        run_particle_filter(model, grid, obs, 50, 1, ess_floor=floor)


def _lg2(Sigma0, G=None):
    return LinearGaussianModelSpec(A=[[-1.0, 0.2], [0.0, -0.5]], H=[[1.0], [0.5]],
                                   G=G, sigma=0.5, m0=[0.3, -0.2], Sigma0=Sigma0,
                                   f_bar=[1.0, 0.0])


def test_singular_prior_covariance_draws_on_its_range():
    grid = TimeGrid(1.0, 20)
    X0 = simulate_truth_and_obs(_lg2([[1.0, 1.0], [1.0, 1.0]]), grid, seed=3).X_truth[0]
    dev = X0 - np.array([0.3, -0.2])
    assert np.isfinite(X0).all() and dev[0] != 0.0
    assert dev[0] == pytest.approx(dev[1], rel=1e-12)
    X0 = simulate_truth_and_obs(_lg2(np.zeros((2, 2))), grid, seed=3).X_truth[0]
    assert X0.tolist() == [0.3, -0.2]


def test_zero_policy_with_two_control_channels_matches_zero_gains():
    model = _lg2([[1.0, 1.0], [1.0, 1.0]], G=np.eye(2))
    grid = TimeGrid(1.0, 50)
    zero, trace = certainty_equivalence_batch(model, PolicyField.zero(grid), grid,
                                              [1, 2, 3], np.eye(2))
    gains = PolicyField.from_gains(grid, np.zeros((51, 2, 2)))
    via_gains, _ = certainty_equivalence_batch(model, gains, grid, [1, 2, 3], np.eye(2))
    assert zero.shape == (3,) and trace.shape == (51, 2)
    assert np.isfinite(zero).all()
    assert np.array_equal(zero, via_gains)


def test_certainty_equivalence_batch_rejects_an_empty_seed_list():
    grid = TimeGrid(1.0, 10)
    with pytest.raises(ValueError, match="at least one seed"):
        certainty_equivalence_batch(_lg2(np.eye(2)), PolicyField.zero(grid), grid,
                                    [], np.eye(2))
