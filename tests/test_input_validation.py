"""Seeds and stream keys, ESS floors, path counts, non-finite priors, noise amplitudes,
control gains, registry parameters and linear-Gaussian matrices, singular prior
covariances, multi-channel zero policies, initial states past the overflow bound, diverging
truth paths and particle filters, a filter covariance growing where the observations do
not see, an HJB past its log transform's range, non-finite grid bounds, grid ends too far
apart, non-integer grid counts and resampling steps, and a control run whose costs are not
finite."""

import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from fbsde_filter import control, particle, sde_sim
from fbsde_filter.cli import main
from fbsde_filter.control import (
    PolicyField,
    certainty_equivalence_batch,
    certainty_equivalence_run,
)
from fbsde_filter.errors import NonPositiveSigma, SimulationDiverged
from fbsde_filter.model import (
    GaussianMixturePrior,
    LinearGaussianModelSpec,
    NamedFunction,
    SpaceGrid,
    TimeGrid,
)
from fbsde_filter.particle import (
    pi_estimate,
    resample_multinomial,
    run_particle_filter,
)
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


@pytest.mark.parametrize("n_paths", [1, 0, -3, 2.0, True, np.float64(50.0), np.True_, "50"])
def test_a_path_count_that_is_not_an_integer_of_at_least_two_is_rejected(monkeypatch, n_paths):
    model = make_scalar("linear", {"a": -1.0}, f="quadratic", control_gain=1.0)
    grid = TimeGrid(1.0, 10)
    obs = simulate_truth_and_obs(model, grid, seed=1)

    def no_draws(*args, **kwargs):
        raise AssertionError("noise drawn before the path count was checked")

    for module in (sde_sim, particle, control):  # every route to the noise streams
        for name in ("path_generator", "_ensemble_noise"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, no_draws)
    calls = [
        lambda: simulate_girsanov_ensemble(model, grid, obs, n_paths, 1),
        lambda: simulate_innovation_ensemble(model, grid, obs, n_paths, 1),
        lambda: run_particle_filter(model, grid, obs, n_paths, 1),
        lambda: certainty_equivalence_run(model, PolicyField.zero(grid), grid, 1,
                                          filter_particles=n_paths),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=r"^n_paths must be an integer >= 2"):
            call()


def test_path_counts_take_numpy_integers():
    model = make_scalar("linear", {"a": -1.0}, f="quadratic", control_gain=1.0)
    grid = TimeGrid(1.0, 10)
    obs = simulate_truth_and_obs(model, grid, seed=1)
    for n in (2, np.int64(2), np.int32(50)):
        assert simulate_girsanov_ensemble(model, grid, obs, n, 1).n_paths == n
        assert simulate_innovation_ensemble(model, grid, obs, n, 1).n_paths == n
        assert run_particle_filter(model, grid, obs, n, 1).ess.shape == (11,)
        certainty_equivalence_run(model, PolicyField.zero(grid), grid, 1, filter_particles=n)


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


_EXPLODING_2D = """
[model]
a = 60,0;0,60
h = 1;0.4
sigma = 0.8
m0 = 0,0
sigma0 = 1,0;0,1
f_bar = 1,0

[grid]
t_end = 20
n_steps = 2000
"""


def test_an_n_dimensional_truth_path_is_stopped_at_the_step_it_overflows():
    model = LinearGaussianModelSpec(A=60.0 * np.eye(2), H=[[1.0], [0.4]], sigma=0.8,
                                    m0=[0.0, 0.0], Sigma0=np.eye(2), f_bar=[1.0, 0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(SimulationDiverged, match=r"^state exceeded 1e\+08 at step \d+$"):
            simulate_truth_and_obs(model, TimeGrid(20.0, 2000), seed=1)


def test_cli_simulate_reports_an_overflowing_n_dimensional_state(tmp_path, capsys):
    cfg = tmp_path / "model.ini"
    cfg.write_text(_EXPLODING_2D)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(["simulate", "--config", str(cfg), "--seed", "1", "--out", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: state exceeded 1e+08 at step ") and "Traceback" not in err


# dX = 60 X dt + dB passes 1e8 within T = 1
_A60 = make_scalar("linear", {"a": 60.0}, h="linear", h_params={"a": 0.0}, f="quadratic")
_A60_GRID = TimeGrid(1.0, 200)
_OVERFLOW_AT_STEP = r"^(particle )?state exceeded 1e\+08 at step \d+$"


def test_an_overflowing_particle_filter_is_stopped_at_the_step_it_overflows():
    obs = simulate_truth_and_obs(make_scalar("linear", {"a": -1.0}), _A60_GRID, seed=1)
    with pytest.raises(SimulationDiverged, match=_OVERFLOW_AT_STEP):
        run_particle_filter(_A60, _A60_GRID, obs, 500, seed=2)


def test_an_overflowing_particle_control_run_is_stopped_at_the_step_it_overflows():
    with pytest.raises(SimulationDiverged, match=_OVERFLOW_AT_STEP):
        certainty_equivalence_run(_A60, PolicyField.zero(_A60_GRID), _A60_GRID, seed=3,
                                  filter_particles=200)


@pytest.mark.parametrize("A", [[[60.0]], [[60.0, 0.3], [0.2, -0.5]]], ids=["n1", "n2"])
def test_an_overflowing_kalman_control_batch_is_stopped_at_the_step_it_overflows(A):
    n = len(A)
    model = LinearGaussianModelSpec(A=A, H=[[1.0], [0.4]][:n], sigma=0.8, m0=np.zeros(n),
                                    Sigma0=np.eye(n), f_bar=np.eye(n)[0])
    with pytest.raises(SimulationDiverged, match=_OVERFLOW_AT_STEP):
        certainty_equivalence_batch(model, PolicyField.zero(_A60_GRID), _A60_GRID, [1, 2],
                                    np.eye(n))


def test_cli_control_reports_an_overflowing_closed_loop(tmp_path, capsys):
    cfg = tmp_path / "model.ini"
    cfg.write_text("[model]\ndrift = linear\na = 60\nsigma = 0.5\nh = linear\n"
                   "h_params = a=0\nf = quadratic\n"
                   "[grid]\nt_end = 1\nn_steps = 200\nx_min = -5.5\nx_max = 5.5\n"
                   "n_points = 61\n"
                   "[control]\nmode = certainty_equivalence\nn_runs = 2\n"
                   "filter_particles = 200\n")
    code = main(["control", "--config", str(cfg), "--seed", "3", "--out", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert "state exceeded 1e+08 at step " in err


SRC = Path(__file__).resolve().parents[1] / "src"


def run_python(args, timeout: float = 60.0,
               warnings_filter: str | None = "error::RuntimeWarning") -> subprocess.CompletedProcess:
    """python3 args in a fresh interpreter on this checkout, with a numpy
    RuntimeWarning as an error (`warnings_filter`; None sets no filter); a hang
    fails at the timeout."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC)] + [
        p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    env.pop("PYTHONWARNINGS", None)
    if warnings_filter is not None:
        env["PYTHONWARNINGS"] = warnings_filter
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=timeout)


# dSigma/dt = A^T Sigma + Sigma A + sigma^2 I - Sigma H H^T Sigma with A = 60 I: the
# direction orthogonal to H grows as exp(120 t), unseen by the observations
_UNSEEN_GROWTH = """
[model]
a = 60,0;0,60
h = 1;0.4
g = 1,0;0,1
sigma = 0.8
m0 = 0,0
sigma0 = 1,0;0,1
f_bar = 1,0

[grid]
t_end = 1
n_steps = 200

[control]
mode = certainty_equivalence
n_runs = 2
"""


def test_a_filter_covariance_growing_where_h_does_not_see_raises_a_riccati_blowup():
    out = run_python(["-c", "import numpy as np\n"
                      "from fbsde_filter.errors import RiccatiBlowup\n"
                      "from fbsde_filter.kalman import riccati_filter\n"
                      "from fbsde_filter.model import TimeGrid\n"
                      "try:\n"
                      "    riccati_filter(60.0 * np.eye(2), [[1.0], [0.4]], 0.8, np.eye(2),\n"
                      "                   TimeGrid(1.0, 200))\n"
                      "except RiccatiBlowup as exc:\n"
                      "    print(exc)\n"])
    assert out.returncode == 0, out.stderr
    assert out.stdout == "covariance entry exceeded 1e+08\n"


def test_cli_control_reports_a_filter_covariance_growing_where_h_does_not_see(tmp_path):
    cfg = tmp_path / "model.ini"
    cfg.write_text(_UNSEEN_GROWTH)
    out = run_python(["-m", "fbsde_filter.cli", "control", "--config", str(cfg),
                      "--seed", "3", "--out", str(tmp_path)])
    assert out.returncode == 1
    assert out.stderr == "error: covariance entry exceeded 1e+08\n"


def test_cli_control_hjb_reports_a_span_past_the_log_transform_range(tmp_path, capsys):
    cfg = tmp_path / "model.ini"
    cfg.write_text("[model]\ndrift = double_well\nsigma = 0.14\nh = linear\n"
                   "f = quadratic\nf_params = weight=2\ncontrol_gain = 1\n"
                   "[grid]\nt_end = 1\nn_steps = 50\nx_min = -5.5\nx_max = 5.5\n"
                   "n_points = 111\n"
                   "[control]\nmode = hjb\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(["control", "--config", str(cfg), "--seed", "3", "--out", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: HJB log transform out of range: ") and "Traceback" not in err


@pytest.mark.parametrize("make", [
    lambda: TimeGrid(1.0, 2.5),
    lambda: TimeGrid(1.0, True),
    lambda: TimeGrid(1.0, np.float64(10.0)),
    lambda: SpaceGrid(0.0, 1.0, 10.5),
    lambda: SpaceGrid(0.0, 1.0, np.True_),
    lambda: SpaceGrid(0.0, 1.0, "11"),
], ids=["time_2.5", "time_bool", "time_float64", "space_10.5", "space_numpy_bool", "space_str"])
def test_grids_reject_a_count_that_is_not_an_integer(make):
    with pytest.raises(ValueError, match="must be an integer"):
        make()


def test_grids_take_numpy_integer_counts():
    assert TimeGrid(1.0, np.int64(4)).dt == 0.25
    assert SpaceGrid(0.0, 1.0, np.int32(5)).points().tolist() == [0.0, 0.25, 0.5, 0.75, 1.0]


@pytest.mark.parametrize("make", [
    lambda: TimeGrid(math.inf, 10),
    lambda: TimeGrid(math.nan, 10),
    lambda: SpaceGrid(-math.inf, 1.0, 11),
    lambda: SpaceGrid(0.0, math.inf, 11),
    lambda: SpaceGrid(math.nan, 1.0, 11),
])
def test_grids_reject_non_finite_bounds(make):
    with pytest.raises(ValueError, match="finite"):
        make()


@pytest.mark.parametrize("key, value, subcommand", [
    ("x_min", "-inf", "estimate"), ("x_max", "inf", "estimate"), ("t_end", "inf", "simulate"),
])
def test_cli_rejects_non_finite_grid_bounds(tmp_path, capsys, key, value, subcommand):
    grid = {"t_end": "1.0", "n_steps": "20", "x_min": "-8", "x_max": "8", "n_points": "41"}
    grid[key] = value
    cfg = tmp_path / "model.ini"
    cfg.write_text("[model]\ndrift = linear\na = -1\nsigma = 1\nh = linear\nf = linear\n"
                   "[grid]\n" + "".join(f"{k} = {v}\n" for k, v in grid.items())
                   + "[estimator]\nid = sigma_obs\nparticles = 50\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main([subcommand, "--config", str(cfg), "--seed", "1", "--out", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err and "finite" in err


@pytest.mark.parametrize("x_min, x_max", [(-1e160, 1e160), (-1e300, 1e300), (0.0, 1e-320)])
def test_a_space_grid_whose_squared_spacing_is_not_a_positive_float_is_rejected(x_min, x_max):
    with pytest.raises(ValueError, match=r"^grid spacing dx = .* dx \* dx = (inf|0)$"):
        SpaceGrid(x_min, x_max, 61)


# the sine's grid passes validate_on_grid, and its dx**2 overflowed a Python float in
# the implicit bands; the double well's cubic drift overflows on its nodes
@pytest.mark.parametrize("drift, x_max, message", [
    ("sine", "1e160", "^error: grid spacing dx = "),
    ("double_well", "1e150", "^error: drift evaluates to non-finite values on the grid$"),
])
def test_cli_estimate_on_far_grid_ends_exits_1(tmp_path, capsys, drift, x_max, message):
    cfg = tmp_path / "model.ini"
    cfg.write_text(f"[model]\ndrift = {drift}\nsigma = 0.5\nh = linear\nf = linear\n"
                   f"[grid]\nt_end = 1\nn_steps = 20\nx_min = -{x_max}\nx_max = {x_max}\n"
                   "n_points = 61\n[estimator]\nid = sigma_obs\nparticles = 20\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(["estimate", "--config", str(cfg), "--seed", "1", "--out", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert re.match(message, err.strip()) and "Traceback" not in err
    assert not (tmp_path / "estimate.csv").exists()


@pytest.mark.parametrize("name, params", [
    ("linear", {"a": math.nan}), ("cubic", {"c": math.inf}), ("sine", {"phase": -math.inf}),
])
def test_a_named_function_with_a_non_finite_parameter_is_rejected(name, params):
    key = next(iter(params))
    with pytest.raises(ValueError, match=f"^{name} parameter {key} must be finite, got "):
        NamedFunction(name, params)


@pytest.mark.parametrize("means, variances", [
    ((math.nan,), (1.0,)), ((math.inf,), (1.0,)), ((0.0, -math.inf), (1.0, 1.0)),
    ((0.0,), (math.nan,)), ((0.0,), (math.inf,)), ((0.0, 1.0), (1.0, math.nan)),
])
def test_a_prior_with_a_non_finite_mean_or_variance_is_rejected(means, variances):
    weights = (1.0 / len(means),) * len(means)
    with pytest.raises(ValueError, match="^prior (means|variances) must be .*finite"):
        GaussianMixturePrior(means, variances, weights)


@pytest.mark.parametrize("kwargs, error", [
    ({"sigma": math.inf}, NonPositiveSigma), ({"sigma": math.nan}, NonPositiveSigma),
    ({"control_gain": math.nan}, ValueError), ({"control_gain": math.inf}, ValueError),
    ({"control_gain": -math.inf}, ValueError),
])
def test_a_scalar_model_with_a_non_finite_sigma_or_control_gain_is_rejected(kwargs, error):
    with pytest.raises(error, match="finite"):
        make_scalar("double_well", **kwargs)


def _simulate_in_process(tmp_path, config):
    cfg = tmp_path / "model.ini"
    cfg.write_text(config)
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(["simulate", "--config", str(cfg), "--seed", "1", "--out", str(out)])
    return code, out


@pytest.mark.parametrize("line", [
    "prior_var = nan", "prior_var = inf", "prior_mean = nan", "prior_mean = inf",
    "sigma = inf", "control_gain = nan", "h_params = a=nan", "f_params = c=inf",
])
def test_cli_simulate_rejects_a_non_finite_model_value_and_writes_nothing(tmp_path, capsys,
                                                                         line):
    model = {"drift": "double_well", "sigma": "0.5", "h": "linear",
             "f": "cubic" if line.startswith("f_") else "linear"}
    key, value = line.split(" = ")
    model[key] = value
    code, out = _simulate_in_process(tmp_path, "[model]\n" + "".join(
        f"{k} = {v}\n" for k, v in model.items()) + "[grid]\nt_end = 1\nn_steps = 20\n")
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "finite" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("field, value", [
    ("A", [[math.nan, 0.2], [0.0, -0.5]]), ("H", [[1.0], [math.inf]]),
    ("G", [[1.0], [-math.inf]]), ("m0", [math.inf, -0.2]),
    ("Sigma0", [[1.0, 0.0], [0.0, math.inf]]), ("f_bar", [1.0, math.nan]),
])
def test_a_linear_gaussian_model_with_a_non_finite_entry_is_rejected(field, value):
    kwargs = dict(A=[[-1.0, 0.2], [0.0, -0.5]], H=[[1.0], [0.5]], G=None, sigma=0.5,
                  m0=[0.3, -0.2], Sigma0=np.eye(2), f_bar=[1.0, 0.0])
    kwargs[field] = value
    with pytest.raises(ValueError, match=f"^{field} must be finite$"):
        LinearGaussianModelSpec(**kwargs)


def test_cli_simulate_rejects_a_non_finite_matrix_entry_and_writes_nothing(tmp_path, capsys):
    code, out = _simulate_in_process(tmp_path, _EXPLODING_2D.replace("a = 60,0;0,60",
                                                                     "a = nan,0;0,-1"))
    assert code == 1
    err = capsys.readouterr().err
    assert err == "error: A must be finite\n"
    assert not out.exists()


# each initial state lies past +-1e8; the double well's cubic drift would overflow on it
_FAR = make_scalar("double_well", sigma=0.5, prior=(1e300, 1.0))
_FAR_LG2 = LinearGaussianModelSpec(A=-np.eye(2), H=[[1.0], [0.5]], sigma=1.0,
                                   m0=[0.0, -2e8], Sigma0=np.eye(2), f_bar=[1.0, 0.0])
_FAR_GRID = TimeGrid(1.0, 20)


@pytest.mark.parametrize("run, label", [
    (lambda: simulate_truth_and_obs(_FAR, _FAR_GRID, 1), "state"),
    (lambda: simulate_truth_and_obs(_FAR_LG2, _FAR_GRID, 1), "state"),
    (lambda: certainty_equivalence_batch(_FAR_LG2, PolicyField.zero(_FAR_GRID), _FAR_GRID,
                                         [1, 2], np.eye(2)), "state"),
    (lambda: simulate_girsanov_ensemble(_FAR, _FAR_GRID, None, 50, 1), "ensemble state"),
    (lambda: simulate_innovation_ensemble(_FAR, _FAR_GRID, None, 50, 1), "ensemble state"),
    (lambda: run_particle_filter(_FAR, _FAR_GRID, simulate_truth_and_obs(
        make_scalar("double_well", sigma=0.5), _FAR_GRID, 1), 50, 1), "particle state"),
], ids=["truth", "truth_2d", "kalman_control_batch", "girsanov", "innovation",
        "particle_filter"])
def test_an_initial_state_past_the_overflow_bound_is_stopped_at_step_0(run, label):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(SimulationDiverged, match=f"^{label} exceeded 1e\\+08 at step 0$"):
            run()


def test_a_particle_control_run_from_a_far_initial_state_is_stopped_at_step_0():
    # the truth's prior draw and the filter's are each checked before the first drift
    far = make_scalar("double_well", sigma=0.5, prior=(1e300, 1.0), control_gain=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(SimulationDiverged, match=r"state exceeded 1e\+08 at step 0$"):
            certainty_equivalence_run(far, PolicyField.zero(_FAR_GRID), _FAR_GRID, 1,
                                      filter_particles=50)


def test_cli_simulate_from_a_far_initial_state_exits_1_and_writes_nothing(tmp_path, capsys):
    code, out = _simulate_in_process(tmp_path, "[model]\ndrift = double_well\nsigma = 0.5\n"
                                     "h = linear\nf = linear\nprior_mean = 1e300\n"
                                     "[grid]\nt_end = 1\nn_steps = 20\n")
    assert code == 1
    err = capsys.readouterr().err
    assert err == "error: state exceeded 1e+08 at step 0\n"
    assert not (out / "obs.csv").exists()


@pytest.mark.parametrize("at_step", [11, 2.5, -1, True, np.float64(3.0)])
def test_resampling_takes_only_an_integer_step_on_the_grid(at_step):
    model = make_scalar("linear", {"a": -1.0})
    grid = TimeGrid(1.0, 10)
    ens = simulate_girsanov_ensemble(model, grid, simulate_truth_and_obs(model, grid, 1), 50, 1)
    with pytest.raises(ValueError, match="at_step"):
        resample_multinomial(ens, seed=1, at_step=at_step)
    for k in (0, np.int64(4), 10):  # the ends and a numpy integer stay allowed
        assert resample_multinomial(ens, seed=1, at_step=k).resample_steps == (k,)


# h = 1e200 x: the log-weight step c d - c^2 dt / 2 overflows at the first step of
# the Girsanov ensemble (estimate, variance) and of the particle control filter
_HUGE_H = """
[model]
drift = double_well
sigma = 0.5
h = linear
h_params = a=1e200
f = quadratic
control_gain = 1

[grid]
t_end = 1
n_steps = 20
x_min = -6
x_max = 6
n_points = 61

[control]
mode = certainty_equivalence
n_runs = 2
filter_particles = 50
"""


@pytest.mark.parametrize("action", ["error", "ignore"])
@pytest.mark.parametrize("args", [["estimate", "--estimator", "sigma_obs", "--particles", "50"],
                                  ["variance", "--estimator", "sigma_obs", "--particles", "50"],
                                  ["control"]], ids=["estimate", "variance", "control"])
def test_cli_runs_whose_log_weights_overflow_exit_1_naming_the_step(tmp_path, capsys,
                                                                    args, action):
    cfg = tmp_path / "model.ini"
    cfg.write_text(_HUGE_H)
    with warnings.catch_warnings():
        warnings.simplefilter(action, RuntimeWarning)
        code = main([*args, "--config", str(cfg), "--seed", "3", "--out", str(tmp_path / "out")])
    assert code == 1
    assert capsys.readouterr().err == "error: log-weights not finite at step 1\n"
    assert not list((tmp_path / "out").glob("*.csv"))
