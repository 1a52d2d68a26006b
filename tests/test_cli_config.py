"""The CLI config schema, typed settings ([model] included), --obs checks, ensemble sizes,
the estimator id, --mode and pi_h_source checks made before any work, the grid check of
control, variance on a Kalman pi[h] path, 2-state runs and the bytes of simulate's obs.csv."""

import csv
import hashlib
import io

import numpy as np
import pytest

from fbsde_filter import cli
from fbsde_filter.cli import EXIT_CONFIG, EXIT_ERROR, EXIT_OK, main
from fbsde_filter.estimators import variance_decay
from fbsde_filter.kalman import model_kalman
from fbsde_filter.model import (
    TimeGrid,
    build_model,
    build_space_grid,
    build_time_grid,
    parse_config,
)
from fbsde_filter.pde_backward import solve_backward_kolmogorov
from fbsde_filter.sde_sim import (
    ObservationRecord,
    compute_observation_error,
    simulate_innovation_ensemble,
    simulate_truth_and_obs,
)

OU = """
[model]
drift = linear
a = -1
sigma = 1
h = linear
f = linear

[grid]
t_end = 1.0
n_steps = 20
x_min = -8
x_max = 8
n_points = 81
"""

LG2 = """
[model]
kind = linear_gaussian
a = -1,0.2;0,-0.5
h = 1;0.5
g = 1;0
sigma = 0.5
m0 = 0.3,-0.2
sigma0 = 1,0;0,1
f_bar = 1,0

[grid]
t_end = 1.0
n_steps = 40

[control]
n_runs = 3
"""

DW = """
[model]
drift = double_well
sigma = 0.5
h = linear
f = quadratic
control_gain = 1

[grid]
t_end = 1.0
n_steps = 20
x_min = -5.5
x_max = 5.5
n_points = 61

[control]
mode = certainty_equivalence
n_runs = 1
"""


# the double well on a grid that leaves 13 % of the N(0, 4) prior outside
NARROW = DW.replace("control_gain = 1", "control_gain = 1\nprior_var = 4") \
    .replace("x_min = -5.5", "x_min = -3").replace("x_max = 5.5", "x_max = 3")


def run(tmp_path, config, *argv):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(config)
    return main([argv[0], "--config", str(cfg), "--seed", "5",
                 "--out", str(tmp_path / "out"), *argv[1:]])


@pytest.mark.parametrize("section, line", [
    ("estimator", "particels = 50"),
    ("control", "n_rnus = 3"),
    ("output", "dump_ensemble = yes"),
    ("control", "cost = quadratic"),
])
def test_unknown_key_in_a_fixed_section_exits_2(tmp_path, section, line):
    config = OU + f"\n[{section}]\n{line}\n"
    assert run(tmp_path, config, "estimate", "--estimator", "sigma_obs") == EXIT_CONFIG


def test_sweep_without_an_estimator_id_exits_2_without_traceback(tmp_path, capsys):
    assert run(tmp_path, OU, "sweep", "--particles-list", "10,20") == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error" in err and "Traceback" not in err


@pytest.mark.parametrize("line", ["particles = abc", "particles = 1", "ess_floor = x",
                                  "ess_floor = 1.5", "ess_floor = -0.1", "ess_floor = nan"])
def test_bad_estimator_value_exits_2(tmp_path, line):
    config = OU + f"\n[estimator]\nid = sigma_obs\n{line}\n"
    assert run(tmp_path, config, "estimate") == EXIT_CONFIG


def test_one_filter_particle_exits_2(tmp_path):
    assert run(tmp_path, DW + "filter_particles = 1\n", "control") == EXIT_CONFIG


@pytest.mark.parametrize("flags", [
    ("--particles", "0"), ("--particles", "1"), ("--particles", "abc"),
])
def test_ensemble_size_flags_below_two_exit_2(tmp_path, capsys, flags):
    with pytest.raises(SystemExit) as exc:
        run(tmp_path, OU, "estimate", "--estimator", "sigma_obs", *flags)
    assert exc.value.code == 2
    assert "Traceback" not in capsys.readouterr().err


def test_ensemble_sizes_are_the_library_path_count_check(tmp_path, capsys):
    assert run(tmp_path, OU + "\n[estimator]\nparticles = 1\n", "estimate",
               "--estimator", "sigma_obs") == EXIT_CONFIG
    assert "n_paths must be an integer >= 2, got 1" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        run(tmp_path, OU, "estimate", "--estimator", "sigma_obs", "--particles", "1")
    assert "n_paths must be an integer >= 2, got 1" in capsys.readouterr().err


@pytest.mark.parametrize("mode, code, message", [
    ("lg_closed_form", EXIT_ERROR, "error: lg_closed_form requires a linear-Gaussian model"),
    ("bogus", EXIT_ERROR, "error: unknown mode 'bogus'"),
    ("fixed_point", EXIT_OK, ""),
])
def test_scalar_pi_obs_runs_the_mode_it_is_given(tmp_path, capsys, mode, code, message):
    assert run(tmp_path, DW, "estimate", "--estimator", "pi_obs", "--particles", "50",
               "--mode", mode) == code
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize("estimator", ["sigma_obs", "sigma_obs_error", "pi_innovation"])
def test_mode_for_an_estimator_without_modes_exits_2(tmp_path, capsys, estimator):
    for sub, sizes in (("estimate", "--particles"), ("sweep", "--particles-list")):
        assert run(tmp_path, OU, sub, "--estimator", estimator, sizes, "50",
                   "--mode", "fixed_point") == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"config error: --mode does not apply to {estimator}" in err
    assert run(tmp_path, OU, "estimate", "--estimator", estimator, "--particles", "50") == EXIT_OK


@pytest.fixture
def no_work(monkeypatch):
    """The CLI's simulators, grid solves and control runs, patched to fail the test
    when called."""
    def refuse(*args, **kwargs):
        raise AssertionError("the run did work before its checks")
    for name in ("simulate_truth_and_obs", "simulate_girsanov_ensemble",
                 "simulate_innovation_ensemble", "solve_backward_kolmogorov",
                 "solve_feynman_kac", "hjb_policy", "certainty_equivalence_run"):
        monkeypatch.setattr(cli, name, refuse)


@pytest.mark.parametrize("argv", [
    ("simulate", "--estimator", "bogus", "--mode", "nonsense"),
    ("simulate", "--obs", "missing.npz"),
    ("control", "--estimator", "bogus", "--particles", "7"),
    ("control", "--obs", "missing.npz"),
    ("sweep", "--particles", "5"),  # not read as --particles-list
], ids=["simulate-estimator-mode", "simulate-obs", "control-estimator-particles",
        "control-obs", "sweep-particles"])
def test_a_flag_the_subcommand_does_not_read_exits_2(tmp_path, capsys, no_work, argv):
    config = OU + "\n[estimator]\nid = sigma_obs\n\n[control]\nmode = hjb\n"
    with pytest.raises(SystemExit) as exc:
        run(tmp_path, config, *argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(argv[1:])}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flags", [
    ("--estimator", "bogus"),
    ("--estimator", "pi_obs"),
    ("--estimator", "sigma_obs_error"),
    ("--estimator", "sigma_obs", "--mode", "bogus"),
    ("--estimator", "pi_innovation", "--mode", "fixed_point"),
])
def test_variance_takes_only_its_two_estimators_and_no_mode(tmp_path, capsys, no_work, flags):
    assert run(tmp_path, OU, "variance", "--particles", "20", *flags) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "Traceback" not in err
    assert not (tmp_path / "out" / "variance.csv").exists()


@pytest.mark.parametrize("sub, sizes", [("estimate", "--particles"),
                                        ("sweep", "--particles-list")])
def test_an_unknown_estimator_id_exits_2_before_the_grid_check(tmp_path, capsys, no_work,
                                                               sub, sizes):
    assert run(tmp_path, NARROW, sub, "--estimator", "bogus", sizes, "20") == EXIT_CONFIG
    assert "config error: unknown estimator id 'bogus'" in capsys.readouterr().err


@pytest.mark.parametrize("mode, message", [
    ("lg_closed_form", "error: lg_closed_form requires a linear-Gaussian model"),
    ("bogus", "error: unknown mode 'bogus'"),
])
@pytest.mark.parametrize("sub, sizes", [("estimate", "--particles"),
                                        ("sweep", "--particles-list")])
def test_a_bad_pi_obs_mode_exits_1_before_any_simulation(tmp_path, capsys, no_work,
                                                         sub, sizes, mode, message):
    assert run(tmp_path, NARROW, sub, "--estimator", "pi_obs", sizes, "20",
               "--mode", mode) == EXIT_ERROR
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


def test_scalar_certainty_equivalence_checks_the_model_on_the_grid(tmp_path, capsys, no_work):
    # as --mode hjb does
    assert run(tmp_path, NARROW, "control", "--mode", "certainty_equivalence") == EXIT_ERROR
    err = capsys.readouterr().err
    assert "error: prior mass outside [-3.0, 3.0]" in err and "Traceback" not in err


def test_particles_list_entry_below_two_exits_2(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run(tmp_path, OU, "sweep", "--estimator", "sigma_obs", "--particles-list", "100,1")
    assert exc.value.code == 2


def test_estimator_iv_matches_the_constant_h_closed_form(tmp_path):
    # h = c, f = 1: sigma_T[1] = exp(c Z_T - c^2 T / 2) on every path
    c = 0.7
    config = OU.replace("h = linear", f"h = constant\nh_params = c={c}") \
        .replace("f = linear", "f = constant\nf_params = c=1") \
        .replace("n_steps = 20", "n_steps = 500").replace("n_points = 81", "n_points = 201")
    code = run(tmp_path, config, "estimate", "--estimator", "sigma_obs_error",
               "--particles", "100")
    assert code == EXIT_OK
    with open(tmp_path / "out" / "estimate.csv", newline="") as fh:
        row = next(csv.DictReader(fh))
    obs = simulate_truth_and_obs(build_model(config), TimeGrid(1.0, 500), seed=5)
    target = float(np.exp(c * obs.Z[-1] - 0.5 * c * c))
    assert float(row["std_err"]) < 1e-10
    assert float(row["estimate"]) == pytest.approx(target, rel=5e-3)


# sha256 of the obs.csv each config and seed gave while the record stored Z and
# noise_cum beside dZ; the derived columns must keep every byte
@pytest.mark.parametrize("config, seed, digest", [
    (DW, 0, "4bc32070a73cc02d177ada5068025e1316e644627b7572baef38ef3a403eff0b"),
    (DW, 7, "9ccfdf9d273c1435b91eb146382344f9dd8f3529c9b43b15d1483df31596a355"),
    (OU, 0, "c675bc08e46450abcc48c54986bd08169b427da0a597cb035bcb2f04a94dc5f5"),
    (OU, 7, "f4edc89b2a636a567c4d04b74a8a2dcb06ba9f04d1529dc2bddd044eec5a20cd"),
    (LG2, 0, "f4451414fba82524ed708d9cfc2a58ffa8d7b6214d1ef24e066c34033f60f26e"),
    (LG2, 7, "6e9a2ae21e9a515c071a9f870881d6497b0d82ff1788b73e021a11b70b2e5c13"),
], ids=["double_well-0", "double_well-7", "linear-0", "linear-7", "two_state-0",
        "two_state-7"])
def test_simulate_writes_the_pinned_obs_csv(tmp_path, config, seed, digest):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(config)
    assert main(["simulate", "--config", str(cfg), "--seed", str(seed),
                 "--out", str(tmp_path / "out")]) == EXIT_OK
    assert hashlib.sha256((tmp_path / "out" / "obs.csv").read_bytes()).hexdigest() == digest


def test_two_state_obs_csv_rows_equal_the_npz_record(tmp_path):
    assert run(tmp_path, LG2, "simulate") == EXIT_OK
    with open(tmp_path / "out" / "obs.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "z", "dz", "x_truth_1", "x_truth_2", "noise_cum"]
    table = np.array(rows[1:], dtype=float)
    obs = ObservationRecord.from_npz(tmp_path / "out" / "obs.npz")
    expected = np.column_stack([obs.grid.times(), obs.Z, np.vstack([[0.0], obs.dZ]),
                                obs.X_truth,
                                compute_observation_error(build_model(LG2), obs)])
    assert np.array_equal(table, expected)


@pytest.mark.parametrize("mode", ["certainty_equivalence", "lqg_iteration"])
def test_two_state_control_reads_an_n_by_n_terminal_hessian(tmp_path, mode):
    config = LG2 + "terminal_hessian = 1,0;0,2\n"
    assert run(tmp_path, config, "control", "--mode", mode) == EXIT_OK
    assert run(tmp_path, LG2, "control", "--mode", mode) == EXIT_OK  # default I_2


def test_two_state_control_rejects_a_1x1_terminal_hessian(tmp_path):
    config = LG2 + "terminal_hessian = 1\n"
    assert run(tmp_path, config, "control", "--mode", "lqg_iteration") == EXIT_CONFIG


def _obs_exit(tmp_path, capsys, record, reason):
    """The exit code of CLI estimate --obs on `record`: a record, a dict of the
    arrays to save (one the record writer would refuse) or the bytes of the file;
    stderr must hold one error line with `reason` and no traceback."""
    if isinstance(record, bytes):
        (tmp_path / "rec.npz").write_bytes(record)
    elif isinstance(record, dict):
        np.savez_compressed(tmp_path / "rec.npz", **record)
    else:
        record.to_npz(tmp_path / "rec.npz")
    code = run(tmp_path, OU, "estimate", "--estimator", "pi_obs",
               "--obs", str(tmp_path / "rec.npz"))
    err = capsys.readouterr().err
    assert err.startswith("error:") and reason in err and "Traceback" not in err
    return code


def test_obs_record_on_another_grid_is_rejected(tmp_path, capsys):
    record = simulate_truth_and_obs(build_model(OU), TimeGrid(3.0, 7), seed=1)
    assert _obs_exit(tmp_path, capsys, record, "grid") == EXIT_ERROR


def test_obs_record_with_a_nan_increment_is_rejected(tmp_path, capsys):
    grid = TimeGrid(1.0, 20)
    obs = simulate_truth_and_obs(build_model(OU), grid, seed=1)
    dZ = obs.dZ.copy()
    dZ[3] = np.nan
    record = {"t_end": 1.0, "n_steps": 20, "Z": obs.Z, "dZ": dZ}
    assert _obs_exit(tmp_path, capsys, record, "non-finite") == EXIT_ERROR


def test_obs_record_without_dz_is_rejected(tmp_path, capsys):
    obs = simulate_truth_and_obs(build_model(OU), TimeGrid(1.0, 20), seed=1)
    record = {"t_end": 1.0, "n_steps": 20, "Z": obs.Z}  # was a KeyError traceback
    assert _obs_exit(tmp_path, capsys, record, "holds no 'dZ' array") == EXIT_ERROR


def _npy_bytes():
    buffer = io.BytesIO()
    np.save(buffer, np.zeros(21))
    return buffer.getvalue()


def _truncated_npz_bytes():
    buffer = io.BytesIO()
    np.savez_compressed(buffer, t_end=1.0, n_steps=20, Z=np.zeros(21), dZ=np.zeros(20))
    return buffer.getvalue()[:200]


# each was a traceback (TypeError, EOFError, BadZipFile, TypeError, IndexError)
@pytest.mark.parametrize("content, reason", [
    (_npy_bytes(), "is not an npz archive"),
    (b"", "is not an npz archive"),
    (_truncated_npz_bytes(), "is not an npz archive"),
    ({"t_end": np.ones(2), "n_steps": 20, "Z": np.zeros(21), "dZ": np.zeros(20)}, "size 1"),
], ids=["npy", "empty", "truncated", "t_end_vector"])
def test_a_malformed_obs_file_exits_1(tmp_path, capsys, content, reason):
    assert _obs_exit(tmp_path, capsys, content, reason) == EXIT_ERROR


def test_obs_record_with_another_channel_count_is_rejected(tmp_path, capsys):
    grid = TimeGrid(1.0, 20)
    record = ObservationRecord(grid, np.zeros((20, 2)))
    assert _obs_exit(tmp_path, capsys, record, "channels") == EXIT_ERROR


@pytest.mark.parametrize("config", [
    LG2.replace("n_runs = 3", "n_runs = 0"),  # was an IndexError traceback
    DW.replace("n_runs = 1", "n_runs = 0"),   # was mean_cost=nan and exit 0
], ids=["linear_gaussian", "scalar"])
def test_zero_control_runs_exit_2(tmp_path, capsys, config):
    assert run(tmp_path, config, "control", "--mode", "certainty_equivalence") == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "n_runs" in err and "Traceback" not in err


def test_misspelt_pi_h_source_exits_2(tmp_path, capsys):
    config = OU + "\n[estimator]\nid = pi_innovation\nparticles = 20\npi_h_source = kalmn\n"
    assert run(tmp_path, config, "estimate") == EXIT_CONFIG
    assert "pi_h_source" in capsys.readouterr().err
    assert run(tmp_path, config.replace("kalmn", "self"), "estimate") == EXIT_OK


@pytest.mark.parametrize("config, key", [
    (DW.replace("sigma = 0.5", "sigma = abc"), "sigma"),
    (DW.replace("control_gain = 1", "control_gain = 1\nprior_mean = 0..1"), "prior_mean"),
    (DW.replace("control_gain = 1", "control_gain = 1\nprior_var = one"), "prior_var"),
    (DW.replace("control_gain = 1", "control_gain = x1"), "control_gain"),
    (OU.replace("a = -1", "a = -1e"), "a"),
    (LG2.replace("a = -1,0.2;0,-0.5", "a = -1,0.2;0,-O.5"), "a"),
    (DW.replace("control_gain = 1", "control_gain = 1\nprior_means = -1,x\n"
                "prior_weights = 0.5,0.5"), "prior_means"),
], ids=["sigma", "prior_mean", "prior_var", "control_gain", "a",
        "a_matrix", "prior_means"])
def test_a_malformed_model_value_exits_2_naming_its_key(tmp_path, capsys, config, key):
    assert run(tmp_path, config, "simulate") == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: [model] {key} = ")
    assert "Traceback" not in err and not (tmp_path / "out").exists()


def test_variance_takes_pi_h_from_the_kalman_filter_when_asked(tmp_path):
    # in process: the variance decay of the Kalman-sourced innovation ensemble
    config = OU + "\n[estimator]\npi_h_source = kalman\n"
    assert run(tmp_path, config, "variance", "--estimator", "pi_innovation",
               "--particles", "50") == EXIT_OK
    written = (tmp_path / "out" / "variance.csv").read_bytes()
    model, parser = build_model(config), parse_config(config)
    tgrid, sgrid = build_time_grid(parser), build_space_grid(parser)
    obs = simulate_truth_and_obs(model, tgrid, seed=5)
    scalar = model.as_scalar()
    y = solve_backward_kolmogorov(scalar, sgrid, tgrid)
    source = (model_kalman(model, obs).mean @ model.H).reshape(-1)
    ens = simulate_innovation_ensemble(scalar, tgrid, obs, 50, 5, pi_h_source=source)
    variance_decay(scalar, y, ens, flavor="pi").to_csv(tmp_path / "expected.csv")
    assert written == (tmp_path / "expected.csv").read_bytes()
    assert run(tmp_path, config.replace("kalman", "self"), "variance", "--estimator",
               "pi_innovation", "--particles", "50") == EXIT_OK
    assert (tmp_path / "out" / "variance.csv").read_bytes() != written


@pytest.mark.parametrize("sub, sizes", [("estimate", "--particles"),
                                        ("sweep", "--particles-list"),
                                        ("variance", "--particles")])
def test_kalman_pi_h_on_a_scalar_model_exits_2_before_any_work(tmp_path, capsys, no_work,
                                                               sub, sizes):
    config = DW + "\n[estimator]\npi_h_source = kalman\n"
    assert run(tmp_path, config, sub, "--estimator", "pi_innovation", sizes, "20") == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == "config error: pi_h_source=kalman requires a linear-Gaussian model\n"
    assert list((tmp_path / "out").iterdir()) == []
