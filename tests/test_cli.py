import json

import numpy as np
import pytest

from fbsde_filter import cli
from fbsde_filter.cli import (
    EXIT_CONFIG,
    EXIT_MISSING_TRUTH,
    EXIT_OK,
    config_hash,
    main,
)
from fbsde_filter.model import TimeGrid
from fbsde_filter.sde_sim import ObservationRecord, simulate_truth_and_obs

LG_CONFIG = """
[model]
drift = linear
a = -1
sigma = 1
h = linear
f = linear
prior_mean = 0
prior_var = 1
control_gain = 1

[grid]
t_end = 1.0
n_steps = 200
x_min = -8
x_max = 8
n_points = 201

[estimator]
id = pi_innovation
particles = 300

[control]
mode = lqg_iteration
terminal_hessian = 1.0
n_runs = 20

[output]
dir = {out}
"""

DW_CONFIG = """
[model]
drift = double_well
sigma = 0.5
h = linear
f = quadratic
f_params = weight=1
prior_mean = 0
prior_var = 1
control_gain = 1

[grid]
t_end = 1.0
n_steps = 100
x_min = -5.5
x_max = 5.5
n_points = 221

[output]
dir = {out}
"""


def write_config(tmp_path, template=LG_CONFIG, name="cfg.ini"):
    out = tmp_path / "out"
    cfg = tmp_path / name
    cfg.write_text(template.format(out=out))
    return cfg, out


class TestSimulate:
    def test_writes_observation_csv(self, tmp_path):
        cfg, out = write_config(tmp_path)
        assert main(["simulate", "--config", str(cfg), "--seed", "3"]) == EXIT_OK
        lines = (out / "obs.csv").read_text().strip().split("\n")
        assert len(lines) == 202  # header + n_steps + 1 rows
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["seed"] == 3
        assert str(out / "obs.csv") in manifest["outputs"]

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg, out = write_config(tmp_path)
        main(["simulate", "--config", str(cfg), "--seed", "3"])
        first = (out / "obs.csv").read_bytes()
        main(["simulate", "--config", str(cfg), "--seed", "3"])
        assert (out / "obs.csv").read_bytes() == first

    def test_missing_model_section_fails(self, tmp_path):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[grid]\nt_end = 1\nn_steps = 10\n")
        assert main(["simulate", "--config", str(cfg), "--seed", "0"]) == EXIT_CONFIG

    def test_unknown_key_fails(self, tmp_path):
        cfg, out = write_config(tmp_path)
        cfg.write_text(cfg.read_text() + "\n[model]\n", )
        # duplicate section is a parse error
        assert main(["simulate", "--config", str(cfg), "--seed", "0"]) == EXIT_CONFIG


class TestEstimate:
    def test_report_row(self, tmp_path):
        cfg, out = write_config(tmp_path)
        assert main(["estimate", "--config", str(cfg), "--seed", "5"]) == EXIT_OK
        lines = (out / "estimate.csv").read_text().strip().split("\n")
        assert lines[0].startswith("estimator_id,estimate,std_err")
        fields = lines[1].split(",")
        assert fields[0] == "pi_innovation"
        assert np.isfinite(float(fields[1]))

    def test_all_estimators_run(self, tmp_path):
        cfg, out = write_config(tmp_path)
        for est in ("sigma_obs", "pi_obs", "sigma_obs_error"):
            code = main(["estimate", "--config", str(cfg), "--seed", "5",
                         "--estimator", est])
            assert code == EXIT_OK, est

    def test_missing_truth_exit_code(self, tmp_path, lg_scalar):
        cfg, out = write_config(tmp_path)
        grid = TimeGrid(1.0, 200)
        obs = simulate_truth_and_obs(lg_scalar, grid, seed=1)
        bare = ObservationRecord(grid=grid, dZ=obs.dZ)
        npz = tmp_path / "bare_obs.npz"
        bare.to_npz(npz)
        code = main(["estimate", "--config", str(cfg), "--seed", "1",
                     "--estimator", "sigma_obs_error", "--obs", str(npz)])
        assert code == EXIT_MISSING_TRUTH


class TestSweep:
    def test_std_err_decreases(self, tmp_path):
        cfg, out = write_config(tmp_path)
        code = main(["sweep", "--config", str(cfg), "--seed", "2",
                     "--particles-list", "100,1000,10000"])
        assert code == EXIT_OK
        rows = (out / "sweep.csv").read_text().strip().split("\n")[1:]
        ses = [float(r.split(",")[2]) for r in rows]
        assert len(ses) == 3
        assert ses[0] > ses[1] > ses[2]

    @pytest.mark.parametrize("template, estimator", [
        (LG_CONFIG, "sigma_obs"), (LG_CONFIG, "pi_innovation"), (LG_CONFIG, "sigma_obs_error"),
        (LG_CONFIG, "pi_obs"), (DW_CONFIG, "pi_obs")])
    def test_rows_equal_the_per_size_estimate_rows_on_one_record(self, tmp_path, monkeypatch,
                                                                 template, estimator):
        cfg, out = write_config(tmp_path, template=template)
        sizes = ["40", "90"]
        rows = []
        for n in sizes:
            assert main(["estimate", "--config", str(cfg), "--seed", "2", "--estimator",
                         estimator, "--particles", n]) == EXIT_OK
            rows.append((out / "estimate.csv").read_text().splitlines()[1])
        simulated = []

        def counting(*args, **kwargs):
            simulated.append(args)
            return simulate_truth_and_obs(*args, **kwargs)
        monkeypatch.setattr(cli, "simulate_truth_and_obs", counting)
        assert main(["sweep", "--config", str(cfg), "--seed", "2", "--estimator", estimator,
                     "--particles-list", ",".join(sizes)]) == EXIT_OK
        assert (out / "sweep.csv").read_text().splitlines()[1:] == rows
        assert len(simulated) == 1


class TestVariance:
    @pytest.mark.parametrize("estimator", ["sigma_obs", "pi_innovation"])
    def test_writes_the_variance_path_and_reruns_byte_identically(self, tmp_path, estimator):
        cfg, out = write_config(tmp_path)
        argv = ["variance", "--config", str(cfg), "--seed", "6", "--estimator", estimator]
        assert main(argv) == EXIT_OK
        first = (out / "variance.csv").read_bytes()
        lines = first.decode().strip().split("\n")
        assert lines[0] == "t,var,rhs,cum_rhs"
        assert len(lines) == 202  # header + n_steps + 1 rows
        assert np.isfinite([[float(v) for v in line.split(",")] for line in lines[1:]]).all()
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert str(out / "variance.csv") in manifest["outputs"]
        assert main(argv) == EXIT_OK
        assert (out / "variance.csv").read_bytes() == first

    def test_reads_the_estimator_id_of_the_config(self, tmp_path):
        cfg, out = write_config(tmp_path)  # [estimator] id = pi_innovation
        written = {}
        for name, flag in (("config", []), ("pi", ["--estimator", "pi_innovation"]),
                           ("sigma", ["--estimator", "sigma_obs"])):
            argv = ["variance", "--config", str(cfg), "--seed", "3",
                    "--out", str(tmp_path / name)] + flag
            assert main(argv) == EXIT_OK
            written[name] = (tmp_path / name / "variance.csv").read_bytes()
        assert written["config"] == written["pi"]
        assert written["config"] != written["sigma"]


class TestControl:
    def test_lqg_iteration(self, tmp_path):
        cfg, out = write_config(tmp_path)
        assert main(["control", "--config", str(cfg), "--seed", "4"]) == EXIT_OK
        rows = (out / "lqg_iteration.csv").read_text().strip().split("\n")
        final_err = float(rows[-1].split(",")[2])
        assert final_err < 1e-6

    def test_certainty_equivalence_table(self, tmp_path):
        cfg, out = write_config(tmp_path)
        code = main(["control", "--config", str(cfg), "--seed", "4",
                     "--mode", "certainty_equivalence"])
        assert code == EXIT_OK
        rows = (out / "control_runs.csv").read_text().strip().split("\n")
        assert rows[0] == "seed,realized_cost,separated_cost_estimate,mu_y0"
        assert len(rows) == 21
        costs = [float(r.split(",")[1]) for r in rows[1:]]
        assert all(c >= 0.0 for c in costs)

    @pytest.mark.parametrize("mode", ["certainty_equivalence", "lqg_iteration"])
    def test_stiff_terminal_hessian(self, tmp_path, mode):
        # Q_f dt = 5 (CE) and 1.5 (iteration): the backward solves substep near T
        hessian = "500" if mode == "certainty_equivalence" else "150"
        config = LG_CONFIG.replace("terminal_hessian = 1.0", f"terminal_hessian = {hessian}")
        cfg, out = write_config(tmp_path, config.replace("n_steps = 200", "n_steps = 100"))
        assert main(["control", "--config", str(cfg), "--seed", "4", "--mode", mode]) == EXIT_OK
        table = "control_runs.csv" if mode == "certainty_equivalence" else "lqg_iteration.csv"
        rows = (out / table).read_text().strip().split("\n")[1:]
        assert rows and all(np.isfinite(float(r.split(",")[1])) for r in rows)

    def test_hjb_policy_grid(self, tmp_path):
        cfg, out = write_config(tmp_path, template=DW_CONFIG, name="dw.ini")
        code = main(["control", "--config", str(cfg), "--seed", "4",
                     "--mode", "hjb"])
        assert code == EXIT_OK
        rows = (out / "policy.csv").read_text().strip().split("\n")
        assert len(rows) == 102  # header + n_steps + 1
        assert len(rows[0].split(",")) == 222
        assert (out / "value.csv").exists()

    def test_missing_mode_fails(self, tmp_path):
        cfg, out = write_config(tmp_path, template=DW_CONFIG, name="dw.ini")
        assert main(["control", "--config", str(cfg), "--seed", "4"]) == EXIT_CONFIG


class TestConfigHash:
    def test_stable_under_reordering(self):
        a = "[model]\ndrift = linear\nsigma = 1\nh = linear\nf = linear\n"
        b = "[model]\nf = linear\nh = linear\nsigma = 1\ndrift = linear\n"
        assert config_hash(a) == config_hash(b)

    def test_sensitive_to_values(self):
        a = "[model]\ndrift = linear\nsigma = 1\nh = linear\nf = linear\n"
        b = a.replace("sigma = 1", "sigma = 2")
        assert config_hash(a) != config_hash(b)
