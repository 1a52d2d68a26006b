"""Scenario runner: config parsing, seeded experiments, CSV emission.

Subcommands: simulate | estimate | variance | control | sweep.  They share
one run path, `main`: read the config file, parse it, build the model, create
the output directory, open the run manifest, run the subcommand's own work
`cmd_*(args, parser, model, manifest)` and write the manifest.  Config values,
[model] included, are read through `model.setting`.  estimate, sweep and
variance share one set-up, `_run_estimators`.  All randomness flows from
--seed; re-runs produce byte-identical data files.

Exit codes: 0 success; 1 a library error, an unreadable or malformed file or a
value the library rejects (an `error:` line on stderr), a non-finite result
included: the CSV and npz writers refuse NaN and +-inf, so it is not written;
2 a config error (a missing, unknown or malformed config value in any section,
or a combination the run cannot take) or an invalid flag; 3 an estimator needs
the truth path that an --obs record lacks.
"""

from __future__ import annotations

import argparse
import configparser
import datetime
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ConfigError, FbsdeFilterError, MissingTruthPath
from .estimators import (
    ESTIMATOR_IDS,
    EstimatorReport,
    check_pi_obs_mode,
    estimate_pi_innovation,
    estimate_pi_obs,
    estimate_sigma_obs,
    estimate_sigma_obs_error,
    variance_decay,
)
from .io import fmt, write_columns, write_csv
from .kalman import lq_control_riccati, model_kalman
from .model import (
    LinearGaussianModelSpec,
    NamedFunction,
    _parse_matrix,
    _parse_params,
    build_model,
    build_space_grid,
    build_time_grid,
    parse_config,
    scalar_view,
    setting,
)
from .control import (
    ControlRunReport,
    PolicyField,
    certainty_equivalence_batch,
    certainty_equivalence_run,
    control_reports_to_csv,
    hjb_policy,
    lqg_alternating_iteration,
)
from .pde_backward import GridFunction, solve_backward_kolmogorov, solve_feynman_kac
from .sde_sim import (
    ObservationRecord,
    check_ess_floor,
    check_n_paths,
    check_seed,
    simulate_girsanov_ensemble,
    simulate_innovation_ensemble,
    simulate_truth_and_obs,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_CONFIG = 2
EXIT_MISSING_TRUTH = 3


def config_hash(text: str) -> str:
    """Hash of the canonicalized config: stable under key/section reordering."""
    parser = parse_config(text)
    lines = []
    for section in sorted(parser.sections()):
        for key in sorted(parser[section]):
            value = " ".join(parser[section][key].split())
            lines.append(f"{section}.{key}={value}")
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


class Manifest:
    def __init__(self, subcommand: str, cfg_text: str, seed: int, out_dir: Path):
        self.data = {
            "subcommand": subcommand,
            "config_hash": config_hash(cfg_text),
            "seed": seed,
            "library_version": __version__,
            "started": datetime.datetime.now(datetime.timezone.utc).isoformat(),
            "outputs": [],
        }
        self.out_dir = out_dir

    def add(self, name: str) -> Path:
        path = self.out_dir / name
        self.data["outputs"].append(str(path))
        return path

    def write(self) -> None:
        self.data["finished"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
        with open(self.out_dir / "run_manifest.json", "w") as fh:
            json.dump(self.data, fh, indent=2, sort_keys=True)
            fh.write("\n")


def _int_at_least(minimum: int, what: str):
    """A converter from text to an integer of at least `minimum`."""
    def convert(text: str) -> int:
        n = int(text)
        if n < minimum:
            raise ValueError(f"{what} must be at least {minimum}, got {n}")
        return n
    return convert


def _ensemble_size(text: str) -> int:
    return check_n_paths(int(text))


def _pi_h_source(text: str) -> str:
    if text not in ("self", "kalman"):
        raise ValueError("must be 'self' or 'kalman'")
    return text


def _boolean(text: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[text.lower()]
    except KeyError:
        raise ValueError("not a boolean") from None


def _particles(args, parser) -> int:
    return args.particles or setting(parser, "estimator", "particles", _ensemble_size, 1000)


def _ess_floor(parser):
    return setting(parser, "estimator", "ess_floor", check_ess_floor, None)


def _write_obs_csv(path, obs: ObservationRecord) -> None:
    """One row per grid time; a record with several components gets one column
    per component (x_truth_1 .. x_truth_n, and likewise z, dz, noise_cum)."""
    columns = {"t": obs.grid.times()}
    dz = np.concatenate([np.zeros_like(obs.dZ[:1]), obs.dZ])
    for name, values in (("z", obs.Z), ("dz", dz), ("x_truth", obs.X_truth),
                         ("noise_cum", obs.noise_cum)):
        values = np.asarray(values, dtype=float).reshape(len(columns["t"]), -1).T
        columns.update((name if len(values) == 1 else f"{name}_{i + 1}", column)
                       for i, column in enumerate(values))
    write_columns(path, columns)


def _load_or_simulate_obs(args, model, grid) -> ObservationRecord:
    if args.obs:
        return ObservationRecord.from_npz(args.obs, grid, getattr(model, "n_obs", 1))
    return simulate_truth_and_obs(model, grid, args.seed)


def _estimator_id(args, parser, model, ids=ESTIMATOR_IDS) -> tuple[str, bool]:
    """The run's estimator id (--estimator, else [estimator] id) and whether it takes
    its pi[h] path from a Kalman-Bucy run, checked with --mode before any work: an
    id outside `ids`, --mode with any estimator but pi_obs, or pi_innovation with
    [estimator] pi_h_source = kalman on a model that is not linear-Gaussian is a
    ConfigError; a pi_obs mode that estimate_pi_obs does not run on `model` raises
    its ModeModelMismatch."""
    estimator_id = args.estimator or setting(parser, "estimator", "id")
    if estimator_id not in ids:
        raise ConfigError(f"unknown estimator id {estimator_id!r} for {args.subcommand} "
                          f"(expected one of {', '.join(ids)})")
    if args.mode is not None:
        if estimator_id != "pi_obs":
            raise ConfigError(f"--mode does not apply to {estimator_id}, which has no modes")
        check_pi_obs_mode(model, args.mode)
    kalman = estimator_id == "pi_innovation" and setting(
        parser, "estimator", "pi_h_source", _pi_h_source, "self") == "kalman"
    if kalman and not isinstance(model, LinearGaussianModelSpec):
        raise ConfigError("pi_h_source=kalman requires a linear-Gaussian model")
    return estimator_id, kalman


def _scalar_on_grid(model, parser):
    """The scalar view of `model` and the [grid] space grid, checked against each
    other by `validate_on_grid`."""
    scalar, sgrid = scalar_view(model), build_space_grid(parser)
    scalar.validate_on_grid(sgrid)
    return scalar, sgrid


def _run_estimators(args, parser, model, sizes, ids=ESTIMATOR_IDS, variance=False):
    """The estimator id, checked by `_estimator_id`, and one report per ensemble
    size in `sizes`, all on one observation record: the record is simulated or
    loaded, the model checked on the space grid and the backward solve of
    estimators I, II and IV made once for every size.  With variance=True a
    report is the `variance_decay` of the ensemble in place of the estimate."""
    estimator_id, kalman = _estimator_id(args, parser, model, ids)
    tgrid = build_time_grid(parser)
    obs = _load_or_simulate_obs(args, model, tgrid)
    if estimator_id == "pi_obs" and isinstance(model, LinearGaussianModelSpec):
        closed_form = estimate_pi_obs(model, obs, mode=args.mode or "lg_closed_form")
        return estimator_id, [closed_form for _ in sizes]
    scalar, sgrid = _scalar_on_grid(model, parser)
    ess_floor = _ess_floor(parser)
    if estimator_id == "sigma_obs_error":
        y = solve_feynman_kac(scalar, sgrid, tgrid, reaction="growth")
    elif estimator_id != "pi_obs":
        y = solve_backward_kolmogorov(scalar, sgrid, tgrid)
    source = (model_kalman(model, obs).mean @ model.H).reshape(-1) if kalman else "self"

    def report(n):
        if estimator_id.startswith("sigma_obs"):
            ens = simulate_girsanov_ensemble(scalar, tgrid, obs, n, args.seed,
                                             ess_floor=ess_floor)
        else:
            ens = simulate_innovation_ensemble(scalar, tgrid, obs, n, args.seed,
                                               pi_h_source=source, ess_floor=ess_floor)
        if variance:
            return variance_decay(scalar, y, ens,
                                  flavor="pi" if estimator_id == "pi_innovation" else "sigma")
        if estimator_id == "pi_obs":
            return estimate_pi_obs(scalar, obs, ensemble=ens, mode=args.mode or "fixed_point",
                                   space_grid=sgrid)
        estimate = {"sigma_obs": estimate_sigma_obs, "pi_innovation": estimate_pi_innovation,
                    "sigma_obs_error": estimate_sigma_obs_error}[estimator_id]
        return estimate(scalar, obs, y, ens)
    return estimator_id, [report(n) for n in sizes]


def _terminal_hessian(parser, n: int) -> np.ndarray:
    def convert(text):
        hessian = _parse_matrix(text)
        if hessian.shape != (n, n):
            raise ConfigError(f"terminal_hessian must be {n} x {n}, got "
                              f"{hessian.shape[0]} x {hessian.shape[1]}")
        return hessian
    return setting(parser, "control", "terminal_hessian", convert, np.eye(n))


def _terminal(parser) -> NamedFunction | None:
    params = setting(parser, "control", "terminal_params", _parse_params, {})
    return setting(parser, "control", "terminal", lambda name: NamedFunction(name, params),
                   None)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_simulate(args, parser, model, manifest) -> None:
    tgrid = build_time_grid(parser)
    obs = simulate_truth_and_obs(model, tgrid, args.seed)
    _write_obs_csv(manifest.add("obs.csv"), obs)
    obs.to_npz(manifest.add("obs.npz"))
    if setting(parser, "output", "dump_ensembles", _boolean, False):
        ens = simulate_girsanov_ensemble(scalar_view(model), tgrid, obs,
                                         _particles(args, parser), args.seed,
                                         ess_floor=_ess_floor(parser))
        ens.to_npz(manifest.add("ensemble.npz"))


def cmd_estimate(args, parser, model, manifest) -> None:
    estimator_id, (report,) = _run_estimators(args, parser, model, [_particles(args, parser)])
    write_csv(manifest.add("estimate.csv"), EstimatorReport.csv_header(),
              [report.csv_row()])
    print(f"{estimator_id}: estimate={fmt(report.point_estimate)} "
          f"std_err={fmt(report.mc_std_err)}")


def cmd_variance(args, parser, model, manifest) -> None:
    _, (report,) = _run_estimators(args, parser, model, [_particles(args, parser)],
                                   ("sigma_obs", "pi_innovation"), variance=True)
    report.to_csv(manifest.add("variance.csv"))


def cmd_control(args, parser, model, manifest) -> None:
    tgrid = build_time_grid(parser)
    mode = args.mode or setting(parser, "control", "mode")
    lg = isinstance(model, LinearGaussianModelSpec)
    if mode == "lqg_iteration":
        if not lg:
            raise ConfigError("lqg_iteration requires a linear-Gaussian model")
        hessian = _terminal_hessian(parser, model.n_state)
        obs = _load_or_simulate_obs(args, model, tgrid)
        result = lqg_alternating_iteration(model, tgrid, hessian, obs=obs)
        ric = lq_control_riccati(model.A, model.G, hessian, tgrid, sigma=model.sigma)
        gain_err = float(np.max(np.abs(result.gains - ric.gains)))
        rows = [(s + 1, change, "") for s, change in enumerate(result.convergence)]
        rows.append((len(result.convergence), result.convergence[-1], gain_err))
        write_csv(manifest.add("lqg_iteration.csv"),
                  ["sweep", "max_gain_change", "final_gain_error_vs_riccati"], rows)
        print(f"lqg_iteration: sweeps={result.n_sweeps} gain_error={fmt(gain_err)}")
    elif mode == "certainty_equivalence":
        n_runs = setting(parser, "control", "n_runs", _int_at_least(1, "n_runs"), 100)
        seeds = [args.seed + i for i in range(n_runs)]
        if lg:
            hessian = _terminal_hessian(parser, model.n_state)
            ric = lq_control_riccati(model.A, model.G, hessian, tgrid, sigma=model.sigma)
            policy = PolicyField.from_gains(tgrid, ric.gains)
            costs, _ = certainty_equivalence_batch(model, policy, tgrid, seeds, hessian)
            reports = [ControlRunReport(realized_cost=float(c), seed=s)
                       for s, c in zip(seeds, costs)]
        else:
            terminal = _terminal(parser)
            filter_particles = setting(parser, "control", "filter_particles",
                                       _ensemble_size, 1000)
            _, sgrid = _scalar_on_grid(model, parser)
            policy, _ = hjb_policy(model, sgrid, tgrid, terminal=terminal)
            reports = [certainty_equivalence_run(model, policy, tgrid, s,
                                                 terminal_cost=terminal,
                                                 filter_particles=filter_particles)
                       for s in seeds]
        control_reports_to_csv(manifest.add("control_runs.csv"), reports)
        mean_cost = float(np.mean([r.realized_cost for r in reports]))
        print(f"certainty_equivalence: runs={n_runs} mean_cost={fmt(mean_cost)}")
    elif mode == "hjb":
        scalar, sgrid = _scalar_on_grid(model, parser)
        policy, value = hjb_policy(scalar, sgrid, tgrid, terminal=_terminal(parser))
        GridFunction.from_values(sgrid, tgrid, policy.values).to_csv(manifest.add("policy.csv"))
        value.to_csv(manifest.add("value.csv"))
    else:
        raise ConfigError(f"unknown control mode {mode!r}")


def cmd_sweep(args, parser, model, manifest) -> None:
    _, reports = _run_estimators(args, parser, model, args.particles_list)
    rows = [report.csv_row() for report in reports]
    write_csv(manifest.add("sweep.csv"), EstimatorReport.csv_header(), rows)


# ---------------------------------------------------------------------------
# wiring
# ---------------------------------------------------------------------------

def _arg_type(convert):
    """An argparse type that reports the ValueError message of `convert`."""
    def parse(text: str):
        try:
            return convert(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return parse


def build_arg_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="fbsde-filter",
                                 description="Minimum-variance filtering estimators")
    sub = ap.add_subparsers(dest="subcommand", required=True)
    for name, fn in (("simulate", cmd_simulate), ("estimate", cmd_estimate),
                     ("variance", cmd_variance), ("control", cmd_control),
                     ("sweep", cmd_sweep)):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--seed", type=_arg_type(lambda t: check_seed(int(t))), default=0)
        p.add_argument("--particles", type=_arg_type(_ensemble_size), default=None)
        p.add_argument("--out", default=None)
        p.add_argument("--estimator", default=None)
        p.add_argument("--mode", default=None)
        p.add_argument("--obs", default=None,
                       help="load an observation record (.npz) instead of simulating")
        if name == "sweep":
            p.add_argument("--particles-list", default="100,1000,10000",
                           type=_arg_type(lambda t: [_ensemble_size(v) for v in t.split(",")]),
                           help="comma-separated ensemble sizes")
        p.set_defaults(fn=fn)
    return ap


def main(argv=None) -> int:
    args = build_arg_parser().parse_args(argv)
    try:
        cfg_text = Path(args.config).read_text()
        parser = parse_config(cfg_text)
        model = build_model(parser)
        out_dir = Path(args.out or setting(parser, "output", "dir", str, "."))
        out_dir.mkdir(parents=True, exist_ok=True)
        manifest = Manifest(args.subcommand, cfg_text, args.seed, out_dir)
        args.fn(args, parser, model, manifest)
        manifest.write()
        return EXIT_OK
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MissingTruthPath as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISSING_TRUTH
    except (FbsdeFilterError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
