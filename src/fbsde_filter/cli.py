"""Scenario runner: config parsing, seeded experiments, CSV emission.

Subcommands: simulate | estimate | variance | control | sweep.  All
randomness flows from --seed; re-runs produce byte-identical data files.
The FBSDE_LOG environment variable sets logging verbosity only and never
affects numerics.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import logging
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ConfigError, FbsdeFilterError, MissingTruthPath
from .estimators import (
    EstimatorReport,
    estimate_pi_innovation,
    estimate_pi_obs,
    estimate_sigma_obs,
    estimate_sigma_obs_error,
    variance_decay,
)
from .io import fmt, write_csv
from .kalman import lq_control_riccati, model_kalman
from .model import (
    LinearGaussianModelSpec,
    NamedFunction,
    _parse_params,
    build_model,
    build_space_grid,
    build_time_grid,
    parse_config,
    scalar_view,
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
from .pde_backward import solve_backward_kolmogorov, solve_feynman_kac
from .sde_sim import (
    ObservationRecord,
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

    def add(self, path: Path) -> Path:
        self.data["outputs"].append(str(path))
        return path

    def write(self) -> None:
        self.data["finished"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
        with open(self.out_dir / "run_manifest.json", "w") as fh:
            json.dump(self.data, fh, indent=2, sort_keys=True)
            fh.write("\n")


def _write_obs_csv(path, model, obs: ObservationRecord) -> None:
    times = obs.grid.times()
    K = obs.grid.n_steps
    header = ["t", "z", "dz", "x_truth", "noise_cum"]
    rows = []
    for k in range(K + 1):
        dz = 0.0 if k == 0 else float(np.asarray(obs.dZ).reshape(-1)[k - 1])
        rows.append((
            times[k],
            float(np.asarray(obs.Z).reshape(-1)[k]),
            dz,
            float(np.asarray(obs.X_truth).reshape(-1)[k]) if obs.X_truth is not None else "",
            float(np.asarray(obs.noise_cum).reshape(-1)[k]) if obs.noise_cum is not None else "",
        ))
    write_csv(path, header, rows)


def _load_or_simulate_obs(args, model, grid) -> ObservationRecord:
    if getattr(args, "obs", None):
        return ObservationRecord.from_npz(args.obs)
    return simulate_truth_and_obs(model, grid, args.seed)


def _estimator_settings(parser, args):
    particles = args.particles
    pi_h_source = "self"
    ess_floor = None
    if parser.has_section("estimator"):
        sec = parser["estimator"]
        if particles is None and "particles" in sec:
            particles = int(sec["particles"])
        pi_h_source = sec.get("pi_h_source", "self").strip()
        if "ess_floor" in sec:
            ess_floor = float(sec["ess_floor"])
    return (particles if particles is not None else 1000), pi_h_source, ess_floor


def _run_estimator(model, parser, args, estimator_id, particles, pi_h_source,
                   ess_floor) -> EstimatorReport:
    tgrid = build_time_grid(parser)
    obs = _load_or_simulate_obs(args, model, tgrid)
    if estimator_id == "pi_obs" and isinstance(model, LinearGaussianModelSpec):
        mode = getattr(args, "mode", None) or "lg_closed_form"
        return estimate_pi_obs(model, obs, mode=mode)
    scalar = scalar_view(model)
    sgrid = build_space_grid(parser)
    scalar.validate_on_grid(sgrid)
    if estimator_id in ("sigma_obs", "pi_innovation"):
        y = solve_backward_kolmogorov(scalar, sgrid, tgrid)
    elif estimator_id == "sigma_obs_error":
        y = solve_feynman_kac(scalar, sgrid, tgrid)
    else:
        y = None

    if estimator_id == "sigma_obs":
        ens = simulate_girsanov_ensemble(scalar, tgrid, obs, particles, args.seed,
                                         ess_floor=ess_floor)
        return estimate_sigma_obs(scalar, obs, y, ens)
    if estimator_id == "sigma_obs_error":
        ens = simulate_girsanov_ensemble(scalar, tgrid, obs, particles, args.seed,
                                         ess_floor=ess_floor)
        return estimate_sigma_obs_error(scalar, obs, y, ens)
    if estimator_id == "pi_innovation":
        source = "self"
        if pi_h_source == "kalman":
            if not isinstance(model, LinearGaussianModelSpec):
                raise ConfigError("pi_h_source=kalman requires a linear-Gaussian model")
            state = model_kalman(model, obs)
            source = (state.mean @ model.H).reshape(-1)
        ens = simulate_innovation_ensemble(scalar, tgrid, obs, particles, args.seed,
                                           pi_h_source=source, ess_floor=ess_floor)
        return estimate_pi_innovation(scalar, obs, y, ens)
    if estimator_id == "pi_obs":
        ens = simulate_innovation_ensemble(scalar, tgrid, obs, particles, args.seed,
                                           pi_h_source="self", ess_floor=ess_floor)
        return estimate_pi_obs(scalar, obs, ensemble=ens, mode="fixed_point",
                               space_grid=sgrid)
    raise ConfigError(f"unknown estimator id {estimator_id!r}")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_simulate(args) -> int:
    cfg_text = Path(args.config).read_text()
    parser = parse_config(cfg_text)
    model = build_model(parser)
    tgrid = build_time_grid(parser)
    out_dir = _out_dir(args, parser)
    manifest = Manifest("simulate", cfg_text, args.seed, out_dir)
    obs = simulate_truth_and_obs(model, tgrid, args.seed)
    _write_obs_csv(manifest.add(out_dir / "obs.csv"), model, obs)
    obs.to_npz(manifest.add(out_dir / "obs.npz"))
    if _flag(parser, "output", "dump_ensembles"):
        particles, _, ess_floor = _estimator_settings(parser, args)
        ens = simulate_girsanov_ensemble(scalar_view(model), tgrid, obs,
                                         particles, args.seed, ess_floor=ess_floor)
        ens.to_npz(manifest.add(out_dir / "ensemble.npz"))
    manifest.write()
    return EXIT_OK


def cmd_estimate(args) -> int:
    cfg_text = Path(args.config).read_text()
    parser = parse_config(cfg_text)
    model = build_model(parser)
    out_dir = _out_dir(args, parser)
    manifest = Manifest("estimate", cfg_text, args.seed, out_dir)
    particles, pi_h_source, ess_floor = _estimator_settings(parser, args)
    estimator_id = args.estimator or (
        parser["estimator"]["id"].strip() if parser.has_section("estimator")
        and "id" in parser["estimator"] else None)
    if estimator_id is None:
        raise ConfigError("no estimator id given (flag --estimator or [estimator] id)")
    report = _run_estimator(model, parser, args, estimator_id, particles,
                            pi_h_source, ess_floor)
    write_csv(manifest.add(out_dir / "estimate.csv"),
              EstimatorReport.csv_header(), [report.csv_row()])
    manifest.write()
    print(f"{estimator_id}: estimate={fmt(report.point_estimate)} "
          f"std_err={fmt(report.mc_std_err)}")
    return EXIT_OK


def cmd_variance(args) -> int:
    cfg_text = Path(args.config).read_text()
    parser = parse_config(cfg_text)
    model = build_model(parser)
    scalar = scalar_view(model)
    tgrid = build_time_grid(parser)
    sgrid = build_space_grid(parser)
    scalar.validate_on_grid(sgrid)
    out_dir = _out_dir(args, parser)
    manifest = Manifest("variance", cfg_text, args.seed, out_dir)
    particles, pi_h_source, ess_floor = _estimator_settings(parser, args)
    obs = _load_or_simulate_obs(args, model, tgrid)
    flavor = "pi" if (args.estimator or "") == "pi_innovation" else "sigma"
    y = solve_backward_kolmogorov(scalar, sgrid, tgrid)
    if flavor == "sigma":
        ens = simulate_girsanov_ensemble(scalar, tgrid, obs, particles, args.seed,
                                         ess_floor=ess_floor)
    else:
        ens = simulate_innovation_ensemble(scalar, tgrid, obs, particles, args.seed,
                                           ess_floor=ess_floor)
    report = variance_decay(scalar, y, ens, flavor=flavor)
    report.to_csv(manifest.add(out_dir / "variance.csv"))
    manifest.write()
    return EXIT_OK


def _control_settings(parser):
    sec = parser["control"] if parser.has_section("control") else {}
    hessian = float(sec.get("terminal_hessian", 1.0))
    n_runs = int(sec.get("n_runs", 100))
    filter_particles = int(sec.get("filter_particles", 1000))
    terminal = None
    if "terminal" in sec:
        terminal = NamedFunction(sec["terminal"].strip(),
                                 _parse_params(sec.get("terminal_params", ""),
                                               "terminal_params"))
    return hessian, n_runs, filter_particles, terminal


def cmd_control(args) -> int:
    cfg_text = Path(args.config).read_text()
    parser = parse_config(cfg_text)
    model = build_model(parser)
    tgrid = build_time_grid(parser)
    out_dir = _out_dir(args, parser)
    mode = args.mode or (parser["control"].get("mode", "") if
                         parser.has_section("control") else "")
    if not mode:
        raise ConfigError("no control mode given (flag --mode or [control] mode)")
    manifest = Manifest("control", cfg_text, args.seed, out_dir)
    hessian, n_runs, filter_particles, terminal = _control_settings(parser)

    if mode == "lqg_iteration":
        if not isinstance(model, LinearGaussianModelSpec):
            raise ConfigError("lqg_iteration requires a linear-Gaussian model")
        obs = _load_or_simulate_obs(args, model, tgrid)
        result = lqg_alternating_iteration(model, tgrid, hessian, obs=obs)
        ric = lq_control_riccati(model.A, model.G, hessian, tgrid,
                                 sigma=model.sigma)
        gain_err = float(np.max(np.abs(result.gains - ric.gains)))
        rows = [(s + 1, change, "") for s, change in enumerate(result.convergence)]
        rows.append((len(result.convergence), result.convergence[-1], gain_err))
        write_csv(manifest.add(out_dir / "lqg_iteration.csv"),
                  ["sweep", "max_gain_change", "final_gain_error_vs_riccati"], rows)
        manifest.write()
        print(f"lqg_iteration: sweeps={result.n_sweeps} gain_error={fmt(gain_err)}")
        return EXIT_OK

    if mode == "certainty_equivalence":
        seeds = [args.seed + i for i in range(n_runs)]
        if isinstance(model, LinearGaussianModelSpec):
            ric = lq_control_riccati(model.A, model.G, hessian, tgrid,
                                     sigma=model.sigma)
            policy = PolicyField.from_gains(tgrid, ric.gains)
            costs, _ = certainty_equivalence_batch(model, policy, tgrid, seeds,
                                                   hessian)
            reports = [ControlRunReport(realized_cost=float(c), seed=s)
                       for s, c in zip(seeds, costs)]
        else:
            sgrid = build_space_grid(parser)
            policy, _ = hjb_policy(model, sgrid, tgrid,
                                   terminal=terminal)
            reports = [certainty_equivalence_run(model, policy, tgrid, s,
                                                 terminal_cost=terminal,
                                                 filter_particles=filter_particles)
                       for s in seeds]
        control_reports_to_csv(manifest.add(out_dir / "control_runs.csv"), reports)
        manifest.write()
        mean_cost = float(np.mean([r.realized_cost for r in reports]))
        print(f"certainty_equivalence: runs={n_runs} mean_cost={fmt(mean_cost)}")
        return EXIT_OK

    if mode == "hjb":
        scalar = scalar_view(model)
        sgrid = build_space_grid(parser)
        scalar.validate_on_grid(sgrid)
        policy, value = hjb_policy(scalar, sgrid, tgrid, terminal=terminal)
        xs = sgrid.points()
        times = tgrid.times()
        header = ["t"] + [format(x, ".17g") for x in xs]
        write_csv(manifest.add(out_dir / "policy.csv"), header,
                  (np.concatenate([[times[k]], policy.values[k]])
                   for k in range(len(times))))
        value.to_csv(manifest.add(out_dir / "value.csv"))
        manifest.write()
        return EXIT_OK

    raise ConfigError(f"unknown control mode {mode!r}")


def cmd_sweep(args) -> int:
    cfg_text = Path(args.config).read_text()
    parser = parse_config(cfg_text)
    model = build_model(parser)
    out_dir = _out_dir(args, parser)
    manifest = Manifest("sweep", cfg_text, args.seed, out_dir)
    _, pi_h_source, ess_floor = _estimator_settings(parser, args)
    estimator_id = args.estimator or parser["estimator"]["id"].strip()
    sizes = [int(v) for v in (args.particles_list or "100,1000,10000").split(",")]
    rows = []
    for n in sizes:
        report = _run_estimator(model, parser, args, estimator_id, n,
                                pi_h_source, ess_floor)
        rows.append(report.csv_row())
    write_csv(manifest.add(out_dir / "sweep.csv"),
              EstimatorReport.csv_header(), rows)
    manifest.write()
    return EXIT_OK


# ---------------------------------------------------------------------------
# wiring
# ---------------------------------------------------------------------------

def _flag(parser, section, key) -> bool:
    if not parser.has_section(section) or key not in parser[section]:
        return False
    return parser[section][key].strip().lower() in ("1", "true", "yes", "on")


def _out_dir(args, parser) -> Path:
    out = args.out
    if out is None and parser.has_section("output") and "dir" in parser["output"]:
        out = parser["output"]["dir"]
    path = Path(out if out is not None else ".")
    path.mkdir(parents=True, exist_ok=True)
    return path


def _seed(text: str) -> int:
    try:
        return check_seed(int(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def build_arg_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="fbsde-filter",
                                 description="Minimum-variance filtering estimators")
    sub = ap.add_subparsers(dest="subcommand", required=True)
    for name, fn in (("simulate", cmd_simulate), ("estimate", cmd_estimate),
                     ("variance", cmd_variance), ("control", cmd_control),
                     ("sweep", cmd_sweep)):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--seed", type=_seed, default=0)
        p.add_argument("--particles", type=int, default=None)
        p.add_argument("--out", default=None)
        p.add_argument("--estimator", default=None)
        p.add_argument("--mode", default=None)
        p.add_argument("--obs", default=None,
                       help="load an observation record (.npz) instead of simulating")
        if name == "sweep":
            p.add_argument("--particles-list", default=None,
                           help="comma-separated ensemble sizes")
        p.set_defaults(fn=fn)
    return ap


def main(argv=None) -> int:
    level = os.environ.get("FBSDE_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))
    args = build_arg_parser().parse_args(argv)
    try:
        return args.fn(args)
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
