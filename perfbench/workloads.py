"""The three benchmark workloads.

Every workload has a one-off ``setup`` (imports are paid by the caller) and a
``record`` that processes one seeded input and returns a ``RecordResult``.
All library calls go through module attributes (``sde_sim.simulate_...``)
so that the traced run's rebinding takes effect.  A record that produces a
non-finite output, a non-positive standard error or a non-zero CLI exit
raises ``RecordCheckFailed``; the caller counts it, like a typed library
error, as a failed record.

All workloads use T = 1 and K = 500 steps.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from fbsde_filter import cli, estimators, kalman, particle, pde_backward, sde_sim
from fbsde_filter.model import (
    GaussianMixturePrior,
    LinearGaussianModelSpec,
    NamedFunction,
    ScalarModelSpec,
    SpaceGrid,
    TimeGrid,
    build_model,
)

GRID = TimeGrid(1.0, 500)

# Control runs of one CLI job use seeds s, s + 1, ..., so record seeds are
# spaced by more than the run count.
SEED_STRIDE = 16


class RecordCheckFailed(Exception):
    """A record's outputs failed the benchmark's own checks."""


@dataclass
class RecordResult:
    outputs: bytes                 # canonical bytes of the record's estimates
    paired_diff: float | None = None   # input to the run-level oracle check
    se2_s: dict = field(default_factory=dict)   # estimator -> se^2 * seconds
    bytes_written: int = 0


def record_seed(seed: int, index: int) -> int:
    return (seed * 1_000_000 + index) * SEED_STRIDE


def _finite(label, *values) -> None:
    for v in values:
        if not np.all(np.isfinite(v)):
            raise RecordCheckFailed(f"{label} is not finite")


def _positive_se(label, se) -> None:
    if not (math.isfinite(se) and se > 0.0):
        raise RecordCheckFailed(f"{label} standard error {se!r} is not > 0")


def _pack(*values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


def _indicator(x):
    return (np.asarray(x) > 0).astype(float)


class DoubleWellFilter:
    """Estimator II against the resampling particle filter, N = 10 000.

    The double well of acceptance criterion 11.  A large-N nonlinear forward
    path: each (N, K + 1) array is 40 MB, well beyond the L2 cache.  The
    backward Kolmogorov solve runs once, in set-up.
    """

    name = "dw_filter"
    n_paths = 10_000
    trace_records = 3
    oracle = "paired mean of II - PF"

    def __init__(self, out_dir: Path):
        self.model = ScalarModelSpec(
            drift_fn=NamedFunction("double_well"), sigma=0.5,
            obs_fn=NamedFunction("linear"), terminal_fn=NamedFunction("indicator_positive"),
            prior=GaussianMixturePrior.gaussian(0.0, 1.0))
        self.space = SpaceGrid(-5.5, 5.5, 601)
        self.roles = ((self.model.drift_fn, "drift"), (self.model.obs_fn, "obs"))

    def setup(self) -> bytes:
        self.model.validate_on_grid(self.space)
        self.y = pde_backward.solve_backward_kolmogorov(self.model, self.space, GRID)
        return self.y.values.tobytes()

    def record(self, seed: int) -> RecordResult:
        m = self.model
        obs = sde_sim.simulate_truth_and_obs(m, GRID, seed)
        t0 = time.perf_counter()
        ens = sde_sim.simulate_innovation_ensemble(m, GRID, obs, self.n_paths, seed)
        rep = estimators.estimate_pi_innovation(m, obs, self.y, ens)
        t1 = time.perf_counter()
        pf = particle.run_particle_filter(m, GRID, obs, self.n_paths, seed + 1,
                                          ess_floor=0.5, observables={"f": _indicator})
        t2 = time.perf_counter()
        est = pf.estimates["f"]
        pf_value, pf_se = float(est.values[-1]), float(est.std_err[-1])
        _finite("estimator II", rep.point_estimate)
        _finite("particle filter", pf_value, est.values)
        _positive_se("estimator II", rep.mc_std_err)
        _positive_se("particle filter", pf_se)
        return RecordResult(
            outputs=_pack(rep.point_estimate, rep.mc_std_err, pf_value, pf_se,
                          *pf.resample_steps),
            paired_diff=rep.point_estimate - pf_value,
            se2_s={"pi_innovation": rep.mc_std_err ** 2 * (t1 - t0),
                   "pf": pf_se ** 2 * (t2 - t1)})


class OrnsteinUhlenbeckSmall:
    """Estimators I and IV on the scalar linear-Gaussian benchmark, N = 500.

    The model of acceptance criterion 4.  Small N, so fixed per-call costs
    dominate; the drift is linear, so a cubic-kernel change should not show
    here.  Girsanov weights, no per-step normalisation; arrays fit in L2.
    """

    name = "ou_small"
    n_paths = 500
    trace_records = 40
    oracle = "paired mean of I - IV"

    def __init__(self, out_dir: Path):
        self.lg = LinearGaussianModelSpec(A=[[-1.0]], H=[[1.0]], G=[[1.0]], sigma=1.0,
                                          m0=[0.0], Sigma0=[[1.0]], f_bar=[1.0])
        self.model = self.lg.as_scalar()
        self.space = SpaceGrid(-8.0, 8.0, 801)
        # f = x equals h = x here, so terminal-function calls count as "obs".
        self.roles = ((self.model.drift_fn, "drift"), (self.model.obs_fn, "obs"))

    def setup(self) -> bytes:
        self.Sigma = kalman.model_riccati(self.lg, GRID)
        self.y = pde_backward.solve_backward_kolmogorov(self.model, self.space, GRID)
        self.y_growth = pde_backward.solve_feynman_kac(self.model, self.space, GRID,
                                                       reaction="growth")
        return self.Sigma.tobytes() + self.y.values.tobytes() + self.y_growth.values.tobytes()

    def record(self, seed: int) -> RecordResult:
        m = self.model
        obs = sde_sim.simulate_truth_and_obs(self.lg, GRID, seed)
        km = kalman.model_kalman(self.lg, obs, self.Sigma)
        t0 = time.perf_counter()
        ens = sde_sim.simulate_girsanov_ensemble(m, GRID, obs, self.n_paths, seed)
        t1 = time.perf_counter()
        rep1 = estimators.estimate_sigma_obs(m, obs, self.y, ens)
        t2 = time.perf_counter()
        rep4 = estimators.estimate_sigma_obs_error(m, obs, self.y_growth, ens)
        t3 = time.perf_counter()
        kalman_mean = float(km.mean[-1, 0])
        _finite("Kalman-Bucy mean", km.mean)
        _finite("estimator I", rep1.point_estimate)
        _finite("estimator IV", rep4.point_estimate)
        _positive_se("estimator I", rep1.mc_std_err)
        _positive_se("estimator IV", rep4.mc_std_err)
        # The ensemble is shared, so it counts as work of both estimators.
        return RecordResult(
            outputs=_pack(kalman_mean, rep1.point_estimate, rep1.mc_std_err,
                          rep4.point_estimate, rep4.mc_std_err),
            paired_diff=rep1.point_estimate - rep4.point_estimate,
            se2_s={"sigma_obs": rep1.mc_std_err ** 2 * (t2 - t0),
                   "sigma_obs_error": rep4.mc_std_err ** 2 * (t1 - t0 + t3 - t2)})


_SWEEP_CONFIG = """\
[model]
drift = double_well
sigma = 0.5
h = linear
f = indicator_positive
prior_mean = 0
prior_var = 1

[grid]
t_end = 1.0
n_steps = 500
x_min = -5.5
x_max = 5.5
n_points = 601

[estimator]
id = pi_obs
"""

_CONTROL_CONFIG = """\
[model]
drift = double_well
sigma = 0.5
h = linear
f = quadratic
f_params = weight=2
prior_mean = 0
prior_var = 1
control_gain = 1

[grid]
t_end = 1.0
n_steps = 500
x_min = -5.5
x_max = 5.5
n_points = 601

[control]
mode = certainty_equivalence
n_runs = 2
filter_particles = 1000
"""


def _read_csv(path: Path, column: str) -> list[float]:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        raise RecordCheckFailed(f"{path.name} has no rows")
    try:
        values = [float(row[column]) for row in rows]
    except (KeyError, TypeError, ValueError) as exc:
        raise RecordCheckFailed(f"{path.name} does not parse: {exc}") from None
    _finite(f"{path.name} {column}", values)
    return values


class CliJobs:
    """In-process CLI jobs: ``sweep --estimator pi_obs`` then ``control``.

    Bound by the backward solver: the scalar fixed point of estimator III
    re-assembles and solves a tridiagonal system per step and iteration, and
    the HJB solve runs its own policy iteration.  ``sweep`` re-simulates and
    re-solves for every size.  The only workload that runs the ``cli`` and
    ``control`` layers and writes files.
    """

    name = "cli_jobs"
    particles_list = "100,300"
    trace_records = 3
    oracle = "every fixed point converged (exit 0) and every control cost is finite"

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self.sweep_cfg = out_dir / "sweep.ini"
        self.control_cfg = out_dir / "control.ini"
        sweep_model = build_model(_SWEEP_CONFIG)
        self.space = SpaceGrid(-5.5, 5.5, 601)
        self.roles = ((sweep_model.drift_fn, "drift"), (sweep_model.obs_fn, "obs"))

    def setup(self) -> bytes:
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.sweep_cfg.write_text(_SWEEP_CONFIG)
        self.control_cfg.write_text(_CONTROL_CONFIG)
        return b""

    def _main(self, argv) -> None:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            code = cli.main(argv)
        if code != 0:
            raise RecordCheckFailed(f"{argv[0]} exited with {code}: {err.getvalue().strip()}")

    def record(self, seed: int) -> RecordResult:
        job = self.out_dir / "job"
        shutil.rmtree(job, ignore_errors=True)
        self._main(["sweep", "--config", str(self.sweep_cfg), "--seed", str(seed),
                    "--out", str(job), "--particles-list", self.particles_list])
        self._main(["control", "--config", str(self.control_cfg), "--seed", str(seed),
                    "--out", str(job)])
        _read_csv(job / "sweep.csv", "estimate")
        _read_csv(job / "control_runs.csv", "realized_cost")
        outputs = (job / "sweep.csv").read_bytes() + (job / "control_runs.csv").read_bytes()
        return RecordResult(outputs=outputs,
                            bytes_written=sum(p.stat().st_size for p in job.iterdir()))


WORKLOADS = {cls.name: cls for cls in (DoubleWellFilter, OrnsteinUhlenbeckSmall, CliJobs)}

