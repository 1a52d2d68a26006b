"""Benchmark of the fbsde_filter library: one command, every metric by name.

    python3 perfbench/run.py --workload dw_filter --seed 1 --seconds 20 --trace 0

Run from anywhere inside a source checkout; the library is imported from the
checkout's ``src`` directory.  One single-threaded process drives the library
closed-loop: one record (or CLI job) at a time, the next starting only after
the previous one returned.

``--trace 0`` measures the end-to-end metrics for ``--seconds`` seconds, with
no tracing.  ``--trace 1`` processes a fixed number of records (so that its
counters are exact for a seed) twice, first untraced and then traced, and
reports the per-layer metrics, the tracing overhead and whether the two
passes gave bit-identical outputs.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

The checkout must hold ``src/fbsde_filter``; without it the command exits
with code 2 and prints no result.
"""

import time

_START = time.perf_counter()  # process start for setup_s, before any numpy import

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_BASE = Path(__file__).resolve().parent / "_out"
EXIT_USAGE = 2

SETUP_PROBES = 8     # fresh processes that each repeat imports and set-up
MIN_RECORDS = 3      # the run-level oracle needs a standard error
WARMUP_RECORDS = 1
# Two-sided false-alarm rate of the run-level oracle.  Comparing two commits
# takes dozens of runs that carry this check (ten or more per commit and
# workload, ~14 records each on dw_filter): at this rate a correct program
# trips it in under 1 % of comparisons, where a flat 3 se would trip it in
# about a quarter of them.
ORACLE_P = 1e-4
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = (
    ("setup_s", "s"),
    ("record_s_p50", "s"),
    ("records_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("model.self_s", "s"), ("model.drift_s", "s"), ("model.obs_s", "s"),
    ("model.fn_points", "count"),
    ("sde_sim.self_s", "s"), ("sde_sim.noise_s", "s"), ("sde_sim.ensemble_s", "s"),
    ("sde_sim.truth_s", "s"), ("sde_sim.path_steps", "count"),
    ("sde_sim.ess_min", "fraction"), ("sde_sim.grid_out_frac", "fraction"),
    ("pde_backward.self_s", "s"), ("pde_backward.eval_s", "s"),
    ("pde_backward.eval_points", "count"), ("pde_backward.solve_s", "s"),
    ("pde_backward.banded_s", "s"), ("pde_backward.banded_solves", "count"),
    ("pde_backward.upwind_warnings", "count"),
    ("estimators.self_s", "s"), ("estimators.fold_s", "s"), ("estimators.fp_s", "s"),
    ("estimators.fp_iters", "count"),
    ("particle.self_s", "s"), ("particle.pf_s", "s"), ("particle.resamples", "count"),
    ("particle.ess_min", "fraction"),
    ("kalman.self_s", "s"), ("kalman.riccati_s", "s"), ("kalman.mean_s", "s"),
    ("control.self_s", "s"), ("control.ce_s", "s"), ("control.ce_runs", "count"),
    ("cli.self_s", "s"), ("cli.bytes_written", "B"),
    ("se2_s.pi_innovation", "var.s"), ("se2_s.pf", "var.s"),
    ("se2_s.sigma_obs", "var.s"), ("se2_s.sigma_obs_error", "var.s"),
    ("trace.wall_s", "s"), ("trace.overhead_frac", "fraction"),
    ("bench.unattributed_s", "s"),
)

_SE2 = ("pi_innovation", "pf", "sigma_obs", "sigma_obs_error")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not 0 <= args.seed < 2**31:
        ap.error("--seed must be in [0, 2**31)")
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    return args


def load_library():
    """Import the checkout's library and the workloads; None if it is missing."""
    if not (ROOT / "src" / "fbsde_filter" / "__init__.py").is_file():
        return None
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    import workloads  # noqa: E402  (imports numpy and fbsde_filter)
    return workloads


# ---------------------------------------------------------------------------
# records
# ---------------------------------------------------------------------------

class Runner:
    """Runs one workload's set-up and records, counting failures and warnings."""

    def __init__(self, wl_mod, name: str, out_dir: Path):
        from fbsde_filter.errors import CFLWarning, FbsdeFilterError

        self.wl_mod = wl_mod
        self.wl = wl_mod.WORKLOADS[name](out_dir)
        self._cfl = CFLWarning
        self._errors = (FbsdeFilterError, wl_mod.RecordCheckFailed)
        self.upwind_warnings = 0
        self.errors: list[str] = []

    def _count_warnings(self, caught) -> None:
        self.upwind_warnings += sum(issubclass(w.category, self._cfl) for w in caught)

    def setup(self) -> bytes:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            out = self.wl.setup()
        self._count_warnings(caught)
        return out

    def record(self, seed: int, index: int):
        """One record; returns its RecordResult, or None when it failed."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                result = self.wl.record(self.wl_mod.record_seed(seed, index))
            except self._errors as exc:
                self.errors.append(f"record {index}: {type(exc).__name__}: {exc}")
                result = None
        self._count_warnings(caught)
        return result


def oracle_check(results) -> tuple[bool, str]:
    """Paired mean of the records' differences within the t-quantile of its se."""
    diffs = [r.paired_diff for r in results if r is not None and r.paired_diff is not None]
    if len(diffs) < 2:
        return True, ("checked per record" if not diffs
                      else "not evaluated: one paired difference")
    from scipy.stats import t as student_t

    n = len(diffs)
    mean = statistics.fmean(diffs)
    se = statistics.stdev(diffs) / n ** 0.5
    limit = float(student_t.ppf(1.0 - ORACLE_P / 2.0, n - 1)) * se
    return abs(mean) <= limit, f"|{mean:.4g}| <= {limit:.4g} over {n} records"


def median_se2_s(results) -> dict:
    out = {}
    for key in _SE2:
        vals = [r.se2_s[key] for r in results if r is not None and key in r.se2_s]
        out[key] = statistics.median(vals) if vals else 0.0
    return out


def digest(chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def tail_percentile(times) -> tuple[int, float] | None:
    """Highest percentile with at least ten records beyond it, if above the median."""
    n = len(times)
    if n <= 20:
        return None
    ordered = sorted(times)
    return int(100 * (n - 10) / n), ordered[n - 11]


# ---------------------------------------------------------------------------
# untraced run: end-to-end metrics
# ---------------------------------------------------------------------------

def setup_probe(name: str, seed: int) -> float:
    """Set-up time of a fresh process: imports plus the workload's one-off solves."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", name, "--seed", str(seed), "--seconds", "1"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def run_untraced(runner: Runner, name: str, seed: int, seconds: float) -> dict:
    runner.setup()
    setup_samples = [time.perf_counter() - _START]
    setup_samples += [setup_probe(name, seed) for _ in range(SETUP_PROBES)]
    for i in range(WARMUP_RECORDS):
        runner.record(seed, i)
    runner.errors.clear()

    times, results = [], []
    index = WARMUP_RECORDS
    loop_start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        results.append(runner.record(seed, index))
        t1 = time.perf_counter()
        times.append(t1 - t0)
        index += 1
        if t1 - loop_start >= seconds and len(times) >= MIN_RECORDS:
            break
    loop_wall = time.perf_counter() - loop_start

    completed = sum(r is not None for r in results)
    oracle_ok, oracle_detail = oracle_check(results)
    return {
        "metrics": {
            "setup_s": statistics.median(setup_samples),
            "record_s_p50": statistics.median(times),
            "records_per_s": completed / loop_wall,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        },
        "attempted": len(results),
        "failed": len(results) - completed,
        "oracle": (oracle_ok, oracle_detail),
        "setup_samples": setup_samples,
        "tail": tail_percentile(times),
        "se2_s": median_se2_s(results),
        "digest": digest(r.outputs for r in results if r is not None),
        "upwind_warnings": runner.upwind_warnings,
    }


# ---------------------------------------------------------------------------
# traced run: per-layer metrics
# ---------------------------------------------------------------------------

def _window(runner: Runner, seed: int, n_records: int, tracer=None):
    """Set-up plus n_records records; returns (wall, outputs, results)."""
    health_s = 0.0
    start = time.perf_counter()
    outputs = [runner.setup()]
    results = []
    for index in range(WARMUP_RECORDS, WARMUP_RECORDS + n_records):
        result = runner.record(seed, index)
        results.append(result)
        outputs.append(None if result is None else result.outputs)
        if tracer is not None:
            t0 = time.perf_counter()
            tracer.read_health()
            health_s += time.perf_counter() - t0
    return time.perf_counter() - start - health_s, outputs, results


def run_traced(runner: Runner, seed: int, n_records: int | None = None) -> dict:
    from tracer import LAYERS, Tracer

    wl = runner.wl
    n = n_records or wl.trace_records
    runner.setup()
    for i in range(WARMUP_RECORDS):
        runner.record(seed, i)
    runner.errors.clear()

    plain_wall, plain_out, plain_results = _window(runner, seed, n)
    runner.upwind_warnings = 0
    tracer = Tracer(wl.roles, (wl.space.x_min, wl.space.x_max))
    with tracer:
        traced_wall, traced_out, traced_results = _window(runner, seed, n, tracer)

    # A span "<layer>.<part>" reports its self time as "<layer>.<part>_s" and
    # adds it to "<layer>.self_s".
    selfs, top = tracer.self_times()
    totals = defaultdict(float, tracer.counts)
    for span_name, value in selfs.items():
        totals[span_name + "_s"] += value
        totals[span_name.split(".")[0] + ".self_s"] += value
    unattributed = traced_wall - top
    layer_sum = sum(totals[f"{layer}.self_s"] for layer in LAYERS)
    sum_ok = abs(layer_sum + unattributed - traced_wall) <= 1e-9 * traced_wall
    totals.update({
        "pde_backward.upwind_warnings": runner.upwind_warnings,
        "cli.bytes_written": sum(r.bytes_written for r in traced_results if r is not None),
        "trace.wall_s": traced_wall,
        "bench.unattributed_s": unattributed,
    })
    metrics = {name: totals[name] / n for name, _ in PER_LAYER}
    metrics.update(tracer.health())
    metrics["trace.overhead_frac"] = traced_wall / plain_wall - 1.0
    metrics.update({f"se2_s.{k}": v for k, v in median_se2_s(plain_results).items()})

    failed = sum(r is None for r in traced_results) + sum(r is None for r in plain_results)
    oracle_ok, oracle_detail = oracle_check(traced_results)
    return {
        "metrics": metrics,
        "attempted": 2 * n,
        "failed": failed,
        "oracle": (oracle_ok, oracle_detail),
        "identical": plain_out == traced_out,
        "sum_ok": sum_ok,
        "n_records": n,
    }


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------

def emit(table, run: dict, correct: bool) -> None:
    metrics = {}
    for name, unit in table:
        value = run["metrics"][name]
        print(f"{name} = {value:.6g} {unit}")
        metrics[name] = {"value": value, "unit": unit}
    print(json.dumps({"correct": correct, "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": metrics}))


def main(argv=None) -> int:
    args = parse_args(argv)
    wl_mod = load_library()
    if wl_mod is None:
        print(f"error: no library source at {ROOT / 'src' / 'fbsde_filter'}", file=sys.stderr)
        return EXIT_USAGE
    if args.workload not in wl_mod.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"known: {', '.join(wl_mod.WORKLOADS)}", file=sys.stderr)
        return EXIT_USAGE

    out_dir = OUT_BASE / f"{args.workload}-{os.getpid()}"
    try:
        runner = Runner(wl_mod, args.workload, out_dir)
        if args.setup_probe:
            runner.setup()
            print(json.dumps({"setup_s": time.perf_counter() - _START}))
            return 0
        if args.trace:
            run = run_traced(runner, args.seed)
        else:
            run = run_untraced(runner, args.workload, args.seed, args.seconds)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by a concurrent run
            OUT_BASE.rmdir()

    oracle_ok, oracle_detail = run["oracle"]
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print(f"oracle ({runner.wl.oracle}): {'ok' if oracle_ok else 'FAILED'}, {oracle_detail}")
    for err in runner.errors:
        print(f"failed {err}")
    print(f"fail_frac = {run['failed'] / run['attempted']:.6g} fraction "
          f"({run['failed']} of {run['attempted']})")
    correct = oracle_ok and run["failed"] == 0
    if args.trace:
        print(f"traced records = {run['n_records']}; per-layer values are per record, "
              f"one set-up included; outputs bit-identical to the untraced pass: "
              f"{run['identical']}; self times + unattributed = traced wall: {run['sum_ok']}")
        correct = correct and run["identical"] and run["sum_ok"]
        emit(PER_LAYER, run, correct)
    else:
        samples = ", ".join(f"{s:.4f}" for s in run["setup_samples"])
        print(f"setup samples = {samples} s")
        if run["tail"] is not None:
            pct, value = run["tail"]
            print(f"record_s_p{pct} = {value:.6g} s")
        for key, value in run["se2_s"].items():
            if value:
                print(f"se2_s.{key} = {value:.6g} var.s (median over records)")
        print(f"upwind warnings = {run['upwind_warnings']}")
        print(f"outputs digest = {run['digest']}")
        emit(END_TO_END, run, correct)
    return 0


if __name__ == "__main__":
    sys.exit(main())
