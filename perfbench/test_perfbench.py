"""Tests of the benchmark itself: determinism, health counters, trace fidelity.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

WL = run.load_library()
# Counts, health counters and bytes written; timings and the overhead vary.
EXACT_UNITS = ("count", "fraction", "B")


@pytest.fixture
def runner(tmp_path):
    return lambda name: run.Runner(WL, name, tmp_path / name)


def test_records_repeat_exactly_for_a_seed(runner):
    r = runner("ou_small")
    r.setup()
    first = [r.record(5, i).outputs for i in range(2)]
    again = [r.record(5, i).outputs for i in range(2)]
    other = r.record(6, 0).outputs
    assert first == again
    assert other != first[0]


@pytest.mark.parametrize("name, n_records", [("ou_small", 3), ("cli_jobs", 1), ("dw_filter", 1)])
def test_traced_run_repeats_its_counters_and_matches_the_untraced_run(runner, name, n_records):
    first = run.run_traced(runner(name), seed=7, n_records=n_records)
    second = run.run_traced(runner(name), seed=7, n_records=n_records)
    for result in (first, second):
        assert result["identical"], "traced outputs differ from untraced outputs"
        assert result["sum_ok"], "self times + unattributed != traced wall"
        assert result["failed"] == 0
    exact = [key for key, unit in run.PER_LAYER
             if unit in EXACT_UNITS and key != "trace.overhead_frac"]
    assert {k: first["metrics"][k] for k in exact} == {k: second["metrics"][k] for k in exact}


def test_untraced_run_prints_every_end_to_end_metric_last():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run.main(["--workload", "ou_small", "--seed", "3", "--seconds", "0.5"]) == 0
    result = json.loads(out.getvalue().strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == dict(run.END_TO_END)
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(WL.WORKLOADS)


def test_exits_nonzero_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ou_small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
