"""Hypothesis fuzzing of the CLI over config values, in process through `cli.main`
with RuntimeWarning as an error: every estimate, variance, sweep and control run
exits 0, 1, 2 or 3 without a traceback, and a run that exits 0 writes only finite
numbers.  Grids, ensembles and example counts are small, so the test takes seconds;
the examples are derandomized, so every run of the suite draws the same ones."""

import csv
import math
import tempfile
import warnings
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from fbsde_filter.cli import main
from fbsde_filter.estimators import ESTIMATOR_IDS


def _number(low, high):
    return st.floats(low, high, allow_nan=False, allow_infinity=False)


def _fmt(value) -> str:
    return format(value, ".17g")


# a variance or a terminal weight: moderate, or spread over many orders of magnitude
# up to the Riccati overflow guard of 1e8
_MAGNITUDE = st.one_of(_number(0.05, 4.0), st.sampled_from([1e-6, 1e4, 5e7, 1e8]),
                       st.builds(lambda e: 10.0 ** e, _number(-4.0, 8.0)))


@st.composite
def _scalar_model(draw):
    """[model] lines of a scalar model (all-linear ones are 1-D linear-Gaussian)
    and its prior variance."""
    drift = draw(st.sampled_from(["linear", "double_well", "cubic", "sine"]))
    h = draw(st.sampled_from(["linear", "sine", "gaussian_bump", "constant"]))
    var = draw(_MAGNITUDE)
    lines = [f"drift = {drift}",
             f"sigma = {_fmt(draw(_number(0.05, 3.0)))}",
             f"h = {h}",
             f"f = {draw(st.sampled_from(['linear', 'quadratic', 'indicator_positive']))}",
             f"prior_mean = {_fmt(draw(_number(-3.0, 3.0)))}",
             f"prior_var = {_fmt(var)}",
             f"control_gain = {_fmt(draw(_number(-2.0, 2.0)))}"]
    if drift == "linear":
        lines.append(f"a = {_fmt(draw(_number(-3.0, 0.5)))}")
    elif drift == "cubic":
        lines.append(f"drift_params = c={_fmt(draw(_number(-2.0, 0.5)))}")
    if h in ("linear", "constant"):
        key = "a" if h == "linear" else "c"
        lines.append(f"h_params = {key}={_fmt(draw(_number(-5.0, 5.0)))}")
    return lines, var


@st.composite
def _lg2_model(draw):
    """[model] lines of a 2-D linear-Gaussian model and its larger prior variance."""
    entries = st.lists(_number(-2.0, 2.0), min_size=4, max_size=4)
    a, h = draw(entries), draw(entries)[:2]
    var = draw(st.lists(_MAGNITUDE, min_size=2, max_size=2))
    return ["kind = linear_gaussian",
            f"a = {_fmt(a[0])},{_fmt(a[1])};{_fmt(a[2])},{_fmt(a[3])}",
            f"h = {_fmt(h[0])};{_fmt(h[1])}",
            "g = 1;0",
            f"sigma = {_fmt(draw(_number(0.05, 3.0)))}",
            "m0 = 0.3,-0.2",
            f"sigma0 = {_fmt(var[0])},0;0,{_fmt(var[1])}",
            "f_bar = 1,0"], max(var)


@st.composite
def _run(draw):
    """(subcommand and its flags, config text) of one run.  A 2-D model runs the
    subcommands that take one: estimator III and the linear-Gaussian control modes."""
    lg2 = draw(st.integers(0, 3)) == 0
    model, var = draw(_lg2_model() if lg2 else _scalar_model())
    half_width = 3.0 + draw(_number(5.0, 12.0)) * max(1.0, math.sqrt(var))  # |mean| <= 3
    sections = {
        "model": model,
        "grid": [f"t_end = {_fmt(draw(_number(0.05, 2.0)))}",
                 f"n_steps = {draw(st.integers(1, 12))}",
                 f"x_min = {_fmt(-half_width)}", f"x_max = {_fmt(half_width)}",
                 f"n_points = {draw(st.integers(3, 41))}"],
    }
    sub = draw(st.sampled_from(["estimate", "sweep", "control"] if lg2 else
                               ["estimate", "variance", "sweep", "control"]))
    particles = draw(st.integers(2, 40))
    if sub == "control":
        mode = draw(st.sampled_from(["certainty_equivalence", "lqg_iteration"]
                                    + ([] if lg2 else ["hjb"])))
        # a terminal weight, read by linear-Gaussian models; lqg_iteration's is kept
        # moderate, as its Lyapunov solves of stiff trial laws take seconds
        q = _fmt(draw(_number(0.05, 50.0) if mode == "lqg_iteration" else _MAGNITUDE))
        sections["control"] = [f"mode = {mode}", f"n_runs = {draw(st.integers(1, 2))}",
                               f"filter_particles = {particles}",
                               f"terminal_hessian = {f'{q},0;0,{q}' if lg2 else q}"]
        argv = []
    else:
        ids = (("pi_obs",) if lg2 else ("sigma_obs", "pi_innovation") if sub == "variance"
               else ESTIMATOR_IDS)
        argv = ["--estimator", draw(st.sampled_from(ids))]
        argv += (["--particles-list", f"{particles},{particles + 3}"] if sub == "sweep"
                 else ["--particles", str(particles)])
        sections["estimator"] = [f"ess_floor = {_fmt(draw(_number(0.0, 1.0)))}"]
    text = "".join(f"[{name}]\n" + "".join(f"{line}\n" for line in lines) + "\n"
                   for name, lines in sections.items())
    return [sub, *argv], text


def _numbers_in(path: Path):
    """Every cell of a CSV table below its header that reads as a float ("nan" and
    "inf" do); labels and blank cells are skipped."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    for row in rows[1:]:
        for cell in row:
            try:
                yield float(cell)
            except ValueError:
                pass


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_run())
def test_cli_runs_exit_with_a_code_and_write_finite_numbers(run):
    argv, config = run
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        out = Path(tmp) / "out"
        cfg = Path(tmp) / "cfg.ini"
        cfg.write_text(config)
        code = main([argv[0], "--config", str(cfg), "--seed", "7", "--out", str(out),
                     *argv[1:]])
        assert code in (0, 1, 2, 3)
        if code == 0:
            tables = list(out.glob("*.csv"))
            assert tables
            for table in tables:
                assert all(math.isfinite(v) for v in _numbers_in(table)), table.name
