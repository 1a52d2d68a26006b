"""The package imports without scipy, and grid solves load only scipy's compiled
LAPACK module: the CLI runs that solve nothing on a grid load no scipy module,
and neither the CLI runs that do nor the library's grid solves load
scipy.linalg (or the numpy.f2py that its package import pulls in).

Run in fresh interpreters, since the test process itself has loaded scipy.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

_LG_CONFIG = """\
[model]
a = -1,0.5;0,-0.3
h = 1;0.4
sigma = 0.8
m0 = 0,0
sigma0 = 1,0;0,1
f_bar = 1,0

[grid]
t_end = 1
n_steps = 200
"""

_DW_CONFIG = """\
[model]
drift = double_well
sigma = 0.5
h = linear
f = quadratic
control_gain = 1

[grid]
t_end = 1
n_steps = 50
x_min = -5.5
x_max = 5.5
n_points = 111

[estimator]
particles = 100

[control]
mode = hjb
"""

_PREAMBLE = """\
import contextlib
import sys
import warnings
from pathlib import Path

import numpy as np

import fbsde_filter
import fbsde_filter.cli
from fbsde_filter import pde_backward
from fbsde_filter.control import hjb_policy
from fbsde_filter.errors import CFLWarning
from fbsde_filter.estimators import estimate_pi_obs
from fbsde_filter.kalman import GaussianState
from fbsde_filter.model import SpaceGrid, TimeGrid, build_model
from fbsde_filter.sde_sim import simulate_truth_and_obs

warnings.simplefilter("ignore", CFLWarning)
ROUTINES = ("dgttrf", "dgttrs", "dgtsv")


def cli(*argv):
    with contextlib.redirect_stdout(sys.stderr):  # stdout holds the script's lines alone
        assert fbsde_filter.cli.main(list(argv)) == 0


def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))


def loaded(name):
    return name in sys.modules


def grid_solves():
    model = build_model("[model]\\ndrift = double_well\\nsigma = 0.5\\nh = linear\\n"
                        "f = quadratic\\ncontrol_gain = 1\\n")
    sg, tg = SpaceGrid(-3.0, 3.0, 61), TimeGrid(1.0, 10)
    pde_backward.solve_backward_kolmogorov(model, sg, tg)
    hjb_policy(model, sg, tg)
    obs = simulate_truth_and_obs(model, tg, seed=3)
    state = GaussianState(tg, np.zeros((11, 1)), np.ones((11, 1, 1)))
    estimate_pi_obs(model, obs, mode="fixed_point", pi_source=state, space_grid=sg)


def same_routines():
    return (pde_backward._lapack() is sys.modules["scipy.linalg._flapack"]
            and all(getattr(scipy.linalg.lapack, name) is getattr(pde_backward._lapack(), name)
                    for name in ROUTINES))
"""

_SCRIPT = _PREAMBLE + """
out, lg_cfg, dw_cfg = Path(sys.argv[1]), sys.argv[2], sys.argv[3]
cli("simulate", "--config", lg_cfg, "--seed", "3", "--out", str(out / "simulate"))
cli("estimate", "--config", lg_cfg, "--seed", "3", "--estimator", "pi_obs",
    "--out", str(out / "estimate"))
print("after the linear-Gaussian CLI runs:", scipy_modules())
for sub, extra in (("estimate", ["--estimator", "pi_obs"]),
                   ("estimate", ["--estimator", "sigma_obs"]), ("control", [])):
    cli(sub, "--config", dw_cfg, "--seed", "3", *extra, "--out", str(out / "dw"))
print("after the grid CLI runs:", loaded("scipy.linalg"), loaded("numpy.f2py"))
grid_solves()
print("after the library grid solves:", loaded("scipy.linalg"), loaded("numpy.f2py"))
import scipy.linalg

print("scipy.linalg.lapack's routines:", same_routines())
print("solve_banded is scipy's:", pde_backward.solve_banded is scipy.linalg.solve_banded)
try:
    pde_backward.no_such_name
except AttributeError as exc:
    print(exc)
"""

_SCIPY_LINALG_FIRST = _PREAMBLE + """
import scipy.linalg

grid_solves()
print("scipy.linalg imported first:", same_routines())
"""

_NO_LAPACK_MODULE = _PREAMBLE + """
import importlib.machinery

import scipy

importlib.machinery.EXTENSION_SUFFIXES[:] = [".no-such-suffix"]
try:
    grid_solves()
except ImportError as exc:
    print("ImportError:", exc.name, exc.args[0].endswith("_flapack.no-such-suffix is missing"))
"""


def _run(script, *args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC)] + [
        p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    out = subprocess.run([sys.executable, "-c", script, *map(str, args)], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return out.stdout.splitlines()


def test_grid_solves_load_only_the_lapack_module(tmp_path):
    lg_cfg, dw_cfg = tmp_path / "lg.ini", tmp_path / "dw.ini"
    lg_cfg.write_text(_LG_CONFIG)
    dw_cfg.write_text(_DW_CONFIG)
    assert _run(_SCRIPT, tmp_path, lg_cfg, dw_cfg) == [
        "after the linear-Gaussian CLI runs: []",
        "after the grid CLI runs: False False",
        "after the library grid solves: False False",
        "scipy.linalg.lapack's routines: True",
        "solve_banded is scipy's: True",
        "module 'fbsde_filter.pde_backward' has no attribute 'no_such_name'",
    ]
    assert (tmp_path / "simulate" / "obs.csv").is_file()
    assert (tmp_path / "estimate" / "estimate.csv").is_file()
    assert (tmp_path / "dw" / "value.csv").is_file()


def test_grid_solves_after_scipy_linalg_use_its_lapack_module():
    assert _run(_SCIPY_LINALG_FIRST) == ["scipy.linalg imported first: True"]


def test_a_missing_lapack_module_fails_the_first_solve_naming_the_file():
    assert _run(_NO_LAPACK_MODULE) == ["ImportError: scipy.linalg._flapack True"]
