"""The package imports without scipy: scipy.linalg is loaded by the first grid
solve, and the CLI runs that solve nothing on a grid never load it.

Run in a fresh interpreter, since the test process itself has loaded scipy.
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

_SCRIPT = """\
import sys
from pathlib import Path

import fbsde_filter
import fbsde_filter.cli


def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))


out, cfg = Path(sys.argv[1]), sys.argv[2]
assert fbsde_filter.cli.main(["simulate", "--config", cfg, "--seed", "3",
                              "--out", str(out / "simulate")]) == 0
assert fbsde_filter.cli.main(["estimate", "--config", cfg, "--seed", "3",
                              "--estimator", "pi_obs", "--out", str(out / "estimate")]) == 0
print("after the CLI runs:", scipy_modules())

from fbsde_filter.model import SpaceGrid, TimeGrid, build_model
from fbsde_filter import pde_backward

model = build_model("[model]\\ndrift = double_well\\nsigma = 0.5\\nh = linear\\nf = linear\\n")
pde_backward.solve_backward_kolmogorov(model, SpaceGrid(-3.0, 3.0, 61), TimeGrid(1.0, 10))
print("after a grid solve:", "scipy.linalg" in scipy_modules())
import scipy.linalg
print("solve_banded is scipy's:", pde_backward.solve_banded is scipy.linalg.solve_banded)
try:
    pde_backward.no_such_name
except AttributeError as exc:
    print(exc)
"""


def test_cli_runs_without_a_grid_solve_never_load_scipy(tmp_path):
    cfg = tmp_path / "lg.ini"
    cfg.write_text(_LG_CONFIG)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC)] + [
        p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    out = subprocess.run([sys.executable, "-c", _SCRIPT, str(tmp_path), str(cfg)], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-4:] == [
        "after the CLI runs: []",
        "after a grid solve: True",
        "solve_banded is scipy's: True",
        "module 'fbsde_filter.pde_backward' has no attribute 'no_such_name'",
    ]
    assert (tmp_path / "simulate" / "obs.csv").is_file()
    assert (tmp_path / "estimate" / "estimate.csv").is_file()
