"""The one CSV writer: the bytes of the per-time tables, and its refusal of a cell
that reads NaN or +-inf."""

import hashlib
import math
import re

import numpy as np
import pytest

from fbsde_filter.estimators import VarianceDecayReport
from fbsde_filter.io import write_columns, write_csv
from fbsde_filter.kalman import GaussianState
from fbsde_filter.model import SpaceGrid, TimeGrid
from fbsde_filter.particle import ConditionalEstimate
from fbsde_filter.pde_backward import GridFunction

GRID = TimeGrid(1.0, 6)
# exact arithmetic only (no transcendental functions), so the bytes are the same on
# every host; the values span signs, magnitudes and exactly representable numbers
BASE = (np.arange(7.0) - 2.5) / 3.0 * np.array([1.0, 1e-300, 7.0, 1e12, -1.0, 0.1, 2.0])

TABLES = {
    "gaussian_state_2d": (
        lambda: GaussianState(GRID, np.column_stack([BASE, BASE[::-1] / 7.0]),
                              np.stack([[[v, v / 3.0], [v / 3.0, v * v]] for v in BASE])),
        "b01d573e76193dc634cfb85e86b106c9a7e7e94e8d5b962a5b8160098befbda3"),
    "conditional_estimate": (
        lambda: ConditionalEstimate(GRID, BASE, np.abs(BASE) / 11.0, np.arange(7.0) * 13.0),
        "9af6a20ba52ac3d2def86c7cfc94d26e50204ac0ab8e1ffe041e026501eaf289"),
    "variance_decay_report": (
        lambda: VarianceDecayReport(GRID, BASE * BASE, BASE / 9.0, BASE / 5.0,
                                    np.cumsum(BASE), 0.25),
        "4e7e8b0a2a0cc26600be6e178793ec2a4a2ddfcba985c100e7b1865a6399a1b2"),
    "grid_function": (
        lambda: GridFunction(SpaceGrid(-1.5, 2.0, 5), GRID,
                             np.outer(BASE, [1.0, -0.5, 0.25, 3.0, 1e-5])),
        "5a9fe63ac6047f748f293f91763501023dc18a55cb44463c3d8dcdf7b77909e2"),
}


@pytest.mark.parametrize("name", TABLES)
def test_per_time_table_bytes_are_pinned(tmp_path, name):
    # the digests were taken from the row-building writers that `write_columns` replaced
    make, digest = TABLES[name]
    make().to_csv(tmp_path / "table.csv")
    assert hashlib.sha256((tmp_path / "table.csv").read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, np.float64(np.nan)])
def test_a_non_finite_cell_is_refused_and_no_file_is_made(tmp_path, bad):
    path = tmp_path / "out.csv"
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))} not written: column 'cost' holds "):
        write_csv(path, ["seed", "cost"], [(1, 0.5), (2, bad), (3, 1.0)])
    assert not path.exists()
    with pytest.raises(ValueError, match="column 'std_err'"):
        ConditionalEstimate(GRID, BASE, np.where(BASE > 0, bad, BASE), BASE).to_csv(path)
    assert not path.exists()


def test_finite_rows_blank_cells_and_integers_keep_their_bytes(tmp_path):
    write_csv(tmp_path / "a.csv", ["sweep", "change", "error"], [(1, 0.5, ""), (2, 1e-300, 3)])
    assert (tmp_path / "a.csv").read_text() == "sweep,change,error\n1,0.5,\n2,1e-300,3\n"
    write_columns(tmp_path / "b.csv", {"t": np.array([0.0, 0.5]), "n": [np.int64(4), 7]})
    assert (tmp_path / "b.csv").read_text() == "t,n\n0,4\n0.5,7\n"
    write_csv(tmp_path / "c.csv", ["t"], [])
    assert (tmp_path / "c.csv").read_text() == "t\n"


def test_columns_of_unequal_length_are_refused(tmp_path):
    with pytest.raises(ValueError):
        write_columns(tmp_path / "d.csv", {"t": [0.0, 0.5], "x": [1.0]})
    assert not (tmp_path / "d.csv").exists()
