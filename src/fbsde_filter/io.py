"""CSV emission helpers.

All numeric output uses 17 significant digits and '.' as the decimal mark so
that files are bit-stable and round-trip float64 exactly.  `write_csv` is the
one CSV writer (`write_columns` hands it a table by columns).  It formats
every row before it opens the file, and a cell that reads NaN or +-inf raises
ValueError naming the file and the column: no file is made.
"""

from __future__ import annotations

import numpy as np

_NON_FINITE = frozenset({"nan", "inf", "-inf"})


def fmt(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def write_csv(path, header, rows) -> None:
    """Write rows (iterables of numbers or strings) under a header line; ValueError,
    and no file, if a cell reads NaN or +-inf."""
    header = [str(h) for h in header]
    lines = [",".join(header)]
    for row in rows:
        cells = [v if isinstance(v, str) else fmt(v) for v in row]
        if not _NON_FINITE.isdisjoint(cells):
            i = next(i for i, cell in enumerate(cells) if cell in _NON_FINITE)
            raise ValueError(f"{path} not written: column {header[i]!r} holds {cells[i]}")
        lines.append(",".join(cells))
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def write_columns(path, columns: dict) -> None:
    """Write a table of equal-length columns, given as {header: values}."""
    write_csv(path, columns, zip(*columns.values(), strict=True))
