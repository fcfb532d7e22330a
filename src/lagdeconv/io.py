"""On-disk formats: cubes as JSON header + raw float64, series as CSV.

A cube is stored as `<stem>.json` (metadata) next to `<stem>.bin` holding
n * n1 * n2 little-endian float64 values, time-major, row-major within each
slice.  Roundtrips are bit-exact.  Any fault of a cube file, in the header
or in the payload values, raises `FileFormatError` naming the file, before
anything is computed.  Kernel/AIF curves are read from two-column CSV
(t, value) with strictly increasing t.  Both text files are read as UTF-8,
and a leading byte-order mark is ignored.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

from .estimator import Cube
from .laguerre import TimeGrid, _is_int_at_least

__all__ = [
    "FileFormatError",
    "write_cube",
    "read_cube",
    "read_series",
]

_HEADER_DTYPE = "f64"
_HEADER_ORDER = "t-major row-major"
_HEADER_ENDIAN = "little"


class FileFormatError(ValueError):
    """A header/payload inconsistency or a malformed file."""


def _paths(stem) -> tuple[Path, Path]:
    stem = Path(stem)
    if stem.suffix in {".json", ".bin"}:
        stem = stem.with_suffix("")
    return stem.with_suffix(".json"), stem.with_suffix(".bin")


def write_cube(stem, cube: Cube) -> tuple[Path, Path]:
    """Write header and payload; returns the two paths."""
    header_path, bin_path = _paths(stem)
    header = {  # plain int/float: json cannot write numpy scalars
        "n": int(cube.grid.n),
        "n1": int(cube.n1),
        "n2": int(cube.n2),
        "T": float(cube.grid.T),
        "dtype": _HEADER_DTYPE,
        "order": _HEADER_ORDER,
        "endianness": _HEADER_ENDIAN,
    }
    header_path.write_text(json.dumps(header, sort_keys=True, indent=2) + "\n")
    np.ascontiguousarray(cube.data, dtype="<f8").tofile(bin_path)
    return header_path, bin_path


def read_cube(stem) -> Cube:
    """Read a cube; any fault of either file raises FileFormatError naming it.

    `TimeGrid` checks n and T and `Cube` the payload values; this reader
    checks the rest: the JSON, its keys and layout, n1, n2 and the length.
    """
    header_path, bin_path = _paths(stem)
    try:
        header = json.loads(header_path.read_text(encoding="utf-8-sig"))
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"malformed cube header {header_path}: {exc}") from exc
    if not isinstance(header, dict):
        raise FileFormatError(f"cube header {header_path} is not a JSON object")
    for key in ("n", "n1", "n2", "T"):
        if key not in header:
            raise FileFormatError(f"cube header {header_path} lacks field {key!r}")
    # the one layout this reader decodes; a header may leave any of it out
    for key, value in (("dtype", _HEADER_DTYPE), ("order", _HEADER_ORDER),
                       ("endianness", _HEADER_ENDIAN)):
        if header.get(key, value) != value:
            raise FileFormatError(f"{header_path}: unsupported {key} {header[key]!r}, "
                                  f"need {value!r}")
    n1, n2 = header["n1"], header["n2"]
    # JSON integers only: true, 4.0 and "4" are not sides
    if not (_is_int_at_least(n1, 1) and _is_int_at_least(n2, 1)):
        raise FileFormatError(f"cube header {header_path}: n1 and n2 must be JSON integers >= 1")
    try:
        grid = TimeGrid(n=header["n"], T=header["T"])
    except ValueError as exc:
        raise FileFormatError(f"cube header {header_path}: {exc}") from exc
    expected = 8 * grid.n * n1 * n2
    actual = bin_path.stat().st_size
    if actual != expected:
        raise FileFormatError(
            f"{bin_path}: payload is {actual} bytes, header implies {expected}"
        )
    data = np.fromfile(bin_path, dtype="<f8").reshape(grid.n, n1, n2)
    try:
        return Cube(grid=grid, data=data)
    except ValueError as exc:
        raise FileFormatError(f"{bin_path}: {exc}") from exc


def _is_number(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def read_series(path) -> tuple[np.ndarray, np.ndarray]:
    """Parse a (t, value) CSV; enforces two fields per data row, finite
    entries and strictly increasing t.  The first row is a header when none
    of its cells is a number."""
    path = Path(path)
    t_vals: list[float] = []
    y_vals: list[float] = []
    with path.open(newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        rows = [row for row in reader if row and not row[0].lstrip().startswith("#")]
    if not rows:
        raise FileFormatError(f"{path}: empty series file")
    start = 0 if any(_is_number(cell) for cell in rows[0]) else 1
    for row in rows[start:]:
        if len(row) != 2:
            raise FileFormatError(f"{path}: expected two columns, got {row!r}")
        try:
            t_i, y_i = float(row[0]), float(row[1])
        except ValueError as exc:
            raise FileFormatError(f"{path}: non-numeric entry in {row!r}") from exc
        # float() parses "nan" and "inf"; a NaN t would also pass the order check
        if not (math.isfinite(t_i) and math.isfinite(y_i)):
            raise FileFormatError(f"{path}: non-finite entry in {row!r}")
        t_vals.append(t_i)
        y_vals.append(y_i)
    t = np.array(t_vals)
    y = np.array(y_vals)
    if t.size == 0:
        raise FileFormatError(f"{path}: no data rows")
    if np.any(np.diff(t) <= 0):
        raise FileFormatError(f"{path}: t column must be strictly increasing")
    return t, y
