"""On-disk formats: cubes as JSON header + raw float64, series as CSV.

A cube is stored as `<stem>.json` (metadata) next to `<stem>.bin` holding
n * n1 * n2 little-endian float64 values, time-major, row-major within each
slice.  Roundtrips are bit-exact, and the declared byte length is checked
before anything is computed.  Kernel/AIF curves travel as two-column CSV
(t, value) with strictly increasing t at 17 significant digits.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

from .estimator import Cube
from .laguerre import TimeGrid

__all__ = [
    "FileFormatError",
    "write_cube",
    "read_cube",
    "write_series",
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
    header = {
        "n": cube.grid.n,
        "n1": cube.n1,
        "n2": cube.n2,
        "T": cube.grid.T,
        "dtype": _HEADER_DTYPE,
        "order": _HEADER_ORDER,
        "endianness": _HEADER_ENDIAN,
    }
    header_path.write_text(json.dumps(header, sort_keys=True, indent=2) + "\n")
    np.ascontiguousarray(cube.data, dtype="<f8").tofile(bin_path)
    return header_path, bin_path


def read_cube(stem) -> Cube:
    """Read a cube, validating the header against the payload length."""
    header_path, bin_path = _paths(stem)
    try:
        header = json.loads(header_path.read_text())
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"malformed cube header {header_path}: {exc}") from exc
    if not isinstance(header, dict):
        raise FileFormatError(f"cube header {header_path} is not a JSON object")
    for key in ("n", "n1", "n2", "T"):
        if key not in header:
            raise FileFormatError(f"cube header {header_path} lacks field {key!r}")
    # JSON integers and numbers only: int() would truncate 4.9, read true as 1
    # and parse "2"; float() would read 1e999 as inf.
    n, n1, n2, T = (header[key] for key in ("n", "n1", "n2", "T"))
    if not (all(type(v) is int for v in (n, n1, n2)) and type(T) in (int, float)):
        raise FileFormatError(
            f"cube header {header_path}: n, n1 and n2 must be JSON integers and T a JSON number"
        )
    if min(n, n1, n2) < 1 or not 0 < T < math.inf:
        raise FileFormatError(
            f"cube header {header_path} needs positive sizes and a positive finite T"
        )
    if header.get("dtype", _HEADER_DTYPE) != _HEADER_DTYPE:
        raise FileFormatError(f"unsupported dtype {header.get('dtype')!r}")
    if header.get("endianness", _HEADER_ENDIAN) != _HEADER_ENDIAN:
        raise FileFormatError(f"unsupported endianness {header.get('endianness')!r}")
    expected = 8 * n * n1 * n2
    actual = bin_path.stat().st_size
    if actual != expected:
        raise FileFormatError(
            f"{bin_path}: payload is {actual} bytes, header implies {expected}"
        )
    data = np.fromfile(bin_path, dtype="<f8").reshape(n, n1, n2)
    return Cube(grid=TimeGrid(n=n, T=float(T)), data=data)


def write_series(path, t: np.ndarray, values: np.ndarray) -> Path:
    """Two-column CSV (t, value) at 17 significant digits."""
    path = Path(path)
    t = np.asarray(t, dtype=float)
    values = np.asarray(values, dtype=float)
    if t.shape != values.shape or t.ndim != 1:
        raise ValueError("t and values must be 1-D arrays of equal length")
    if np.any(np.diff(t) <= 0):
        raise ValueError("t must be strictly increasing")
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "value"])
        for ti, vi in zip(t, values):
            writer.writerow([format(ti, ".17g"), format(vi, ".17g")])
    return path


def read_series(path) -> tuple[np.ndarray, np.ndarray]:
    """Parse a (t, value) CSV; enforces strictly increasing t."""
    path = Path(path)
    t_vals: list[float] = []
    y_vals: list[float] = []
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        rows = [row for row in reader if row and not row[0].lstrip().startswith("#")]
    if not rows:
        raise FileFormatError(f"{path}: empty series file")
    start = 0
    try:
        float(rows[0][0])
    except ValueError:
        start = 1  # header row
    for row in rows[start:]:
        if len(row) < 2:
            raise FileFormatError(f"{path}: expected two columns, got {row!r}")
        try:
            t_vals.append(float(row[0]))
            y_vals.append(float(row[1]))
        except ValueError as exc:
            raise FileFormatError(f"{path}: non-numeric entry in {row!r}") from exc
    t = np.array(t_vals)
    y = np.array(y_vals)
    if t.size == 0:
        raise FileFormatError(f"{path}: no data rows")
    if np.any(np.diff(t) <= 0):
        raise FileFormatError(f"{path}: t column must be strictly increasing")
    return t, y
