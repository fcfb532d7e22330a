"""On-disk formats: cubes as JSON header + raw float64, series as CSV.

A cube at stem S is stored as `S.json` (metadata) next to `S.bin` holding
n * n1 * n2 little-endian float64 values, time-major, row-major within each
slice; a stem that already ends in `.json` or `.bin` loses that suffix
first, and any other dot is part of the name.  Roundtrips are bit-exact.
Kernel/AIF curves are read from two-column CSV (t, value) with strictly
increasing t.  Both text files are read as UTF-8, and a leading byte-order
mark is ignored.  Each reader checks a file inside one guard: any fault of
it, undecodable text and CSV limits included, raises one `FileFormatError`
naming the file, before anything is computed.  A file that cannot be opened
raises its `OSError`.
"""

from __future__ import annotations

import csv
import json
import math
import re
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
    return stem.with_name(f"{stem.name}.json"), stem.with_name(f"{stem.name}.bin")


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
    checks the rest: the text, the JSON, its keys and layout, n1, n2 and the
    length.  Every check raises ValueError, and one guard per file names it.
    """
    header_path, bin_path = _paths(stem)
    try:
        header = json.loads(header_path.read_text(encoding="utf-8-sig"))
        if not isinstance(header, dict):
            raise ValueError("not a JSON object")
        for key in ("n", "n1", "n2", "T"):
            if key not in header:
                raise ValueError(f"missing field {key!r}")
        # the one layout this reader decodes; a header may leave any of it out
        for key, value in (("dtype", _HEADER_DTYPE), ("order", _HEADER_ORDER),
                           ("endianness", _HEADER_ENDIAN)):
            if header.get(key, value) != value:
                raise ValueError(f"unsupported {key} {header[key]!r}, need {value!r}")
        n1, n2 = header["n1"], header["n2"]
        # JSON integers only: true, 4.0 and "4" are not sides
        if not (_is_int_at_least(n1, 1) and _is_int_at_least(n2, 1)):
            raise ValueError("n1 and n2 must be JSON integers >= 1")
        grid = TimeGrid(n=header["n"], T=header["T"])
    except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError included
        raise FileFormatError(f"cube header {header_path}: {exc}") from exc
    try:
        expected, actual = 8 * grid.n * n1 * n2, bin_path.stat().st_size
        if actual != expected:
            raise ValueError(f"payload is {actual} bytes, header implies {expected}")
        return Cube(grid=grid, data=np.fromfile(bin_path, dtype="<f8").reshape(grid.n, n1, n2))
    except ValueError as exc:
        raise FileFormatError(f"{bin_path}: {exc}") from exc


# A number cell in ASCII decimal syntax, as np.savetxt writes it, with
# surrounding blanks: float() alone also reads digit-group underscores (0_8)
# and other scripts' digits.  nan and inf match, to fail the finite check.
_NUMBER = re.compile(
    r"\s*[+-]?(?:(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:e[+-]?[0-9]+)?|inf(?:inity)?|nan)\s*",
    re.ASCII | re.IGNORECASE)


def _is_number(cell: str) -> bool:
    return _NUMBER.fullmatch(cell) is not None


def read_series(path) -> tuple[np.ndarray, np.ndarray]:
    """Parse a (t, value) CSV; enforces two fields per data row, finite
    entries and strictly increasing t.  The first row is a header when none
    of its cells is a number.  Any fault raises FileFormatError naming the
    file, undecodable text and csv's field limit included."""
    path = Path(path)
    try:
        with path.open(newline="", encoding="utf-8-sig") as fh:
            rows = [row for row in csv.reader(fh) if row and not row[0].lstrip().startswith("#")]
        if not rows:
            raise ValueError("empty series file")
        pairs = []
        for row in rows[0 if any(map(_is_number, rows[0])) else 1:]:
            if len(row) != 2:
                raise ValueError(f"expected two columns, got {row!r}")
            if not all(map(_is_number, row)):
                raise ValueError(f"non-numeric entry in {row!r}")
            t_i, y_i = float(row[0]), float(row[1])
            # "nan" and "inf" are numbers here; a NaN t would also pass the order check
            if not (math.isfinite(t_i) and math.isfinite(y_i)):
                raise ValueError(f"non-finite entry in {row!r}")
            pairs.append((t_i, y_i))
        if not pairs:
            raise ValueError("no data rows")
        t, y = map(np.array, zip(*pairs))
        if np.any(np.diff(t) <= 0):
            raise ValueError("t column must be strictly increasing")
    except (ValueError, csv.Error) as exc:
        raise FileFormatError(f"{path}: {exc}") from exc
    return t, y
