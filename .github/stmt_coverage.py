"""Statement coverage of the package under the test suite, standard library only.

    python .github/stmt_coverage.py [PYTEST_ARGS...]

Runs pytest in this process, with the arguments given, from the repository
root, and records each line run in the files under pyproject.toml's
[tool.coverage.run] source.  A file's statements are the lines of its code
objects (`co_lines`, nested code included), less every statement whose first
line matches one of [tool.coverage.report] exclude_lines, block and all.
Exits 1 and lists every statement that did not run, as path:line, or with
pytest's own status when a test fails; 0 when every statement ran.

Lines are recorded with sys.settrace and threading.settrace, in this
process only: lines a test runs in a subprocess do not count.  Needs Python 3.11 or later, for tomllib.
"""

from __future__ import annotations

import ast
import os
import re
import sys
import threading
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def settings(pyproject: Path) -> tuple[list[str], list[str]]:
    """(source directories, exclusion regexes) from [tool.coverage]."""
    import tomllib  # Python 3.11 and later

    with open(pyproject, "rb") as fh:
        coverage = tomllib.load(fh)["tool"]["coverage"]
    return coverage["run"]["source"], coverage["report"].get("exclude_lines", [])


def statements(path: str, exclude: list[str]) -> set[int]:
    """The executable lines of the file at path, less the excluded statements."""
    source = Path(path).read_text(encoding="utf-8")
    lines, code = set(), [compile(source, path, "exec")]
    while code:
        co = code.pop()
        lines.update(line for _, _, line in co.co_lines() if line)  # 0: a module's start
        code.extend(c for c in co.co_consts if isinstance(c, types.CodeType))
    text = source.splitlines()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.stmt) and any(re.search(p, text[node.lineno - 1])
                                              for p in exclude):
            lines.difference_update(range(node.lineno, node.end_lineno + 1))
    return lines


def lines_run(func, paths) -> tuple[object, dict[str, set[int]]]:
    """Call func() and return its result and the lines it ran in each of
    paths, keyed by path; a tracer already installed is restored after."""
    ran = {os.path.realpath(p): set() for p in paths}
    hits = {}  # co_filename -> its set in ran, or None for other files

    def hits_of(filename):
        if filename not in hits:
            hits[filename] = ran.get(os.path.realpath(filename))
        return hits[filename]

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def calls(frame, event, arg):
        return local if hits_of(frame.f_code.co_filename) is not None else None

    before = sys.gettrace(), threading.gettrace()
    threading.settrace(calls)
    sys.settrace(calls)
    try:
        result = func()
    finally:
        sys.settrace(before[0])
        threading.settrace(before[1])
    return result, {p: ran[os.path.realpath(p)] for p in paths}


def report(ran: dict[str, set[int]], exclude: list[str]) -> list[str]:
    """"path:line did not run" for each statement of each path not in ran."""
    return [f"{path}:{line} did not run" for path, lines in ran.items()
            for line in sorted(statements(path, exclude) - lines)]


def main(argv: list[str]) -> int:
    import pytest

    sources, exclude = settings(ROOT / "pyproject.toml")
    os.chdir(ROOT)
    paths = sorted(str(p.relative_to(ROOT)) for src in sources for p in (ROOT / src).rglob("*.py"))
    status, ran = lines_run(lambda: pytest.main(argv), paths)
    gaps = report(ran, exclude)
    print("\n".join(gaps + [f"statement coverage: {len(gaps)} statements in "
                            f"{', '.join(sources)} did not run"]))
    return int(status) or int(bool(gaps))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
