"""`.github/stmt_coverage.py`, the statement-coverage check that needs only
the standard library.  Running it takes the whole suite, so tier-1 checks its
parts: the settings it reads and the lines it reports, on a small module."""

import importlib.util
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def load(path, name):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


stmt_coverage = load(ROOT / ".github" / "stmt_coverage.py", "stmt_coverage")


def test_reads_its_settings_from_pyproject(tmp_path):
    pytest.importorskip("tomllib")
    assert stmt_coverage.settings(ROOT / "pyproject.toml") == (
        ["src/lagdeconv"], ['if __name__ == "__main__":'])
    pyproject = tmp_path / "pyproject.toml"
    pyproject.write_text(textwrap.dedent("""\
        [tool.coverage.run]
        source = ["pkg"]
        [tool.coverage.report]
        exclude_lines = ["if DEBUG:"]
        """))
    sources, exclude = stmt_coverage.settings(pyproject)
    module = tmp_path / "debug.py"
    module.write_text("DEBUG = False\nif DEBUG:\n    print(\n        DEBUG)\nx = 1\n")
    assert (sources, exclude) == (["pkg"], ["if DEBUG:"])
    assert stmt_coverage.statements(str(module), []) == {1, 2, 3, 4, 5}
    assert stmt_coverage.statements(str(module), exclude) == {1, 5}


def test_reports_a_planted_unrun_line(tmp_path):
    module = tmp_path / "planted.py"
    module.write_text(textwrap.dedent("""\
        def sign(x):
            if x < 0:
                return -1
            return 1
        """))
    path = str(module)
    result, ran = stmt_coverage.lines_run(lambda: load(path, "planted").sign(2), [path])
    assert result == 1 and {1, 2, 4} <= ran[path] and 3 not in ran[path]
    assert stmt_coverage.report(ran, []) == [f"{path}:3 did not run"]
