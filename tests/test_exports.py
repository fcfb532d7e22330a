"""Every name a module exports in `__all__` exists there, and only once; the
package exports exactly the public API, and only names its submodules
export.  The settable surface, config fields, the parameters of the entry
points and the command line's flags, is pinned by name, and so are the
functions that check an array where it enters."""

import ast
import dataclasses
import importlib
import inspect
from pathlib import Path

import numpy as np
import pytest

MODULES = [
    "lagdeconv",
    "lagdeconv.estimator",
    "lagdeconv.io",
    "lagdeconv.laguerre",
    "lagdeconv.simulate",
    "lagdeconv.toeplitz",
    "lagdeconv.wavelet2d",
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve_without_duplicates(name):
    mod = importlib.import_module(name)
    exported = mod.__all__
    assert len(set(exported)) == len(exported), "duplicate names in __all__"
    missing = [attr for attr in exported if not hasattr(mod, attr)]
    assert not missing, f"{name}.__all__ names what the module lacks: {missing}"


PUBLIC_API = {
    "Cube", "TimeGrid", "WaveletSpec", "EstimatorConfig", "Plan", "deconvolve",
    "Diagnostics", "LagCoeffs", "SingularOperatorError",
    "SimConfig", "run_table1", "REFERENCE_TABLE1", "add_noise", "forward_convolve",
    "eval_test_function", "relative_error", "inverse_norms",
}


def test_package_exports_exactly_the_public_api():
    # a new package-level name is an API change: add it here on purpose
    package = importlib.import_module("lagdeconv")
    assert len(package.__all__) == len(PUBLIC_API) == 17
    assert set(package.__all__) == PUBLIC_API


def test_package_names_come_from_a_submodule_all():
    # the package re-exports; each name is one a submodule itself exports
    package = importlib.import_module("lagdeconv")
    submodules = [importlib.import_module(name) for name in MODULES[1:]]
    orphans = [
        attr
        for attr in package.__all__
        if not any(
            attr in mod.__all__ and getattr(mod, attr) is getattr(package, attr)
            for mod in submodules
        )
    ]
    assert not orphans, f"lagdeconv.__all__ names no submodule exports: {orphans}"


# Every setting a caller can pass, by name and in order: an input added or
# removed is an API change, so it shows up here as a deliberate edit.
SETTABLE_FIELDS = {
    "estimator.EstimatorConfig": (
        "M", "J1", "J2", "nu", "eps", "threshold_mode", "rcond", "m_cap",
    ),
    "simulate.SimConfig": ("n", "T", "n1", "n2", "seed", "runs"),
}

PARAMETERS = {
    "estimator.Plan": ("grid", "kernel", "spec", "cfg", "g_zero"),
    "estimator.deconvolve": ("Y", "kernel", "spec", "cfg", "g_zero"),
    "estimator.hard_threshold": ("values", "lambdas"),
    "laguerre.tabulate_basis": ("M", "grid", "rcond"),
    "laguerre.fit_coeffs": ("series", "basis"),
    "toeplitz.inverse_norms": ("kernel", "max_m"),
    "simulate.run_table1": ("cfg", "est_cfg", "snrs"),
    "simulate.run_single": ("fid", "snr", "cfg"),
}


# Every flag of each command, in order, help aside.
CLI_OPTIONS = {
    "simulate": ("--function", "--snr", "--seed", "--n", "--n1", "--n2", "--T", "--out"),
    "deconvolve": (
        "--input", "--kernel", "--kernel-coeffs", "--out", "--M", "--nu", "--eps",
        "--no-threshold", "--symmetrize", "--rcond", "--diagnostics",
    ),
    "bench-table1": ("--runs", "--seed", "--out"),
    "norms": ("--kernel", "--max-m", "--out"),
}


# What a fit reports, by name and in order: each field is also its key in
# `to_dict()` and in the CLI's --diagnostics JSON.
DIAGNOSTICS_FIELDS = (
    "sigma_hat", "eps_hat", "M", "J1", "J2", "projection_rank", "keep_counts",
    "total_counts", "lambdas", "omega_dropped", "thresholds_disabled_reason",
)


def _resolve(where: str):
    module, name = where.split(".")
    return getattr(importlib.import_module(f"lagdeconv.{module}"), name)


@pytest.mark.parametrize("where", SETTABLE_FIELDS)
def test_config_fields_are_pinned(where):
    names = tuple(f.name for f in dataclasses.fields(_resolve(where)))
    assert names == SETTABLE_FIELDS[where]


@pytest.mark.parametrize("where", PARAMETERS)
def test_parameters_are_pinned(where):
    assert tuple(inspect.signature(_resolve(where)).parameters) == PARAMETERS[where]


# the command set itself is pinned by test_cli.py's TestCommandSet
@pytest.mark.parametrize("command", CLI_OPTIONS)
def test_cli_options_are_pinned(command):
    from lagdeconv.cli import _build_parser

    (commands,) = [a for a in _build_parser()._actions if a.choices]
    sub = commands.choices[command]
    options = tuple(flag for a in sub._actions if "-h" not in a.option_strings
                    for flag in a.option_strings)
    assert options == CLI_OPTIONS[command]


def test_diagnostics_fields_are_pinned():
    names = tuple(f.name for f in dataclasses.fields(_resolve("estimator.Diagnostics")))
    assert names == DIAGNOSTICS_FIELDS


def test_diagnostics_json_keys_are_its_fields():
    from lagdeconv import Cube, TimeGrid, WaveletSpec, deconvolve

    grid = TimeGrid(n=8, T=5.0)
    Y = Cube(grid=grid, data=0.01 * np.random.default_rng(0).standard_normal((8, 8, 8)))
    diag = deconvolve(Y, np.exp(-grid.points / 2.0), WaveletSpec(), g_zero=1.0)[1]
    assert diag.thresholds_disabled_reason is None  # every field holds a value
    assert tuple(diag.to_dict()) == DIAGNOSTICS_FIELDS


# A value is checked where it enters the program: the stages a Plan runs
# trust the arrays it hands them, so only these functions call the array check.
REAL_ARRAY_CALLERS = {
    "Cube.__post_init__", "LagCoeffs.__post_init__", "_kernel_nodes", "default_kernel",
}


def test_arrays_are_checked_only_where_they_enter():
    callers = set()

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                walk(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Call) and getattr(child.func, "id", None) == "_real_array":
                callers.add(".".join(scope))
            walk(child, scope)

    for path in Path(importlib.import_module("lagdeconv").__file__).parent.glob("*.py"):
        walk(ast.parse(path.read_text()), ())
    assert callers == REAL_ARRAY_CALLERS
