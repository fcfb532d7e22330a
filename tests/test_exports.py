"""Every name a module exports in `__all__` exists there, and only once."""

import importlib

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

