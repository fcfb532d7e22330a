"""Every name a module exports in `__all__` exists there, and only once; the
package exports only names its submodules export."""

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
