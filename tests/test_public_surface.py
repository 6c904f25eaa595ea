"""Every name that specpoly or one of its public modules lists in ``__all__``
resolves: a name removed from a module but left in a list fails here, not in
a user's ``from specpoly import *``."""

import importlib
import pkgutil

import pytest

import specpoly

MODULES = ["specpoly"] + [
    f"specpoly.{m.name}" for m in pkgutil.iter_modules(specpoly.__path__) if not m.name.startswith("_")
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []
