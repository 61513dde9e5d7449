"""Every name a module lists in ``__all__`` must exist on it."""

import importlib
import pkgutil

import pytest

import helmfmm

MODULES = ["helmfmm"] + [
    f"helmfmm.{m.name}" for m in pkgutil.iter_modules(helmfmm.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert missing == []
