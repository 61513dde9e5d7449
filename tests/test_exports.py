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


def test_the_plan_and_apply_api_is_exported():
    """A solve is plan_fmm(targets, sources, config), then plan.apply(charges)."""
    assert {"plan_fmm", "run_fmm_full"} <= set(helmfmm.__all__)
    assert helmfmm.plan_fmm is helmfmm.traversal.plan_fmm
    assert "FmmPlan" in helmfmm.traversal.__all__
