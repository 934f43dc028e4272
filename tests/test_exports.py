"""The exported names: every one resolves, and deleted names stay deleted.

A stale ``__all__`` entry fails only at ``import *``, so it is checked here.
"""

import importlib
import inspect
import pkgutil

import pytest

import spinwedge

MODULES = sorted(m.name for m in pkgutil.iter_modules(spinwedge.__path__, "spinwedge.") if m.name != "spinwedge.__main__")

# Spectra are sorted float arrays, and evolution starts from a subset and
# returns one amplitude array; these wrappers, pairings and routes were deleted.
DELETED = (
    "Spectrum",
    "SpectrumComparison",
    "compare_spectra",
    "lift_spectrum",
    "LiftedEigenpair",
    "WaveState",
    "evolve_block_series",
    "transfer_fidelity",
)


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), name
    assert [n for n in exported if not hasattr(module, n)] == []
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(exported) <= set(namespace)


def test_package_names_resolve_to_declared_exports():
    declared = {n for name in MODULES for n in getattr(importlib.import_module(name), "__all__", [])}
    public = {n for n, obj in vars(spinwedge).items() if not n.startswith("_") and not inspect.ismodule(obj)}
    assert public - declared == set()


@pytest.mark.parametrize("name", DELETED)
def test_deleted_names_are_gone(name):
    assert not hasattr(spinwedge, name)
    for module_name in MODULES:
        module = importlib.import_module(module_name)
        assert not hasattr(module, name), module_name
        assert name not in getattr(module, "__all__", []), module_name
