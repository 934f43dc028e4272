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
# The tensor-space oracle is bounded by its work entries, not by n^k.  Only
# the reference builder in the tests computes a hop's sign one at a time, and
# a Side holds its lift route and evolves it.  The next five restated another
# name: switching_signs, complete_sector_spectrum(n, k, "xy"),
# component_count, and the laplacian and degrees of wedge power 1.  The
# rank-r k-subset is row r of subset_table, and Graph builds a graph from its
# edges.
DELETED = (
    "Spectrum",
    "SpectrumComparison",
    "compare_spectra",
    "lift_spectrum",
    "LiftedEigenpair",
    "WaveState",
    "evolve_block_series",
    "transfer_fidelity",
    "TENSOR_DIM_LIMIT",
    "hop_sign",
    "LiftRoute",
    "lift_propagate",
    "lift_route",
    "johnson_spectrum",
    "connected_components",
    "laplacian",
    "degree_matrix",
    "unrank_subset",
    "graph_from_edge_list",
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


def test_wedge_and_graph_views_are_gone():
    # signed_edges is the one export view of a wedge power; len(g.edges)
    # counts a graph's edges and wedge power 1 gives its degrees.
    for name in ("skeleton", "vertex_names", "negative_edges"):
        assert not hasattr(spinwedge.WedgeGraph, name), name
    for name in ("degrees", "num_edges"):
        assert not hasattr(spinwedge.Graph, name), name


def test_eigen_decomposition_has_no_dim():
    # len(values) is its dimension.
    assert not hasattr(spinwedge.EigenDecomposition, "dim")
