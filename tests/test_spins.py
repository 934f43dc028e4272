import math

import numpy as np
import pytest

from spinwedge import (
    CapacityError,
    Graph,
    ModelSpec,
    adjacency,
    basis_states,
    block_hamiltonian,
    build_wedge_graph,
    complete_graph,
    cycle_graph,
    erdos_renyi_graph,
    full_hamiltonian,
    path_graph,
    project_full_to_blocks,
    rank_subset,
    spectrum_gap,
)

_I = np.eye(2, dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def _site(n, v, op):
    """op acting on vertex v; bit v of the basis index is the least significant
    kron factor for v=0, so factors are stacked left of it."""
    out = np.array([[1.0 + 0j]])
    for site in range(n):
        out = np.kron(op if site == v else _I, out)
    return out


def _pauli_hamiltonian(g, spec):
    """Independent construction straight from Pauli tensor products."""
    n = g.n
    h = np.zeros((2**n, 2**n), dtype=complex)
    for u, v in g.edges:
        if spec.is_xy:
            h += 0.5 * (_site(n, u, _X) @ _site(n, v, _X) + _site(n, u, _Y) @ _site(n, v, _Y))
        else:
            sigma_dot = sum(_site(n, u, p) @ _site(n, v, p) for p in (_X, _Y, _Z))
            h += -0.5 * (sigma_dot - np.eye(2**n))
    for v in range(n):
        h += spec.field_b * _site(n, v, _Z)
    assert np.allclose(h.imag, 0.0, atol=1e-14)
    return h.real


@pytest.mark.parametrize("model", ["xy", "heisenberg"])
@pytest.mark.parametrize("field", [0.0, 0.7])
@pytest.mark.parametrize("g", [path_graph(2), path_graph(4), cycle_graph(4), complete_graph(4), erdos_renyi_graph(5, 0.5, 0)])
def test_full_hamiltonian_matches_pauli_kron(g, model, field):
    spec = ModelSpec(model, field)
    assert np.allclose(full_hamiltonian(g, spec), _pauli_hamiltonian(g, spec), atol=1e-12)


@pytest.mark.parametrize("model", ["xy", "heisenberg"])
def test_commutes_with_total_z(model):
    g = erdos_renyi_graph(5, 0.6, 4)
    h = full_hamiltonian(g, ModelSpec(model))
    pop = np.array([x.bit_count() for x in range(2**g.n)])
    sz = np.diag(g.n - 2.0 * pop)
    assert np.array_equal(h @ sz, sz @ h)


def test_k2_xy_spectrum():
    # 4x4 by hand: the only coupling is |01><10| + h.c., eigenvalues -1, 1
    # plus two zero sectors.
    vals = np.linalg.eigvalsh(full_hamiltonian(path_graph(2), ModelSpec("xy")))
    assert np.allclose(vals, [-1.0, 0.0, 0.0, 1.0], atol=1e-12)


def test_k2_heis_spectrum():
    # 4x4 by hand: diag(0,1,1,0) minus the swap coupling: singlet 2, rest 0.
    # Matches the complete-graph value set j*(n+1-j) at n=2.
    vals = np.linalg.eigvalsh(full_hamiltonian(path_graph(2), ModelSpec("heisenberg")))
    assert np.allclose(vals, [0.0, 0.0, 0.0, 2.0], atol=1e-12)
    assert {round(v) for v in vals} <= {j * (3 - j) for j in range(3)}


def test_xy_annihilates_vacuum():
    g = erdos_renyi_graph(6, 0.5, 1)
    h = full_hamiltonian(g, ModelSpec("xy"))
    vac = np.zeros(2**6)
    vac[0] = 1.0
    assert np.array_equal(h @ vac, np.zeros(2**6))


def test_block_dims_p4():
    spectra = project_full_to_blocks(full_hamiltonian(path_graph(4), ModelSpec("xy")))
    assert [len(s) for s in spectra] == [1, 4, 6, 4, 1]


def test_block_xy_p6_k1_is_adjacency():
    assert np.array_equal(block_hamiltonian(path_graph(6), 1, ModelSpec("xy")), adjacency(path_graph(6)))


def test_block_k4_k2_heis_eigenvalues():
    # Octahedron laplacian: degree 4 minus adjacency {4,0,0,0,-2,-2}.
    vals = np.linalg.eigvalsh(block_hamiltonian(complete_graph(4), 2, ModelSpec("heisenberg")))
    assert np.allclose(vals, [0.0, 4.0, 4.0, 4.0, 6.0, 6.0], atol=1e-12)


@pytest.mark.parametrize("model", ["xy", "heisenberg"])
def test_block_vacuum_is_field_energy(model):
    g = cycle_graph(5)
    b = block_hamiltonian(g, 0, ModelSpec(model, 0.3))
    assert b.shape == (1, 1)
    assert b[0, 0] == pytest.approx(0.3 * 5)


def test_block_field_shift_identity():
    g = path_graph(5)
    for k in range(6):
        h0 = block_hamiltonian(g, k, ModelSpec("xy"))
        hb = block_hamiltonian(g, k, ModelSpec("xy", -1.3))
        assert np.allclose(hb - h0, -1.3 * (5 - 2 * k) * np.eye(h0.shape[0]), atol=1e-12)


def test_block_out_of_range_k():
    with pytest.raises(ValueError):
        block_hamiltonian(path_graph(3), 4, ModelSpec("xy"))


def test_prebuilt_wedge_must_match_graph_and_k():
    g = path_graph(5)
    w = build_wedge_graph(g, 2)
    spec = ModelSpec("heisenberg", 0.4)
    assert np.array_equal(block_hamiltonian(g, 2, spec, w), block_hamiltonian(g, 2, spec))
    with pytest.raises(ValueError):
        block_hamiltonian(g, 3, spec, w)
    with pytest.raises(ValueError):
        block_hamiltonian(cycle_graph(5), 2, spec, w)


@pytest.mark.parametrize("model", ["xy", "heisenberg"])
@pytest.mark.parametrize("g", [path_graph(4), complete_graph(3), erdos_renyi_graph(5, 0.5, 3)])
def test_project_blocks_union_is_full_spectrum(g, model):
    spec = ModelSpec(model)
    h = full_hamiltonian(g, spec)
    union = np.concatenate(project_full_to_blocks(h))
    assert spectrum_gap(union, np.linalg.eigvalsh(h)) <= 1e-9


def test_k3_heis_values_within_closed_form_set():
    spectra = project_full_to_blocks(full_hamiltonian(complete_graph(3), ModelSpec("heisenberg")))
    values = {round(v, 6) for s in spectra for v in s.tolist()}
    assert values <= {0.0, 3.0, 4.0}


def test_full_capacity_guard():
    with pytest.raises(CapacityError):
        full_hamiltonian(Graph(15, ()), ModelSpec("xy"))


def test_spin_basis_map_bits():
    states = basis_states(5, 2)
    assert len(states) == 10 and states.dtype == np.int64
    for r, state in enumerate(states.tolist()):
        assert state.bit_count() == 2
        assert rank_subset([b for b in range(5) if state >> b & 1], 5) == r
    assert list(states) == sorted(states)
    assert not states.flags.writeable
    with pytest.raises(CapacityError):
        basis_states(63, 1)


def test_model_spec_validation():
    with pytest.raises(ValueError):
        ModelSpec("ising")
    with pytest.raises(ValueError):
        ModelSpec("xy", math.inf)
    assert ModelSpec("heis").model == "heisenberg"
    assert ModelSpec("XY").model == "xy"


def test_project_detects_sector_coupling():
    # A term that flips a single spin couples neighboring sectors; the
    # projection must refuse it rather than return block spectra.
    h = np.zeros((8, 8))
    h[0, 1] = h[1, 0] = 1.0
    with pytest.raises(RuntimeError, match="conservation"):
        project_full_to_blocks(h)
    with pytest.raises(ValueError):
        project_full_to_blocks(np.zeros((6, 6)))
