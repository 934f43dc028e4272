import json
import math
import tracemalloc

import numpy as np
import pytest

from spinwedge import (
    CapacityError,
    Graph,
    ModelSpec,
    adjacency,
    basis_states,
    block_hamiltonian,
    cli,
    complete_graph,
    cycle_graph,
    eigh,
    erdos_renyi_graph,
    evolve_subset,
    full_hamiltonian,
    lift_propagate,
    lift_route,
    path_graph,
    propagate,
    unrank_subset,
)
from spinwedge.spins import FULL_SPIN_LIMIT


def _basis_state(dim, i):
    x = np.zeros(dim, dtype=complex)
    x[i] = 1.0
    return x


def _evolve(g, spec, subset, t):
    amplitudes, _ = evolve_subset(g, spec, subset, [t])
    return amplitudes[0]


def _propagate_sector(g, spec, k, state, times):
    """A general sector state's route: one diagonalization of the sector."""
    return propagate(eigh(block_hamiltonian(g, k, spec)), state, times)


def _transfer(g, spec, from_vertex, to_vertex, times):
    amplitudes, _ = evolve_subset(g, spec, (from_vertex,), times)
    return np.abs(amplitudes[:, to_vertex]) ** 2


def _evolve_full(g, spec, states, times):
    """The full-space oracle: the 2^n hamiltonian's propagator."""
    return propagate(eigh(full_hamiltonian(g, spec)), states, times)


def test_t0_is_identity():
    g = path_graph(4)
    out = _evolve(g, ModelSpec("xy"), unrank_subset(3, 4, 2), 0.0)
    assert np.allclose(out, _basis_state(6, 3), atol=1e-12)
    full = _basis_state(16, 5)
    assert np.allclose(_evolve_full(g, ModelSpec("xy"), full, 0.0), full, atol=1e-12)


def test_p2_perfect_transfer_at_half_pi():
    # 2x2 case: U(t) = cos(t) I - i sin(t) X, so |<1|U|0>|^2 = sin^2 t.
    probs = _transfer(path_graph(2), ModelSpec("xy"), 0, 1, [math.pi / 2])
    assert probs[0] == pytest.approx(1.0, abs=1e-9)


def test_p3_end_to_end_transfer():
    # Eigenphases of A(P_3) realign at t = pi/sqrt(2) with amplitude -1.
    probs = _transfer(path_graph(3), ModelSpec("xy"), 0, 2, [math.pi / math.sqrt(2)])
    assert probs[0] == pytest.approx(1.0, abs=1e-9)


def test_transfer_t0_off_target_is_zero():
    probs = _transfer(path_graph(3), ModelSpec("xy"), 0, 2, [0.0])
    assert probs[0] == pytest.approx(0.0, abs=1e-12)


def test_transfer_probabilities_bounded():
    probs = _transfer(complete_graph(4), ModelSpec("heisenberg", 0.2), 0, 3, [0.3, 1.7, 4.1])
    assert all(0.0 <= p <= 1.0 + 1e-12 for p in probs)


def test_group_property():
    g = complete_graph(4)
    spec = ModelSpec("xy")
    state = _basis_state(6, 0)
    once = _propagate_sector(g, spec, 2, _propagate_sector(g, spec, 2, state, 0.7), 1.6)
    combined = _propagate_sector(g, spec, 2, state, 2.3)
    assert np.linalg.norm(once - combined) <= 1e-9


@pytest.mark.parametrize("model", ["xy", "heisenberg"])
def test_block_matches_full_oracle_gamma1_p4(model):
    g = path_graph(4)
    spec = ModelSpec(model)
    states = basis_states(4, 1)
    full = np.zeros(16, dtype=complex)
    full[states[2]] = 1.0
    evolved_block = _evolve(g, spec, (2,), 1.0)
    evolved_full = _evolve_full(g, spec, full, 1.0)
    assert np.linalg.norm(evolved_full[states] - evolved_block) <= 1e-9


def test_state_spanning_two_sectors_evolves_per_sector():
    g = path_graph(4)
    spec = ModelSpec("heisenberg")
    b1, b2 = basis_states(4, 1), basis_states(4, 2)
    x1 = np.array([0.5, 0.5, 0.5, 0.5], dtype=complex)
    x2 = np.zeros(6, dtype=complex)
    x2[1] = 1.0
    full = np.zeros(16, dtype=complex)
    full[b1] = x1 / math.sqrt(2)
    full[b2] = x2 / math.sqrt(2)
    out = _evolve_full(g, spec, full, 2.5)
    block1 = _propagate_sector(g, spec, 1, x1, 2.5)
    block2 = _propagate_sector(g, spec, 2, x2, 2.5)
    assert np.linalg.norm(out[b1] - block1 / math.sqrt(2)) <= 1e-9
    assert np.linalg.norm(out[b2] - block2 / math.sqrt(2)) <= 1e-9


def test_unitarity_and_energy_conservation():
    g = complete_graph(4)
    spec = ModelSpec("xy", 0.5)
    h = block_hamiltonian(g, 2, spec)
    rng = np.random.default_rng(11)
    z = rng.normal(size=6) + 1j * rng.normal(size=6)
    z /= np.linalg.norm(z)
    e0 = np.real(np.conj(z) @ (h @ z))
    for t in (0.5, 1.0, 5.0):
        out = _propagate_sector(g, spec, 2, z, t)
        assert abs(np.linalg.norm(out) - 1.0) <= 1e-10
        et = np.real(np.conj(out) @ (h @ out))
        assert abs(et - e0) <= 1e-9


def test_field_changes_only_global_phase():
    g = path_graph(5)
    subset = unrank_subset(4, 5, 2)
    t = 1.3
    plain = _evolve(g, ModelSpec("xy"), subset, t)
    shifted = _evolve(g, ModelSpec("xy", 0.8), subset, t)
    phase = np.exp(-1j * 0.8 * (5 - 2 * 2) * t)
    assert np.linalg.norm(shifted - phase * plain) <= 1e-9
    assert np.allclose(np.abs(shifted) ** 2, np.abs(plain) ** 2, atol=1e-12)


def test_evolve_block_dimension_check():
    with pytest.raises(ValueError, match="k=5"):
        _evolve(path_graph(4), ModelSpec("xy"), (0, 1, 2, 3, 4), 1.0)


@pytest.mark.parametrize(
    "subset, message",
    [((2, 1), "not strictly increasing"), ((1, 1), "not strictly increasing"),
     ((1, 4), "element 4 out of range"), ((-1, 2), "element -1 out of range"), ((0.5, 2), "must be integers")],
)
def test_evolve_subset_rejects_bad_subsets(subset, message):
    for model in ("xy", "heisenberg"):
        with pytest.raises(ValueError, match=message):
            evolve_subset(path_graph(4), ModelSpec(model), subset, [1.0])


def test_evolve_rejects_nonfinite_time():
    with pytest.raises(ValueError):
        _evolve(path_graph(3), ModelSpec("xy"), (0,), math.nan)
    with pytest.raises(ValueError):
        evolve_subset(path_graph(3), ModelSpec("heisenberg"), (0,), [[0.5]])


def test_full_oracle_capacity_guard():
    with pytest.raises(CapacityError):
        _evolve_full(Graph(FULL_SPIN_LIMIT + 1, ()), ModelSpec("xy"), np.zeros(2 ** (FULL_SPIN_LIMIT + 1)), 1.0)


def test_full_oracle_evolves_a_block_at_every_time():
    g, spec = cycle_graph(4), ModelSpec("heisenberg", 0.4)
    rng = np.random.default_rng(3)
    states = rng.normal(size=(16, 3)) + 1j * rng.normal(size=(16, 3))
    times = np.array([0.0, 0.9, 2.2])
    out = _evolve_full(g, spec, states, times)
    assert out.shape == (3, 16, 3)
    for i, t in enumerate(times):
        for c in range(3):
            assert np.allclose(out[i, :, c], _evolve_full(g, spec, states[:, c], t), atol=1e-12)


def test_transfer_vertex_range_check():
    with pytest.raises(ValueError):
        _transfer(path_graph(3), ModelSpec("xy"), 3, 0, [1.0])


def test_propagate_batch_matches_single_calls():
    dec = eigh(block_hamiltonian(cycle_graph(6), 3, ModelSpec("heisenberg", 0.3)))
    rng = np.random.default_rng(5)
    states = rng.normal(size=(20, 4)) + 1j * rng.normal(size=(20, 4))
    times = np.array([0.0, 0.4, 2.5])
    batch = propagate(dec, states, times)
    assert batch.shape == (3, 20, 4)
    for i, t in enumerate(times):
        for j in range(4):
            single = propagate(dec, states[:, j], t)
            assert single.shape == (20,)
            assert np.linalg.norm(batch[i, :, j] - single) <= 1e-12


def test_propagate_makes_no_complex_copy_of_the_eigenvectors():
    dec = eigh(block_hamiltonian(erdos_renyi_graph(12, 0.3, 0), 6, ModelSpec("heisenberg")))
    rng = np.random.default_rng(2)
    times = np.linspace(0.0, 3.0, 8)
    for states in (rng.normal(size=924) + 1j * rng.normal(size=924), rng.normal(size=(924, 5)) + 0j):
        tracemalloc.start()
        try:
            out = propagate(dec, states, times)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < dec.vectors.nbytes, (peak, dec.vectors.nbytes)
        v = dec.vectors.astype(complex)
        want = np.array([v @ (np.exp(-1j * t * dec.values) * (v.T @ states).T).T for t in times])
        assert out.shape == want.shape and np.max(np.abs(out - want)) <= 1e-12


def test_lift_propagate_makes_no_complex_copy_of_the_base_eigenvectors():
    g, spec = path_graph(600), ModelSpec("xy")
    base = eigh(adjacency(g))
    route = lift_route(g, 1)
    times = np.linspace(0.0, 3.0, 16)
    tracemalloc.start()
    try:
        out = lift_propagate(g, spec, route, 250, times, base)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < base.vectors.nbytes, (peak, base.vectors.nbytes)
    v = base.vectors.astype(complex)
    want = np.array([v @ (np.exp(-1j * t * base.values) * v[250]) for t in times])
    assert np.max(np.abs(out - want)) <= 1e-12


def test_propagate_rejects_bad_times():
    dec = eigh(block_hamiltonian(path_graph(3), 1, ModelSpec("xy")))
    with pytest.raises(ValueError):
        propagate(dec, _basis_state(3, 0), [0.5, math.inf])
    with pytest.raises(ValueError):
        propagate(dec, _basis_state(3, 0), [[0.5]])


def test_series_matches_single_time_evolution():
    g = complete_graph(5)
    spec = ModelSpec("xy", -0.2)
    subset = unrank_subset(7, 5, 2)
    series, _ = evolve_subset(g, spec, subset, [0.3, 1.1, 4.0])
    for t, out in zip([0.3, 1.1, 4.0], series):
        assert np.linalg.norm(out - _evolve(g, spec, subset, t)) <= 1e-12


def test_series_enforces_norm_at_every_time(monkeypatch):
    # Heisenberg takes the dense route, an XY basis state on a path the lift.
    import spinwedge.dynamics as dyn

    for route, model in (("propagate", "heisenberg"), ("lift_propagate", "xy")):
        real = getattr(dyn, route)

        def leaky(*args, real=real, **kwargs):
            out = real(*args, **kwargs)
            out[-1] *= 1.0 + 1e-6
            return out

        with monkeypatch.context() as patch:
            patch.setattr(dyn, route, leaky)
            with pytest.raises(ValueError, match=r"norm .* at t=1\.0 "):
                evolve_subset(path_graph(4), ModelSpec(model), (0,), [0.5, 1.0])


def test_evolve_command_diagonalizes_once(monkeypatch, capsys):
    # The lift route diagonalizes the 6-vertex path, the dense route the
    # C(6,2) = 15 dimensional sector.
    import spinwedge.dynamics as dyn

    calls = []

    def counting(m):
        calls.append(m.shape)
        return eigh(m)

    monkeypatch.setattr(dyn, "eigh", counting)
    for model, shape, route in (("xy", (6, 6), "lift"), ("heis", (15, 15), "dense")):
        calls.clear()
        argv = ["evolve", "--graph", "path:6", "--model", model, "-k", "2", "--subset", "0,1"]
        assert cli.main(argv + ["--times", "0.5,1,2,3,5,8"]) == 0
        assert calls == [shape]
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 6 and {row["route"] for row in rows} == {route}
