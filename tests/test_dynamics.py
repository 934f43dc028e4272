import json
import math
import tracemalloc

import numpy as np
import pytest

from spinwedge import (
    CapacityError,
    Graph,
    ModelSpec,
    Sides,
    adjacency,
    basis_states,
    block_hamiltonian,
    build_wedge_graph,
    cli,
    complete_graph,
    cycle_graph,
    eigh,
    erdos_renyi_graph,
    evolve_subset,
    full_hamiltonian,
    path_graph,
    project_full_to_blocks,
    propagate,
    rank_subset,
    subset_table,
)
from spinwedge.spins import FULL_SPIN_LIMIT
from spinwedge.verify import default_corpus


def _basis_state(dim, i):
    x = np.zeros(dim, dtype=complex)
    x[i] = 1.0
    return x


def _evolve(g, spec, subset, t):
    amplitudes, _ = evolve_subset(g, spec, subset, [t])
    return amplitudes[0]


def _propagate_sector(g, spec, k, state, times):
    """A general sector state's route: one diagonalization of the field-free
    sector, then the field's phase."""
    phase = np.exp(-1j * spec.sector_shift(g.n, k) * np.asarray(times, dtype=float))
    return propagate(eigh(block_hamiltonian(build_wedge_graph(g, k), spec)), state, times) * phase[..., None]


def _transfer(g, spec, from_vertex, to_vertex, times):
    amplitudes, _ = evolve_subset(g, spec, (from_vertex,), times)
    return np.abs(amplitudes[:, to_vertex]) ** 2


def _evolve_full(g, spec, states, times):
    """The full-space oracle: the 2^n hamiltonian's propagator."""
    return propagate(eigh(full_hamiltonian(g, spec)), states, times)


def test_t0_is_identity():
    g = path_graph(4)
    out = _evolve(g, ModelSpec("xy"), subset_table(4, 2)[3], 0.0)
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
    h = project_full_to_blocks(full_hamiltonian(g, spec))[2]
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
    subset = subset_table(5, 2)[4]
    t = 1.3
    plain = _evolve(g, ModelSpec("xy"), subset, t)
    shifted = _evolve(g, ModelSpec("xy", 0.8), subset, t)
    phase = np.exp(-1j * 0.8 * (5 - 2 * 2) * t)
    assert np.linalg.norm(shifted - phase * plain) <= 1e-9
    assert np.allclose(np.abs(shifted) ** 2, np.abs(plain) ** 2, atol=1e-12)


@pytest.mark.parametrize(
    "g, model, subset",
    [
        (path_graph(5), "xy", (1, 3)),
        (cycle_graph(6), "xy", (0, 2)),
        (Graph(5, ((0, 1), (0, 2), (0, 3), (0, 4))), "xy", (1, 3)),
        (complete_graph(5), "heisenberg", (0, 3)),
    ],
    ids=["path5-lift", "cycle6-twisted-lift", "star5-dense", "complete5-heisenberg"],
)
def test_field_evolution_matches_the_full_oracle(g, model, subset):
    # path:5 takes the lift, cycle:6 k=2 the lift on its twisted base, and the
    # star's XY side 2 and every Heisenberg sector the dense route; on every
    # route the field phase comes from sector_shift.
    spec, times = ModelSpec(model, 0.7), [0.4, 1.3, 3.0]
    series, _ = evolve_subset(g, spec, subset, times)
    states = basis_states(g.n, len(subset))
    start = np.zeros(2**g.n, dtype=complex)
    start[states[rank_subset(subset, g.n)]] = 1.0
    full = _evolve_full(g, spec, start, times)
    assert np.max(np.abs(series - full[:, states])) <= 1e-10


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
    dec = eigh(block_hamiltonian(build_wedge_graph(cycle_graph(6), 3), ModelSpec("heisenberg")))
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
    dec = eigh(block_hamiltonian(build_wedge_graph(erdos_renyi_graph(12, 0.3, 0), 6), ModelSpec("heisenberg")))
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
    sides = Sides(path_graph(600), ModelSpec("xy"))
    side, base = sides(1), sides.base(None)
    times = np.linspace(0.0, 3.0, 16)
    tracemalloc.start()
    try:
        out, route = side.evolve(1, 250, times)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert route == "lift" and peak < base.vectors.nbytes, (peak, base.vectors.nbytes)
    v = base.vectors.astype(complex)
    want = np.array([v @ (np.exp(-1j * t * base.values) * v[250]) for t in times])
    assert np.max(np.abs(out - want)) <= 1e-12


def test_propagate_rejects_bad_times():
    dec = eigh(block_hamiltonian(build_wedge_graph(path_graph(3), 1), ModelSpec("xy")))
    with pytest.raises(ValueError):
        propagate(dec, _basis_state(3, 0), [0.5, math.inf])
    with pytest.raises(ValueError):
        propagate(dec, _basis_state(3, 0), [[0.5]])


def test_series_matches_single_time_evolution():
    g = complete_graph(5)
    spec = ModelSpec("xy", -0.2)
    subset = subset_table(5, 2)[7]
    series, _ = evolve_subset(g, spec, subset, [0.3, 1.1, 4.0])
    for t, out in zip([0.3, 1.1, 4.0], series):
        assert np.linalg.norm(out - _evolve(g, spec, subset, t)) <= 1e-12


def test_series_enforces_norm_at_every_time(monkeypatch):
    # Heisenberg takes the dense route, an XY basis state on a path the lift.
    import spinwedge.dynamics as dyn

    for route, model in (("propagate", "heisenberg"), ("subset_minors", "xy")):
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


def _record_builds_and_solves(monkeypatch):
    """Record the k of every wedge power that `spectrum` and `evolve` build
    and the matrix of every LAPACK symmetric eigensolve."""
    import spinwedge.dynamics as dyn
    import spinwedge.spins as spins_mod

    builds, solves = [], []
    for mod in (cli, dyn, spins_mod):
        monkeypatch.setattr(mod, "build_wedge_graph", lambda g, k: builds.append(k) or build_wedge_graph(g, k))
    for name in ("eigh", "eigvalsh"):
        real = getattr(np.linalg, name)

        def solve(m, *args, real=real, **kwargs):
            solves.append(np.array(m))
            return real(m, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, solve)
    return builds, solves


@pytest.mark.parametrize(
    "argv, built, sizes",
    [
        # Every side of cycle:7 lifts, and no wedge power is built: one
        # eigensolve of A serves sides 1 and 3, one of A_tau serves side 2.
        (["spectrum", "--graph", "cycle:7", "-k", "all"], [], [7, 7]),
        # Every side of cycle:6 lifts too; sectors 4-6 read sides 2-0.
        (["spectrum", "--graph", "cycle:6", "-k", "all"], [], [6, 6]),
        # Dense Heisenberg sides 0-2, then side 3 from singlet blocks 0..3.
        (["spectrum", "--graph", "er:6:0.5:2", "--model", "heis", "-k", "all"], [0, 1, 2, 3], [1, 6, 15, 1, 5, 9, 5]),
        (["evolve", "--graph", "path:7", "-k", "5", "--subset", "0,1,2,4,6"], [], [7]),
        (["evolve", "--graph", "cycle:6", "-k", "4", "--subset", "0,1,3,4"], [], [6]),
        (["evolve", "--graph", "cycle:6", "--model", "heis", "-k", "4", "--subset", "0,1,3,4"], [2], [15]),
        (["evolve", "--graph", "path:7", "--model", "heis", "-k", "6", "--subset", "0,1,2,3,4,6"], [1], [7]),
        # Sides 0-6 of cycle:13 lift, the even ones on the twisted base.
        (["spectrum", "--graph", "cycle:13", "-k", "all"], [], [13, 13]),
    ],
)
def test_sectors_above_half_are_answered_from_their_side(argv, built, sizes, monkeypatch, capsys):
    # Sectors k and n-k are one graph: no wedge power above n/2 is built,
    # each side is diagonalized once, and only a side that does not lift
    # builds its wedge power, once.
    builds, solves = _record_builds_and_solves(monkeypatch)
    times = ["--times", "0.5,2"] if argv[0] == "evolve" else []
    assert cli.main(argv + times) == 0
    capsys.readouterr()
    assert builds == built
    assert [len(m) for m in solves] == sizes


def test_evolve_chain_op_builds_and_solves_once(monkeypatch, capsys):
    # The benchmark's evolve_chain op: XY on path:12 at k = 4 <= n/2, side 4.
    # The lift is read off the path itself: no wedge power, and no parity
    # forest, the search that switching_signs runs over a wedge's hops.
    import spinwedge.dynamics as dyn
    import spinwedge.wedge as wedge_mod

    builds, solves = _record_builds_and_solves(monkeypatch)
    counts = {"parity_forest": 0, "subset_minors": 0}
    for mod, name in ((wedge_mod, "parity_forest"), (dyn, "subset_minors")):
        real = getattr(mod, name)

        def counting(*args, real=real, name=name):
            counts[name] += 1
            return real(*args)

        monkeypatch.setattr(mod, name, counting)
    times = ",".join(str(0.5 * i) for i in range(1, 17))
    argv = ["evolve", "--graph", "path:12", "-k", "4", "--subset", "1,4,7,9", "--times", times]
    assert cli.main(argv) == 0
    assert {row["route"] for row in json.loads(capsys.readouterr().out)} == {"lift"}
    assert builds == []
    assert [m.shape for m in solves] == [(12, 12)] and np.array_equal(solves[0], adjacency(path_graph(12)))
    assert counts == {"parity_forest": 0, "subset_minors": 1}


@pytest.mark.parametrize("model", ["xy", "heisenberg"])
def test_evolve_subset_above_half_matches_its_own_sector(model):
    # Sector k > n/2 is answered from side n-k, relabelled; the reference is
    # dense propagation in sector k, built from its own wedge power.
    times = [0.5, 1.0, 5.0]
    for name, g in default_corpus():
        for k in range(g.n // 2 + 1, g.n + 1):
            m = math.comb(g.n, k)
            spec = ModelSpec(model, 0.3)
            dec = eigh(block_hamiltonian(build_wedge_graph(g, k), spec))
            phase = np.exp(-1j * spec.sector_shift(g.n, k) * np.array(times))[:, None]
            for r0 in sorted({0, 1 % m, m // 2, m - 1}):
                series, _ = evolve_subset(g, spec, subset_table(g.n, k)[r0], times)
                dense = propagate(dec, np.eye(m)[:, r0], times) * phase
                assert np.max(np.abs(series - dense)) <= 1e-10, (name, k, r0)


# Sectors above n/2 under a field, on each route of the side: lift (cycle:7
# XY), lift on the twisted base (cycle:6 XY), dense (er:6:0.5:2 XY) and su2
# for the values (cycle:7 Heisenberg, side 3).
FAULT_CASES = [("cycle:7", "xy", 5), ("cycle:6", "xy", 4), ("er:6:0.5:2", "xy", 4), ("cycle:7", "heis", 4)]


def _failing_answers(graph, model, k, capsys):
    """Which answers for sector k disagree with dense sector k, built from its
    own wedge power: the spectrum that `spectrum` prints and the amplitudes
    that `evolve` computes (its probabilities hide the field's phase)."""
    g, spec, times = cli.parse_graph_source(graph), ModelSpec(model, 0.5), [0.5, 1.0, 5.0]
    h = block_hamiltonian(build_wedge_graph(g, k), spec) + spec.sector_shift(g.n, k) * np.eye(math.comb(g.n, k))
    dec = eigh(h)
    assert cli.main(["spectrum", "--graph", graph, "--model", model, "--field", "0.5", "-k", str(k)]) == 0
    (block,) = json.loads(capsys.readouterr().out)["blocks"]
    failing = set()
    if np.max(np.abs(np.array(block["spectrum"]["values"]) - dec.values)) > 1e-9:
        failing.add("spectrum")
    series, _ = evolve_subset(g, spec, subset_table(g.n, k)[1], times)
    if np.max(np.abs(series - propagate(dec, np.eye(len(dec.values))[:, 1], times))) > 1e-10:
        failing.add("evolve")
    return failing


@pytest.mark.parametrize("graph, model, k", FAULT_CASES)
def test_relabel_and_shift_are_each_one_method(graph, model, k, monkeypatch, capsys):
    # Every answer for sector k goes through Side.relabel and Side.shift, so
    # one fault in either shows in every answer that depends on it.  A
    # spectrum has no ranks, so no relabelling can change it.
    import spinwedge.dynamics as dyn

    assert _failing_answers(graph, model, k, capsys) == set()
    relabel, shift = dyn.Side.relabel, dyn.Side.shift
    faults = [
        # Relabel neither the start rank nor the amplitudes, or only one of
        # them: a second relabelling outside the method would hide a fault.
        ("relabel", lambda self, k, x: x, {"evolve"}),
        ("relabel", lambda self, k, x: x if x.ndim == 1 else relabel(self, k, x), {"evolve"}),
        ("relabel", lambda self, k, x: x if x.ndim > 1 else relabel(self, k, x), {"evolve"}),
        ("shift", lambda self, k: shift(self, self.h), {"spectrum", "evolve"}),
    ]
    for method, fault, failing in faults:
        with monkeypatch.context() as patch:
            patch.setattr(dyn.Side, method, fault)
            assert _failing_answers(graph, model, k, capsys) == failing, method


def test_sides_are_freed_without_the_cycle_collector():
    # Nothing a call builds refers back to its Sides, so the sides, their
    # wedge powers and the base go with the last reference, not at the
    # collector's next full pass.
    import gc
    import weakref

    gc.disable()
    try:
        for model, k in (("xy", 3), ("xy", 2), ("heis", 3)):
            sides = Sides(cycle_graph(6), ModelSpec(model))
            side = sides(k)
            side.values(k)
            side.evolve(k, 0, [0.5])
            refs = [weakref.ref(x) for x in (sides, side, side.wedge, side.wedge.hops[0])]
            del sides, side
            assert [r() for r in refs] == [None] * len(refs), (model, k)
    finally:
        gc.enable()
