"""The free-fermion lift route for XY sectors: the switching test, the route
rule on its signed base, and agreement of the lift with the dense route."""

import itertools
import json
import math
import random

import numpy as np
import pytest

import spinwedge.dynamics as dynamics_mod
import spinwedge.verify as verify_mod
import spinwedge.wedge as wedge_mod
from spinwedge import (
    Graph,
    ModelSpec,
    Sides,
    WedgeGraph,
    adjacency,
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
    signed_matrix,
    spectrum_gap,
    subset_sums,
    subset_table,
    switching_signs,
    wedge_adjacency,
)
from spinwedge.spectra import DEFAULT_TOL
from spinwedge.verify import check_free_fermion_route, check_lift, default_corpus, run_verification

STAR5 = Graph(5, ((0, 1), (0, 2), (0, 3), (0, 4)))


def _spectrum_cap_graphs(seed, n=14, p=0.3, graphs=24):
    """The seeded G(14, 0.3) inputs of the benchmark's spectrum_cap workload."""
    rng = random.Random(seed)
    return [
        Graph(n, tuple((u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p))
        for _ in range(graphs)
    ]


def _switches_by_search(w):
    """Whether some +-1 vector switches the signed matrix to the adjacency,
    by trying them all (the first entry fixed, as -D works when D does)."""
    c, a = signed_matrix(w), wedge_adjacency(w)
    m = w.num_vertices
    for rest in itertools.product((1, -1), repeat=m - 1):
        d = np.array((1,) + rest)
        if np.array_equal(d[:, None] * c * d, a):
            return True
    return False


def _union_find_signs(w):
    """Reference switching test: a sequential parity union-find with path
    compression over the hops.  The +-1 vector D with D[a] * sign * D[b] = 1
    on every hop, or None at the first contradicting hop."""
    a, b, s = w.hops
    parent = list(range(w.num_vertices))
    odd = [0] * w.num_vertices  # parity of each vertex relative to its parent

    def find(x):
        path = []
        while parent[x] != x:
            path.append(x)
            x = parent[x]
        acc = 0
        for y in reversed(path):
            acc ^= odd[y]
            odd[y] = acc
            parent[y] = x
        return x

    for u, v, differ in zip(a.tolist(), b.tolist(), (s < 0).tolist()):
        ru, rv = find(u), find(v)
        flip = odd[u] ^ odd[v] ^ differ
        if ru != rv:
            parent[ru] = rv
            odd[ru] = flip
        elif flip:
            return None
    for x in range(w.num_vertices):
        find(x)
    return 1 - 2 * np.array(odd, dtype=np.int64)


def _twisted(w, twist):
    """Wedge power w of the signed base: every hop that moves a particle
    along the edge ``twist`` (a vertex pair, or None) changes sign."""
    a, b, s = w.hops
    if twist is not None:
        moved = set(twist)
        rows = subset_table(w.base.n, w.k)
        along = np.array([set(rows[x]) ^ set(rows[y]) == moved for x, y in zip(a.tolist(), b.tolist())], dtype=bool)
        s = np.where(along, -s, s)
    return WedgeGraph(w.base, w.k, w.num_vertices, (a, b, s))


def _route(g, k):
    """The XY side of sector k, h = min(k, n-k), when it takes the lift
    route, else None."""
    side = Sides(g, ModelSpec("xy"))(k)
    return side if side.route == "lift" else None


def _assert_exact_on_hops(w, signs):
    """D[a] * sign * D[b] == 1 on every hop, which is D . C . D == A exactly,
    as C and A share their support."""
    a, b, s = w.hops
    assert set(signs.tolist()) <= {1, -1}
    assert np.all(signs[a] * s * signs[b] == 1)


def _check_route(g, k):
    """Sector k lifts exactly where the union-find reference switches its
    side's wedge on the side's signed base, and then D . C_h(B) . D = A_h
    exactly; the side, or None."""
    side = Sides(g, ModelSpec("xy"))(k)
    twist = None if side.switching is None else side.switching[1]
    w = _twisted(build_wedge_graph(g, side.h), twist)
    assert (side.route == "lift") == (_union_find_signs(w) is not None)
    if side.route != "lift":
        return None
    _assert_exact_on_hops(w, side.switching[0])
    return side


def _sectors(graphs):
    for name, g in graphs:
        for k in range(g.n + 1):
            yield name, g, k


SMALL = [
    ("path:5", path_graph(5)),
    ("cycle:6", cycle_graph(6)),
    ("star:5", STAR5),
    ("er:6:0.5:2", erdos_renyi_graph(6, 0.5, 2)),
]


@pytest.mark.parametrize("name, g, k", [s for s in _sectors(SMALL) if math.comb(s[1].n, s[2]) <= 15])
def test_switching_signs_is_exact(name, g, k):
    w = build_wedge_graph(g, k)
    d = switching_signs(w)
    assert (d is not None) == _switches_by_search(w)
    if d is not None:
        assert np.array_equal(d[:, None] * signed_matrix(w) * d, wedge_adjacency(w))


def test_switching_signs_on_every_corpus_wedge():
    for name, g, k in _sectors(default_corpus()):
        w = build_wedge_graph(g, k)
        d = switching_signs(w)
        if d is not None:
            assert set(d.tolist()) <= {1, -1}
            assert np.array_equal(d[:, None] * signed_matrix(w) * d, wedge_adjacency(w)), (name, k)
        else:
            assert np.any(signed_matrix(w) < 0), (name, k)


def test_switching_signs_rejects_a_frustrated_wedge():
    w = build_wedge_graph(cycle_graph(6), 2)
    a, b, s = w.hops
    flipped = WedgeGraph(w.base, w.k, w.num_vertices, (a, b, np.ones_like(s)))
    assert switching_signs(w) is None
    d = switching_signs(flipped)
    assert np.array_equal(d, np.ones(w.num_vertices, dtype=np.int64))


def test_switching_signs_on_one_subset_or_hop_free_sides():
    # Sides 0 and n have one subset and no hop, and every side of an edgeless
    # graph has no hop: each switches with D all ones.
    edgeless = Graph(4, ())
    cases = [(g, k) for _, g in default_corpus() + [("edgeless:4", edgeless)] for k in (0, g.n)]
    for g, k in cases + [(edgeless, 1)]:
        w = build_wedge_graph(g, k)
        d = switching_signs(w)
        assert d.dtype == np.int64, (g, k)
        assert np.array_equal(d, np.ones(w.num_vertices, dtype=np.int64)), (g, k)


def test_a_hub_hooked_by_every_hop_keeps_one_hops_parity():
    # Every hop of this star meets the hub, the largest rank, so the first
    # forest round hooks the hub from all of them at once.  The signs
    # alternate: a parent written from one hop and a parity from another
    # would break a tree hop, and this tree, which always switches, would
    # read as a contradiction.
    leaves = 1000
    signs = np.where(np.arange(leaves) % 2, -1, 1)
    star = WedgeGraph(path_graph(2), 1, leaves + 1, (np.arange(leaves), np.full(leaves, leaves), signs))
    _assert_exact_on_hops(star, switching_signs(star))


def _route_sets():
    """Every corpus graph and k, star:5, the spectrum_cap graphs of seeds 11
    and 12 at k = 5 and 9, and paths up to 14 and cycles up to 17 within the
    sector limit."""
    yield from _sectors(default_corpus() + [("star:5", STAR5)])
    for seed in (11, 12):
        for i, g in enumerate(_spectrum_cap_graphs(seed)):
            yield from ((f"spectrum_cap:{seed}:{i}", g, k) for k in (5, 9))
    families = [(f"path:{n}", path_graph(n)) for n in range(1, 15)]
    families += [(f"cycle:{n}", cycle_graph(n)) for n in range(3, 18)]
    yield from (s for s in _sectors(families) if math.comb(s[1].n, s[2]) <= wedge_mod.BLOCK_DIM_LIMIT)


def test_forest_route_matches_the_union_find_reference():
    for name, g, k in _route_sets():
        side = _check_route(g, k)
        if side is not None:
            assert side.h == min(k, g.n - k), (name, k)


@pytest.mark.parametrize("name, g", default_corpus() + [("star:5", STAR5)])
def test_lift_route_decides_both_sides_from_one_wedge(name, g):
    # Sectors k and n-k are one side, decided once.
    sides = Sides(g, ModelSpec("xy"))
    for k in range(g.n + 1):
        assert sides(k) is sides(g.n - k)
        _check_route(g, k)


def test_route_rule_facts():
    # Paths and cycles lift at every k, on A for a path and an odd side and on
    # the twisted base for an even side h >= 2 of a cycle; sides 0 and 1 lift
    # on every graph; nothing else lifts.
    for n in range(1, 15):
        g = path_graph(n)
        for k in range(n + 1):
            assert _route(g, k).switching[1] is None
    for n in (4, 6, 7):
        g = cycle_graph(n)
        for k in range(n + 1):
            h = min(k, n - k)
            assert _route(g, k).switching[1] == ((0, n - 1) if h >= 2 and h % 2 == 0 else None), (n, k)
    for name, g in default_corpus() + [("star:5", STAR5)]:
        for k in {0, 1, g.n - 1, g.n}:
            assert _route(g, k) is not None, (name, k)
    dense = [(STAR5, 2), (STAR5, 3)] + [(erdos_renyi_graph(6, 0.5, 2), k) for k in (2, 3, 4)]
    for g, k in dense:
        assert _route(g, k) is None


@pytest.mark.parametrize("seed", [11, 12])
def test_spectrum_cap_graphs_stay_dense(seed):
    for g in _spectrum_cap_graphs(seed):
        for k in (5, 9):
            assert _check_route(g, k) is None


def test_lift_and_dense_routes_agree_on_the_corpus():
    for name, g, k in _sectors(default_corpus()):
        if _route(g, k) is None:
            continue
        m = math.comb(g.n, k)
        for b in (0.0, 0.5):
            spec = ModelSpec("xy", b)
            dec = eigh(project_full_to_blocks(full_hamiltonian(g, spec))[k])
            for r0 in sorted({0, m // 2, m - 1}):
                start = np.zeros(m)
                start[r0] = 1.0
                series, route = evolve_subset(g, spec, subset_table(g.n, k)[r0], [0.5, 1.0, 5.0])
                dense = propagate(dec, start, [0.5, 1.0, 5.0])
                assert route == "lift"
                assert np.max(np.abs(series - dense)) <= 1e-10, (name, k, b, r0)


@pytest.mark.parametrize("name", [name for name, _ in default_corpus()])
def test_spectrum_routes_agree(name):
    g = dict(default_corpus())[name]
    for b in (0.0, 0.5):
        blocks = cli._spectrum_payload(g, name, ModelSpec("xy", b), range(g.n + 1), True)["blocks"]
        oracle = project_full_to_blocks(full_hamiltonian(g, ModelSpec("xy", b)))
        for block in blocks:
            k = block["k"]
            route = _route(g, k)
            assert block["route"] == ("dense" if route is None else "lift")
            dense = np.linalg.eigvalsh(oracle[k])
            assert spectrum_gap(block["spectrum"]["values"], dense) <= 1e-9


def test_heisenberg_states_take_the_dense_route():
    _, route = evolve_subset(path_graph(5), ModelSpec("heisenberg"), subset_table(5, 2)[3], [0.7])
    assert route == "dense"


def test_subset_sums_match_fsum_on_both_sides():
    values = np.random.default_rng(3).normal(size=9)
    for k in range(10):
        want = sorted(math.fsum(values[list(c)]) for c in itertools.combinations(range(9), k))
        assert np.allclose(subset_sums(values, k), want, atol=1e-13, rtol=0)


def test_evolve_on_a_3001_vertex_path_takes_the_lift(capsys):
    n, missing, t = 3001, 1500, 1.0
    subset = ",".join(str(v) for v in range(n) if v != missing)
    assert cli.main(["evolve", "--graph", f"path:{n}", "-k", str(n - 1), "--subset", subset, "--times", str(t)]) == 0
    (row,) = json.loads(capsys.readouterr().out)
    assert row["route"] == "lift"
    # The sector is the path itself relabelled by the missing vertex v at
    # rank n-1-v; the path propagator follows from its sine eigenvectors.
    x = np.arange(1, n + 1)
    vectors = np.sqrt(2.0 / (n + 1)) * np.sin(np.pi * np.outer(x, x) / (n + 1))
    values = 2.0 * np.cos(np.pi * x / (n + 1))
    column = vectors @ (np.exp(-1j * values * t) * vectors[missing])
    probs = np.array(row["probabilities"])
    assert np.max(np.abs(probs[::-1] - np.abs(column) ** 2)) <= 1e-10


def test_evolve_on_cycle17_k2_takes_the_hole_side(capsys, monkeypatch):
    # Side 2 of a cycle lifts on the twisted base: h = 2 particles on A with
    # its closing edge negated.  The minors are taken on the 2-subsets, never
    # through C(17, 8) = 24310 of them.
    g, times = cycle_graph(17), [0.3, 1.7, 6.0]
    lifted = _route(g, 2)
    assert (lifted.h, lifted.switching[1]) == (2, (0, 16))
    widths, real = [], dynamics_mod.subset_minors

    def recording(x):
        widths.append(x.shape[-1])
        return real(x)

    monkeypatch.setattr(dynamics_mod, "subset_minors", recording)
    assert cli.main(["evolve", "--graph", "cycle:17", "-k", "2", "--subset", "3,11", "--times", "0.3,1.7,6"]) == 0
    assert {row["route"] for row in json.loads(capsys.readouterr().out)} == {"lift"}
    assert widths == [2]
    # 2^17 is beyond the full oracle: the field B(n-2k) is added by hand.
    spec, m = ModelSpec("xy", 0.4), math.comb(17, 2)
    start = np.zeros(m)
    start[rank_subset((3, 11), 17)] = 1.0
    series, route = evolve_subset(g, spec, (3, 11), times)
    dense = propagate(eigh(block_hamiltonian(build_wedge_graph(g, 2), spec) + 0.4 * (17 - 4) * np.eye(m)), start, times)
    assert route == "lift"
    assert np.max(np.abs(series - dense)) <= 1e-10


def _lift_answers(monkeypatch, g, k, r0, times, untwist):
    """The spectrum that `spectrum` prints and the amplitudes from rank r0
    that `evolve_subset` returns for XY sector k, each through the lift
    route of its side, with the twist dropped when ``untwist``."""
    real = dynamics_mod._switching

    def route_of(g, h):
        d, twist = real(g, h)
        return d, None if untwist else twist

    monkeypatch.setattr(dynamics_mod, "_switching", route_of)
    (block,) = cli._spectrum_payload(g, "g", ModelSpec("xy"), range(k, k + 1), False)["blocks"]
    amplitudes, route = evolve_subset(g, ModelSpec("xy"), subset_table(g.n, k)[r0], times)
    assert block["route"] == route == "lift"
    return block["spectrum"]["values"], amplitudes


@pytest.mark.parametrize(
    "name, k", [("cycle:5", 2), ("cycle:5", 3), ("cycle:7", 2), ("cycle:7", 5), ("cycle:9", 4), ("cycle:17", 2)]
)
def test_negative_sigma_sectors_are_particles_on_minus_a(name, k, monkeypatch):
    # An even side of an odd cycle lifts on the twisted base B, which is -A
    # switched by E = (-1)^pos: B = -E A E, exactly.  The twist enters only
    # as B, in both the spectrum and the amplitudes; the same route without
    # it misses both.
    g, times = cli.parse_graph_source(name), [0.5, 1.0, 5.0]
    twist = _route(g, k).switching[1]
    e = 1 - 2 * (np.arange(g.n) % 2)
    assert np.array_equal(adjacency(g, twist), -(e[:, None] * adjacency(g) * e))
    dec = eigh(block_hamiltonian(build_wedge_graph(g, k), ModelSpec("xy")))
    r0 = len(dec.values) // 2
    dense = propagate(dec, np.eye(len(dec.values))[:, r0], times)
    for untwist in (False, True):
        values, amplitudes = _lift_answers(monkeypatch, g, k, r0, times, untwist)
        errors = (spectrum_gap(values, dec.values), float(np.max(np.abs(amplitudes - dense))))
        assert min(errors) > 0.1 if untwist else max(errors) <= DEFAULT_TOL, (untwist, errors)


def test_no_lapack_determinant_in_evolve_or_check_lift(monkeypatch, capsys):
    def forbidden(*args, **kwargs):
        raise AssertionError("np.linalg.det called")

    monkeypatch.setattr(np.linalg, "det", forbidden)
    for graph, k, subset in (("path:12", 4, "0,3,5,9"), ("cycle:7", 2, "1,4"), ("cycle:7", 5, "0,1,2,4,6")):
        argv = ["evolve", "--graph", graph, "-k", str(k), "--subset", subset, "--times", "0.5,2"]
        assert cli.main(argv) == 0
        assert {row["route"] for row in json.loads(capsys.readouterr().out)} == {"lift"}
    for name, g in (("cycle:7", cycle_graph(7)), ("er:6:0.5:2", erdos_renyi_graph(6, 0.5, 2))):
        wedges = {k: build_wedge_graph(g, k) for k in range(g.n + 1)}
        assert all(r.passed for r in check_lift(name, g, wedges, eigh(adjacency(g))))


def test_verify_check_fails_on_a_false_switching(monkeypatch):
    # Side 2 of cycle:6 lifts on the twisted base only.
    real = dynamics_mod._switching
    g = cycle_graph(6)

    def all_ones(base, h):
        if base == g and h == 2:
            return np.ones(math.comb(g.n, h), dtype=np.int64), None
        return real(base, h)

    wedges = {k: build_wedge_graph(g, k) for k in range(7)}
    sectors, base = verify_mod.sector_decompositions(g, wedges), eigh(adjacency(g))
    assert check_free_fermion_route("cycle:6", g, wedges, sectors, base, verify_mod.DYNAMICS_TIMES).passed
    monkeypatch.setattr(dynamics_mod, "_switching", all_ones)
    result = check_free_fermion_route("cycle:6", g, wedges, sectors, base, verify_mod.DYNAMICS_TIMES)
    assert not result.passed and result.k == 2


def _flipping_builder(flips, target=path_graph(5)):
    """Flip the sign of the hop (a, b) of the wedge power k of ``target``,
    for each (k, a, b) in ``flips``."""

    def build(g, k):
        w = build_wedge_graph(g, k)
        a, b, s = w.hops
        if g != target:
            return w
        flipped = np.array([(k, x, y) in flips for x, y in zip(a.tolist(), b.tolist())], dtype=bool)
        return WedgeGraph(w.base, w.k, w.num_vertices, (a, b, np.where(flipped, -s, s)))

    return build


def test_verify_check_fails_when_a_path_sector_is_not_lifted(monkeypatch):
    # {0,2}-{1,2} at k=2 and {1,3,4}-{0,3,4} at k=3 each lie on a 4-cycle of
    # hops.  Sectors 2 and 3 of path:5 are both answered from side 2, the
    # only one the check consults, so a flip on side 3 is never seen, and
    # one on side 2 leaves its wedge without a switching while the path
    # still lifts.
    corpus = [("path:5", path_graph(5))]
    monkeypatch.setattr(verify_mod, "build_wedge_graph", _flipping_builder({(3, 7, 8)}))
    side3 = run_verification(corpus=corpus, random_states=2)
    by_check = {r.check: r for r in side3.results}
    assert by_check["free_fermion_route"].passed
    monkeypatch.setattr(verify_mod, "build_wedge_graph", _flipping_builder({(2, 1, 2)}))
    side2 = run_verification(corpus=corpus, random_states=2)
    by_check = {r.check: r for r in side2.results}
    result = by_check["free_fermion_route"]
    assert not result.passed and result.k == 2 and "lift differs from the parity forest: h=[2]" in result.note


def test_free_fermion_route_names_the_first_unlifted_side():
    # Ranks 1-2 ({0,2}-{1,2}) at k=2 and 7-8 ({1,3,4}-{0,3,4}) at k=3 each
    # lie on a 4-cycle of hops, so one flip leaves each wedge without a
    # switching, while both sides lift; the check names the smaller side
    # and lists both.
    g = path_graph(6)
    build = _flipping_builder({(2, 1, 2), (3, 7, 8)}, target=g)
    wedges = {k: build(g, k) for k in range(g.n + 1)}
    sectors, base = verify_mod.sector_decompositions(g, wedges), eigh(adjacency(g))
    result = check_free_fermion_route("path:6", g, wedges, sectors, base, verify_mod.DYNAMICS_TIMES)
    assert not result.passed and result.k == 2 and "lift differs from the parity forest: h=[2, 3]" in result.note


def test_handshake_counts_cut_sizes_independently(monkeypatch):
    g = cycle_graph(5)

    def dropping(graph, k):
        w = build_wedge_graph(graph, k)
        if k == 2:
            return WedgeGraph(w.base, w.k, w.num_vertices, tuple(x[1:] for x in w.hops))
        return w

    monkeypatch.setattr(verify_mod, "build_wedge_graph", dropping)
    report = run_verification(corpus=[("cycle:5", g)], random_states=2)
    by_check = {r.check: r for r in report.results}
    assert not by_check["wedge_dimensions"].passed and by_check["wedge_dimensions"].k == 2
    monkeypatch.undo()
    clean = run_verification(corpus=[("cycle:5", g)], random_states=2)
    assert {r.check: r for r in clean.results}["wedge_dimensions"].passed


def test_each_lift_side_is_decided_once(monkeypatch, capsys):
    # Sectors k and n-k share side min(k, n-k): one decision from the base
    # graph per side, side 0 included.
    calls, real = [], dynamics_mod._switching

    def counting(g, h):
        calls.append(h)
        return real(g, h)

    monkeypatch.setattr(dynamics_mod, "_switching", counting)
    for name, g in default_corpus()[::3]:
        calls.clear()
        assert run_verification(corpus=[(name, g)], random_states=1).passed
        assert calls == list(range(g.n // 2 + 1)), name
    for argv, decided in (
        (["spectrum", "--graph", "er:6:0.5:2", "-k", "all"], [0, 1, 2, 3]),
        (["spectrum", "--graph", "cycle:7", "-k", "all"], [0, 1, 2, 3]),
        (["evolve", "--graph", "cycle:7", "-k", "5", "--subset", "0,1,2,4,6", "--times", "0.5,2"], [2]),
        (["evolve", "--graph", "cycle:7", "-k", "7", "--subset", "0,1,2,3,4,5,6", "--times", "0.5,2"], [0]),
    ):
        calls.clear()
        assert cli.main(argv) == 0
        capsys.readouterr()
        assert calls == decided, argv


def test_full_corpus_has_one_route_check_per_graph():
    report = run_verification()
    assert report.passed
    assert len(report.results) == 574
    route_checks = [r.subject for r in report.results if r.check == "free_fermion_route"]
    assert route_checks == [name for name, _ in default_corpus()]


def _relabelled(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Graph(g.n, tuple((perm[u], perm[v]) for u, v in g.edges))


def _paths_and_cycles(sizes):
    """The disjoint union of a path ("p", m) or cycle ("c", m) per entry."""
    edges, offset = [], 0
    for shape, m in sizes:
        edges += [(offset + i, offset + (i + 1) % m) for i in range(m if shape == "c" else m - 1)]
        offset += m
    return Graph(offset, tuple(edges))


def _shape_rule_inputs(seed=5):
    """Randomly relabelled paths, cycles and unions of paths and cycles, and
    G(n, 0.4) graphs with a vertex of degree 3 or more, all with n <= 11."""
    rng = random.Random(seed)
    graphs = [_relabelled(path_graph(n), rng) for n in range(2, 12)]
    graphs += [_relabelled(cycle_graph(n), rng) for n in range(3, 12)]
    while len(graphs) < 700:
        left, sizes = rng.randint(2, 11), []
        while left:
            m = rng.randint(3, left) if left >= 3 and rng.random() < 0.3 else rng.randint(1, left)
            sizes.append(("c" if m >= 3 and rng.random() < 0.5 else "p", m))
            left -= m
        graphs.append(_relabelled(_paths_and_cycles(sizes), rng))
    while len(graphs) < 900:
        n = rng.randint(4, 9)
        g = Graph(n, tuple((u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4))
        if np.bincount(np.ravel(g.edges).astype(np.int64), minlength=n).max() >= 3:
            graphs.append(g)
    return graphs


def test_shape_rule_matches_the_parity_forest():
    # Every walk-order corpus path and cycle has no subset with an inversion;
    # relabelled ones test the inversion count of D.
    pairs = lifted = twisted = 0
    for g in _shape_rule_inputs():
        sides = Sides(g, ModelSpec("xy"))
        for h in range(g.n // 2 + 1):
            if math.comb(g.n, h) > wedge_mod.BLOCK_DIM_LIMIT:
                continue
            rule = sides(h).switching
            twist = None if rule is None else rule[1]
            w = _twisted(build_wedge_graph(g, h), twist)
            forest = switching_signs(w)
            pairs += 1
            assert (rule is None) == (forest is None), (g, h)
            if rule is not None:
                lifted += h >= 2
                twisted += twist is not None
                assert twist is None or twist in g.edges or twist[::-1] in g.edges, (g, h)
                c, a = signed_matrix(w).astype(np.int64), wedge_adjacency(w).astype(np.int64)
                assert np.array_equal(rule[0][:, None] * c * rule[0], a), (g, h)
    assert pairs > 3000 and lifted > 600 and twisted > 50


def _overlifted(real, g, h):
    """Call complete:4 at h = 2 lifted."""
    if g == complete_graph(4) and h == 2:
        return np.ones(math.comb(g.n, h), dtype=np.int64), None
    return real(g, h)


def _untwisted(real, g, h):
    """Lift cycle:4 at h = 2 on A."""
    result = real(g, h)
    return (result[0], None) if g == cycle_graph(4) and h == 2 else result


def _twisted_odd_side(real, g, h):
    """Twist the closing edge of cycle:7 at the odd side h = 3."""
    result = real(g, h)
    return (result[0], (0, 6)) if g == cycle_graph(7) and h == 3 else result


def _twist_off_the_cycle(real, g, h):
    """Put the twist of cycle:6 at h = 2 on the non-edge {0, 3}."""
    result = real(g, h)
    return (result[0], (0, 3)) if g == cycle_graph(6) and h == 2 else result


def _underlifted(real, g, h):
    """Call path:6 at h = 3 dense."""
    return None if g == path_graph(6) and h == 3 else real(g, h)


@pytest.mark.parametrize(
    "graph, fault, h",
    [
        ("complete:4", _overlifted, 2),
        ("cycle:4", _untwisted, 2),
        ("cycle:7", _twisted_odd_side, 3),
        ("cycle:6", _twist_off_the_cycle, 2),
        ("path:6", _underlifted, 3),
    ],
)
def test_verify_fails_on_a_faulty_shape_rule(graph, fault, h, monkeypatch, capsys):
    argv = ["verify", "--graph", graph, "--random-states", "1"]
    assert cli.main(argv) == 0
    capsys.readouterr()
    real = dynamics_mod._switching
    monkeypatch.setattr(dynamics_mod, "_switching", lambda g, j: fault(real, g, j))
    assert cli.main(argv) == 1
    failed = [line for line in capsys.readouterr().out.splitlines() if line.startswith("[FAIL]")]
    assert len(failed) == 1 and failed[0].split()[1:3] == ["free_fermion_route", graph], failed
    assert f"k={h}" in failed[0].split()


def _no_inversion_count(real, g, h):
    """D all ones wherever the side lifts: walk order taken for label order."""
    result = real(g, h)
    return None if result is None else (np.ones_like(result[0]), result[1])


def test_verify_sees_a_wrong_inversion_count(monkeypatch):
    # The relabelled corpus path and cycle are the entries whose D has
    # inversions; every other path and cycle is labelled in walk order.
    corpus = [(name, g) for name, g in default_corpus() if name.startswith("perm:")]
    assert [name for name, _ in corpus] == ["perm:path:7", "perm:cycle:6"]
    assert run_verification(corpus=corpus, random_states=1).passed
    real = dynamics_mod._switching
    monkeypatch.setattr(dynamics_mod, "_switching", lambda g, j: _no_inversion_count(real, g, j))
    failed = [r for r in run_verification(corpus=corpus, random_states=1).results if not r.passed]
    assert [(r.check, r.subject, r.k) for r in failed] == [
        ("free_fermion_route", "perm:path:7", 2),
        ("free_fermion_route", "perm:cycle:6", 2),
    ]


def _cycle_levels(n, h):
    """The h-sums of 2 cos(2 pi (m + phi) / n), phi = 0 for odd h and 1/2 for
    even h: free fermions on the ring, periodic or antiperiodic."""
    phi = 0.0 if h % 2 else 0.5
    eps = 2.0 * np.cos(2.0 * np.pi * (np.arange(n) + phi) / n)
    return np.sort([math.fsum(eps[list(c)]) for c in itertools.combinations(range(n), h)])


def test_every_cycle_sector_lifts_with_the_ring_levels(monkeypatch):
    builds = []
    real = dynamics_mod.build_wedge_graph
    monkeypatch.setattr(dynamics_mod, "build_wedge_graph", lambda g, k: builds.append(k) or real(g, k))
    for n in range(3, 15):
        sides = Sides(cycle_graph(n), ModelSpec("xy"))
        for k in range(n + 1):
            side = sides(k)
            assert side.route == "lift", (n, k)
            assert spectrum_gap(side.values(k), _cycle_levels(n, side.h)) <= DEFAULT_TOL, (n, k)
    assert builds == []


@pytest.mark.parametrize("n, k", [(8, 4), (13, 6)])
def test_twisted_cycle_amplitudes_match_the_dense_route(n, k):
    g, times = cycle_graph(n), [0.5, 2.0, 7.0]
    side = Sides(g, ModelSpec("xy"))(k)
    assert side.route == "lift" and side.switching[1] == (0, n - 1)
    dec = eigh(block_hamiltonian(build_wedge_graph(g, k), ModelSpec("xy")))
    for r0 in (0, len(dec.values) // 3, len(dec.values) - 1):
        amplitudes, route = side.evolve(k, r0, times)
        dense = propagate(dec, np.eye(len(dec.values))[:, r0], times)
        assert route == "lift" and np.max(np.abs(amplitudes - dense)) <= DEFAULT_TOL, r0
