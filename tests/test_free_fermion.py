"""The free-fermion lift route for XY sectors: the switching test, the route
rule, and agreement of the lift with the dense route."""

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


def _switches_by_search(w, sigma):
    """Whether some +-1 vector switches the signed matrix to sigma times the
    adjacency, by trying them all (the first entry fixed, as -D works when D
    does)."""
    c, a = signed_matrix(w), wedge_adjacency(w)
    m = w.num_vertices
    for rest in itertools.product((1, -1), repeat=m - 1):
        d = np.array((1,) + rest)
        if np.array_equal(d[:, None] * c * d, sigma * a):
            return True
    return False


def _union_find_signs(w, target):
    """Reference switching test: a sequential parity union-find with path
    compression over the hops.  The +-1 vector D with D[a] * sign * D[b] =
    target on every hop, or None at the first contradicting hop."""
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

    for u, v, differ in zip(a.tolist(), b.tolist(), (s != target).tolist()):
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


def _reference_side(g, k):
    """The switching side j by the earlier rule, or None: side h = min(k, n-k)
    when C_h switches to A_h, else side n-h when C_h switches to -A_h and
    2h != n, each by the reference union-find."""
    h = min(k, g.n - k)
    w = build_wedge_graph(g, h)
    if _union_find_signs(w, 1) is not None:
        return h
    if 2 * h == g.n or _union_find_signs(w, -1) is None:
        return None
    return g.n - h


def _route(g, k):
    """The XY side of sector k, h = min(k, n-k), when it takes the lift
    route, else None."""
    side = Sides(g, ModelSpec("xy"))(k)
    return side if side.route == "lift" else None


def _side(route):
    """The side j of the earlier rule, from the side's h and sigma: h for
    sigma = +1, n-h for sigma = -1, or None without a route."""
    if route is None:
        return None
    return route.h if route.switching[1] > 0 else route.graph.n - route.h


def _assert_exact_on_hops(w, signs, sigma):
    """D[a] * sign * D[b] == sigma on every hop, which is D . C . D == sigma * A
    exactly, as C and A share their support."""
    a, b, s = w.hops
    assert set(signs.tolist()) <= {1, -1}
    assert np.all(signs[a] * s * signs[b] == sigma)


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
    result = switching_signs(w)
    want = next((sigma for sigma in (1, -1) if _switches_by_search(w, sigma)), None)
    assert (None if result is None else result[1]) == want
    if result is not None:
        d, sigma = result
        assert np.array_equal(d[:, None] * signed_matrix(w) * d, sigma * wedge_adjacency(w))


def test_switching_signs_on_every_corpus_wedge():
    for name, g, k in _sectors(default_corpus()):
        w = build_wedge_graph(g, k)
        result = switching_signs(w)
        if result is not None:
            d, sigma = result
            assert set(d.tolist()) <= {1, -1} and sigma in (1, -1)
            assert np.array_equal(d[:, None] * signed_matrix(w) * d, sigma * wedge_adjacency(w)), (name, k)
        else:
            assert np.any(signed_matrix(w) < 0), (name, k)


def test_switching_signs_rejects_a_frustrated_wedge():
    w = build_wedge_graph(cycle_graph(6), 2)
    a, b, s = w.hops
    flipped = WedgeGraph(w.base, w.k, w.num_vertices, (a, b, np.ones_like(s)))
    assert switching_signs(w) is None
    d, sigma = switching_signs(flipped)
    assert sigma == 1 and np.array_equal(d, np.ones(w.num_vertices, dtype=np.int64))


def test_switching_signs_on_one_subset_or_hop_free_sides():
    # Sides 0 and n have one subset and no hop, and every side of an edgeless
    # graph has no hop: each switches with D all ones and sigma = 1.
    edgeless = Graph(4, ())
    cases = [(g, k) for _, g in default_corpus() + [("edgeless:4", edgeless)] for k in (0, g.n)]
    for g, k in cases + [(edgeless, 1)]:
        w = build_wedge_graph(g, k)
        d, sigma = switching_signs(w)
        assert sigma == 1 and d.dtype == np.int64, (g, k)
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
    d, sigma = switching_signs(star)
    assert sigma == 1
    _assert_exact_on_hops(star, d, sigma)


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
        route = _route(g, k)
        assert _side(route) == _reference_side(g, k), (name, k)
        if route is not None:
            assert route.h == min(k, g.n - k)
            _assert_exact_on_hops(build_wedge_graph(g, route.h), *route.switching)


def _two_build_rule(g, k):
    """The side the route took before the one-wedge decision: min(k, n-k)
    first, then the other, each built and tested for switching to A."""
    for j in sorted({k, g.n - k}):
        if _union_find_signs(build_wedge_graph(g, j), 1) is not None:
            return j
    return None


def _check_one_wedge_route(g, k):
    route = _route(g, k)
    assert _side(route) == _two_build_rule(g, k)
    if route is not None:
        w = build_wedge_graph(g, route.h)
        d, sigma = route.switching
        assert np.array_equal(d[:, None] * signed_matrix(w) * d, sigma * wedge_adjacency(w))
    return route


@pytest.mark.parametrize("name, g", default_corpus() + [("star:5", STAR5)])
def test_lift_route_decides_both_sides_from_one_wedge(name, g):
    for k in range(g.n + 1):
        _check_one_wedge_route(g, k)


def test_route_rule_facts():
    for n in range(1, 15):
        g = path_graph(n)
        for k in range(n + 1):
            assert _side(_route(g, k)) == min(k, n - k)
    c7 = cycle_graph(7)
    for k in range(1, 7):
        assert _side(_route(c7, k)) == (k if k % 2 else 7 - k)
    for name, g in default_corpus() + [("star:5", STAR5)]:
        for k in {0, 1, g.n - 1, g.n}:
            assert _route(g, k) is not None, (name, k)
    dense = [(cycle_graph(6), 2), (cycle_graph(6), 4), (STAR5, 2), (STAR5, 3)]
    dense += [(erdos_renyi_graph(6, 0.5, 2), k) for k in (2, 3, 4)]
    for g, k in dense:
        assert _route(g, k) is None


@pytest.mark.parametrize("seed", [11, 12])
def test_spectrum_cap_graphs_stay_dense(seed):
    for g in _spectrum_cap_graphs(seed):
        for k in (5, 9):
            assert _check_one_wedge_route(g, k) is None


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
def test_spectrum_routes_agree(name, capsys):
    g = dict(default_corpus())[name]
    for b in (0.0, 0.5):
        assert cli.main(["spectrum", "--graph", name, "-k", "all", "--field", str(b)]) == 0
        blocks = json.loads(capsys.readouterr().out)["blocks"]
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
    # Even k on an odd cycle lifts with sigma = -1: h = 2 particles on the
    # base -A.  The minors are taken on the 2-subsets, never through
    # C(17, 8) = 24310 of them.
    g, times = cycle_graph(17), [0.3, 1.7, 6.0]
    lifted = _route(g, 2)
    assert (lifted.h, lifted.switching[1], _side(lifted)) == (2, -1, 15)
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


def _lift_answers(monkeypatch, g, k, r0, times, flip):
    """The spectrum that `spectrum` prints and the amplitudes from rank r0
    that `evolve_subset` returns for XY sector k, each through the lift
    route of its side, with sigma flipped when ``flip``."""
    real = dynamics_mod._switching

    def route_of(g, h):
        d, sigma = real(g, h)
        return (d, -sigma) if flip else (d, sigma)

    monkeypatch.setattr(dynamics_mod, "_switching", route_of)
    (block,) = cli._spectrum_payload(g, "g", ModelSpec("xy"), range(k, k + 1), False)["blocks"]
    amplitudes, route = evolve_subset(g, ModelSpec("xy"), subset_table(g.n, k)[r0], times)
    assert block["route"] == route == "lift"
    return block["spectrum"]["values"], amplitudes


@pytest.mark.parametrize(
    "name, k", [("cycle:5", 2), ("cycle:5", 3), ("cycle:7", 2), ("cycle:7", 5), ("cycle:9", 4), ("cycle:17", 2)]
)
def test_negative_sigma_sectors_are_particles_on_minus_a(name, k, monkeypatch):
    # sigma enters only as the signed base sigma A, in both the spectrum and
    # the amplitudes; the same route with sigma flipped misses both.
    g, times = cli.parse_graph_source(name), [0.5, 1.0, 5.0]
    assert _route(g, k).switching[1] == -1
    dec = eigh(block_hamiltonian(build_wedge_graph(g, k), ModelSpec("xy")))
    r0 = len(dec.values) // 2
    dense = propagate(dec, np.eye(len(dec.values))[:, r0], times)
    for flip in (False, True):
        values, amplitudes = _lift_answers(monkeypatch, g, k, r0, times, flip)
        errors = (spectrum_gap(values, dec.values), float(np.max(np.abs(amplitudes - dense))))
        assert min(errors) > 0.1 if flip else max(errors) <= DEFAULT_TOL, (flip, errors)


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
    real = dynamics_mod._switching
    g = cycle_graph(6)

    def all_ones(base, h):
        if base == g and h == 2:
            return np.ones(math.comb(g.n, h), dtype=np.int64), 1
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
    assert len(report.results) == 531
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
    # Every corpus path and cycle is labelled in walk order, where no subset
    # has an inversion; relabelled ones test the inversion count of D.
    pairs = lifted = 0
    for g in _shape_rule_inputs():
        sides = Sides(g, ModelSpec("xy"))
        for h in range(g.n // 2 + 1):
            if math.comb(g.n, h) > wedge_mod.BLOCK_DIM_LIMIT:
                continue
            w, rule = build_wedge_graph(g, h), sides(h).switching
            forest = switching_signs(w)
            pairs += 1
            assert (rule is None) == (forest is None), (g, h)
            if rule is not None:
                lifted += h >= 2
                d, sigma = rule
                assert sigma == forest[1], (g, h)
                c, a = signed_matrix(w).astype(np.int64), wedge_adjacency(w).astype(np.int64)
                assert np.array_equal(d[:, None] * c * d, sigma * a), (g, h)
    assert pairs > 3000 and lifted > 600


def _overlifted(real, g, h):
    """Call complete:4 at h = 2 lifted."""
    if g == complete_graph(4) and h == 2:
        return np.ones(math.comb(g.n, h), dtype=np.int64), 1
    return real(g, h)


def _no_position_term(real, g, h):
    """Drop the (-1)^(sum of pos over S) factor of a sigma = -1 side."""
    result = real(g, h)
    if result is None or result[1] > 0:
        return result
    pos, _ = dynamics_mod._walk_order(g)
    return result[0] * (1 - 2 * (pos[subset_table(g.n, h)].sum(axis=1) & 1)), -1


def _underlifted(real, g, h):
    """Call path:6 at h = 3 dense."""
    return None if g == path_graph(6) and h == 3 else real(g, h)


@pytest.mark.parametrize(
    "graph, fault, h",
    [("complete:4", _overlifted, 2), ("cycle:5", _no_position_term, 2), ("path:6", _underlifted, 3)],
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
