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
    WedgeGraph,
    block_hamiltonian,
    build_wedge_graph,
    cli,
    cycle_graph,
    eigh,
    erdos_renyi_graph,
    evolve_subset,
    lift_route,
    path_graph,
    propagate,
    rank_subset,
    signed_matrix,
    spectrum_gap,
    subset_sums,
    switching_signs,
    unrank_subset,
    wedge_adjacency,
)
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
        route = lift_route(g, k)
        assert (None if route is None else route.j) == _reference_side(g, k), (name, k)
        if route is not None:
            assert route.h == min(k, g.n - k)
            _assert_exact_on_hops(build_wedge_graph(g, route.h), route.signs, route.sigma)


def _two_build_rule(g, k):
    """The side the route took before the one-wedge decision: min(k, n-k)
    first, then the other, each built and tested for switching to A."""
    for j in sorted({k, g.n - k}):
        if _union_find_signs(build_wedge_graph(g, j), 1) is not None:
            return j
    return None


def _check_one_wedge_route(g, k):
    built = []

    def wedge_of(j):
        built.append(j)
        return build_wedge_graph(g, j)

    route = lift_route(g, k, wedge_of)
    assert built == [min(k, g.n - k)]
    assert (None if route is None else route.j) == _two_build_rule(g, k)
    if route is not None:
        w = build_wedge_graph(g, route.h)
        d, sigma = route.signs, route.sigma
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
            assert lift_route(g, k).j == min(k, n - k)
    c7 = cycle_graph(7)
    for k in range(1, 7):
        assert lift_route(c7, k).j == (k if k % 2 else 7 - k)
    for name, g in default_corpus() + [("star:5", STAR5)]:
        for k in {0, 1, g.n - 1, g.n}:
            assert lift_route(g, k) is not None, (name, k)
    dense = [(cycle_graph(6), 2), (cycle_graph(6), 4), (STAR5, 2), (STAR5, 3)]
    dense += [(erdos_renyi_graph(6, 0.5, 2), k) for k in (2, 3, 4)]
    for g, k in dense:
        assert lift_route(g, k) is None


@pytest.mark.parametrize("seed", [11, 12])
def test_spectrum_cap_graphs_stay_dense(seed):
    for g in _spectrum_cap_graphs(seed):
        for k in (5, 9):
            assert _check_one_wedge_route(g, k) is None


def test_lift_and_dense_routes_agree_on_the_corpus():
    for name, g, k in _sectors(default_corpus()):
        if lift_route(g, k) is None:
            continue
        m = math.comb(g.n, k)
        for b in (0.0, 0.5):
            spec = ModelSpec("xy", b)
            dec = eigh(block_hamiltonian(g, k, spec))
            for r0 in sorted({0, m // 2, m - 1}):
                start = np.zeros(m)
                start[r0] = 1.0
                series, route = evolve_subset(g, spec, unrank_subset(r0, g.n, k), [0.5, 1.0, 5.0])
                dense = propagate(dec, start, [0.5, 1.0, 5.0])
                assert route == "lift"
                assert np.max(np.abs(series - dense)) <= 1e-10, (name, k, b, r0)


@pytest.mark.parametrize("name", [name for name, _ in default_corpus()])
def test_spectrum_routes_agree(name, capsys):
    g = dict(default_corpus())[name]
    for b in (0.0, 0.5):
        assert cli.main(["spectrum", "--graph", name, "-k", "all", "--field", str(b)]) == 0
        blocks = json.loads(capsys.readouterr().out)["blocks"]
        for block in blocks:
            k = block["k"]
            route = lift_route(g, k)
            assert block["route"] == ("dense" if route is None else "lift")
            dense = np.linalg.eigvalsh(block_hamiltonian(g, k, ModelSpec("xy", b)))
            assert spectrum_gap(block["spectrum"]["values"], dense) <= 1e-9


def test_heisenberg_states_take_the_dense_route():
    _, route = evolve_subset(path_graph(5), ModelSpec("heisenberg"), unrank_subset(3, 5, 2), [0.7])
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
    # Even k on an odd cycle lifts through side n-k = 15; the minors are
    # taken on the 2-subsets, never through C(17, 8) = 24310 of them.
    g, times = cycle_graph(17), [0.3, 1.7, 6.0]
    assert lift_route(g, 2).j == 15
    widths, real = [], dynamics_mod.subset_minors

    def recording(x):
        widths.append(x.shape[-1])
        return real(x)

    monkeypatch.setattr(dynamics_mod, "subset_minors", recording)
    assert cli.main(["evolve", "--graph", "cycle:17", "-k", "2", "--subset", "3,11", "--times", "0.3,1.7,6"]) == 0
    assert {row["route"] for row in json.loads(capsys.readouterr().out)} == {"lift"}
    assert widths == [2]
    spec = ModelSpec("xy", 0.4)
    start = np.zeros(math.comb(17, 2))
    start[rank_subset((3, 11), 17)] = 1.0
    series, route = evolve_subset(g, spec, (3, 11), times)
    dense = propagate(eigh(block_hamiltonian(g, 2, spec)), start, times)
    assert route == "lift"
    assert np.max(np.abs(series - dense)) <= 1e-10


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
        assert all(r.passed for r in check_lift(name, g, wedges, 1e-9))


def test_verify_check_fails_on_a_false_switching(monkeypatch):
    real = wedge_mod.switching_signs
    g = cycle_graph(6)

    def all_ones(w):
        if w.base == g and w.k == 2:
            return np.ones(w.num_vertices, dtype=np.int64), 1
        return real(w)

    wedges = {k: build_wedge_graph(g, k) for k in range(7)}
    sectors = verify_mod.sector_decompositions(g, wedges)
    assert check_free_fermion_route("cycle:6", g, wedges, sectors, verify_mod.DYNAMICS_TIMES, 1e-9).passed
    monkeypatch.setattr(wedge_mod, "switching_signs", all_ones)
    result = check_free_fermion_route("cycle:6", g, wedges, sectors, verify_mod.DYNAMICS_TIMES, 1e-9)
    assert not result.passed and result.k == 2


def _flipping_builder(flips):
    """Flip the sign of the hop (a, b) of path:5's wedge power k, for each
    (k, a, b) in ``flips``."""

    def build(g, k):
        w = build_wedge_graph(g, k)
        a, b, s = w.hops
        if g != path_graph(5):
            return w
        flipped = np.array([(k, x, y) in flips for x, y in zip(a.tolist(), b.tolist())], dtype=bool)
        return WedgeGraph(w.base, w.k, w.num_vertices, (a, b, np.where(flipped, -s, s)))

    return build


def test_verify_check_fails_when_a_path_sector_is_not_lifted():
    # {0,2}-{1,2} at k=2 and {1,3,4}-{0,3,4} at k=3 each lie on a 4-cycle of
    # hops.  Sectors 2 and 3 of path:5 are both decided on side 2 alone, so a
    # flip on side 3 is never consulted, and one on side 2 unroutes both.
    corpus = [("path:5", path_graph(5))]
    side3 = run_verification(corpus=corpus, random_states=2, wedge_builder=_flipping_builder({(3, 7, 8)}))
    by_check = {r.check: r for r in side3.results}
    assert by_check["free_fermion_route"].passed
    side2 = run_verification(corpus=corpus, random_states=2, wedge_builder=_flipping_builder({(2, 1, 2)}))
    by_check = {r.check: r for r in side2.results}
    result = by_check["free_fermion_route"]
    assert not result.passed and result.k in (2, 3) and "must lift but dense: k=[2, 3]" in result.note


def test_handshake_counts_cut_sizes_independently():
    g = cycle_graph(5)

    def dropping(graph, k):
        w = build_wedge_graph(graph, k)
        if k == 2:
            return WedgeGraph(w.base, w.k, w.num_vertices, tuple(x[1:] for x in w.hops))
        return w

    report = run_verification(corpus=[("cycle:5", g)], random_states=2, wedge_builder=dropping)
    by_check = {r.check: r for r in report.results}
    assert not by_check["wedge_dimensions"].passed and by_check["wedge_dimensions"].k == 2
    clean = run_verification(corpus=[("cycle:5", g)], random_states=2)
    assert {r.check: r for r in clean.results}["wedge_dimensions"].passed


def test_full_corpus_has_one_route_check_per_graph():
    report = run_verification()
    assert report.passed
    assert len(report.results) == 487
    route_checks = [r.subject for r in report.results if r.check == "free_fermion_route"]
    assert route_checks == [name for name, _ in default_corpus()]
