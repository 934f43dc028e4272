import hashlib
import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from spinwedge import (
    CapacityError,
    Graph,
    ModelSpec,
    adjacency,
    alt_delta_oracle,
    basis_states,
    build_wedge_graph,
    complete_graph,
    complete_sector_spectrum,
    cycle_graph,
    erdos_renyi_graph,
    full_hamiltonian,
    path_graph,
    project_full_to_blocks,
    rank_subset,
    signed_matrix,
    subset_name,
    subset_table,
    wedge_adjacency,
    wedge_degrees,
    wedge_laplacian,
    wedge_to_dot,
    wedge_to_json,
    xy_path_spectrum,
)
from spinwedge.spectra import spectrum_gap
from spinwedge.wedge import _ascending_tuples, _colex_weights, _rising_hops, colex_level


def hop_sign(subset, src, dst):
    """The reference builder's sign of moving occupied src to empty dst with
    the rest of subset fixed: -1 raised to the number of occupied vertices
    strictly between src and dst, the parity of the re-sorting permutation."""
    lo, hi = (src, dst) if src < dst else (dst, src)
    crossed = sum(1 for x in subset if lo < x < hi)
    return -1 if crossed & 1 else 1


def reference_signed_edges(g, k):
    """Loop reference for build_wedge_graph: every subset, base edge and direction."""
    subsets = sorted(itertools.combinations(range(g.n), k), key=lambda s: s[::-1])
    rank = {s: r for r, s in enumerate(subsets)}
    edges = []
    for a, s in enumerate(subsets):
        for u, v in g.edges:
            for src, dst in ((u, v), (v, u)):
                if src in s and dst not in s:
                    b = rank[tuple(sorted(set(s) - {src} | {dst}))]
                    if a < b:
                        edges.append((a, b, hop_sign(s, src, dst)))
    return tuple(sorted(edges))


def mapped_edges(w, image):
    """The hops of w carried through the rank map image, as sorted pairs."""
    return sorted(tuple(sorted((image[a], image[b]))) for a, b, _ in w.signed_edges)


def test_hop_sign_counts_occupied_between():
    assert hop_sign((0, 1), 1, 2) == 1
    assert hop_sign((0, 2), 0, 3) == -1  # passes occupied vertex 2
    assert hop_sign((0, 2, 5), 0, 4) == -1
    assert hop_sign((0, 2, 3), 0, 4) == 1  # passes two occupied vertices


def test_p3_k2_structure():
    w = build_wedge_graph(path_graph(3), 2)
    assert w.num_vertices == 3
    # Ranks: 0={0,1}, 1={0,2}, 2={1,2}; hops 1->2 and 0->1, both positive.
    assert w.signed_edges == ((0, 1, 1), (1, 2, 1))
    # S -> the vertex S leaves out carries the hops onto the edges of P_3.
    left_out = [({0, 1, 2} - set(subset_table(3, 2)[r])).pop() for r in range(3)]
    assert left_out == [2, 1, 0]
    assert mapped_edges(w, left_out) == list(path_graph(3).edges)


def test_k4_k2_is_octahedron():
    w = build_wedge_graph(complete_graph(4), 2)
    assert w.num_vertices == 6
    assert len(w.signed_edges) == 12
    assert np.array_equal(wedge_degrees(w), np.full(6, 4.0))


def test_k4_k2_signs_frozen():
    # Hand enumeration: a hop is negative iff the moved element passes the
    # one other occupied vertex.  {0,1}->{1,2}, {0,1}->{1,3}, {0,2}->{2,3},
    # {1,2}->{2,3}, i.e. ranks (0,2), (0,4), (1,5), (2,5).
    w = build_wedge_graph(complete_graph(4), 2)
    assert [(a, b) for a, b, s in w.signed_edges if s < 0] == [(0, 2), (0, 4), (1, 5), (2, 5)]


def test_k4_sign_example_02_to_23():
    # {0,2} is rank 1 and {2,3} is rank 5; moving 0 -> 3 crosses occupied 2.
    w = build_wedge_graph(complete_graph(4), 2)
    c = signed_matrix(w)
    assert c[1, 5] == -1.0 and c[5, 1] == -1.0


@pytest.mark.parametrize(
    "g",
    [
        path_graph(2),
        path_graph(4),
        path_graph(5),
        cycle_graph(4),
        cycle_graph(5),
        complete_graph(4),
        complete_graph(5),
        erdos_renyi_graph(5, 0.6, 1),
        erdos_renyi_graph(6, 0.5, 2),
    ],
)
def test_signed_matrix_equals_projector_oracle(g):
    for k in range(min(g.n, 3) + 1):
        w = build_wedge_graph(g, k)
        assert np.array_equal(signed_matrix(w), alt_delta_oracle(g, k)), (g, k)


@pytest.mark.parametrize("g", [path_graph(4), cycle_graph(5), complete_graph(4)])
def test_oracle_k1_is_adjacency(g):
    assert np.array_equal(alt_delta_oracle(g, 1), adjacency(g))


def test_path_signs_all_positive():
    g = path_graph(6)
    for k in range(7):
        w = build_wedge_graph(g, k)
        assert np.all(w.hops[2] == 1)
        assert np.array_equal(signed_matrix(w), wedge_adjacency(w))


def test_signed_matrix_shape_and_pattern():
    w = build_wedge_graph(cycle_graph(5), 2)
    c = signed_matrix(w)
    assert np.array_equal(c, c.T)
    assert np.all(np.diag(c) == 0)
    assert set(np.unique(c)) <= {-1.0, 0.0, 1.0}
    pattern = adjacency(Graph(w.num_vertices, tuple((a, b) for a, b, _ in w.signed_edges)))
    assert np.array_equal(np.abs(c) != 0, pattern != 0)


@pytest.mark.parametrize("g", [path_graph(4), complete_graph(4), cycle_graph(5)])
def test_wedge_k1_reproduces_graph(g):
    w = build_wedge_graph(g, 1)
    assert w.num_vertices == g.n
    assert w.signed_edges == tuple((a, b, 1) for a, b in g.edges)


@pytest.mark.parametrize("g", [path_graph(5), complete_graph(4)])
def test_wedge_end_sectors_trivial(g):
    for k in (0, g.n):
        w = build_wedge_graph(g, k)
        assert w.num_vertices == 1
        assert w.signed_edges == ()
        assert wedge_adjacency(w).shape == (1, 1)
        assert np.all(wedge_laplacian(w) == 0)


def test_wedge_dimensions_binomial():
    g = cycle_graph(6)
    for k in range(7):
        assert build_wedge_graph(g, k).num_vertices == math.comb(6, k)


def test_p3_k2_adjacency_spectrum():
    # 3x3 by hand: char poly x^3 - 2x, roots -sqrt(2), 0, sqrt(2).
    w = build_wedge_graph(path_graph(3), 2)
    assert np.allclose(np.linalg.eigvalsh(wedge_adjacency(w)), [-math.sqrt(2), 0, math.sqrt(2)], atol=1e-12)


def test_k4_k2_laplacian_rows_zero():
    w = build_wedge_graph(complete_graph(4), 2)
    assert np.allclose(wedge_laplacian(w).sum(axis=1), 0.0)


def test_complement_isomorphism_small():
    g = cycle_graph(5)
    w2 = build_wedge_graph(g, 2)
    w3 = build_wedge_graph(g, 3)
    complement = [rank_subset(sorted(set(range(5)) - set(subset_table(5, 2)[r])), 5) for r in range(10)]
    assert mapped_edges(w2, complement) == [(a, b) for a, b, _ in w3.signed_edges]


def test_build_rejects_bad_k():
    with pytest.raises(ValueError):
        build_wedge_graph(path_graph(3), 5)
    with pytest.raises(ValueError):
        build_wedge_graph(path_graph(3), -1)


def test_build_capacity_guard():
    with pytest.raises(CapacityError):
        build_wedge_graph(path_graph(20), 10)


def test_oracle_capacity_guard():
    with pytest.raises(CapacityError):
        alt_delta_oracle(path_graph(12), 6)
    # C(15,7) = 6435 is above the sector limit, but C(n,k) <= n^k, so the
    # tensor guard, at C(n,k)^2 or more, always refuses first.
    with pytest.raises(CapacityError, match=r"tensor-space oracle at k=7 needs .* = 1099480078125 entries"):
        alt_delta_oracle(path_graph(15), 7)


def test_oracle_guard_refuses_before_allocating():
    # 12^4 * C(12,4) = 10,264,320 work entries, just above the limit: about
    # 300 MiB if the oracle started.
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match="10264320"):
            alt_delta_oracle(path_graph(12), 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16, peak


def test_oracle_equals_signed_matrix_beyond_the_corpus():
    g = erdos_renyi_graph(9, 0.5, 0)
    assert np.array_equal(alt_delta_oracle(g, 4), signed_matrix(build_wedge_graph(g, 4)))


@pytest.mark.parametrize("n,k", [(1, 1), (4, 2), (5, 3), (6, 6), (7, 1)])
def test_oracle_tuples_are_in_bitmask_order(n, k):
    want = sorted(itertools.combinations(range(n), k), key=lambda s: sum(1 << v for v in s))
    assert _ascending_tuples(n, k).tolist() == [list(s) for s in want]


def test_wedge_json_k4():
    w = build_wedge_graph(complete_graph(4), 2)
    data = json.loads(wedge_to_json(w))
    assert data["n"] == 6
    assert len(data["edges"]) == 12
    assert data["signs"] == {"0-2": -1, "0-4": -1, "1-5": -1, "2-5": -1}


def test_wedge_dot_p6_k2():
    w = build_wedge_graph(path_graph(6), 2)
    text = wedge_to_dot(w)
    assert w.num_vertices == 15
    assert "01 -- 02;" in text
    # every subset name appears
    for row in subset_table(6, 2).tolist():
        assert subset_name(row) in text


def test_wedge_dot_marks_negative_edges():
    w = build_wedge_graph(complete_graph(4), 2)
    text = wedge_to_dot(w)
    assert text.count('[label="-1"]') == 4


def test_subset_names():
    assert subset_name((0, 2, 4)) == "024"
    assert subset_name((3, 11)) == "3.11"
    assert subset_name(()) == ""


@pytest.mark.parametrize("g", [path_graph(5), cycle_graph(5), complete_graph(4), erdos_renyi_graph(6, 0.5, 4)])
def test_spectrum_sum_rules(g):
    # Adjacency eigenvalues sum to zero, laplacian eigenvalues to the degree
    # total, for every wedge power.
    for k in range(g.n + 1):
        w = build_wedge_graph(g, k)
        assert abs(np.sum(np.linalg.eigvalsh(wedge_adjacency(w)))) <= 1e-9
        lap_sum = np.sum(np.linalg.eigvalsh(wedge_laplacian(w)))
        assert abs(lap_sum - wedge_degrees(w).sum()) <= 1e-9


@pytest.mark.parametrize(
    "g,ks",
    [
        (path_graph(1), range(2)),
        (cycle_graph(7), range(8)),
        (complete_graph(7), range(8)),
        (erdos_renyi_graph(9, 0.4, 1), range(10)),
        (erdos_renyi_graph(12, 0.3, 5), (4, 6, 9)),
        # Beyond 63 vertices a subset no longer fits an int64 bitmask.
        (path_graph(70), (1, 2, 68)),
        (erdos_renyi_graph(66, 0.05, 1), (2, 65)),
    ],
)
def test_build_matches_loop_reference(g, ks):
    for k in ks:
        assert build_wedge_graph(g, k).signed_edges == reference_signed_edges(g, k), k


def test_near_full_sectors_of_long_graphs():
    # With k = n-1 the single hole walks the graph; hole h is rank n-1-h.  On
    # the cycle the wrap hop carries every other particle past the moved one.
    n = 3001
    assert build_wedge_graph(path_graph(n), n).signed_edges == ()
    assert build_wedge_graph(path_graph(n), n - 1).signed_edges == tuple((i, i + 1, 1) for i in range(n - 1))
    edges = build_wedge_graph(cycle_graph(n), n - 1).signed_edges
    assert edges == ((0, 1, 1), (0, n - 1, -1)) + tuple((i, i + 1, 1) for i in range(1, n - 1))


@pytest.mark.parametrize("n,k", [(0, 0), (1, 1), (7, 0), (7, 3), (9, 9), (70, 2)])
def test_subset_table_rows_are_colex_ranks(n, k):
    table = subset_table(n, k)
    assert table.shape == (math.comb(n, k), k)
    for r in (0, len(table) // 2, len(table) - 1):
        assert rank_subset(table[r], n) == r
    masks = [sum(1 << int(v) for v in row) for row in table]
    assert masks == sorted(masks) and len(set(masks)) == len(masks)


def test_path90_k2_matches_closed_form():
    # Colex ranks of pairs {i < j} are C(j,2) + i, so a hop along the path moves
    # the rank by at most n - 2 and the banded eigensolver applies.
    w = build_wedge_graph(path_graph(90), 2)
    a, b, _ = w.hops
    band = np.zeros((int(np.max(b - a)) + 1, w.num_vertices))
    band[b - a, a] = 1.0
    vals = scipy.linalg.eig_banded(band, lower=True, eigvals_only=True)
    gap = spectrum_gap(xy_path_spectrum(90, 2), vals)
    assert gap <= 1e-9, gap


def test_complete70_k2_matches_johnson():
    w = build_wedge_graph(complete_graph(70), 2)
    vals = np.linalg.eigvalsh(wedge_adjacency(w))
    gap = spectrum_gap(complete_sector_spectrum(70, 2, "xy"), vals)
    assert gap <= 1e-9, gap


def test_wedge_outputs_unchanged_cycle5_k2():
    w = build_wedge_graph(cycle_graph(5), 2)
    assert wedge_to_json(w) == (
        '{"n": 10, "edges": [[0, 1], [0, 7], [1, 2], [1, 3], [1, 8], [2, 4], [3, 4], [3, 6], [3, 9], '
        '[4, 5], [4, 7], [5, 8], [6, 7], [7, 8], [8, 9]], "signs": {"0-7": -1, "1-8": -1, "3-9": -1}}'
    )
    assert wedge_to_dot(w) == (
        'graph {\n  01 -- 02;\n  01 -- 14 [label="-1"];\n  02 -- 12;\n  02 -- 03;\n  02 -- 24 [label="-1"];\n'
        '  12 -- 13;\n  03 -- 13;\n  03 -- 04;\n  03 -- 34 [label="-1"];\n  13 -- 23;\n  13 -- 14;\n  23 -- 24;\n'
        '  04 -- 14;\n  14 -- 24;\n  24 -- 34;\n}\n'
    )


@pytest.mark.parametrize(
    "g,k,json_sha,dot_sha",
    [
        (erdos_renyi_graph(9, 0.4, 1), 4,
         "c74701535a849be6276d82e8a62e71aad028fadd90e9eab727805b2aab8eb08f",
         "344b4eeb56c92dfaf251ed112f0ee4e488657f2edfb97fe21f292cdc7d6f6af0"),
        (cycle_graph(12), 3,
         "68c51a91f8e705b7e0c6b2865911d7dc288c62e2700ed163c9e5f5fb9e844849",
         "8ecaf0316fb2d617422b88df66b7a3165759c9e2d02026b522483f03e6649b95"),
    ],
)
def test_wedge_output_digests_unchanged(g, k, json_sha, dot_sha):
    w = build_wedge_graph(g, k)
    assert hashlib.sha256(wedge_to_json(w).encode()).hexdigest() == json_sha
    assert hashlib.sha256(wedge_to_dot(w).encode()).hexdigest() == dot_sha


def test_hop_matrices_agree_with_signed_matrix():
    w = build_wedge_graph(erdos_renyi_graph(7, 0.5, 3), 3)
    c = signed_matrix(w)
    assert np.array_equal(wedge_adjacency(w), np.abs(c))
    assert np.array_equal(wedge_laplacian(w), np.diag(wedge_degrees(w)) - np.abs(c))
    assert np.array_equal(wedge_degrees(w), np.abs(c).sum(axis=1))


@pytest.mark.parametrize("n,k", [(n, k) for n in range(9) for k in range(n + 1)])
def test_cached_tables_equal_a_fresh_enumeration(n, k):
    subsets = sorted(itertools.combinations(range(n), k), key=lambda s: sum(1 << v for v in s))
    m = len(subsets)
    table = subset_table(n, k)
    assert (table is subset_table(n, k)) == (2 * k <= n)
    assert table.dtype == np.int64 and table.shape == (m, k)
    assert [tuple(row) for row in table.tolist()] == subsets
    assert basis_states(n, k).tolist() == [sum(1 << v for v in s) for s in subsets]
    weights = _colex_weights(n, k)
    assert [int(weights[list(s), range(k)].sum()) for s in subsets] == list(range(m))
    assert weights.shape == (n, k) and int(weights.max(initial=0)) <= m
    cached_arrays = [table, basis_states(n, k), weights]
    if 2 * k <= n:
        # The kept table is a level of the one enumeration, which also holds
        # the rank of each subset less each of its elements.
        level, drops = colex_level(n, k)
        assert level is table
        assert drops.tolist() == [[rank_subset(s[:p] + s[p + 1 :], n) for p in range(k)] for s in subsets]
        cached_arrays.append(drops)
    for cached in cached_arrays:
        assert not cached.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            cached[...] = 0


def test_table_caches_are_bounded_and_never_keep_a_refusal():
    for fn in (colex_level, basis_states, _colex_weights):
        assert fn.cache_info().maxsize is not None
    colex_level.cache_clear()
    for k in (10, 11):
        with pytest.raises(CapacityError):
            subset_table(20, k)
    info = colex_level.cache_info()
    assert (info.misses, info.currsize) == (0, 0)


def test_a_wide_table_is_not_kept():
    # The 599-subsets of 600 vertices are 2.9 MB; only the 4.8 kB table of
    # their one-element complements stays cached, with the empty level 0
    # that it is built from.
    colex_level.cache_clear()
    tracemalloc.start()
    try:
        wide = subset_table(600, 599)
        assert wide.shape == (600, 599) and not wide.flags.writeable
        assert wide[0].tolist() == list(range(599)) and wide[-1].tolist() == list(range(1, 600))
        del wide
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert colex_level.cache_info().currsize == 2
    assert kept < 100_000


def test_rising_hops_memory_is_linear_in_the_hops():
    # At k = 1 every edge is one hop. The per-edge scan keeps one small array
    # per edge; a mask over all (subset, edge) pairs would take m = 300 bytes
    # per hop, three times over.
    g = complete_graph(300)
    subset_table(300, 1)
    tracemalloc.start()
    try:
        a, *_ = _rising_hops(g, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(a) == len(g.edges)
    assert peak <= 2 * 300 * g.n + 512 * len(a)


@pytest.mark.parametrize(
    "g",
    [Graph(4, ()), Graph(1, ()), path_graph(5), cycle_graph(6), complete_graph(5), erdos_renyi_graph(7, 0.5, 2)],
    ids=["edgeless4", "single", "path5", "cycle6", "complete5", "er7"],
)
def test_hops_match_the_dense_blocks_at_every_k(g):
    # k = 0, k = n and k > n/2 (the hole side) included.
    xy, heis = (project_full_to_blocks(full_hamiltonian(g, ModelSpec(model))) for model in ("xy", "heis"))
    for k in range(g.n + 1):
        w = build_wedge_graph(g, k)
        a, b, s = w.hops
        assert np.all(a < b) and np.all(np.abs(s) == 1)
        assert np.array_equal(wedge_adjacency(w), xy[k]), k
        assert np.array_equal(wedge_laplacian(w), heis[k]), k
        assert np.array_equal(signed_matrix(w), alt_delta_oracle(g, k)), k
        if not g.edges:
            assert len(a) == 0


def test_one_subset_sectors_read_no_edges(monkeypatch):
    # k = 0 and k = n have one subset and no hop, so the edges are not read:
    # a side-0 wedge of a huge graph costs nothing before the base guard.
    import spinwedge.wedge as wedge_mod

    def forbidden(*args):
        raise AssertionError("hops enumerated for a one-subset sector")

    monkeypatch.setattr(wedge_mod, "_rising_hops", forbidden)
    g = complete_graph(6)
    for k in (0, 6):
        w = build_wedge_graph(g, k)
        assert (w.k, w.num_vertices) == (k, 1)
        assert all(x.shape == (0,) and x.dtype == np.int64 for x in w.hops)
