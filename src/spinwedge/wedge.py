"""Combinadic k-subset indexing and the signed wedge power of a graph.

The k-th wedge power of a graph G has one vertex per k-subset of V(G); two
subsets are adjacent when they differ by moving a single element along an
edge of G.  Each such hop carries a sign: the parity of the number of
occupied vertices strictly between the source and destination of the moved
element.  That sign is exactly the matrix element of the antisymmetrized
k-fold coupling of A(G) in the ordered wedge basis, which
:func:`alt_delta_oracle` constructs literally for cross-checking.

Subsets are indexed by their colexicographic combinadic rank, which for
bitmask representations coincides with ascending numeric order of the masks.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .graphs import CapacityError, Graph, adjacency, export_dot, parity_forest

__all__ = [
    "BLOCK_DIM_LIMIT",
    "TENSOR_ENTRY_LIMIT",
    "WedgeGraph",
    "sector_dimension",
    "rank_subset",
    "subset_name",
    "subset_table",
    "build_wedge_graph",
    "switching_signs",
    "signed_matrix",
    "wedge_adjacency",
    "wedge_degrees",
    "wedge_laplacian",
    "alt_delta_oracle",
    "wedge_to_json",
    "wedge_to_dot",
]

# Dense per-sector matrices are kept small enough for exact desk-scale work.
BLOCK_DIM_LIMIT = 5000

# The literal tensor-space oracle works on arrays of n^k * C(n,k) float64
# entries, at a peak of about 32 bytes per entry.
TENSOR_ENTRY_LIMIT = 10**7

# Distinct (n, k) tables kept per process: a pass over the verification
# corpus uses 42 bitmask tables, 23 subset tables and 23 singlet bases
# (k <= n/2 only), and each holds at most BLOCK_DIM_LIMIT rows.
TABLE_CACHE_SIZE = 64


def rank_subset(elements, n: int) -> int:
    """Colexicographic rank of a strictly increasing subset of range(n)."""
    elems = tuple(elements)
    prev = -1
    for e in elems:
        if not isinstance(e, (int, np.integer)):
            raise ValueError(f"subset elements must be integers, got {e!r}")
        if not 0 <= e < n:
            raise ValueError(f"element {e} out of range for n={n}")
        if e <= prev:
            raise ValueError(f"subset {elems} is not strictly increasing")
        prev = e
    return sum(math.comb(int(e), i + 1) for i, e in enumerate(elems))


def subset_name(elements) -> str:
    """Concatenated-label vertex name, e.g. (0, 2, 4) -> "024".

    Labels wider than one digit are dot-separated to stay unambiguous.
    """
    elems = tuple(elements)
    if any(e >= 10 for e in elems):
        return ".".join(str(e) for e in elems)
    return "".join(str(e) for e in elems)


def sector_dimension(n: int, k: int) -> int:
    """C(n, k), the dimension of sector k; the one sector capacity guard.

    Raises CapacityError, naming k and C(n, k), beyond BLOCK_DIM_LIMIT.
    """
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= {n}, got k={k}")
    m = math.comb(n, k)
    if m > BLOCK_DIM_LIMIT:
        raise CapacityError(f"sector k={k} has C({n},{k})={m} subsets, above the sector limit {BLOCK_DIM_LIMIT}")
    return m


def subset_table(n: int, k: int) -> np.ndarray:
    """Every k-subset of range(n) as an ascending read-only row; row r is the
    rank-r subset.

    Only tables with k <= n/2 are kept, as levels of :func:`colex_level`; a
    wider one is the complement of the kept (n-k)-table, built on each call.
    Raises CapacityError beyond BLOCK_DIM_LIMIT rows, before allocating them.
    """
    m = sector_dimension(n, k)
    if 2 * k <= n:
        return colex_level(n, k)[0]
    # Complementing a k-subset of rank r gives the (n-k)-subset of rank m-1-r.
    occupied = np.ones((m, n), dtype=bool)
    occupied[np.arange(m)[:, None], colex_level(n, n - k)[0][::-1]] = False
    table = np.nonzero(occupied)[1].astype(np.int64).reshape(m, k)
    table.flags.writeable = False
    return table


@lru_cache(maxsize=TABLE_CACHE_SIZE)
def colex_level(n: int, c: int) -> tuple[np.ndarray, np.ndarray]:
    """The c-subsets of range(n) in colex rank order, as two read-only
    (C(n, c), c) int64 tables: row r of ``table`` is the rank-r subset,
    ascending, and drops[r, p] is the rank of that subset less its p-th
    element.  The one place subsets are enumerated; callers guard C(n, c).
    """
    if c == 0:
        table = drops = np.zeros((1, 0), dtype=np.int64)
    else:
        below_table, below_drops = colex_level(n, c - 1)
        # Colex order lists the subsets by their top element m; those with top
        # m are the (c-1)-subsets of range(m), which come first in their level.
        counts = np.array([math.comb(m, c - 1) for m in range(c - 1, n)], dtype=np.int64)
        below = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
        table = np.column_stack((below_table[below], np.repeat(np.arange(c - 1, n), counts)))
        # Dropping an element under the top keeps the top, worth C(m, c-1).
        drops = np.column_stack((below_drops[below] + np.repeat(counts, counts)[:, None], below))
    table.flags.writeable = drops.flags.writeable = False
    return table, drops


@dataclass(frozen=True, eq=False)
class WedgeGraph:
    """The k-th wedge power of a base graph, with signed hop edges.

    ``hops`` holds three read-only int64 arrays of equal length: the lower
    ranks a, the upper ranks b > a and the signs, one entry per base-graph
    edge traversal, sorted by (a, b).  Every sector operator is assembled
    from these arrays.
    """

    base: Graph
    k: int
    num_vertices: int
    hops: tuple[np.ndarray, np.ndarray, np.ndarray]

    def __post_init__(self) -> None:
        arrays = tuple(np.array(x, dtype=np.int64) for x in self.hops)
        if len(arrays) != 3 or any(x.ndim != 1 or x.shape != arrays[0].shape for x in arrays):
            raise ValueError("hops must be three 1-D arrays of equal length: lower ranks, upper ranks, signs")
        for x in arrays:
            x.flags.writeable = False
        object.__setattr__(self, "hops", arrays)

    @cached_property
    def signed_edges(self) -> tuple[tuple[int, int, int], ...]:
        """The hops as (a, b, sign) tuples, for export."""
        return tuple(zip(*(x.tolist() for x in self.hops)))


@lru_cache(maxsize=TABLE_CACHE_SIZE)
def _colex_weights(n: int, k: int) -> np.ndarray:
    """weights[v, j] = C(v, j+1), saturated at C(n, k), read-only.

    The colex rank of an ascending row t is sum_j weights[t[j], j].  Every term
    of a valid rank is below C(n, k), so saturation never touches a term that
    is summed, and no entry overflows for any n.
    """
    cap = math.comb(n, k)
    weights = np.array(
        [[min(math.comb(v, j + 1), cap) for j in range(k)] for v in range(n)], dtype=np.int64
    ).reshape(n, k)
    weights.flags.writeable = False
    return weights


def _rising_hops(g: Graph, k: int):
    """Every hop of the k-th wedge power that moves an occupied u to an empty v
    along a base edge u < v.

    That raises the occupation bitmask, hence the rank, so each wedge edge is
    found exactly once, from its lower end.  Vectorized over the colex subset
    table.  Returns the lower ranks, the upper ranks, the number of occupied
    vertices strictly between u and v, and the number of all vertices there.
    """
    table = subset_table(g.n, k)
    m = len(table)
    occupied = np.zeros((m, g.n), dtype=bool)
    occupied[np.arange(m)[:, None], table] = True
    lower = [np.flatnonzero(occupied[:, u] & ~occupied[:, v]) for u, v in g.edges]
    a = np.concatenate([np.empty(0, dtype=np.intp), *lower])
    ends = np.array(g.edges, dtype=np.int64).reshape(-1, 2)
    counts = [r.size for r in lower]
    src = np.repeat(ends[:, 0], counts)
    dst = np.repeat(ends[:, 1], counts)
    moved = table[a]
    crossed = np.count_nonzero((moved > src[:, None]) & (moved < dst[:, None]), axis=1)
    moved = np.where(moved == src[:, None], dst[:, None], moved)
    moved.sort(axis=1)
    b = _colex_weights(g.n, k)[moved, np.arange(k)].sum(axis=1)
    return a, b, crossed, dst - src - 1


def build_wedge_graph(g: Graph, k: int) -> WedgeGraph:
    """Enumerate the k-subset vertices and all signed single-element hops.

    The sign of a hop is the parity of the occupied vertices strictly between
    its endpoints.  Above k = n/2 the hops are those of the n-k holes, so the
    subset table is never wider than min(k, n-k).  k=0 gives the one-vertex
    edgeless graph, k=1 reproduces g itself with every sign +1.
    """
    n = g.n
    m = sector_dimension(n, k)
    if m == 1:  # k = 0 or n: the one subset has no hop, whatever the edges
        return WedgeGraph(g, k, 1, (np.zeros(0, dtype=np.int64),) * 3)
    if 2 * k <= n:
        a, b, crossed, _ = _rising_hops(g, k)
    else:
        # Complementing reverses colex rank order, and moving a particle u -> v
        # moves a hole v -> u; between the endpoints, what is not a hole is a
        # particle.
        hole_a, hole_b, holes, between = _rising_hops(g, n - k)
        a, b, crossed = m - 1 - hole_b, m - 1 - hole_a, between - holes
    signs = np.where(crossed & 1, -1, 1)
    order = np.lexsort((b, a))
    return WedgeGraph(g, k, m, (a[order], b[order], signs[order]))


def switching_signs(w: WedgeGraph) -> np.ndarray | None:
    """The +-1 vector D with D . C . D = A, C the signed matrix and A the
    adjacency, or None; D is all ones without hops.

    One :func:`spinwedge.graphs.parity_forest` over the hops, labelled
    [sign < 0], gives each rank the parity of the negative hops on its tree
    path to its root.  D from it makes every tree hop +A; a check of every
    hop decides whether the others are.
    """
    a, b, s = w.hops
    negative = (s < 0).astype(np.uint8)
    _, parity = parity_forest(w.num_vertices, a, b, negative)
    if np.any(parity[a] ^ parity[b] ^ negative):
        return None
    return 1 - 2 * parity.astype(np.int64)


def _hop_matrix(w: WedgeGraph, values) -> np.ndarray:
    """Symmetric matrix with ``values`` on every hop and zeros elsewhere."""
    a, b, _ = w.hops
    c = np.zeros((w.num_vertices, w.num_vertices))
    c[a, b] = values
    c[b, a] = values
    return c


def signed_matrix(w: WedgeGraph) -> np.ndarray:
    """Matrix of the antisymmetrized hops: entries in {-1, 0, +1}."""
    return _hop_matrix(w, w.hops[2])


def wedge_adjacency(w: WedgeGraph) -> np.ndarray:
    """Plain adjacency of the wedge power: absolute value of the signed matrix."""
    return _hop_matrix(w, 1.0)


def wedge_degrees(w: WedgeGraph) -> np.ndarray:
    """Legal single-element moves out of each subset."""
    a, b, _ = w.hops
    return np.bincount(np.concatenate((a, b)), minlength=w.num_vertices).astype(float)


def wedge_laplacian(w: WedgeGraph) -> np.ndarray:
    lap = _hop_matrix(w, -1.0)
    lap[np.diag_indices(w.num_vertices)] = wedge_degrees(w)
    return lap


def _ascending_tuples(n: int, k: int) -> np.ndarray:
    """Every strictly increasing k-tuple of range(n) as a row, in colex order.

    Found among all n^k digit tuples t, taken in order of their little-endian
    tensor index sum_j t[j] n^j.  Digit k-1 is the most significant, so that
    order sorts the tuples by their largest element first: colex order, the
    ascending order of their bitmasks.
    """
    digits = np.indices((n,) * k, dtype=np.int64).reshape(k, -1)[::-1]
    return np.ascontiguousarray(digits[:, np.all(digits[1:] > digits[:-1], axis=0)].T)


def alt_delta_oracle(g: Graph, k: int) -> np.ndarray:
    """Literal tensor-space construction of the signed wedge matrix.

    Applies the k-fold one-particle coupling Delta = sum_j I x .. x A x .. x I
    of A(G), factor by factor, to the columns of the unnormalized
    antisymmetrizer (the signed sum over all k! factor permutations) at the
    sorted tuples, then takes the same signed sum over the rows: that is
    k! times the compressed Alt . Delta . Alt in the ordered-subset basis,
    and the division by k! must leave integers.  No n^k x n^k matrix is
    formed.  Every value is an integer of magnitude at most k! k n, far below
    2^53, so the float64 arithmetic is exact, and the coupling runs in BLAS,
    which numpy's int64 matmul does not use.

    Intended as an independent oracle for :func:`signed_matrix`; guarded to
    n^k * C(n,k) <= TENSOR_ENTRY_LIMIT work entries, before any allocation.
    As C(n,k) <= n^k, that also keeps C(n,k) <= 3162, below BLOCK_DIM_LIMIT.
    """
    n = g.n
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= {n}, got k={k}")
    if k == 0:
        return np.zeros((1, 1))
    m = math.comb(n, k)
    entries = n**k * m
    if entries > TENSOR_ENTRY_LIMIT:
        raise CapacityError(
            f"tensor-space oracle at k={k} needs n^k * C({n},{k}) = {entries} entries, "
            f"above the limit {TENSOR_ENTRY_LIMIT}"
        )

    a = adjacency(g)
    tuples = _ascending_tuples(n, k)
    perms = np.array(list(itertools.permutations(range(k))), dtype=np.int64)
    inversions = np.count_nonzero(np.triu(perms[:, :, None] > perms[:, None, :]), axis=(1, 2))
    signs = 1 - 2 * (inversions & 1)
    # permuted[p, r]: tensor index of the tuple (t[pi(0)], ..., t[pi(k-1)]),
    # t the rank-r tuple and pi the p-th permutation.
    permuted = (tuples[:, perms] @ n ** np.arange(k, dtype=np.int64)).T

    # Columns of the unnormalized antisymmetrizer at the sorted tuples.
    cols = np.zeros((n**k, m))
    cols[permuted, np.arange(m)] = signs[:, None]
    x = cols.reshape((n,) * k + (m,))
    # The coupling acts with A on tensor digit j, which is axis k-1-j.
    coupled = np.zeros_like(x)
    for j in range(k):
        coupled += np.moveaxis(np.tensordot(a, x, axes=([1], [k - 1 - j])), 0, k - 1 - j)
    coupled = coupled.reshape(n**k, m)

    # The antisymmetrizer is symmetric, so its sorted-tuple rows are the same
    # signed sums over the permuted tuples.
    sub = np.zeros((m, m))
    for sign, rows in zip(signs.tolist(), permuted):
        sub += sign * coupled[rows]
    q, rem = np.divmod(sub, math.factorial(k))
    if np.any(rem):
        raise RuntimeError("antisymmetrized matrix entries are not integral; projector construction is broken")
    return q


def wedge_to_json(w: WedgeGraph) -> str:
    """Graph JSON on subset ranks plus a "signs" map for the negative edges."""
    edges = w.signed_edges
    return json.dumps(
        {
            "n": w.num_vertices,
            "edges": [[a, b] for a, b, _ in edges],
            "signs": {f"{a}-{b}": -1 for a, b, s in edges if s < 0},
        }
    )


def wedge_to_dot(w: WedgeGraph) -> str:
    """DOT drawing with concatenated-label vertex names and -1 edge labels."""
    edges = w.signed_edges
    names = [subset_name(row) for row in subset_table(w.base.n, w.k).tolist()]
    labels = {(a, b): "-1" for a, b, s in edges if s < 0}
    return export_dot(Graph(w.num_vertices, tuple((a, b) for a, b, _ in edges)), names, edge_labels=labels)
