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
from functools import cached_property

import numpy as np

from .graphs import CapacityError, Graph, export_dot, parity_forest

__all__ = [
    "BLOCK_DIM_LIMIT",
    "TENSOR_DIM_LIMIT",
    "WedgeGraph",
    "LiftRoute",
    "sector_dimension",
    "rank_subset",
    "unrank_subset",
    "subset_name",
    "subset_table",
    "hop_sign",
    "build_wedge_graph",
    "switching_signs",
    "lift_route",
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

# The literal tensor-space oracle materializes N^k dimensional operators.
TENSOR_DIM_LIMIT = 10**6


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


def unrank_subset(rank: int, n: int, k: int) -> tuple[int, ...]:
    """Inverse of :func:`rank_subset`: the rank-th k-subset in colex order."""
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    total = math.comb(n, k)
    if not 0 <= rank < total:
        raise ValueError(f"rank {rank} out of range [0, {total}) for C({n},{k})")
    out = [0] * k
    r = rank
    e = n - 1
    for i in range(k, 0, -1):
        while math.comb(e, i) > r:
            e -= 1
        out[i - 1] = e
        r -= math.comb(e, i)
        e -= 1
    return tuple(out)


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
    """Every k-subset of range(n) as an ascending row; row r is the rank-r subset.

    Raises CapacityError beyond BLOCK_DIM_LIMIT rows, before allocating them.
    """
    m = sector_dimension(n, k)
    # Lexicographic order of descending tuples is reversed colex order.
    descending = np.array(list(itertools.combinations(range(n - 1, -1, -1), k)), dtype=np.int64)
    return np.ascontiguousarray(descending.reshape(m, k)[::-1, ::-1])


def hop_sign(subset, src: int, dst: int) -> int:
    """Sign of moving occupied src to empty dst with the rest of subset fixed.

    Equals the parity of the re-sorting permutation: -1 raised to the number
    of occupied vertices strictly between src and dst.
    """
    lo, hi = (src, dst) if src < dst else (dst, src)
    crossed = sum(1 for x in subset if lo < x < hi)
    return -1 if crossed & 1 else 1


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

    def skeleton(self) -> Graph:
        """Unsigned graph on the subset ranks."""
        a, b, _ = self.hops
        return Graph(self.num_vertices, tuple(zip(a.tolist(), b.tolist())))

    def vertex_names(self) -> list[str]:
        return [subset_name(row) for row in subset_table(self.base.n, self.k).tolist()]

    def negative_edges(self) -> list[tuple[int, int]]:
        a, b, s = self.hops
        negative = s < 0
        return list(zip(a[negative].tolist(), b[negative].tolist()))


def _colex_weights(n: int, k: int, cap: int) -> np.ndarray:
    """weights[v, j] = C(v, j+1), saturated at cap.

    The colex rank of an ascending row t is sum_j weights[t[j], j].  Every term
    of a valid rank is below C(n, k), so with cap = C(n, k) saturation never
    touches a term that is summed, and no entry overflows for any n.
    """
    return np.array(
        [[min(math.comb(v, j + 1), cap) for j in range(k)] for v in range(n)], dtype=np.int64
    ).reshape(n, k)


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
    b = _colex_weights(g.n, k, m)[moved, np.arange(k)].sum(axis=1)
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


def switching_signs(w: WedgeGraph) -> tuple[np.ndarray, int] | None:
    """The +-1 vector D and the sign sigma with D . C . D = sigma * A, C the
    signed matrix and A the adjacency, or None; sigma is +1 without hops.

    One :func:`spinwedge.graphs.parity_forest` over the hops, labelled
    2 | [sign < 0], gives each rank two bits to its root: the hop signs and
    the length of its tree path.  D from bit 0 makes every tree hop +A, D
    from bit 0 xor bit 1 makes it -A; a check of every hop decides which.
    """
    a, b, s = w.hops
    labels = np.where(s < 0, 3, 2).astype(np.uint8)
    _, parity = parity_forest(w.num_vertices, a, b, labels)
    off = parity[a] ^ parity[b] ^ labels
    if not np.any(off & 1):
        return 1 - 2 * (parity & 1).astype(np.int64), 1
    if not np.any((off ^ (off >> 1)) & 1):
        return 1 - 2 * ((parity ^ (parity >> 1)) & 1).astype(np.int64), -1
    return None


@dataclass(frozen=True)
class LiftRoute:
    """Sector k of the XY model on n vertices as a free-fermion problem.

    On side h = min(k, n-k), D . C_h . D = sigma * A_h with D = ``signs``
    over the h-subset ranks.  As C_h(-A) = -C_h(A), A_h = D . C_h(sigma A) . D,
    so the sector spectrum is the h-sums of eig(sigma A), that is the j-sums
    of eig(A) (tr A = 0), and exp(-i A_h t)[S, S0] = D[S] D[S0]
    det exp(-i sigma A t)[S, S0].  A_k is A_h relabelled by r -> C(n,k)-1-r.
    Here j is h for sigma = +1 and n-h for sigma = -1.
    """

    n: int
    k: int
    signs: np.ndarray
    sigma: int

    @property
    def h(self) -> int:
        return min(self.k, self.n - self.k)

    @property
    def j(self) -> int:
        return self.h if self.sigma > 0 else self.n - self.h


def lift_route(g: Graph, k: int, wedge_of=None) -> LiftRoute | None:
    """The lift route of sector k by one :func:`switching_signs` of side
    h = min(k, n-k), built by ``wedge_of(h)`` (default: :func:`build_wedge_graph`),
    or None when C_h switches to neither A_h nor -A_h."""
    h = min(k, g.n - k)
    switching = switching_signs(wedge_of(h) if wedge_of is not None else build_wedge_graph(g, h))
    return None if switching is None else LiftRoute(g.n, k, *switching)


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


def _tuple_indices(n: int, k: int) -> np.ndarray:
    """Little-endian digit index of the sorted tuple of every k-subset rank."""
    idx = np.empty(math.comb(n, k), dtype=np.int64)
    for r in range(idx.size):
        t = unrank_subset(r, n, k)
        idx[r] = sum(t[j] * n**j for j in range(k))
    return idx


def alt_delta_oracle(g: Graph, k: int) -> np.ndarray:
    """Literal tensor-space construction of the signed wedge matrix.

    Builds the k-fold one-particle coupling of A(G) on the full n^k tensor
    space, conjugates it with the explicit antisymmetrization projector (the
    signed sum over all k! factor permutations), and compresses to the
    ordered-subset basis.  All arithmetic is exact in int64; the compression
    rescales so that matrix entries come out as integers.

    Intended as an independent oracle for :func:`signed_matrix`; guarded to
    n^k <= TENSOR_DIM_LIMIT.
    """
    # Imported here: nothing else needs scipy.sparse, and it is slow to load.
    import scipy.sparse as sp

    n = g.n
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= {n}, got k={k}")
    if k == 0:
        return np.zeros((1, 1))
    dim = n**k
    if dim > TENSOR_DIM_LIMIT:
        raise CapacityError(f"tensor space n^k = {dim} exceeds limit {TENSOR_DIM_LIMIT}")
    m = math.comb(n, k)
    if m > BLOCK_DIM_LIMIT:
        raise CapacityError(f"compressed matrix C({n},{k})={m} exceeds limit {BLOCK_DIM_LIMIT}")

    a = sp.lil_matrix((n, n), dtype=np.int64)
    for u, v in g.edges:
        a[u, v] = 1
        a[v, u] = 1
    a = a.tocsr()

    # Coupling: sum over factor positions of I x .. x A x .. x I.
    delta = sp.csr_matrix((dim, dim), dtype=np.int64)
    for j in range(k):
        term = sp.identity(n**j, dtype=np.int64, format="csr")
        term = sp.kron(sp.kron(sp.identity(n ** (k - 1 - j), dtype=np.int64, format="csr"), a), term, format="csr")
        delta = delta + term

    # Unnormalized projector: sum over permutations pi of sign(pi) * P_pi,
    # where P_pi sends the basis tuple t to (t[pi(0)], ..., t[pi(k-1)]).
    cols = np.arange(dim, dtype=np.int64)
    digits = [(cols // n**j) % n for j in range(k)]
    rows_all, vals_all = [], []
    for perm in itertools.permutations(range(k)):
        sign = _perm_sign(perm)
        rows = sum(digits[perm[j]] * n**j for j in range(k))
        rows_all.append(rows)
        vals_all.append(np.full(dim, sign, dtype=np.int64))
    alt_un = sp.coo_matrix(
        (np.concatenate(vals_all), (np.concatenate(rows_all), np.tile(cols, math.factorial(k)))),
        shape=(dim, dim),
    ).tocsr()

    conjugated = alt_un @ delta @ alt_un  # k!^2 times Alt Delta Alt, exactly
    idx = _tuple_indices(n, k)
    sub = conjugated[idx][:, idx].toarray()
    fact = math.factorial(k)
    q, rem = np.divmod(sub, fact)
    if np.any(rem):
        raise RuntimeError("antisymmetrized matrix entries are not integral; projector construction is broken")
    return q.astype(float)


def _perm_sign(perm) -> int:
    inversions = sum(
        1 for i in range(len(perm)) for j in range(i + 1, len(perm)) if perm[i] > perm[j]
    )
    return -1 if inversions & 1 else 1


def wedge_to_json(w: WedgeGraph) -> str:
    """Graph JSON on subset ranks plus a "signs" map for the negative edges."""
    signs = {f"{a}-{b}": -1 for a, b in w.negative_edges()}
    return json.dumps(
        {
            "n": w.num_vertices,
            "edges": [[a, b] for a, b, _ in w.signed_edges],
            "signs": signs,
        }
    )


def wedge_to_dot(w: WedgeGraph) -> str:
    """DOT drawing with concatenated-label vertex names and -1 edge labels."""
    labels = {(a, b): "-1" for a, b in w.negative_edges()}
    return export_dot(w.skeleton(), w.vertex_names(), edge_labels=labels)
