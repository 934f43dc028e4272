"""Labelled simple graphs: families, matrices, serialization.

Vertices are identified with their labels 0..n-1; the integer order on labels
is the total vertex order used everywhere else in the package (subset sorting,
hop signs).  Matrices are plain dense ``numpy`` arrays, constructed exactly
symmetric.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GRAPH_SIZE_LIMIT",
    "CapacityError",
    "check_graph_size",
    "Graph",
    "graph_from_edge_list",
    "path_graph",
    "cycle_graph",
    "complete_graph",
    "erdos_renyi_graph",
    "adjacency",
    "degree_matrix",
    "laplacian",
    "parity_forest",
    "connected_components",
    "export_dot",
    "graph_to_json",
    "graph_from_json",
]


# Vertices (path, cycle, JSON) or vertex pairs (complete, er) a graph may cost
# to build.  At the limit, path:1000000 or complete:1414 takes 0.8-0.9 s and
# 204-236 MiB peak RSS; complete:3000 (4.5 M pairs) took 4.5 s and 820 MiB.
GRAPH_SIZE_LIMIT = 10**6


class CapacityError(ValueError):
    """A request exceeds the built-in desk-scale size guards."""


def check_graph_size(spec: str, count: int, what: str) -> None:
    """Raise CapacityError, naming spec and count, beyond GRAPH_SIZE_LIMIT."""
    if count > GRAPH_SIZE_LIMIT:
        raise CapacityError(f"graph {spec} has {count} {what}, above the graph size limit {GRAPH_SIZE_LIMIT}")


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices ``0..n-1``.

    Edges are stored canonically: each pair oriented ``u < v``, the tuple
    sorted, no duplicates, no self-loops.  The constructor normalizes pair
    orientation and ordering but rejects duplicates and out-of-range labels.
    Instances are immutable and hashable.
    """

    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError(f"vertex count must be nonnegative, got {self.n}")
        canon = []
        for e in self.edges:
            u, v = e
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if u > v:
                u, v = v, u
            if not (0 <= u < v < self.n):
                raise ValueError(f"edge {tuple(e)} out of range for n={self.n}")
            canon.append((u, v))
        canon.sort()
        for a, b in zip(canon, canon[1:]):
            if a == b:
                raise ValueError(f"duplicate edge {a}")
        object.__setattr__(self, "edges", tuple(canon))

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def degrees(self) -> list[int]:
        d = [0] * self.n
        for u, v in self.edges:
            d[u] += 1
            d[v] += 1
        return d


def graph_from_edge_list(n: int, pairs) -> Graph:
    """Canonical graph from a possibly unsorted, repeated edge list."""
    return Graph(n, tuple({(min(u, v), max(u, v)) for u, v in pairs}))


def path_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError(f"path needs n >= 1, got {n}")
    return Graph(n, tuple((i, i + 1) for i in range(n - 1)))


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError(f"cycle needs n >= 3, got {n}")
    edges = [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]
    return Graph(n, tuple(sorted(edges)))


def complete_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError(f"complete graph needs n >= 1, got {n}")
    return Graph(n, tuple((u, v) for u in range(n) for v in range(u + 1, n)))


def erdos_renyi_graph(n: int, p: float, seed: int) -> Graph:
    """G(n, p) with a stdlib RNG so the draw is stable across platforms."""
    if n < 0 or not (0.0 <= p <= 1.0):
        raise ValueError(f"bad G(n, p) parameters n={n}, p={p}")
    rng = random.Random(seed)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph(n, tuple(edges))


def adjacency(g: Graph) -> np.ndarray:
    """{0,1} adjacency matrix with zero diagonal."""
    a = np.zeros((g.n, g.n))
    for u, v in g.edges:
        a[u, v] = 1.0
        a[v, u] = 1.0
    return a


def degree_matrix(g: Graph) -> np.ndarray:
    return np.diag(np.asarray(g.degrees(), dtype=float))


def laplacian(g: Graph) -> np.ndarray:
    """Combinatorial laplacian D - A; rows sum to zero."""
    return degree_matrix(g) - adjacency(g)


def parity_forest(n: int, a: np.ndarray, b: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Root and parity of every vertex in a spanning forest of the edges (a, b).

    ``labels`` holds one uint8 per edge; the parity of a vertex is the XOR of
    the labels along its forest path to its root.  Hook and compress
    (Shiloach & Vishkin, J. Algorithms 3 (1982) 57): each round hooks every
    root touched by an edge between two trees under the smaller root, parent
    and parity both from one chosen edge, then jumps pointers until every
    tree is a star.
    """
    parent = np.arange(n)
    parity = np.zeros(n, dtype=np.uint8)
    while True:
        cross = parent[a] != parent[b]
        if not cross.any():
            return parent, parity
        a, b, labels = a[cross], b[cross], labels[cross]
        ra, rb = parent[a], parent[b]
        hi, first = np.unique(np.maximum(ra, rb), return_index=True)
        parent[hi] = np.minimum(ra, rb)[first]
        parity[hi] = (parity[a] ^ parity[b] ^ labels)[first]
        while not np.array_equal(up := parent[parent], parent):
            parity ^= parity[parent]
            parent = up


def connected_components(g: Graph) -> int:
    """Number of connected components: the roots of one parity forest."""
    ends = np.array(g.edges, dtype=np.int64).reshape(-1, 2)
    roots, _ = parity_forest(g.n, ends[:, 0], ends[:, 1], np.zeros(len(ends), dtype=np.uint8))
    return int(np.count_nonzero(roots == np.arange(g.n)))


def _dot_id(name: str) -> str:
    if name.isdigit() or (name.isidentifier() and name.isascii()):
        return name
    escaped = name.replace('"', '\\"')
    return f'"{escaped}"'


def export_dot(g: Graph, vertex_names: list[str] | None = None,
               edge_labels: dict[tuple[int, int], str] | None = None) -> str:
    """Undirected graphviz source. Names are quoted when not plain ids."""
    if vertex_names is not None and len(vertex_names) != g.n:
        raise ValueError(f"expected {g.n} vertex names, got {len(vertex_names)}")
    names = vertex_names if vertex_names is not None else [str(v) for v in range(g.n)]
    used = set()
    lines = ["graph {"]
    for u, v in g.edges:
        used.add(u)
        used.add(v)
        label = ""
        if edge_labels and (u, v) in edge_labels:
            label = f' [label="{edge_labels[(u, v)]}"]'
        lines.append(f"  {_dot_id(names[u])} -- {_dot_id(names[v])}{label};")
    for v in range(g.n):
        if v not in used:
            lines.append(f"  {_dot_id(names[v])};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def graph_to_json(g: Graph) -> str:
    return json.dumps({"n": g.n, "edges": [list(e) for e in g.edges]})


def _is_json_int(x) -> bool:
    # JSON true/false parse to bool, which Python counts as int.
    return isinstance(x, int) and not isinstance(x, bool)


def graph_from_json(text: str) -> Graph:
    """Parse the canonical JSON graph format.

    Malformed JSON propagates json.JSONDecodeError (carries line/column);
    schema violations raise ValueError, and sizes over GRAPH_SIZE_LIMIT CapacityError.
    """
    data = json.loads(text)
    if not isinstance(data, dict) or "n" not in data or "edges" not in data:
        raise ValueError('graph JSON must be an object with "n" and "edges"')
    n = data["n"]
    if not _is_json_int(n):
        raise ValueError(f'"n" must be an integer, got {n!r}')
    edges = data["edges"]
    if not isinstance(edges, list):
        raise ValueError('"edges" must be a list of [u, v] pairs')
    check_graph_size(f'JSON with "n": {n}', n, "vertices")
    check_graph_size(f'JSON with "n": {n}', len(edges), "edge entries")
    pairs = []
    for e in edges:
        if not (isinstance(e, list) and len(e) == 2 and all(_is_json_int(x) for x in e)):
            raise ValueError(f"bad edge entry {e!r}")
        pairs.append((e[0], e[1]))
    return graph_from_edge_list(n, pairs)
