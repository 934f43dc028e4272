"""XY and Heisenberg hamiltonians on a graph: full-space oracle and sectors.

Computational-basis convention: bit v of a basis index is 1 when the spin at
vertex v is flipped, carrying z-projection -1, so the total-z operator is
diagonal with value n - 2 * popcount.  A uniform field B is B*(n - 2k) times
the identity on sector k (:meth:`ModelSpec.sector_shift`): sector operators
are field-free, and only the full-space oracle puts the field in its matrix.

Per edge and per basis state, the XY interaction hops a single flipped spin
along the edge with amplitude +1 when the far end is unflipped; Heisenberg
additionally counts the legal hops on the diagonal, which is exactly degree
minus adjacency of the wedge power.  The Heisenberg interaction also
conserves the total spin; :func:`singlet_basis` spans the states of sector j
whose total spin is n/2 - j, the least in that sector, which no sector
closer to all spins unflipped holds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .graphs import CapacityError, Graph
from .wedge import (
    TABLE_CACHE_SIZE,
    WedgeGraph,
    _colex_weights,
    build_wedge_graph,  # not used here; perfbench's traced-run test reads spinwedge.spins.build_wedge_graph
    colex_level,
    sector_dimension,
    subset_table,
    wedge_adjacency,
    wedge_laplacian,
)

__all__ = [
    "FULL_SPIN_LIMIT",
    "ModelSpec",
    "basis_states",
    "singlet_basis",
    "full_hamiltonian",
    "block_hamiltonian",
    "project_full_to_blocks",
]

# Full-space work is dense 2^n x 2^n; fail fast beyond desk scale.
FULL_SPIN_LIMIT = 14

# Basis states are int64 bitmasks.
_STATE_BITS = 62

_MODELS = ("xy", "heisenberg")


@dataclass(frozen=True)
class ModelSpec:
    """Which pairwise interaction, plus the uniform z-field coefficient."""

    model: str
    field_b: float = 0.0

    def __post_init__(self) -> None:
        m = self.model.lower()
        if m == "heis":
            m = "heisenberg"
        if m not in _MODELS:
            raise ValueError(f"unknown model {self.model!r}, expected one of {_MODELS}")
        object.__setattr__(self, "model", m)
        if not math.isfinite(self.field_b):
            raise ValueError(f"field coefficient must be finite, got {self.field_b}")

    @property
    def is_xy(self) -> bool:
        return self.model == "xy"

    def sector_shift(self, n: int, k):
        """The field energy B*(n - 2k) of every state with k of n spins flipped."""
        return self.field_b * (n - 2 * k)


@lru_cache(maxsize=TABLE_CACHE_SIZE)
def basis_states(n: int, k: int) -> np.ndarray:
    """The weight-k bitmasks of n spins, indexed by combinadic rank.

    Bit b of entry r is set iff vertex b belongs to the rank-r subset.  Colex
    rank order coincides with ascending numeric order of the masks, so the
    int64 array is sorted.  Built once per (n, k) and process, and returned
    read-only.
    """
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= {n}, got k={k}")
    if n > _STATE_BITS:
        raise CapacityError(f"bitstring states limited to {_STATE_BITS} spins, got {n}")
    states = np.left_shift(np.int64(1), subset_table(n, k)).sum(axis=1, dtype=np.int64)
    states.flags.writeable = False
    return states


@lru_cache(maxsize=TABLE_CACHE_SIZE)
def singlet_basis(n: int, j: int) -> tuple[np.ndarray, np.ndarray]:
    """Specht's polytabloids of shape (n-j, j), 2j <= n: a basis of the
    kernel of W_{j-1,j}, the 0/1 inclusion matrix of the (j-1)-subsets in the
    j-subsets (the ladder operator that unflips one spin).

    One vector per standard Young tableau, that is, per ballot j-subset b
    (b_i >= 2i+1): b_i is paired with a_i, the i-th smallest vertex outside b,
    and the vector is the product over the j pairs of the singlets
    e_{b_i} - e_{a_i}, every other spin unflipped.  There are
    d = C(n,j) - C(n,j-1) of them.  Returns ``rows``, (d, 2^j): the colex
    ranks of each vector's support, and ``signs``, (2^j,): entry m of every
    vector flips a_i for each bit i of m, in place of b_i, with sign
    (-1)^popcount(m).  Built once per (n, j) and process, like
    :func:`basis_states`, and returned read-only; under the sector guard no
    basis has more than 81,536 entries (d_j 2^j at n = 16, j = 5).
    """
    if not 0 <= 2 * j <= n:
        raise ValueError(f"need 0 <= 2j <= n, got j={j}, n={n}")
    sector_dimension(n, j)
    table = colex_level(n, j)[0]
    b = table[np.all(table >= 2 * np.arange(j) + 1, axis=1)]
    d = len(b)
    outside = np.ones((d, n), dtype=bool)
    outside[np.arange(d)[:, None], b] = False
    a = np.nonzero(outside)[1].reshape(d, n - j)[:, :j]
    bits = (np.arange(1 << j)[:, None] >> np.arange(j)) & 1
    chosen = np.where(bits.astype(bool), a[:, None, :], b[:, None, :])
    chosen.sort(axis=2)
    rows = _colex_weights(n, j)[chosen, np.arange(j)].sum(axis=2)
    signs = 1 - 2 * (bits.sum(axis=1) & 1)
    rows.flags.writeable = signs.flags.writeable = False
    return rows, signs


def full_hamiltonian(g: Graph, spec: ModelSpec) -> np.ndarray:
    """Dense 2^n hamiltonian in the computational basis (the brute-force oracle)."""
    n = g.n
    if n > FULL_SPIN_LIMIT:
        raise CapacityError(f"full hamiltonian limited to {FULL_SPIN_LIMIT} spins, got {n}")
    dim = 1 << n
    h = np.zeros((dim, dim))
    s = np.arange(dim)
    for u, v in g.edges:
        differ = ((s >> u) & 1) != ((s >> v) & 1)
        src = s[differ]
        dst = src ^ ((1 << u) | (1 << v))
        if spec.is_xy:
            h[dst, src] += 1.0
        else:
            h[src, src] += 1.0
            h[dst, src] -= 1.0
    if spec.field_b != 0.0:
        pop = np.array([int(x).bit_count() for x in range(dim)])
        h[s, s] += spec.field_b * (n - 2 * pop)
    return h


def block_hamiltonian(w: WedgeGraph, spec: ModelSpec) -> np.ndarray:
    """Sector k = w.k of the graph w.base, from its wedge power ``w``: the
    wedge adjacency (XY) or laplacian (Heisenberg).

    The field is not in the matrix: with a field, the sector hamiltonian is
    this plus ``spec.sector_shift(w.base.n, w.k)`` times the identity.
    """
    return wedge_adjacency(w) if spec.is_xy else wedge_laplacian(w)


def project_full_to_blocks(h: np.ndarray) -> list[np.ndarray]:
    """Cut a full 2^n hamiltonian (see :func:`full_hamiltonian`) into its
    excitation blocks, by k, each in the rank order of :func:`basis_states`.

    Raises RuntimeError if any entry couples different excitation numbers;
    a nonzero there would mean the interaction fails to conserve total z-spin.
    """
    n = len(h).bit_length() - 1
    if h.shape != (1 << n, 1 << n):
        raise ValueError(f"expected a 2^n x 2^n hamiltonian, got shape {h.shape}")
    blocks = []
    for k in range(n + 1):
        states = basis_states(n, k)
        rows = h[states]
        outside = np.ones(len(h), dtype=bool)
        outside[states] = False
        if np.any(rows[:, outside] != 0.0):
            raise RuntimeError(
                f"nonzero coupling between excitation sector {k} and the rest; "
                "total z-spin conservation is broken"
            )
        blocks.append(rows[:, states])
    return blocks
