"""XY and Heisenberg hamiltonians on a graph: full-space oracle and sectors.

Computational-basis convention: bit v of a basis index is 1 when the spin at
vertex v is flipped, carrying z-projection -1, so the total-z operator is
diagonal with value n - 2 * popcount.  A uniform field B adds B*(n - 2k) to
every eigenvalue of the k-excitation sector and leaves eigenvectors alone.

Per edge and per basis state, the XY interaction hops a single flipped spin
along the edge with amplitude +1 when the far end is unflipped; Heisenberg
additionally counts the legal hops on the diagonal, which is exactly degree
minus adjacency of the wedge power.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graphs import CapacityError, Graph
from .wedge import WedgeGraph, build_wedge_graph, subset_table, wedge_adjacency, wedge_laplacian

__all__ = [
    "FULL_SPIN_LIMIT",
    "ModelSpec",
    "basis_states",
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


def basis_states(n: int, k: int) -> np.ndarray:
    """The weight-k bitmasks of n spins, indexed by combinadic rank.

    Bit b of entry r is set iff vertex b belongs to the rank-r subset.  Colex
    rank order coincides with ascending numeric order of the masks, so the
    read-only int64 array is sorted.
    """
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= {n}, got k={k}")
    if n > _STATE_BITS:
        raise CapacityError(f"bitstring states limited to {_STATE_BITS} spins, got {n}")
    states = np.left_shift(np.int64(1), subset_table(n, k)).sum(axis=1, dtype=np.int64)
    states.flags.writeable = False
    return states


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


def block_hamiltonian(g: Graph, k: int, spec: ModelSpec, wedge: WedgeGraph | None = None) -> np.ndarray:
    """The k-excitation sector: wedge adjacency (XY) or laplacian (Heisenberg),
    shifted by the sector field energy B*(n - 2k).

    ``wedge`` is the prebuilt k-th wedge power of g; it is built when omitted.
    """
    if wedge is None:
        wedge = build_wedge_graph(g, k)
    elif wedge.k != k or wedge.base != g:
        raise ValueError(f"wedge power k={wedge.k} does not belong to sector k={k} of this graph")
    h = wedge_adjacency(wedge) if spec.is_xy else wedge_laplacian(wedge)
    if spec.field_b != 0.0:
        h[np.diag_indices(wedge.num_vertices)] += spec.field_b * (g.n - 2 * k)
    return h


def project_full_to_blocks(h: np.ndarray) -> list[np.ndarray]:
    """Cut a full 2^n hamiltonian (see :func:`full_hamiltonian`) into its
    excitation blocks and return each block's sorted eigenvalues, by k.

    Raises RuntimeError if any entry couples different excitation numbers;
    a nonzero there would mean the interaction fails to conserve total z-spin.
    """
    n = len(h).bit_length() - 1
    if h.shape != (1 << n, 1 << n):
        raise ValueError(f"expected a 2^n x 2^n hamiltonian, got shape {h.shape}")
    spectra = []
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
        spectra.append(np.linalg.eigvalsh(rows[:, states]))
    return spectra
