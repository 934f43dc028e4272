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
from .spectra import Spectrum
from .wedge import WedgeGraph, build_wedge_graph, subset_table, wedge_adjacency, wedge_degrees, wedge_laplacian

__all__ = [
    "FULL_SPIN_LIMIT",
    "ModelSpec",
    "SpinBasisMap",
    "full_hamiltonian",
    "block_hamiltonian",
    "block_matvec",
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


class SpinBasisMap:
    """Bijection between combinadic ranks of k-subsets and weight-k bitstrings.

    Bit b of ``states[r]`` is set iff vertex b belongs to the rank-r subset.
    Colex rank order coincides with ascending numeric order of the masks, so
    ``states`` is sorted.
    """

    def __init__(self, n: int, k: int):
        if not 0 <= k <= n:
            raise ValueError(f"need 0 <= k <= {n}, got k={k}")
        if n > _STATE_BITS:
            raise CapacityError(f"bitstring states limited to {_STATE_BITS} spins, got {n}")
        self.n = n
        self.k = k
        self.states = np.left_shift(np.int64(1), subset_table(n, k)).sum(axis=1, dtype=np.int64)
        self.states.flags.writeable = False

    def __len__(self) -> int:
        return len(self.states)


def _check_full_capacity(n: int) -> None:
    if n > FULL_SPIN_LIMIT:
        raise CapacityError(f"full hamiltonian limited to {FULL_SPIN_LIMIT} spins, got {n}")


def full_hamiltonian(g: Graph, spec: ModelSpec) -> np.ndarray:
    """Dense 2^n hamiltonian in the computational basis (the brute-force oracle)."""
    n = g.n
    _check_full_capacity(n)
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


def _sector_wedge(g: Graph, k: int, wedge: WedgeGraph | None) -> WedgeGraph:
    if wedge is None:
        return build_wedge_graph(g, k)
    if wedge.k != k or wedge.base != g:
        raise ValueError(f"wedge power k={wedge.k} does not belong to sector k={k} of this graph")
    return wedge


def block_hamiltonian(g: Graph, k: int, spec: ModelSpec, wedge: WedgeGraph | None = None) -> np.ndarray:
    """The k-excitation sector: wedge adjacency (XY) or laplacian (Heisenberg),
    shifted by the sector field energy B*(n - 2k).

    ``wedge`` is the prebuilt k-th wedge power of g; it is built when omitted.
    """
    w = _sector_wedge(g, k, wedge)
    h = wedge_adjacency(w) if spec.is_xy else wedge_laplacian(w)
    if spec.field_b != 0.0:
        h[np.diag_indices(w.num_vertices)] += spec.field_b * (g.n - 2 * k)
    return h


def block_matvec(g: Graph, k: int, spec: ModelSpec, x: np.ndarray, wedge: WedgeGraph | None = None) -> np.ndarray:
    """Apply the k-sector hamiltonian by scattering along the wedge hops.

    Matrix-free counterpart of :func:`block_hamiltonian`; never materializes
    the matrix.  ``wedge`` is as there.
    """
    w = _sector_wedge(g, k, wedge)
    x = np.asarray(x)
    if x.shape != (w.num_vertices,):
        raise ValueError(f"state vector must have length {w.num_vertices}, got shape {x.shape}")
    a, b, _ = w.hops
    y = np.zeros(w.num_vertices, dtype=np.result_type(x.dtype, float))
    np.add.at(y, a, x[b])
    np.add.at(y, b, x[a])
    if not spec.is_xy:
        y = wedge_degrees(w) * x - y
    if spec.field_b != 0.0:
        y += spec.field_b * (g.n - 2 * k) * x
    return y


def project_full_to_blocks(g: Graph, spec: ModelSpec) -> list[Spectrum]:
    """Permute the full hamiltonian into excitation blocks and diagonalize each.

    Raises RuntimeError if any entry couples different excitation numbers;
    a nonzero there would mean the interaction fails to conserve total z-spin.
    """
    n = g.n
    _check_full_capacity(n)
    h = full_hamiltonian(g, spec)
    maps = [SpinBasisMap(n, k) for k in range(n + 1)]
    order = np.concatenate([m.states for m in maps])
    permuted = h[np.ix_(order, order)]
    spectra: list[Spectrum] = []
    offset = 0
    sizes = [len(m) for m in maps]
    for k, size in enumerate(sizes):
        sl = slice(offset, offset + size)
        block = permuted[sl, sl]
        off_rows = np.concatenate([permuted[sl, : offset].ravel(), permuted[sl, offset + size :].ravel()])
        if off_rows.size and np.any(off_rows != 0.0):
            raise RuntimeError(
                f"nonzero coupling between excitation sector {k} and the rest; "
                "total z-spin conservation is broken"
            )
        spectra.append(Spectrum(tuple(np.linalg.eigvalsh(block))))
        offset += size
    return spectra
