"""Continuous-time evolution: one excitation sector is one particle hopping.

Propagators are exact spectral exponentials U(t) = V exp(-i t diag) V^T of
the real symmetric sector (or full-space) hamiltonian, so unitarity holds to
solver precision and no time stepping is involved.  One decomposition serves
every time point and every state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import CapacityError, Graph
from .spectra import EigenDecomposition, UNITARITY_TOL, eigh
from .spins import ModelSpec, block_hamiltonian, full_hamiltonian

__all__ = [
    "FULL_EVOLUTION_LIMIT",
    "WaveState",
    "propagate",
    "evolve_block",
    "evolve_block_series",
    "evolve_full_oracle",
    "transfer_fidelity",
]

FULL_EVOLUTION_LIMIT = 10


@dataclass(frozen=True)
class WaveState:
    """Normalized complex amplitudes over one excitation sector's subsets."""

    k: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.ndim != 1:
            raise ValueError(f"amplitudes must be a vector, got shape {amps.shape}")
        norm = float(np.linalg.norm(amps))
        if abs(norm - 1.0) > UNITARITY_TOL:
            raise ValueError(f"state norm {norm} is not 1 within {UNITARITY_TOL}")
        object.__setattr__(self, "amplitudes", amps)


def propagate(dec: EigenDecomposition, states: np.ndarray, times) -> np.ndarray:
    """Apply exp(-i t H), given the spectral decomposition of H, for every t.

    ``states`` is one vector or a (dim, s) block of column states.  A scalar
    time returns an array shaped like ``states``; a 1-D array of times stacks
    the results along a new leading axis.
    """
    t = np.asarray(times, dtype=float)
    if t.ndim > 1:
        raise ValueError(f"times must be a scalar or a 1-D array, got shape {t.shape}")
    if not np.all(np.isfinite(t)):
        raise ValueError(f"times must be finite, got {times}")
    x = np.asarray(states, dtype=complex)
    coeffs = dec.vectors.T @ x.reshape(x.shape[0], -1)
    phases = np.exp(-1j * np.multiply.outer(t.reshape(-1), dec.values))
    out = dec.vectors @ (phases[:, :, None] * coeffs)
    return out.reshape(t.shape + x.shape)


def evolve_block_series(g: Graph, spec: ModelSpec, state: WaveState, times) -> list[WaveState]:
    """Evolve a sector state to every time in ``times`` from one diagonalization.

    Each result is a WaveState, so every time point passes its norm check.
    """
    h = block_hamiltonian(g, state.k, spec)
    if h.shape[0] != state.amplitudes.shape[0]:
        raise ValueError(
            f"state has {state.amplitudes.shape[0]} amplitudes but sector k={state.k} "
            f"of this graph has dimension {h.shape[0]}"
        )
    evolved = propagate(eigh(h), state.amplitudes, np.atleast_1d(times))
    return [WaveState(state.k, amplitudes) for amplitudes in evolved]


def evolve_block(g: Graph, spec: ModelSpec, state: WaveState, t: float) -> WaveState:
    """Evolve a sector state for time t under the sector hamiltonian."""
    (evolved,) = evolve_block_series(g, spec, state, [t])
    return evolved


def evolve_full_oracle(g: Graph, spec: ModelSpec, full_state: np.ndarray, t: float) -> np.ndarray:
    """Exact evolution on the whole 2^n space; the cross-check for evolve_block."""
    if g.n > FULL_EVOLUTION_LIMIT:
        raise CapacityError(f"full evolution limited to {FULL_EVOLUTION_LIMIT} spins, got {g.n}")
    full_state = np.asarray(full_state, dtype=complex)
    if full_state.shape != (1 << g.n,):
        raise ValueError(f"full state must have length {1 << g.n}, got shape {full_state.shape}")
    return propagate(eigh(full_hamiltonian(g, spec)), full_state, t)


def transfer_fidelity(g: Graph, spec: ModelSpec, from_vertex: int, to_vertex: int, times) -> list[float]:
    """Single-excitation transfer probabilities |<to| U(t) |from>|^2."""
    for v in (from_vertex, to_vertex):
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} out of range for n={g.n}")
    dec = eigh(block_hamiltonian(g, 1, spec))
    start = np.zeros(g.n, dtype=complex)
    start[from_vertex] = 1.0
    amplitudes = propagate(dec, start, np.atleast_1d(times))
    return (np.abs(amplitudes[:, to_vertex]) ** 2).tolist()
