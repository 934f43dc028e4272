"""Continuous-time evolution: one excitation sector is one particle hopping.

Propagators are exact spectral exponentials U(t) = V exp(-i t diag) V^T of
the real symmetric sector (or full-space) hamiltonian, so unitarity holds to
solver precision and no time stepping is involved.  One decomposition serves
every time point and every state.

An XY basis state whose sector has a lift route (see
:func:`spinwedge.wedge.lift_route`) is evolved from the n x n base graph
instead: its amplitudes are signed minors of exp(-i sigma A t), the
one-particle propagator of the signed base sigma A, taken by
:func:`spinwedge.spectra.subset_minors`.  Both routes evolve sector k on
side min(k, n-k), relabelled in one place, :func:`evolve_subset`.
"""

from __future__ import annotations

import numpy as np

from .graphs import Graph, adjacency
from .spectra import EigenDecomposition, UNITARITY_TOL, eigh, subset_minors
from .spins import ModelSpec, block_hamiltonian
from .wedge import LiftRoute, build_wedge_graph, lift_route, rank_subset, sector_dimension, subset_table

__all__ = [
    "propagate",
    "evolve_subset",
    "lift_propagate",
]


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
    dim = x.shape[0]
    coeffs = _real_matmul(dec.vectors.T, x.reshape(dim, -1))
    # One product serves every time: column (t, s) of the right operand is
    # exp(-i t values) * coeffs[:, s].
    phases = np.exp(-1j * np.multiply.outer(dec.values, t.reshape(-1)))
    out = _real_matmul(dec.vectors, (phases[:, :, None] * coeffs[:, None, :]).reshape(dim, -1))
    return np.moveaxis(out.reshape(dim, t.size, -1), 1, 0).reshape(t.shape + x.shape)


def _real_matmul(m: np.ndarray, z: np.ndarray) -> np.ndarray:
    """m @ z for a real matrix m and a complex z, without a complex copy of m:
    m acts on the interleaved real and imaginary parts of z's rows."""
    return (m @ np.ascontiguousarray(z).view(float)).view(complex)


def lift_propagate(
    g: Graph, route: LiftRoute, start_rank: int, times, base: EigenDecomposition | None = None
) -> np.ndarray:
    """Column ``start_rank`` of exp(-i t A_h) on the field-free XY side
    route.h, for every t.

    One eigh of the n x n adjacency (``base``, computed when omitted; the
    base is guarded by :func:`spinwedge.wedge.lift_route`) gives the columns
    S0 of exp(-i sigma A t) for all times.  The amplitude on S is
    D[S] D[S0] det exp(-i sigma A t)[S, S0], from one :func:`subset_minors`
    call over all times.  Returns (times, C(n,h)).
    """
    n, h = g.n, route.h
    m = sector_dimension(n, h)
    if not 0 <= start_rank < m:
        raise ValueError(f"start rank {start_rank} out of range for C({n},{h})={m}")
    t = np.asarray(times, dtype=float)
    if t.ndim != 1 or not np.all(np.isfinite(t)):
        raise ValueError(f"times must be a 1-D array of finite values, got {times}")
    rows = subset_table(n, h)
    if base is None:
        base = eigh(adjacency(g))
    phases = np.exp(-1j * route.sigma * np.multiply.outer(t, base.values))
    # exp(-i sigma A t)[:, S0] for every t
    columns = _real_matmul(base.vectors, phases[:, :, None] * base.vectors[rows[start_rank]].T)
    return subset_minors(columns) * (route.signs * route.signs[start_rank])


def evolve_subset(g: Graph, spec: ModelSpec, subset, times) -> tuple[np.ndarray, str]:
    """Evolve the basis state of one k-subset to every time in ``times``.

    k = len(subset).  Returns the (len(times), C(n, k)) complex amplitudes
    and the route that computed them: "lift" for an XY side with a lift
    route, else "dense", one diagonalization of the side.  Sector k is side
    h = min(k, n-k): complementing a k-subset of rank r gives the
    (n-k)-subset of rank C(n,k)-1-r, so for h != k the state starts from the
    complement's rank and the columns are reversed.  Either route evolves
    the field-free side; the field multiplies the result by
    exp(-i spec.sector_shift(n, k) t).  Every row passes a norm check.  A
    general (non-basis) sector state is evolved the same way, by
    ``propagate(eigh(block_hamiltonian(g, k, spec)), state, times)``.
    """
    k = len(subset)
    m = sector_dimension(g.n, k)
    r0 = rank_subset(subset, g.n)
    t = np.asarray(times, dtype=float)
    if t.ndim != 1 or not np.all(np.isfinite(t)):
        raise ValueError(f"times must be a 1-D array of finite values, got {times}")
    h = min(k, g.n - k)
    r0 = r0 if h == k else m - 1 - r0
    w = build_wedge_graph(g, h)
    route = lift_route(w) if spec.is_xy else None
    if route is not None:
        amplitudes = lift_propagate(g, route, r0, t)
    else:
        start = np.zeros(m)
        start[r0] = 1.0
        amplitudes = propagate(eigh(block_hamiltonian(g, h, spec, w)), start, t)
    amplitudes = amplitudes if h == k else amplitudes[:, ::-1]
    amplitudes = amplitudes * np.exp(-1j * spec.sector_shift(g.n, k) * t)[:, None]
    norms = np.linalg.norm(amplitudes, axis=1)
    bad = np.flatnonzero(np.abs(norms - 1.0) > UNITARITY_TOL)
    if bad.size:
        i = bad[0]
        raise ValueError(f"state norm {norms[i]} at t={t[i]} is not 1 within {UNITARITY_TOL}")
    return amplitudes, "dense" if route is None else "lift"
