"""Sector answers from their sides, and the dense propagator.

Sectors k and n-k of either model are one graph: S -> V \\ S carries wedge
power k onto power n-k and the k-subset of rank r to the (n-k)-subset of
rank C(n,k)-1-r.  A uniform field B adds B(n-2k) on sector k.  So the
:class:`Side` h = min(k, n-k), built once per call by :class:`Sides`,
decides its route once and answers sectors h and n-h field-free; its
:meth:`Side.relabel` and :meth:`Side.shift` are the one place where ranks
are relabelled and the field is added.
"""

from __future__ import annotations

import functools
import math
from functools import cached_property

import numpy as np

from .graphs import Graph, adjacency
from .spectra import EigenDecomposition, UNITARITY_TOL, eigh, singlet_levels, su2_pays, subset_minors, subset_sums
from .spins import ModelSpec, block_hamiltonian
from .wedge import WedgeGraph, build_wedge_graph, rank_subset, sector_dimension, subset_table

__all__ = [
    "propagate",
    "Side",
    "Sides",
    "evolve_subset",
]


def propagate(dec: EigenDecomposition, states: np.ndarray, times) -> np.ndarray:
    """Apply exp(-i t H) = V exp(-i t diag) V^T, given the spectral
    decomposition of the real symmetric H, for every t: exact to solver
    precision, with no time stepping, and one decomposition for all.

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


class Sides:
    """The sides of one graph and model, for one call: ``sides(k)`` is the
    :class:`Side` of sector k, built on first use and kept.  They share the
    wedge powers (each built once, where a side needs one), the n x n
    eigensolve of each signed base and the singlet levels of each side j.
    No part refers back to a Sides, so reference counting frees a call's
    arrays."""

    def __init__(self, g: Graph, spec: ModelSpec):
        wedge = functools.cache(functools.partial(build_wedge_graph, g))
        self.graph, self.spec, self.wedge = g, spec, wedge
        self.base_values = functools.cache(lambda twist: np.linalg.eigvalsh(adjacency(g, twist)))
        self.base = functools.cache(lambda twist: eigh(adjacency(g, twist)))
        self.levels = functools.cache(lambda j: singlet_levels(wedge(j)))
        self._built: dict[int, Side] = {}

    def __call__(self, k: int) -> Side:
        h = min(k, self.graph.n - k)
        if h not in self._built:
            self._built[h] = Side(self, h)
        return self._built[h]


def _walk_order(g: Graph) -> tuple[np.ndarray, bool] | None:
    """pos[v], the index of vertex v in a walk of g, and whether g is one
    cycle through every vertex; None when g is neither that nor a linear
    forest.  Each path is walked from an end, one after another, an isolated
    vertex as a one-vertex path; the cycle is walked from vertex 0."""
    neighbours: list[list[int]] = [[] for _ in range(g.n)]
    for u, v in g.edges:
        neighbours[u].append(v)
        neighbours[v].append(u)
    if any(len(x) > 2 for x in neighbours):
        return None
    cycle = g.n > 0 and all(len(x) == 2 for x in neighbours)
    pos, walked = np.full(g.n, -1, dtype=np.int64), 0
    for start in [0] if cycle else [v for v in range(g.n) if len(neighbours[v]) < 2]:
        prev, v = -1, start
        while pos[v] < 0:
            pos[v], walked = walked, walked + 1
            ahead = [w for w in neighbours[v] if w != prev]
            if not ahead:
                break
            prev, v = v, ahead[0]
    # A vertex left unwalked lies on a cycle beside other vertices.
    return (pos, cycle) if walked == g.n else None


def _switching(g: Graph, h: int) -> tuple[np.ndarray, tuple[int, int] | None] | None:
    """(D, twist) with D . C_h(B) . D = A_h on XY side h of g, from the shape
    of g alone, or None where no such switching exists.  B is the adjacency
    A with the edge ``twist`` negated, or A for twist None.

    Side h <= 1 lifts on A with D = 1 on every graph.  Above, particles that
    cannot pass each other are free fermions (Lieb, Schultz & Mattis, Ann.
    Phys. 16 (1961) 407): a linear forest lifts on A, one cycle through all n
    vertices on A with the edge between walk positions 0 and n-1 of sign
    (-1)^(h-1), as a particle crossing it passes the other h-1.  D[S] is
    (-1)^inv(S), inv(S) the pairs u < v of S with pos(u) > pos(v) in
    :func:`_walk_order`.  The check free_fermion_route of
    :mod:`spinwedge.verify` holds this rule to a parity forest over the hops
    of the wedge.
    """
    if h <= 1:
        return np.ones(math.comb(g.n, h), dtype=np.int64), None
    walk = _walk_order(g)
    if walk is None:
        return None
    pos, cycle = walk
    p = pos[subset_table(g.n, h)]
    parity = np.count_nonzero(np.triu(p[:, :, None] > p[:, None, :]), axis=(1, 2))
    twist = (int(np.argmin(pos)), int(np.argmax(pos))) if cycle and h % 2 == 0 else None
    return 1 - 2 * (parity & 1), twist


class Side:
    """Side h = min(k, n-k) of one graph and model, for sectors h and n-h.

    It decides the route of :meth:`values`, ``route``, once.  "lift": an XY
    side with a switching D . C_h(B) . D = A_h, which :func:`_switching`
    reads off the base graph, is the h-particle problem of the signed base B
    (side 0, one subset, switches with D = [1] and needs no base).  "su2": a
    Heisenberg side where
    :func:`spinwedge.spectra.su2_pays` is the union of the singlet levels of
    the sides j = 0..h.  "dense": one eigensolve of the side matrix.
    :meth:`evolve` takes the lift route where there is one, else the dense.
    No route but the dense reads :attr:`wedge`, built on first use."""

    def __init__(self, sides: Sides, h: int):
        self.graph, self.spec, self.h = sides.graph, sides.spec, h
        # The sector guard; as C(n,h) >= n for 1 <= h <= n-1, it also bounds the base.
        sector_dimension(self.graph.n, h)
        self._wedge, self._base_values, self._base = sides.wedge, sides.base_values, sides.base
        self._levels = sides.levels
        self.switching = _switching(self.graph, h) if self.spec.is_xy else None
        su2 = not self.spec.is_xy and su2_pays(self.graph.n, h)
        self.route = "lift" if self.switching is not None else "su2" if su2 else "dense"

    @property
    def wedge(self) -> WedgeGraph:
        """Wedge power h, built on first use and shared with the other sides
        of the call."""
        return self._wedge(self.h)

    def shift(self, k: int) -> float:
        """The field energy B(n-2k) that every answer for sector k adds."""
        return self.spec.sector_shift(self.graph.n, k)

    def relabel(self, k: int, x: np.ndarray) -> np.ndarray:
        """``x``, indexed by ranks along its last axis, read in the other
        labelling: side ranks as sector-k ranks or back.  The identity for
        k = h; for k = n-h the complement sends rank r to C-1-r."""
        return x if k == self.h else x[..., ::-1]

    @cached_property
    def _values(self) -> np.ndarray:
        """The field-free values of the side, ascending."""
        if self.route == "lift":  # side 0 is the empty sum, with no base
            return subset_sums(self._base_values(self.switching[1]), self.h) if self.h else np.zeros(1)
        if self.route == "su2":
            return np.sort(np.concatenate([self._levels(j) for j in range(self.h + 1)]))
        return np.linalg.eigvalsh(block_hamiltonian(self.wedge, self.spec))

    def values(self, k: int) -> np.ndarray:
        """The spectrum of sector k, ascending."""
        return self._values + self.shift(k)

    def _lift_propagate(self, start: int, t: np.ndarray) -> np.ndarray:
        """Column S0 = ``start`` of exp(-i t A_h) for every t: D[S] D[S0]
        det exp(-i B t)[S, S0], by one :func:`subset_minors` call on the h
        columns S0 of exp(-i B t) that :func:`propagate` gives."""
        if self.h == 0:
            return np.ones((t.size, 1), dtype=complex)
        signs, twist = self.switching
        units = np.zeros((self.graph.n, self.h))
        units[subset_table(self.graph.n, self.h)[start], np.arange(self.h)] = 1.0
        return subset_minors(propagate(self._base(twist), units, t)) * (signs * signs[start])

    def evolve(self, k: int, r0: int, times) -> tuple[np.ndarray, str]:
        """The (len(times), C(n,k)) amplitudes of the basis state of rank
        ``r0`` in sector k, and the route ("lift" or "dense") taken."""
        m = math.comb(self.graph.n, self.h)
        if not 0 <= r0 < m:
            raise ValueError(f"start rank {r0} out of range for sector k={k} of dimension {m}")
        t = np.asarray(times, dtype=float)
        if t.ndim != 1 or not np.all(np.isfinite(t)):
            raise ValueError(f"times must be a 1-D array of finite values, got {times}")
        start = int(self.relabel(k, np.arange(m))[r0])
        if self.switching is not None:
            amplitudes, route = self._lift_propagate(start, t), "lift"
        else:
            state = np.zeros(m)
            state[start] = 1.0
            dec = eigh(block_hamiltonian(self.wedge, self.spec))
            amplitudes, route = propagate(dec, state, t), "dense"
        return self.relabel(k, amplitudes) * np.exp(-1j * self.shift(k) * t)[:, None], route


def evolve_subset(g: Graph, spec: ModelSpec, subset, times) -> tuple[np.ndarray, str]:
    """Evolve the basis state of one k-subset to every time in ``times``, by
    :meth:`Side.evolve` of sector k = len(subset); every row of the
    amplitudes passes a norm check.  A general state x of sector k takes the
    dense route of ``side = Sides(g, spec)(k)``:
    ``side.relabel(k, propagate(eigh(block_hamiltonian(side.wedge, spec)),
    side.relabel(k, x), times))`` times exp(-i side.shift(k) t).
    """
    k = len(subset)
    sector_dimension(g.n, k)
    r0 = rank_subset(subset, g.n)
    amplitudes, route = Sides(g, spec)(k).evolve(k, r0, times)
    norms = np.linalg.norm(amplitudes, axis=1)
    bad = np.flatnonzero(np.abs(norms - 1.0) > UNITARITY_TOL)
    if bad.size:
        i = bad[0]
        raise ValueError(f"state norm {norms[i]} at t={times[i]} is not 1 within {UNITARITY_TOL}")
    return amplitudes, route
