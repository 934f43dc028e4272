"""Symmetric eigensolving, closed-form spectra, the wedge spectral lift.

A spectrum is a float64 array sorted in ascending order.

Numerical tolerances (the single place they are defined):

* ``DEFAULT_TOL`` (1e-9): absolute bound on the :func:`spectrum_gap` of two
  spectra that should agree, and the grouping width of :func:`spectrum_dict`;
  matrix entries throughout the package are O(1) integers.
* ``EIG_RESIDUAL_FACTOR`` (1e-9): eigenpair residual bound, relative to
  max(1, spectral norm).
* ``ORTHONORMALITY_TOL`` (1e-10): deviation of eigenvector Gram matrix
  from the identity.
* ``LIFT_NORM_TOL`` (1e-12): norm defect allowed for lifted eigenvectors.
* ``UNITARITY_TOL`` (1e-10): norm drift allowed per evolution step.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .spins import ModelSpec
from .wedge import sector_dimension, subset_table

__all__ = [
    "DEFAULT_TOL",
    "EIG_RESIDUAL_FACTOR",
    "ORTHONORMALITY_TOL",
    "LIFT_NORM_TOL",
    "UNITARITY_TOL",
    "EigenDecomposition",
    "eigh",
    "path_spectrum",
    "path_eigenvector",
    "xy_path_spectrum",
    "johnson_spectrum",
    "complete_graph_spectra",
    "subset_sums",
    "subset_minors",
    "lift_eigenvector",
    "spectrum_gap",
    "spectrum_dict",
]

DEFAULT_TOL = 1e-9
EIG_RESIDUAL_FACTOR = 1e-9
ORTHONORMALITY_TOL = 1e-10
LIFT_NORM_TOL = 1e-12
UNITARITY_TOL = 1e-10


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenvalues and orthonormal eigenvector columns, in matching order.

    :func:`eigh` gives the values in ascending order; :func:`lift_eigenvector`
    gives them in the order of its index sets.
    """

    values: np.ndarray
    vectors: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.values)


def eigh(m: np.ndarray) -> EigenDecomposition:
    """Diagonalize a real symmetric matrix, enforcing the residual contract.

    Raises ValueError for non-finite or non-symmetric input.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix has non-finite entries")
    if not np.array_equal(m, m.T):
        raise ValueError("matrix is not symmetric")
    values, vectors = np.linalg.eigh(m)
    scale = max(1.0, float(np.max(np.abs(values))) if values.size else 0.0)
    residual = np.linalg.norm(m @ vectors - vectors * values, axis=0)
    if np.any(residual > EIG_RESIDUAL_FACTOR * scale):
        raise RuntimeError(f"eigensolver residual {residual.max():.3e} above contract")
    gram = vectors.T @ vectors
    if np.max(np.abs(gram - np.eye(len(values)))) > ORTHONORMALITY_TOL:
        raise RuntimeError("eigenvectors lost orthonormality")
    return EigenDecomposition(values, vectors)


def spectrum_gap(a, b) -> float:
    """Largest |a_i - b_i| with both spectra sorted ascending; inf when their
    sizes differ."""
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    if a.shape != b.shape:
        return math.inf
    return float(np.max(np.abs(a - b), initial=0.0))


def spectrum_dict(values, tol: float) -> dict:
    """The JSON form of a spectrum: its sorted values, (value, multiplicity)
    groups and tol.  A value joins the current group when it lies within tol
    of the group's first value."""
    # A stable sort does not depend on which sort kernel numpy dispatches, so
    # -0.0 and 0.0 keep their order and the text is the same on every machine.
    values = np.sort(np.asarray(values, dtype=float), kind="stable").tolist()
    groups: list[list] = []
    for v in values:
        if groups and abs(v - groups[-1][0]) <= tol:
            groups[-1][1] += 1
        else:
            groups.append([v, 1])
    return {"values": values, "multiplicity_collapsed": groups, "tol": tol}


def path_spectrum(n: int) -> np.ndarray:
    """Adjacency eigenvalues of the n-vertex path: -2 cos(pi (j+1) / (n+1)),
    ascending in j."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return np.array([-2.0 * math.cos(math.pi * (j + 1) / (n + 1)) for j in range(n)])


def path_eigenvector(n: int, j: int) -> np.ndarray:
    """Sine-profile eigenvector of the path adjacency for eigenvalue index j.

    With eigenvalues enumerated ascending as -2 cos(pi (j+1) / (n+1)), the
    matching sine frequency is n-j: the adjacency sends the sine profile of
    frequency m to +2 cos(pi m / (n+1)) times itself, and m = n-j flips the
    cosine sign.  Pairing frequency j+1 with the -2cos value would violate
    the eigenpair residual contract.
    """
    if not 0 <= j < n:
        raise ValueError(f"eigenvalue index {j} out of range for n={n}")
    l = np.arange(n)
    return np.sqrt(2.0 / (n + 1)) * np.sin(np.pi * (n - j) * (l + 1) / (n + 1))


def xy_path_spectrum(n: int, k: int) -> np.ndarray:
    """k-excitation XY spectrum on the path: sums of k distinct path eigenvalues.

    One value per strictly increasing index set, each an exact ``fsum``;
    C(n,k) values total, sorted.  k=0 is the empty sum {0}.  It is the oracle
    for :func:`subset_sums`, so it does not call it.
    """
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= {n}, got k={k}")
    single = [-2.0 * math.cos(math.pi * (j + 1) / (n + 1)) for j in range(n)]
    sums = [math.fsum(single[j] for j in combo) for combo in itertools.combinations(range(n), k)]
    return np.sort(np.array(sums))


def _johnson_distinct(n: int, k: int) -> list[tuple[float, int]]:
    """Distinct Johnson adjacency eigenvalues k(n-k) - j(n+1-j) with multiplicities.

    j runs to min(k, n-k); multiplicity C(n,j) - C(n,j-1) is the standard
    association-scheme count, validated against dense diagonalization in the
    test suite rather than trusted.
    """
    out = []
    for j in range(min(k, n - k) + 1):
        mult = math.comb(n, j) - (math.comb(n, j - 1) if j > 0 else 0)
        out.append((float(k * (n - k) - j * (n + 1 - j)), mult))
    return out


def johnson_spectrum(n: int, k: int) -> np.ndarray:
    """Adjacency spectrum of the Johnson graph J(n,k), the wedge power of K_n."""
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= {n}, got k={k}")
    values: list[float] = []
    for v, mult in _johnson_distinct(n, k):
        values.extend([v] * mult)
    assert len(values) == math.comb(n, k)
    return np.sort(np.array(values))


def complete_graph_spectra(n: int, model: str) -> np.ndarray:
    """Full 2^n spin spectrum on the complete graph, assembled per sector.

    XY sectors contribute Johnson adjacency values; Heisenberg sectors the
    Johnson laplacian values k(n-k) minus those, that is j(n+1-j).
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    is_xy = ModelSpec(model).is_xy
    values: list[float] = []
    for k in range(n + 1):
        for v, mult in _johnson_distinct(n, k):
            values.extend([v if is_xy else k * (n - k) - v] * mult)
    assert len(values) == 2**n
    return np.sort(np.array(values))


def subset_sums(values, k: int) -> np.ndarray:
    """Sums of k distinct entries of ``values``, one per k-subset, sorted.

    Above k = d/2 each sum is the total minus the sum over the complement,
    so the subset table is never wider than min(k, d-k).
    """
    values = np.asarray(values, dtype=float)
    d = values.size
    if not 0 <= k <= d:
        raise ValueError(f"need 0 <= k <= {d}, got k={k}")
    if 2 * k <= d:
        sums = values[subset_table(d, k)].sum(axis=1)
    else:
        sums = values.sum() - values[subset_table(d, d - k)].sum(axis=1)
    return np.sort(sums)


def subset_minors(x) -> np.ndarray:
    """det x[..., S, :] for every j-subset S of the n rows, in colex rank order.

    ``x`` is a stack of n x j matrices, shape (..., n, j); the result has
    shape (..., C(n, j)).  Laplace expansion along column c-1 gives the
    minors of the first c columns from those of the first c-1, so level c
    holds C(n, c) minors of c terms each, and the whole stack shares each
    level's index tables.  No level is wider than C(n, min(j, n/2)), which
    is guarded like a sector.  Callers with j > n/2 take the n-j complement
    columns of a unitary instead (see :func:`lift_eigenvector`), so their
    levels stay within C(n, min(j, n-j)).
    """
    x = np.asarray(x)
    if x.ndim < 2:
        raise ValueError(f"expected a stack of n x j matrices, got shape {x.shape}")
    n, j = x.shape[-2:]
    if j > n:
        raise ValueError(f"need at most as many columns as rows, got {n} x {j}")
    sector_dimension(n, min(j, n // 2))
    columns = np.moveaxis(x, -1, 0)
    minors = np.ones(x.shape[:-2] + (1,), dtype=x.dtype)  # the empty minor
    for c in range(1, j + 1):
        rows, drops = _laplace_level(n, c)
        terms = columns[c - 1][..., rows] * minors[..., drops]
        # The p-th term of the expansion along column c-1 has sign (-1)^(p+c-1).
        minors = terms[..., (c - 1) % 2 :: 2, :].sum(axis=-2) - terms[..., c % 2 :: 2, :].sum(axis=-2)
    return minors


@functools.lru_cache(maxsize=256)
def _laplace_level(n: int, c: int) -> tuple[np.ndarray, np.ndarray]:
    """Index tables of the c-subsets of range(n), one column per colex rank:
    row p of ``rows`` holds each subset's p-th element, and row p of
    ``drops`` the rank of the subset less that element."""
    if c == 0:
        return np.zeros((0, 1), dtype=np.intp), np.zeros((0, 1), dtype=np.intp)
    rows, drops = _laplace_level(n, c - 1)
    # Colex order lists the subsets by their top element m; those with top
    # m are the (c-1)-subsets of range(m), which come first in their level.
    counts = np.array([math.comb(m, c - 1) for m in range(c - 1, n)], dtype=np.intp)
    starts = np.repeat(np.cumsum(counts) - counts, counts)
    below = np.arange(starts.size) - starts
    rows = np.vstack((rows[:, below], np.repeat(np.arange(c - 1, n), counts)))
    # Dropping an element under the top keeps the top, worth C(m, c-1).
    drops = np.vstack((drops[:, below] + np.repeat(counts, counts), below))
    rows.flags.writeable = drops.flags.writeable = False
    return rows, drops


def lift_eigenvector(base: EigenDecomposition, index_sets) -> EigenDecomposition:
    """Determinant-form lifted eigenpairs of the signed wedge matrix, one
    column per increasing index set, in the order of the sets.

    All sets have one size k.  Each value is the exact ``fsum`` of the set's
    base eigenvalues.  The amplitude on the ordered subset
    (l_0 < ... < l_{k-1}) is the k x k determinant of base eigenvector
    components picked by rows l and the set's columns; one
    :func:`subset_minors` call takes them for every set.  Above k = d/2 they
    come from the d-k complement columns by Jacobi's identity for the
    orthogonal V: det V[S, I] = (-1)^(sum S + sum I) det V det V[S', I'],
    with S', I' the complements.  Repeated indices would antisymmetrize to
    zero and are rejected.
    """
    sets = np.asarray(index_sets, dtype=np.intp)
    if sets.ndim != 2:
        raise ValueError(f"expected a sequence of index sets of one size, got shape {sets.shape}")
    d = base.dim
    count, k = sets.shape
    bad = np.flatnonzero(np.any(np.diff(sets, axis=1) <= 0, axis=1))
    if bad.size:
        raise ValueError(
            f"index set {tuple(sets[bad[0]].tolist())} must be strictly increasing (repeats lift to the zero vector)"
        )
    bad = np.flatnonzero(np.any((sets < 0) | (sets >= d), axis=1))
    if bad.size:
        raise ValueError(f"index set {tuple(sets[bad[0]].tolist())} is out of range for dimension {d}")
    v = base.vectors
    if 2 * k <= d:
        amplitudes = subset_minors(v.T[sets].transpose(0, 2, 1))
    else:
        outside = np.ones((count, d), dtype=bool)
        outside[np.arange(count)[:, None], sets] = False
        rest = np.nonzero(outside)[1].reshape(count, d - k)
        minors = subset_minors(v.T[rest].transpose(0, 2, 1))
        parity = 1 - 2 * (subset_table(d, d - k).sum(axis=1) & 1)
        sign = np.linalg.slogdet(v)[0] * (1 - 2 * (rest.sum(axis=1) & 1))
        # The complement of the k-subset of rank r has rank C(d,k) - 1 - r.
        amplitudes = (sign[:, None] * parity * minors)[:, ::-1]
    norms = np.linalg.norm(amplitudes, axis=1)
    if np.any(norms == 0.0):
        raise RuntimeError("lifted vector vanished; base eigenvectors are degenerate-dependent")
    if np.any(np.abs(norms - 1.0) > LIFT_NORM_TOL):
        # Base columns are orthonormal, so each minor vector is unit length up
        # to roundoff; a visible defect means the inputs were not orthonormal.
        raise ValueError("base decomposition is not orthonormal enough to lift")
    values = np.array([math.fsum(base.values[idx]) for idx in sets])
    return EigenDecomposition(values, (amplitudes / norms[:, None]).T)
