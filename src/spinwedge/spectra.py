"""Symmetric eigensolving, closed-form spectra, the wedge spectral lift, and
the spin-singlet blocks of the Heisenberg sectors.

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
* ``UNITARITY_TOL`` (1e-10): norm drift allowed at each requested time of
  an evolution; no evolution takes time steps.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .spins import ModelSpec, singlet_basis
from .wedge import WedgeGraph, colex_level, sector_dimension, subset_table

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
    "complete_sector_spectrum",
    "complete_graph_spectra",
    "subset_sums",
    "subset_minors",
    "lift_eigenvector",
    "su2_pays",
    "singlet_levels",
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
    if np.max(np.abs(gram - np.eye(len(values))), initial=0.0) > ORTHONORMALITY_TOL:
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


def spectrum_dict(values) -> dict:
    """The JSON form of a spectrum: its sorted values, (value, multiplicity)
    groups and the grouping width, ``DEFAULT_TOL``.  A value joins the current
    group when it lies within that width of the group's first value."""
    # A stable sort does not depend on which sort kernel numpy dispatches, so
    # -0.0 and 0.0 keep their order and the text is the same on every machine.
    values = np.sort(np.asarray(values, dtype=float), kind="stable").tolist()
    groups: list[list] = []
    for v in values:
        if groups and abs(v - groups[-1][0]) <= DEFAULT_TOL:
            groups[-1][1] += 1
        else:
            groups.append([v, 1])
    return {"values": values, "multiplicity_collapsed": groups, "tol": DEFAULT_TOL}


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
    """k-excitation XY spectrum on the path: sums of k distinct eigenvalues of
    :func:`path_spectrum`.

    One value per strictly increasing index set, each an exact ``fsum``;
    C(n,k) values total, sorted.  k=0 is the empty sum {0}.  It is the oracle
    for :func:`subset_sums`, so it does not call it.
    """
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= {n}, got k={k}")
    single = path_spectrum(n).tolist()
    sums = [math.fsum(single[j] for j in combo) for combo in itertools.combinations(range(n), k)]
    return np.sort(np.array(sums))


def complete_sector_spectrum(n: int, k: int, model: str) -> np.ndarray:
    """Sector k of the model on K_n, ascending.  For j = 0..min(k, n-k), with
    the association-scheme multiplicity C(n,j) - C(n,j-1), the Heisenberg
    level is the Johnson laplacian value j(n+1-j) and the XY level the
    Johnson adjacency value k(n-k) - j(n+1-j).  Checked against dense
    diagonalization in the test suite rather than trusted."""
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= {n}, got k={k}")
    is_xy = ModelSpec(model).is_xy
    values: list[float] = []
    for j in range(min(k, n - k) + 1):
        level = j * (n + 1 - j)
        mult = math.comb(n, j) - (math.comb(n, j - 1) if j > 0 else 0)
        values.extend([float(k * (n - k) - level if is_xy else level)] * mult)
    assert len(values) == math.comb(n, k)
    return np.sort(np.array(values))


def complete_graph_spectra(n: int, model: str) -> np.ndarray:
    """Full 2^n spin spectrum on the complete graph, the union of its sectors."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return np.sort(np.concatenate([complete_sector_spectrum(n, k, model) for k in range(n + 1)]))


def subset_sums(values, k: int) -> np.ndarray:
    """Sums of k distinct entries of ``values``, one per k-subset, sorted."""
    values = np.asarray(values, dtype=float)
    d = values.size
    if not 0 <= k <= d:
        raise ValueError(f"need 0 <= k <= {d}, got k={k}")
    return np.sort(values[subset_table(d, k)].sum(axis=1))


def subset_minors(x) -> np.ndarray:
    """det x[..., S, :] for every j-subset S of the n rows, in colex rank order.

    ``x`` is a stack of n x j matrices, shape (..., n, j); the result has
    shape (..., C(n, j)).  Laplace expansion along column c-1 gives the
    minors of the first c columns from those of the first c-1, so level c
    holds C(n, c) minors of c terms each, and the whole stack shares each
    level's index tables: the cached :func:`spinwedge.wedge.colex_level`,
    which :func:`subset_table` reads too.  No level is wider than
    C(n, min(j, n/2)), which is guarded like a sector.  Levels 0..j stay in
    the cache, so a call with j > n/2 keeps levels wider than n/2, but it
    runs only while C(n, n/2) <= BLOCK_DIM_LIMIT, that is n <= 14, and no
    kept level has more than C(14, 7) * 7 = 24,024 entries.  The package
    calls it with j <= n/2 only: sides above n/2 are answered from side
    n-j.
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
        table, drops = colex_level(n, c)
        terms = columns[c - 1][..., table.T] * minors[..., drops.T]
        # The p-th term of the expansion along column c-1 has sign (-1)^(p+c-1).
        minors = terms[..., (c - 1) % 2 :: 2, :].sum(axis=-2) - terms[..., c % 2 :: 2, :].sum(axis=-2)
    return minors


def lift_eigenvector(base: EigenDecomposition, index_sets) -> EigenDecomposition:
    """Determinant-form lifted eigenpairs of the signed wedge matrix, one
    column per increasing index set, in the order of the sets.

    All sets have one size k.  Each value is the exact ``fsum`` of the set's
    base eigenvalues.  The amplitude on the ordered subset
    (l_0 < ... < l_{k-1}) is the k x k determinant of base eigenvector
    components picked by rows l and the set's columns; one
    :func:`subset_minors` call takes them for every set.  Repeated indices
    would antisymmetrize to zero and are rejected.
    """
    sets = np.asarray(index_sets, dtype=np.intp)
    if sets.ndim != 2:
        raise ValueError(f"expected a sequence of index sets of one size, got shape {sets.shape}")
    d = len(base.values)
    bad = np.flatnonzero(np.any(np.diff(sets, axis=1) <= 0, axis=1))
    if bad.size:
        raise ValueError(
            f"index set {tuple(sets[bad[0]].tolist())} must be strictly increasing (repeats lift to the zero vector)"
        )
    bad = np.flatnonzero(np.any((sets < 0) | (sets >= d), axis=1))
    if bad.size:
        raise ValueError(f"index set {tuple(sets[bad[0]].tolist())} is out of range for dimension {d}")
    amplitudes = subset_minors(base.vectors.T[sets].transpose(0, 2, 1))
    norms = np.linalg.norm(amplitudes, axis=1)
    if np.any(norms == 0.0):
        raise RuntimeError("lifted vector vanished; base eigenvectors are degenerate-dependent")
    if np.any(np.abs(norms - 1.0) > LIFT_NORM_TOL):
        # Base columns are orthonormal, so each minor vector is unit length up
        # to roundoff; a visible defect means the inputs were not orthonormal.
        raise ValueError("base decomposition is not orthonormal enough to lift")
    values = np.array([math.fsum(base.values[idx]) for idx in sets])
    return EigenDecomposition(values, (amplitudes / norms[:, None]).T)


def su2_pays(n: int, k: int) -> bool:
    """Whether Heisenberg sector k is cheaper from its spin-singlet blocks
    (:func:`singlet_levels` of the sides j = 0..h, h = min(k, n-k)) than from
    one dense eigensolve: when the largest block, d_h = C(n,h) - C(n,h-1),
    is at most half of C(n,h), that is 3h >= n+1.  Below that the blocks
    save little time and their work arrays outgrow the dense matrix's."""
    return 3 * min(k, n - k) >= n + 1


def _invert_lower(r: np.ndarray) -> np.ndarray:
    """Invert a lower-triangular matrix in place, by halves: with diagonal
    blocks A and D, the inverse has diagonal blocks A^-1 and D^-1 and lower
    block -D^-1 R21 A^-1.  A sixth of the flops of a general inverse, mostly
    in matrix products, with no second n x n array."""
    n = len(r)
    if n <= 64:
        r[...] = np.linalg.inv(r)
        return r
    h = n // 2
    a, d = _invert_lower(r[:h, :h]), _invert_lower(r[h:, h:])
    r[h:, :h] = -(d @ (r[h:, :h] @ a))
    return r


def singlet_levels(w: WedgeGraph) -> np.ndarray:
    """The new Heisenberg levels of side j = w.k <= n/2, ascending: the
    eigenvalues of the wedge laplacian L_j on the kernel of W_{j-1,j}.

    The total spin commutes with the hamiltonian, so Heisenberg sector k is
    the union of the new levels of the sides j = 0..min(k, n-k), one block of
    d_j = C(n,j) - C(n,j-1) values each.  With B the
    :func:`spinwedge.spins.singlet_basis` of side j as a C(n,j) x d_j matrix,
    the levels are the eigenvalues of the pencil (B^T L_j B, B^T B), taken as
    those of R^-1 B^T L_j B R^-T with B^T B = R R^T.  L_j B is assembled from
    the hops, so no C(n,j) x C(n,j) matrix is formed.  B, L_j B and both
    products are integer matrices: B's entries are 0 and +-1, L_j B's are at
    most twice the largest wedge degree j(n-j), so no partial sum of the
    products exceeds 2^j * 2j(n-j), which the sector guard on C(n,j) keeps
    below 2^15.  They are computed in float32, exactly, at half the cost of
    float64.
    """
    n, j, m = w.base.n, w.k, w.num_vertices
    rows, signs = singlet_basis(n, j)
    d, width = rows.shape
    entries = rows.ravel()
    cols = np.repeat(np.arange(d), width)
    values = np.tile(signs, d).astype(np.float32)
    # L_j = degrees minus adjacency: each basis entry on rank r adds
    # deg(r) times itself at r and minus itself at every neighbour of r.
    a, b, _ = w.hops
    ends = np.concatenate((a, b))
    neighbours = np.concatenate((b, a))[np.argsort(ends, kind="stable")]
    degree = np.bincount(ends, minlength=m)
    counts = degree[entries]
    basis = np.zeros((m, d), dtype=np.float32)
    basis[entries, cols] = values
    laplace = np.zeros((m, d), dtype=np.float32)
    laplace[entries, cols] = values * counts
    # The flat index of every (entry, neighbour) pair in laplace, built in
    # place: each work array is dropped or reused once it is read, which keeps
    # the peak below that of one dense C(n,j) x C(n,j) matrix where su2_pays.
    at = np.repeat(np.cumsum(degree)[entries] - np.cumsum(counts), counts)
    at += np.arange(len(at))
    at = neighbours[at]
    at *= d
    at += np.repeat(cols, counts)
    np.add.at(laplace.reshape(-1), at, -np.repeat(values, counts))
    del at
    gram, pencil = basis.T @ basis, basis.T @ laplace
    del basis, laplace
    gram, pencil = gram.astype(float), pencil.astype(float)
    inverse = np.linalg.cholesky(gram)
    del gram
    _invert_lower(inverse)
    pencil = inverse @ pencil
    pencil = pencil @ inverse.T
    del inverse
    return np.linalg.eigvalsh(pencil)
