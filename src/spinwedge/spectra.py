"""Symmetric eigensolving, closed-form spectra, the wedge spectral lift.

Numerical tolerances (the single place they are defined):

* ``DEFAULT_TOL`` (1e-9): absolute tolerance for spectrum multiset
  comparison; matrix entries throughout the package are O(1) integers.
* ``EIG_RESIDUAL_FACTOR`` (1e-9): eigenpair residual bound, relative to
  max(1, spectral norm).
* ``ORTHONORMALITY_TOL`` (1e-10): deviation of eigenvector Gram matrix
  from the identity.
* ``LIFT_NORM_TOL`` (1e-12): norm defect allowed for lifted eigenvectors.
* ``MATVEC_RTOL`` (1e-12): relative agreement of matrix-free block
  application with the dense matrix product.
* ``UNITARITY_TOL`` (1e-10): norm drift allowed per evolution step.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from .wedge import subset_table

__all__ = [
    "DEFAULT_TOL",
    "EIG_RESIDUAL_FACTOR",
    "ORTHONORMALITY_TOL",
    "LIFT_NORM_TOL",
    "MATVEC_RTOL",
    "UNITARITY_TOL",
    "EigenDecomposition",
    "Spectrum",
    "LiftedEigenpair",
    "SpectrumComparison",
    "eigh",
    "path_spectrum",
    "path_eigenvector",
    "xy_path_spectrum",
    "johnson_spectrum",
    "complete_graph_spectra",
    "subset_sums",
    "lift_spectrum",
    "lift_eigenvector",
    "compare_spectra",
]

DEFAULT_TOL = 1e-9
EIG_RESIDUAL_FACTOR = 1e-9
ORTHONORMALITY_TOL = 1e-10
LIFT_NORM_TOL = 1e-12
MATVEC_RTOL = 1e-12
UNITARITY_TOL = 1e-10


@dataclass(frozen=True)
class EigenDecomposition:
    """Ascending eigenvalues and orthonormal eigenvector columns."""

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


@dataclass(frozen=True)
class Spectrum:
    """Sorted real multiset with a comparison tolerance."""

    values: tuple[float, ...]
    tol: float = DEFAULT_TOL

    def __post_init__(self) -> None:
        vals = tuple(float(v) for v in self.values)
        if any(vals[i] > vals[i + 1] for i in range(len(vals) - 1)):
            vals = tuple(sorted(vals))
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return len(self.values)

    def min(self) -> float:
        return self.values[0]

    def collapsed(self) -> list[tuple[float, int]]:
        """Group values within tol into (representative, multiplicity) pairs."""
        groups: list[tuple[float, int]] = []
        for v in self.values:
            if groups and abs(v - groups[-1][0]) <= self.tol:
                groups[-1] = (groups[-1][0], groups[-1][1] + 1)
            else:
                groups.append((v, 1))
        return groups

    def to_json(self) -> str:
        return json.dumps(
            {
                "values": list(self.values),
                "multiplicity_collapsed": [[v, c] for v, c in self.collapsed()],
                "tol": self.tol,
            }
        )


@dataclass(frozen=True)
class SpectrumComparison:
    """Greedy sorted pairing report between two spectra."""

    equal: bool
    max_gap: float
    unmatched_a: tuple[float, ...]
    unmatched_b: tuple[float, ...]
    tol: float


def compare_spectra(a: Spectrum, b: Spectrum) -> SpectrumComparison:
    """Pair values of the two sorted multisets greedily within tolerance."""
    tol = max(a.tol, b.tol)
    i = j = 0
    max_gap = 0.0
    unmatched_a: list[float] = []
    unmatched_b: list[float] = []
    va, vb = a.values, b.values
    while i < len(va) and j < len(vb):
        gap = va[i] - vb[j]
        if abs(gap) <= tol:
            max_gap = max(max_gap, abs(gap))
            i += 1
            j += 1
        elif gap < 0:
            unmatched_a.append(va[i])
            i += 1
        else:
            unmatched_b.append(vb[j])
            j += 1
    unmatched_a.extend(va[i:])
    unmatched_b.extend(vb[j:])
    equal = not unmatched_a and not unmatched_b and len(va) == len(vb)
    return SpectrumComparison(equal, max_gap, tuple(unmatched_a), tuple(unmatched_b), tol)


def path_spectrum(n: int) -> Spectrum:
    """Adjacency eigenvalues of the n-vertex path: -2 cos(pi (j+1) / (n+1))."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return Spectrum(tuple(-2.0 * math.cos(math.pi * (j + 1) / (n + 1)) for j in range(n)))


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


def xy_path_spectrum(n: int, k: int) -> Spectrum:
    """k-excitation XY spectrum on the path: sums of k distinct path eigenvalues.

    One value per strictly increasing index set; C(n,k) values total.  k=0 is
    the empty sum {0}.
    """
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= {n}, got k={k}")
    single = [-2.0 * math.cos(math.pi * (j + 1) / (n + 1)) for j in range(n)]
    sums = [math.fsum(single[j] for j in combo) for combo in itertools.combinations(range(n), k)]
    return Spectrum(tuple(sums))


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


def johnson_spectrum(n: int, k: int) -> Spectrum:
    """Adjacency spectrum of the Johnson graph J(n,k), the wedge power of K_n."""
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= {n}, got k={k}")
    values: list[float] = []
    for v, mult in _johnson_distinct(n, k):
        values.extend([v] * mult)
    assert len(values) == math.comb(n, k)
    return Spectrum(tuple(values))


def complete_graph_spectra(n: int, model: str) -> Spectrum:
    """Full 2^n spin spectrum on the complete graph, assembled per sector.

    XY sectors contribute Johnson adjacency values; Heisenberg sectors the
    Johnson laplacian values k(n-k) minus those, that is j(n+1-j).
    """
    # spins imports this module, so ModelSpec can only be imported here.
    from .spins import ModelSpec

    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    is_xy = ModelSpec(model).is_xy
    values: list[float] = []
    for k in range(n + 1):
        for v, mult in _johnson_distinct(n, k):
            values.extend([v if is_xy else k * (n - k) - v] * mult)
    assert len(values) == 2**n
    return Spectrum(tuple(values))


@dataclass(frozen=True)
class LiftedEigenpair:
    """Eigenpair of the signed wedge matrix built from single-particle data.

    ``value`` is the exact sum of the selected base eigenvalues; ``vector``
    lives on the ordered-subset basis and is normalized.
    """

    indices: tuple[int, ...]
    value: float
    vector: np.ndarray


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


def lift_spectrum(base: EigenDecomposition, k: int) -> Spectrum:
    """All sums of k distinct base eigenvalues over increasing index sets.

    This is the spectrum of the signed wedge matrix (not, in general, of the
    unsigned wedge adjacency).
    """
    return Spectrum(tuple(subset_sums(base.values, k)))


def lift_eigenvector(base: EigenDecomposition, indices) -> LiftedEigenpair:
    """Determinant-form lifted eigenvector for one increasing index set.

    The amplitude on the ordered subset (l_0 < ... < l_{k-1}) is the k x k
    determinant of base eigenvector components picked by rows l and columns
    ``indices``; all C(d, k) minors are taken in one stacked determinant.
    Repeated indices would antisymmetrize to zero and are rejected.
    """
    idx = tuple(int(i) for i in indices)
    if any(b <= a for a, b in zip(idx, idx[1:])):
        raise ValueError(f"indices {idx} must be strictly increasing (repeats lift to the zero vector)")
    d = base.dim
    if idx and not (0 <= idx[0] and idx[-1] < d):
        raise ValueError(f"indices {idx} out of range for dimension {d}")
    rows = subset_table(d, len(idx))
    amplitudes = np.linalg.det(base.vectors[rows[:, :, None], np.array(idx, dtype=np.intp)])
    norm = float(np.linalg.norm(amplitudes))
    if norm == 0.0:
        raise RuntimeError("lifted vector vanished; base eigenvectors are degenerate-dependent")
    if abs(norm - 1.0) > LIFT_NORM_TOL:
        # Base columns are orthonormal, so the minor vector is unit length up
        # to roundoff; a visible defect means the inputs were not orthonormal.
        raise ValueError("base decomposition is not orthonormal enough to lift")
    amplitudes /= norm
    value = math.fsum(float(base.values[i]) for i in idx)
    return LiftedEigenpair(idx, value, amplitudes)
