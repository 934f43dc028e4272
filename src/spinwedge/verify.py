"""Built-in verification corpus and every cross-check the package makes.

The corpus covers the two solved families (paths, complete graphs), cycles,
and a handful of seeded random graphs.  Checks pit independent computation
routes against each other: the field-free wedge-power sector hamiltonians
against the excitation blocks of the full 2^n oracle, the oracle's field
against the one sector field formula, the combinatorial signed wedge
construction against the literal tensor-space projector, closed forms against
dense diagonalization, the Heisenberg levels of the spin-singlet blocks
against the dense sector spectra, and sector dynamics against full-space
dynamics.
Every bound is 0 (exact) or a value of the tolerance table in
:mod:`spinwedge.spectra`; none is an argument.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .dynamics import Sides, propagate
from .graphs import (
    CapacityError,
    Graph,
    adjacency,
    complete_graph,
    component_count,
    cycle_graph,
    erdos_renyi_graph,
    path_graph,
)
from .spectra import (
    DEFAULT_TOL,
    EigenDecomposition,
    UNITARITY_TOL,
    complete_graph_spectra,
    complete_sector_spectrum,
    eigh,
    lift_eigenvector,
    path_eigenvector,
    path_spectrum,
    singlet_levels,
    spectrum_gap,
    subset_sums,
    xy_path_spectrum,
)
from .spins import (
    ModelSpec,
    basis_states,
    block_hamiltonian,
    full_hamiltonian,
    project_full_to_blocks,
    singlet_basis,
)
from .wedge import (
    WedgeGraph,
    alt_delta_oracle,
    build_wedge_graph,
    signed_matrix,
    subset_table,
    switching_signs,
    wedge_adjacency,
    wedge_degrees,
)

__all__ = [
    "FIELD_VALUES",
    "DYNAMICS_TIMES",
    "CheckResult",
    "VerificationReport",
    "default_corpus",
    "run_verification",
]

FIELD_VALUES = (0.5, -1.3)
DYNAMICS_TIMES = (0.5, 1.0, 5.0)

# A graph's checks hold about seven dense 2^n x 2^n float64 arrays at once
# (two full hamiltonians, a full eigh, the field-shift temporaries).
VERIFY_SPIN_LIMIT = 12

# The literal projector oracle is exercised at these sizes only.
ORACLE_MAX_N = 6
ORACLE_MAX_K = 3

_MODELS = (ModelSpec("xy"), ModelSpec("heisenberg"))


@dataclass
class CheckResult:
    check: str
    subject: str
    max_error: float
    tol: float
    passed: bool
    k: int | None = None
    note: str = ""

    def line(self, width: int = 0) -> str:
        """One report line, the check name padded to ``width`` columns."""
        status = "PASS" if self.passed else "FAIL"
        where = self.subject + (f" k={self.k}" if self.k is not None else "")
        text = f"[{status}] {self.check:<{width}} {where:<18} max_err={self.max_error:9.3e}  tol={self.tol:.1e}"
        if self.note:
            text += f"  ({self.note})"
        return text


@dataclass
class VerificationReport:
    results: list[CheckResult] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    @property
    def first_failure(self) -> CheckResult | None:
        return next((r for r in self.results if not r.passed), None)

    def lines(self) -> list[str]:
        """One line per check, every name padded to the longest, so the
        columns after it line up, then the summary."""
        width = max((len(r.check) for r in self.results), default=0)
        out = [r.line(width) for r in self.results]
        n_fail = sum(not r.passed for r in self.results)
        out.append(
            f"verification: {len(self.results)} checks, {len(self.results) - n_fail} passed, "
            f"{n_fail} failed, {self.elapsed:.1f}s"
        )
        if n_fail:
            f = self.first_failure
            out.append(f"first failure: ({f.subject}, k={f.k}, {f.check})")
        return out


def default_corpus() -> list[tuple[str, Graph]]:
    """Paths n=2..8, cycles 3..7, complete graphs 2..6, five seeded G(6, 1/2),
    and path:7 and cycle:6 relabelled out of walk order, where D has inversions."""
    entries: list[tuple[str, Graph]] = []
    for n in range(2, 9):
        entries.append((f"path:{n}", path_graph(n)))
    for n in range(3, 8):
        entries.append((f"cycle:{n}", cycle_graph(n)))
    for n in range(2, 7):
        entries.append((f"complete:{n}", complete_graph(n)))
    for s in range(5):
        entries.append((f"er:6:0.5:{s}", erdos_renyi_graph(6, 0.5, s)))
    relabelled = (("path:7", path_graph(7), (3, 0, 5, 1, 6, 2, 4)), ("cycle:6", cycle_graph(6), (2, 5, 0, 3, 1, 4)))
    for label, g, perm in relabelled:
        entries.append((f"perm:{label}", Graph(g.n, tuple((perm[u], perm[v]) for u, v in g.edges))))
    return entries


def _result(check, subject, err, tol, k=None, note="") -> CheckResult:
    return CheckResult(check, subject, float(err), tol, bool(err <= tol), k, note)


def _worst(check, subject, tol, errors, note="") -> CheckResult:
    """The result of the largest error among the (k, error) pairs ``errors``,
    naming the first k that reaches it: error 0.0 and no k when none is
    positive.  The one rule for the sector a check that reduces over k names."""
    worst, bad_k = 0.0, None
    for k, err in errors:
        if err > worst:
            worst, bad_k = err, k
    return _result(check, subject, worst, tol, k=bad_k, note=note)


class Operator(NamedTuple):
    """A dense hamiltonian and its eigendecomposition, built once and shared."""

    matrix: np.ndarray
    dec: EigenDecomposition


def _operator(h: np.ndarray) -> Operator:
    return Operator(h, eigh(h))


def sector_decompositions(g: Graph, wedges: dict) -> dict:
    """Every field-free sector hamiltonian with its eigh, keyed by (model name, k).

    Built once per graph from the shared ``wedges`` and passed as ``sectors``
    to every check that reads a sector operator.
    """
    return {(m.model, k): _operator(block_hamiltonian(w, m)) for m in _MODELS for k, w in wedges.items()}


def check_structure(name: str, g: Graph, wedges: dict) -> list[CheckResult]:
    """Dimensions and handshake sums of every power, the k=1 identity, and
    for the solved families all-positive path signs and the Johnson degree.

    The handshake count is independent of the wedge builder: twice the hops
    of wedge power k must equal the summed cut sizes of the weight-k
    occupation bitmasks of the base graph.  At k = 0 and k = n that is one
    subset and no hop, as the empty and the full bitmask cut no edge.
    """
    bits = (np.arange(1 << g.n)[:, None] >> np.arange(g.n)) & 1
    cuts = sum((bits[:, u] ^ bits[:, v] for u, v in g.edges), np.zeros(1 << g.n, dtype=np.int64))
    cut_sums = np.bincount(bits.sum(axis=1), weights=cuts, minlength=g.n + 1)
    bad = ((k, float(w.num_vertices != math.comb(g.n, k) or 2 * len(w.hops[0]) != cut_sums[k]))
           for k, w in wedges.items())
    results = [_worst("wedge_dimensions", name, 0.0, bad)]

    w1 = wedges.get(1)
    if w1 is not None:
        a, b, s = w1.hops
        same = w1.num_vertices == g.n and tuple(zip(a.tolist(), b.tolist())) == g.edges and bool(np.all(s == 1))
        results.append(_result("wedge_k1_identity", name, 0.0 if same else 1.0, 0.0, k=1))

    if name.startswith("path:"):
        neg_counts = {k: int(np.count_nonzero(w.hops[2] < 0)) for k, w in wedges.items()}
        neg = sum(neg_counts.values())
        first_bad = next((k for k, c in neg_counts.items() if c), None)
        results.append(_result("path_all_positive_signs", name, float(neg), 0.0, k=first_bad))
    if name.startswith("complete:"):
        worst = float(any(np.any(wedge_degrees(w) != k * (g.n - k)) for k, w in wedges.items()))
        results.append(_result("johnson_regular_degree", name, worst, 0.0))
    return results


def check_sector_spectra(name: str, g: Graph, model: ModelSpec, sectors: dict, full: Operator) -> list[CheckResult]:
    """Sector matrices against the full-space oracle: entries exactly equal
    to the full hamiltonian's excitation blocks, which also catches a
    relabelled but isospectral sector, and the union of the sector spectra
    within DEFAULT_TOL of the full spectrum.

    ``sectors`` is :func:`sector_decompositions` of g and ``full`` the 2^n
    hamiltonian of ``model`` with its eigh."""
    try:
        full_blocks = project_full_to_blocks(full.matrix)
    except RuntimeError as exc:
        return [_result(f"sector_vs_full_{model.model}", name, math.inf, DEFAULT_TOL, note=str(exc))]
    mismatched = [k for k in range(g.n + 1) if not np.array_equal(sectors[(model.model, k)].matrix, full_blocks[k])]
    union = np.concatenate([sectors[(model.model, k)].dec.values for k in range(g.n + 1)])
    union_err = spectrum_gap(union, full.dec.values)
    note = f"entries differ from the full hamiltonian at k={mismatched}" if mismatched else ""
    return [
        _result(f"sector_vs_full_{model.model}", name, math.inf if mismatched else 0.0, DEFAULT_TOL,
                k=mismatched[0] if mismatched else None, note=note),
        _result(f"sector_union_{model.model}", name, union_err, DEFAULT_TOL),
    ]


def check_signed_oracle(name: str, g: Graph, wedges: dict) -> list[CheckResult]:
    """Combinatorial signed matrix against the literal projector construction,
    for graphs up to ORACLE_MAX_N spins (none above); an oracle that refuses
    its own result fails the check with its message."""
    if g.n > ORACLE_MAX_N:
        return []
    diffs = []
    for k in range(min(g.n, ORACLE_MAX_K) + 1):
        try:
            oracle = alt_delta_oracle(g, k)
        except RuntimeError as exc:
            return [_result("signed_vs_projector_oracle", name, math.inf, 0.0, k=k, note=str(exc))]
        diffs.append((k, np.max(np.abs(signed_matrix(wedges[k]) - oracle)) if wedges[k].num_vertices else 0.0))
    return [_worst("signed_vs_projector_oracle", name, 0.0, diffs)]


def check_lift(name: str, g: Graph, wedges: dict, base) -> list[CheckResult]:
    """Sum-lift of base eigenvalues and determinant eigenvectors against the
    signed matrix of every side k <= n/2 (the powers above are certified by
    xy_particle_hole); ``base`` is the eigh of g's adjacency."""
    gaps, residuals = [], []
    for k in range(g.n // 2 + 1):
        c = signed_matrix(wedges[k])
        gaps.append((k, spectrum_gap(subset_sums(base.values, k), np.linalg.eigvalsh(c))))
        lifted = lift_eigenvector(base, subset_table(g.n, k))
        residuals.append((k, np.max(np.linalg.norm(c @ lifted.vectors - lifted.vectors * lifted.values, axis=0))))
    c_equals_a = not any(np.any(w.hops[2] < 0) for w in wedges.values())
    return [
        _worst("lift_spectrum_vs_signed", name, DEFAULT_TOL, gaps),
        _worst("lift_eigenvector_residual", name, DEFAULT_TOL, residuals,
               note=f"signed equals unsigned: {'yes' if c_equals_a else 'no'}"),
    ]


def check_xy_particle_hole(name: str, g: Graph, wedges: dict) -> CheckResult:
    """The signed matrix C_{n-k}, relabelled by r -> C(n,k)-1-r as every
    route relabels it, equals -E C_k E for every k <= n/2, exactly, in
    integers, with E[S] = (-1)^(sum of S): power n-k carries the negated
    signed spectrum of power k, as the lift's sums do (tr A = 0)."""
    for k in range(g.n // 2 + 1):
        e = 1 - 2 * (subset_table(g.n, k).sum(axis=1) & 1)
        c, hole = (signed_matrix(wedges[j]).astype(np.int64) for j in (k, g.n - k))
        if not np.array_equal(hole[::-1, ::-1], -(e[:, None] * c * e)):
            return _result("xy_particle_hole", name, math.inf, 0.0, k=g.n - k)
    return _result("xy_particle_hole", name, 0.0, 0.0)


def _determinant_formula(side, start_rank: int, times, base) -> np.ndarray:
    """exp(-i t A_h)[S, S0] on XY side h = side.h as the lift states it: D[S]
    D[S0] det exp(-i B t)[S, S0] by LAPACK determinants, ``base`` the eigh of
    the side's signed base B.  The reference for the minors kernel."""
    signs = side.switching[0]
    t = np.asarray(times, dtype=float)
    u1 = base.vectors @ (np.exp(-1j * np.multiply.outer(t, base.values))[:, :, None] * base.vectors.T)
    rows = subset_table(side.graph.n, side.h)
    return np.linalg.det(u1[:, rows[:, :, None], rows[start_rank]]) * (signs * signs[start_rank])


def check_free_fermion_route(name: str, g: Graph, wedges: dict, sectors: dict, base, times) -> CheckResult:
    """Every XY side h = 0..n//2 of :class:`Sides`, whose lift is decided from
    the shape of g, against :func:`switching_signs`, the parity forest over
    the hops of ``wedges[h]``, and against the dense route.

    The hops that move a particle along the side's twist edge, found by the
    xor of their bitmasks, change sign, which makes C_h(B) of its signed base
    B.  The side lifts exactly where the forest of those signs switches.
    Where it lifts: D[a] D[b] equals the sign of every hop (a, b) exactly, and
    its values and its amplitudes from one basis state at ``times`` equal the
    dense sector h in ``sectors`` and the determinant formula on the eigh of
    B, ``base`` for A.  Sector n-h is side h relabelled, which sector_vs_full,
    complement_isomorphism and xy_particle_hole certify.
    """
    sides = Sides(g, ModelSpec("xy"))
    bases, errors, lifted, differ = {None: base}, [], [], []
    for h in range(g.n // 2 + 1):
        side, w = sides(h), wedges[h]
        (a, b, s), (d, twist) = w.hops, side.switching or (None, None)
        if twist is not None:
            masks = basis_states(g.n, h)
            s = np.where((masks[a] ^ masks[b]) == (1 << twist[0]) | (1 << twist[1]), -s, s)
        if (d is None) != (switching_signs(WedgeGraph(w.base, h, w.num_vertices, (a, b, s))) is None):
            differ.append(h)
            errors.append((h, math.inf))
        elif d is not None:
            lifted.append(h)
            if twist not in bases:
                bases[twist] = eigh(adjacency(g, twist))
            dec = sectors[("xy", h)].dec
            gap = spectrum_gap(side.values(h), dec.values)
            r0 = len(dec.values) // 2
            dense = propagate(dec, np.eye(len(dec.values))[:, r0], times)
            lifted_amps, _ = side.evolve(h, r0, times)
            formula = _determinant_formula(side, r0, times, bases[twist])
            amp_err = float(max(np.max(np.abs(lifted_amps - dense)), np.max(np.abs(lifted_amps - formula))))
            errors.append((h, max(gap, amp_err) if np.array_equal(d[a] * d[b], s) else math.inf))
    note = f"lift h={lifted}" + (f"; lift differs from the parity forest: h={differ}" if differ else "")
    return _worst("free_fermion_route", name, DEFAULT_TOL, errors, note=note)


def check_heis_psd_kernel(name: str, g: Graph, wedges: dict, sectors: dict) -> CheckResult:
    """Heisenberg sectors are positive semidefinite with one zero mode per
    connected component of the wedge power; their eigenvalues come from
    ``sectors`` (see :func:`sector_decompositions`)."""
    errors = []
    for k, w in wedges.items():
        vals = sectors[("heisenberg", k)].dec.values
        neg = max(0.0, float(-vals.min())) if vals.size else 0.0
        zeros = int(np.sum(np.abs(vals) <= DEFAULT_TOL))
        comps = component_count(w.num_vertices, *w.hops[:2])
        errors.append((k, neg if zeros == comps else math.inf))
    return _worst("heis_psd_kernel", name, DEFAULT_TOL, errors)


def _unflip(n: int, k: int) -> np.ndarray:
    """W_{k-1,k}: the 0/1 int64 inclusion matrix of the (k-1)-subsets in the
    k-subsets, the ladder operator that unflips one spin of sector k, read
    off the bitmasks of :func:`basis_states`."""
    return ((basis_states(n, k - 1)[:, None] & ~basis_states(n, k)) == 0).astype(np.int64)


def check_heis_su2_intertwining(name: str, g: Graph, sectors: dict) -> CheckResult:
    """W_{k-1,k} L_k == L_{k-1} W_{k-1,k} exactly for k = 1..n, L_k the
    Heisenberg sector matrix in ``sectors``: the hamiltonian commutes with the
    total spin, the identity that the singlet levels rest on."""
    for k in range(1, g.n + 1):
        w = _unflip(g.n, k)
        if not np.array_equal(w @ sectors[("heisenberg", k)].matrix, sectors[("heisenberg", k - 1)].matrix @ w):
            return _result("heis_su2_intertwining", name, math.inf, 0.0, k=k)
    return _result("heis_su2_intertwining", name, 0.0, 0.0)


def check_heis_su2_levels(name: str, g: Graph, wedges: dict, sectors: dict) -> CheckResult:
    """Every Heisenberg sector k is the union of the :func:`singlet_levels`
    of the sides j = 0..min(k, n-k), within DEFAULT_TOL of its dense values in
    ``sectors``, multiplicities included; and every :func:`singlet_basis`
    lies in the kernel of W_{j-1,j}, exactly, in integers."""
    for j in range(1, g.n // 2 + 1):
        rows, signs = singlet_basis(g.n, j)
        basis = np.zeros((math.comb(g.n, j), len(rows)), dtype=np.int64)
        basis[rows, np.arange(len(rows))[:, None]] = signs
        if np.any(_unflip(g.n, j) @ basis):
            return _result("heis_su2_levels", name, math.inf, DEFAULT_TOL, k=j, note=f"W B != 0 on side j={j}")
    levels = [singlet_levels(wedges[j]) for j in range(g.n // 2 + 1)]
    gaps = ((k, spectrum_gap(np.concatenate(levels[: min(k, g.n - k) + 1]), sectors[("heisenberg", k)].dec.values))
            for k in range(g.n + 1))
    return _worst("heis_su2_levels", name, DEFAULT_TOL, gaps)


def check_field_shift(name: str, g: Graph, fulls: dict) -> CheckResult:
    """The full oracle with a field equals its field-free matrix in ``fulls``
    plus, on each basis state, ModelSpec.sector_shift of its excitation number,
    entry for entry.  With sector_vs_full, this certifies that sector k with a
    field is the field-free sector plus sector_shift(n, k) times the identity,
    the one place where every route adds the field."""
    pop = ((np.arange(1 << g.n)[:, None] >> np.arange(g.n)) & 1).sum(axis=1)
    for model, h0 in fulls.items():
        for b in FIELD_VALUES:
            spec = ModelSpec(model.model, b)
            rows = (full_hamiltonian(g, spec) != h0 + np.diag(spec.sector_shift(g.n, pop))).any(axis=1)
            if rows.any():
                k = int(pop[np.argmax(rows)])
                return _result("field_shift", name, math.inf, 0.0, k=k, note=f"{model.model} B={b}")
    return _result("field_shift", name, 0.0, 0.0)


def _carries_hops(w, image, lo, hi, m: int) -> bool:
    """Whether the rank map ``image`` sends the hops of ``w`` exactly onto the
    edges (lo[i], hi[i]) of an m-vertex graph, each hop to its own edge."""
    a, b, _ = w.hops

    def keys(x, y):
        return np.sort(np.minimum(x, y) * m + np.maximum(x, y))

    return np.array_equal(keys(image[a], image[b]), keys(lo, hi))


def check_complement_isomorphism(name: str, g: Graph, wedges: dict) -> CheckResult:
    """Wedge powers k and n-k are isomorphic under S -> V \\ S, hop by hop.

    The complement's rank is looked up among the weight-(n-k) bitmasks, not
    taken from the builder's own rank identity.
    """
    bad_k = None
    for k in range(g.n // 2 + 1):
        image = np.searchsorted(basis_states(g.n, g.n - k), ((1 << g.n) - 1) ^ basis_states(g.n, k))
        a, b, _ = wedges[g.n - k].hops
        if not _carries_hops(wedges[k], image, a, b, len(image)):
            bad_k = k
            break
    return _result("complement_isomorphism", name, 0.0 if bad_k is None else 1.0, 0.0, k=bad_k)


def check_dynamics(
    name: str,
    g: Graph,
    model: ModelSpec,
    sectors: dict,
    full: Operator,
    rng: np.random.Generator,
    n_states: int,
    times,
) -> list[CheckResult]:
    """Sector evolution against full-space evolution for random sector states.

    ``sectors`` and ``full`` are as in :func:`check_sector_spectra`.  Per
    sector, all states are propagated to all times in one call.  The full
    space evolves the i-th state of every sector at once, as one sum in
    column i, by one :func:`propagate` of ``full``: the full hamiltonian
    conserves the excitation number, so the rows of sector k of the result
    are the evolution of sector k's state.
    """
    worst_norm = 0.0
    worst_energy = 0.0
    starts = np.zeros((1 << g.n, n_states), dtype=complex)
    blocks = []
    for k in range(g.n + 1):
        h, block_dec = sectors[(model.model, k)]
        idx = basis_states(g.n, k)
        draws = rng.normal(size=(n_states, 2, len(idx)))
        z = (draws[:, 0] + 1j * draws[:, 1]).T
        z /= np.linalg.norm(z, axis=0)
        e0 = np.real(np.sum(np.conj(z) * (h @ z), axis=0))
        zb = propagate(block_dec, z, times)
        starts[idx] = z
        blocks.append((k, idx, zb))
        norm_drift = np.abs(np.linalg.norm(zb, axis=1) - 1.0)
        worst_norm = max(worst_norm, float(np.max(norm_drift, initial=0.0)))
        et = np.real(np.sum(np.conj(zb) * (h @ zb), axis=1))
        worst_energy = max(worst_energy, float(np.max(np.abs(et - e0), initial=0.0)))
    evolved = propagate(full.dec, starts, times)
    devs = ((k, np.max(np.linalg.norm(zb - evolved[:, idx], axis=1), initial=0.0)) for k, idx, zb in blocks)
    return [
        _worst(f"dynamics_block_vs_full_{model.model}", name, DEFAULT_TOL, devs),
        _result(f"dynamics_unitarity_{model.model}", name, worst_norm, UNITARITY_TOL),
        _result(f"dynamics_energy_{model.model}", name, worst_energy, DEFAULT_TOL),
    ]


def check_path_closed_form(n: int) -> list[CheckResult]:
    """Cosine spectrum, sine eigenvectors and their sector sums on the path.

    Like every family oracle here, it builds the wedge powers of the
    canonical graph itself: it does not depend on which graph a corpus entry
    of the same name holds, nor on the wedges that the per-graph checks share.
    """
    name = f"path:{n}"
    g = path_graph(n)
    a = adjacency(g)
    values = path_spectrum(n)
    spec_err = spectrum_gap(values, np.linalg.eigvalsh(a))
    vec_err = 0.0
    for j, lam in enumerate(values):
        v = path_eigenvector(n, j)
        vec_err = max(vec_err, float(np.linalg.norm(a @ v - lam * v)))
    sums = []
    for k in range(n + 1):
        vals = np.linalg.eigvalsh(wedge_adjacency(build_wedge_graph(g, k)))
        sums.append((k, spectrum_gap(xy_path_spectrum(n, k), vals)))
    return [
        _result("path_cosine_spectrum", name, spec_err, DEFAULT_TOL),
        _result("path_sine_eigenvectors", name, vec_err, DEFAULT_TOL),
        _worst("path_sector_sums", name, DEFAULT_TOL, sums),
    ]


def check_johnson_family(n: int) -> list[CheckResult]:
    """Johnson closed form per sector, and the full spectrum of each model on
    K_n, multiplicities included, against its closed form.

    The wedge powers are built as in :func:`check_path_closed_form`.
    """
    name = f"complete:{n}"
    g = complete_graph(n)
    gaps = []
    for k in range(n + 1):
        vals = np.linalg.eigvalsh(wedge_adjacency(build_wedge_graph(g, k)))
        gaps.append((k, spectrum_gap(complete_sector_spectrum(n, k, "xy"), vals)))
    results = [_worst("johnson_formula", name, DEFAULT_TOL, gaps)]
    for model in _MODELS:
        err = spectrum_gap(complete_graph_spectra(n, model.model), np.linalg.eigvalsh(full_hamiltonian(g, model)))
        results.append(_result(f"complete_spectrum_{model.model}", name, err, DEFAULT_TOL))
    return results


def check_named_isomorphisms() -> list[CheckResult]:
    """The two specific equivalences: the 5th power of the 6-path is the
    6-path, the 3rd power of K_4 is K_4, both under S -> the vertex that S
    leaves out, hop by hop."""
    out = []
    for label, g, k in (("path:6", path_graph(6), 5), ("complete:4", complete_graph(4), 3)):
        left_out = ((1 << g.n) - 1) ^ basis_states(g.n, k)
        image = np.searchsorted(1 << np.arange(g.n), left_out)
        lo, hi = np.array(g.edges).T
        ok = _carries_hops(build_wedge_graph(g, k), image, lo, hi, g.n)
        out.append(_result(f"named_isomorphism_k{k}", label, 0.0 if ok else 1.0, 0.0, k=k))
    return out


def _graph_checks(index, name, g, seed, n_states) -> list[CheckResult]:
    """Every check of one corpus graph.  Its wedge powers, field-free sector
    operators, base eigh and field-free full hamiltonians are built here once
    each and shared by the checks; a full eigh is made one model at a time."""
    wedges = {k: build_wedge_graph(g, k) for k in range(g.n + 1)}
    sectors = sector_decompositions(g, wedges)
    base = eigh(adjacency(g))
    fulls = {model: full_hamiltonian(g, model) for model in _MODELS}
    rng = np.random.default_rng([seed, index])
    results: list[CheckResult] = []
    results += check_structure(name, g, wedges)
    results += check_lift(name, g, wedges, base)
    results.append(check_xy_particle_hole(name, g, wedges))
    results.append(check_free_fermion_route(name, g, wedges, sectors, base, DYNAMICS_TIMES))
    results += check_signed_oracle(name, g, wedges)
    results.append(check_heis_psd_kernel(name, g, wedges, sectors))
    results.append(check_heis_su2_intertwining(name, g, sectors))
    results.append(check_heis_su2_levels(name, g, wedges, sectors))
    results.append(check_field_shift(name, g, fulls))
    results.append(check_complement_isomorphism(name, g, wedges))
    for model in _MODELS:
        full = _operator(fulls.pop(model))
        results += check_sector_spectra(name, g, model, sectors, full)
        results += check_dynamics(name, g, model, sectors, full, rng, n_states, DYNAMICS_TIMES)
        del full  # one model's 2^n eigendecomposition at a time
    family = name.split(":", 1)[0]
    if family == "path":
        results += check_path_closed_form(g.n)
    elif family == "complete":
        results += check_johnson_family(g.n)
    return results


def run_verification(
    seed: int = 0,
    random_states: int = 20,
    corpus: list[tuple[str, Graph]] | None = None,
) -> VerificationReport:
    """Run every check over the corpus; deterministic for fixed arguments.

    Each graph's wedge powers, sector operators and full hamiltonians are
    built once and shared by all its checks; the path and Johnson family
    oracles and the named isomorphisms build the wedge powers of their
    canonical graphs themselves.  Every wedge power is built through this
    module's name ``build_wedge_graph``, so replacing
    ``spinwedge.verify.build_wedge_graph`` injects a fault into every check.
    Raises CapacityError, before anything is built, for a graph above
    VERIFY_SPIN_LIMIT spins.
    """
    start = time.monotonic()
    entries = corpus if corpus is not None else default_corpus()
    for name, g in entries:
        if g.n > VERIFY_SPIN_LIMIT:
            raise CapacityError(
                f"verify of {name} needs n <= {VERIFY_SPIN_LIMIT} spins "
                f"(about seven dense 2^n x 2^n arrays), got n={g.n}"
            )
    results = [
        r for i, (name, g) in enumerate(entries)
        for r in _graph_checks(i, name, g, seed, random_states)
    ]
    results += check_named_isomorphisms()
    return VerificationReport(results, time.monotonic() - start)
