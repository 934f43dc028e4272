"""Built-in verification corpus and every cross-check the package makes.

The corpus covers the two solved families (paths, complete graphs), cycles,
and a handful of seeded random graphs.  Checks pit independent computation
routes against each other: bitwise sector hamiltonians against the full
2^n oracle, the combinatorial signed wedge construction against the literal
tensor-space projector, closed forms against dense diagonalization, and
sector dynamics against full-space dynamics.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .dynamics import lift_propagate, propagate
from .graphs import (
    Graph,
    adjacency,
    complete_graph,
    connected_components,
    cycle_graph,
    erdos_renyi_graph,
    path_graph,
)
from .spectra import (
    DEFAULT_TOL,
    EigenDecomposition,
    UNITARITY_TOL,
    eigh,
    johnson_spectrum,
    lift_eigenvector,
    path_eigenvector,
    path_spectrum,
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
)
from .wedge import (
    alt_delta_oracle,
    build_wedge_graph,
    lift_route,
    signed_matrix,
    subset_table,
    wedge_adjacency,
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

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        where = self.subject + (f" k={self.k}" if self.k is not None else "")
        text = f"[{status}] {self.check:<26} {where:<18} max_err={self.max_error:9.3e}  tol={self.tol:.1e}"
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
        out = [r.line() for r in self.results]
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
    """Paths n=2..8, cycles 3..7, complete graphs 2..6, five seeded G(6, 1/2)."""
    entries: list[tuple[str, Graph]] = []
    for n in range(2, 9):
        entries.append((f"path:{n}", path_graph(n)))
    for n in range(3, 8):
        entries.append((f"cycle:{n}", cycle_graph(n)))
    for n in range(2, 7):
        entries.append((f"complete:{n}", complete_graph(n)))
    for s in range(5):
        entries.append((f"er:6:0.5:{s}", erdos_renyi_graph(6, 0.5, s)))
    return entries


def _result(check, subject, err, tol, k=None, note="") -> CheckResult:
    return CheckResult(check, subject, float(err), tol, bool(err <= tol), k, note)


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
    return {(m.model, k): _operator(block_hamiltonian(g, k, m, w)) for m in _MODELS for k, w in wedges.items()}


def check_structure(name: str, g: Graph, wedges: dict) -> list[CheckResult]:
    """Dimensions, handshake sums, k=1 identity, one-subset end sectors.

    The handshake count is independent of the wedge builder: twice the hops
    of wedge power k must equal the summed cut sizes of the weight-k
    occupation bitmasks of the base graph.
    """
    bits = (np.arange(1 << g.n)[:, None] >> np.arange(g.n)) & 1
    cuts = sum((bits[:, u] ^ bits[:, v] for u, v in g.edges), np.zeros(1 << g.n, dtype=np.int64))
    cut_sums = np.bincount(bits.sum(axis=1), weights=cuts, minlength=g.n + 1)
    results = []
    worst = 0.0
    bad_k = None
    for k, w in wedges.items():
        if w.num_vertices != math.comb(g.n, k) or 2 * len(w.hops[0]) != cut_sums[k]:
            worst = max(worst, 1.0)
            bad_k = k
    results.append(_result("wedge_dimensions", name, worst, 0.0, k=bad_k))

    w1 = wedges.get(1)
    if w1 is not None:
        same = w1.skeleton() == g and bool(np.all(w1.hops[2] == 1))
        results.append(_result("wedge_k1_identity", name, 0.0 if same else 1.0, 0.0, k=1))

    wn = wedges[g.n]
    top_ok = wn.num_vertices == 1 and len(wn.hops[0]) == 0
    results.append(_result("wedge_full_tuple", name, 0.0 if top_ok else 1.0, 0.0, k=g.n))

    if name.startswith("path:"):
        neg_counts = {k: int(np.count_nonzero(w.hops[2] < 0)) for k, w in wedges.items()}
        neg = sum(neg_counts.values())
        first_bad = next((k for k, c in neg_counts.items() if c), None)
        results.append(_result("path_all_positive_signs", name, float(neg), 0.0, k=first_bad))
    if name.startswith("complete:"):
        worst = 0.0
        for k, w in wedges.items():
            want = k * (g.n - k)
            d = wedge_adjacency(w).sum(axis=1)
            if d.size and (d != want).any():
                worst = 1.0
        results.append(_result("johnson_regular_degree", name, worst, 0.0))
    return results


def check_sector_spectra(name: str, g: Graph, model: ModelSpec, sectors: dict, full: Operator, tol: float) -> list[CheckResult]:
    """Sector matrices against the full-space oracle: spectra within tol, and
    entries exactly equal to the full hamiltonian restricted to the sector's
    basis states, which also catches a relabelled but isospectral sector.

    ``sectors`` is :func:`sector_decompositions` of g and ``full`` the 2^n
    hamiltonian of ``model`` with its eigh; the union of the sector spectra
    is compared with the latter's eigenvalues."""
    try:
        full_blocks = project_full_to_blocks(full.matrix)
    except RuntimeError as exc:
        return [_result(f"sector_vs_full_{model.model}", name, math.inf, tol, note=str(exc))]
    worst = 0.0
    bad_k = None
    mismatched = []
    for k in range(g.n + 1):
        sector = sectors[(model.model, k)]
        states = basis_states(g.n, k)
        same = np.array_equal(sector.matrix, full.matrix[np.ix_(states, states)])
        if not same:
            mismatched.append(k)
        err = spectrum_gap(sector.dec.values, full_blocks[k]) if same else math.inf
        if err > worst:
            worst, bad_k = err, k
    union = np.concatenate([sectors[(model.model, k)].dec.values for k in range(g.n + 1)])
    union_err = spectrum_gap(union, full.dec.values)
    note = f"entries differ from the full hamiltonian at k={mismatched}" if mismatched else ""
    return [
        _result(f"sector_vs_full_{model.model}", name, worst, tol, k=bad_k, note=note),
        _result(f"sector_union_{model.model}", name, union_err, tol),
    ]


def check_signed_oracle(name: str, g: Graph, wedges: dict) -> CheckResult | None:
    """Combinatorial signed matrix against the literal projector construction."""
    if g.n > ORACLE_MAX_N:
        return None
    worst = 0.0
    bad_k = None
    for k in range(min(g.n, ORACLE_MAX_K) + 1):
        diff = np.max(np.abs(signed_matrix(wedges[k]) - alt_delta_oracle(g, k))) if wedges[k].num_vertices else 0.0
        if diff > worst:
            worst, bad_k = float(diff), k
    return _result("signed_vs_projector_oracle", name, worst, 0.0, k=bad_k)


def check_lift(name: str, g: Graph, wedges: dict, tol: float) -> list[CheckResult]:
    """Sum-lift of base eigenvalues and determinant eigenvectors against the
    signed matrix of every wedge power."""
    base = eigh(adjacency(g))
    worst_gap, gap_k = 0.0, None
    worst_res, res_k = 0.0, None
    c_equals_a = True
    for k, w in wedges.items():
        c = signed_matrix(w)
        if np.any(c < 0):
            c_equals_a = False
        gap = spectrum_gap(subset_sums(base.values, k), np.linalg.eigvalsh(c))
        if gap > worst_gap:
            worst_gap, gap_k = gap, k
        lifted = lift_eigenvector(base, subset_table(g.n, k))
        res = float(np.max(np.linalg.norm(c @ lifted.vectors - lifted.vectors * lifted.values, axis=0)))
        if res > worst_res:
            worst_res, res_k = res, k
    return [
        _result("lift_spectrum_vs_signed", name, worst_gap, tol, k=gap_k),
        _result("lift_eigenvector_residual", name, worst_res, tol, k=res_k,
                note=f"signed equals unsigned: {'yes' if c_equals_a else 'no'}"),
    ]


def _determinant_formula(g: Graph, spec: ModelSpec, route, start_rank: int, times, base) -> np.ndarray:
    """exp(-i t H)[S, S0] on XY sector route.k as the lift states it: D[S] D[S0]
    det exp(-i sigma A t)[S, S0] on side h by LAPACK determinants, relabelled
    when h != k, times the field phase.  The reference for the minors kernel
    and for the conjugation that :func:`lift_propagate` uses when sigma = -1."""
    n, k, h = g.n, route.k, route.h
    t = np.asarray(times, dtype=float)
    phases = np.exp(-1j * route.sigma * np.multiply.outer(t, base.values))
    u1 = base.vectors @ (phases[:, :, None] * base.vectors.T)
    rows = subset_table(n, h)
    s0 = start_rank if h == k else len(rows) - 1 - start_rank
    amplitudes = np.linalg.det(u1[:, rows[:, :, None], rows[s0]]) * (route.signs * route.signs[s0])
    if h != k:
        amplitudes = amplitudes[:, ::-1]
    return amplitudes * np.exp(-1j * spec.field_b * (n - 2 * k) * t)[:, None]


def check_free_fermion_route(name: str, g: Graph, wedges: dict, sectors: dict, times, tol: float) -> CheckResult:
    """Every XY sector on the lift route against the dense route.

    For each: D . C_h . D == sigma A_h exactly on the built side h, the j-sums
    of the base spectrum equal the dense sector spectrum, and the lift
    amplitudes from one basis state equal both dense propagation and the
    determinant formula at ``times``, all with a field so that the sector
    phase counts: the dense reference is the field-free decomposition (from
    ``sectors``, see :func:`sector_decompositions`) shifted by B*(n-2k).
    Sectors k in {0, 1, n-1, n}, and every sector of a path, must lift.
    """
    spec = ModelSpec("xy", FIELD_VALUES[0])
    base = eigh(adjacency(g))
    worst, bad_k = 0.0, None
    lifted, unrouted = [], []
    for k in wedges:
        route = lift_route(g, k, wedges.__getitem__)
        if route is None:
            if name.startswith("path:") or k in (0, 1, g.n - 1, g.n):
                unrouted.append(k)
                worst, bad_k = math.inf, k
            continue
        lifted.append(k)
        d, wh = route.signs, wedges[route.h]
        exact = np.array_equal(d[:, None] * signed_matrix(wh) * d, route.sigma * wedge_adjacency(wh))
        shift = spec.field_b * (g.n - 2 * k)
        dec0 = sectors[("xy", k)].dec
        dec = EigenDecomposition(dec0.values + shift, dec0.vectors)
        gap = spectrum_gap(subset_sums(base.values, route.j) + shift, dec.values)
        r0 = dec.dim // 2
        dense = propagate(dec, np.eye(dec.dim)[:, r0], times)
        lifted_amps = lift_propagate(g, spec, route, r0, times, base)
        formula = _determinant_formula(g, spec, route, r0, times, base)
        amp_err = float(max(np.max(np.abs(lifted_amps - dense)), np.max(np.abs(lifted_amps - formula))))
        err = max(gap, amp_err) if exact else math.inf
        if err > worst:
            worst, bad_k = err, k
    note = f"lift k={lifted}" + (f"; must lift but dense: k={unrouted}" if unrouted else "")
    return _result("free_fermion_route", name, worst, tol, k=bad_k, note=note)


def check_heis_psd_kernel(name: str, g: Graph, wedges: dict, sectors: dict, tol: float) -> CheckResult:
    """Heisenberg sectors are positive semidefinite with one zero mode per
    connected component of the wedge power.

    Without a field the Heisenberg sector is the wedge laplacian, so its
    eigenvalues come from ``sectors`` (see :func:`sector_decompositions`)."""
    worst = 0.0
    bad_k = None
    for k, w in wedges.items():
        vals = sectors[("heisenberg", k)].dec.values
        neg = max(0.0, float(-vals.min())) if vals.size else 0.0
        zeros = int(np.sum(np.abs(vals) <= tol))
        comps = connected_components(w.skeleton())
        err = neg if zeros == comps else math.inf
        if err > worst:
            worst, bad_k = err, k
    return _result("heis_psd_kernel", name, worst, tol, k=bad_k)


def check_field_shift(name: str, g: Graph, wedges: dict, sectors: dict, tol: float) -> CheckResult:
    """Adding a field shifts sector eigenvalues by B*(n-2k) and keeps eigenvectors.

    The field-free decompositions come from ``sectors`` (see
    :func:`sector_decompositions`); each field builds its sector anew.
    """
    worst = 0.0
    bad_k = None
    for model_name in ("xy", "heisenberg"):
        for k, w in wedges.items():
            dec0 = sectors[(model_name, k)].dec
            for b in FIELD_VALUES:
                hb = block_hamiltonian(g, k, ModelSpec(model_name, b), w)
                shift = b * (g.n - 2 * k)
                gap = float(np.max(np.abs(np.linalg.eigvalsh(hb) - (dec0.values + shift))))
                resid = float(
                    np.max(np.linalg.norm(hb @ dec0.vectors - dec0.vectors * (dec0.values + shift), axis=0))
                )
                err = max(gap, resid)
                if err > worst:
                    worst, bad_k = err, k
    return _result("field_shift", name, worst, tol, k=bad_k)


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
    tol: float,
) -> list[CheckResult]:
    """Sector evolution against full-space evolution for random sector states.

    ``sectors`` and ``full`` are as in :func:`check_sector_spectra`.  Per
    sector, all states are propagated to all times in one call.  The full
    space evolves the i-th state of every sector at once, as one sum in
    column i, by one :func:`propagate` of ``full``: the full hamiltonian
    conserves the excitation number, so the rows of sector k of the result
    are the evolution of sector k's state.
    """
    worst = 0.0
    bad_k = None
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
    for k, idx, zb in blocks:
        dev = float(np.max(np.linalg.norm(zb - evolved[:, idx], axis=1), initial=0.0))
        if dev > worst:
            worst, bad_k = dev, k
    return [
        _result(f"dynamics_block_vs_full_{model.model}", name, worst, tol, k=bad_k),
        _result(f"dynamics_unitarity_{model.model}", name, worst_norm, UNITARITY_TOL),
        _result(f"dynamics_energy_{model.model}", name, worst_energy, tol),
    ]


def check_path_closed_form(n: int, tol: float, builder=None) -> list[CheckResult]:
    """Cosine spectrum, sine eigenvectors and their sector sums on the path.

    Like every family oracle here, it builds the wedge powers of the
    canonical graph itself, through ``builder``: it does not depend on which
    graph a corpus entry of the same name holds, nor on the wedges that the
    per-graph checks share.
    """
    builder = builder or build_wedge_graph
    name = f"path:{n}"
    g = path_graph(n)
    a = adjacency(g)
    spec_err = spectrum_gap(path_spectrum(n), np.linalg.eigvalsh(a))
    vec_err = 0.0
    for j in range(n):
        v = path_eigenvector(n, j)
        lam = -2.0 * math.cos(math.pi * (j + 1) / (n + 1))
        vec_err = max(vec_err, float(np.linalg.norm(a @ v - lam * v)))
    sum_err, bad_k = 0.0, None
    for k in range(n + 1):
        vals = np.linalg.eigvalsh(wedge_adjacency(builder(g, k)))
        err = spectrum_gap(xy_path_spectrum(n, k), vals)
        if err > sum_err:
            sum_err, bad_k = err, k
    return [
        _result("path_cosine_spectrum", name, spec_err, tol),
        _result("path_sine_eigenvectors", name, vec_err, tol),
        _result("path_sector_sums", name, sum_err, tol, k=bad_k),
    ]


def check_johnson_family(n: int, tol: float, builder=None) -> list[CheckResult]:
    """Johnson closed form, Heisenberg value set, and XY ground energy on K_n.

    The wedge powers are built as in :func:`check_path_closed_form`.
    """
    builder = builder or build_wedge_graph
    name = f"complete:{n}"
    g = complete_graph(n)
    worst, bad_k = 0.0, None
    for k in range(n + 1):
        vals = np.linalg.eigvalsh(wedge_adjacency(builder(g, k)))
        err = spectrum_gap(johnson_spectrum(n, k), vals)
        if err > worst:
            worst, bad_k = err, k
    results = [_result("johnson_formula", name, worst, tol, k=bad_k)]

    allowed = {j * (n + 1 - j) for j in range(n + 1)}
    heis_vals = np.linalg.eigvalsh(full_hamiltonian(g, ModelSpec("heisenberg")))
    heis_err = 0.0
    for v in heis_vals:
        nearest = min(allowed, key=lambda x: abs(x - v))
        heis_err = max(heis_err, abs(v - nearest))
    results.append(_result("heis_complete_value_set", name, heis_err, tol))

    # The lowest Johnson value over all sectors is -floor(n/2), at k = floor(n/2).
    e0 = float(np.linalg.eigvalsh(full_hamiltonian(g, ModelSpec("xy"))).min())
    results.append(_result("xy_complete_ground_energy", name, abs(e0 + n // 2), tol, note=f"E0={e0:.12g}"))
    return results


def check_named_isomorphisms(builder=None) -> list[CheckResult]:
    """The two specific equivalences: the 5th power of the 6-path is the
    6-path, the 3rd power of K_4 is K_4, both under S -> the vertex that S
    leaves out, hop by hop."""
    builder = builder or build_wedge_graph
    out = []
    for label, g, k in (("path:6", path_graph(6), 5), ("complete:4", complete_graph(4), 3)):
        left_out = ((1 << g.n) - 1) ^ basis_states(g.n, k)
        image = np.searchsorted(1 << np.arange(g.n), left_out)
        lo, hi = np.array(g.edges).T
        ok = _carries_hops(builder(g, k), image, lo, hi, g.n)
        out.append(_result(f"named_isomorphism_k{k}", label, 0.0 if ok else 1.0, 0.0, k=k))
    return out


def _graph_checks(index, name, g, tol, seed, n_states, times, builder) -> list[CheckResult]:
    """Every check of one corpus graph.  Its wedge powers, field-free sector
    operators and, one model at a time, its full hamiltonian are built here
    once each and shared by the checks."""
    wedges = {k: builder(g, k) for k in range(g.n + 1)}
    sectors = sector_decompositions(g, wedges)
    rng = np.random.default_rng([seed, index])
    results: list[CheckResult] = []
    results += check_structure(name, g, wedges)
    results += check_lift(name, g, wedges, tol)
    results.append(check_free_fermion_route(name, g, wedges, sectors, times, tol))
    oracle = check_signed_oracle(name, g, wedges)
    if oracle is not None:
        results.append(oracle)
    results.append(check_heis_psd_kernel(name, g, wedges, sectors, tol))
    results.append(check_field_shift(name, g, wedges, sectors, tol))
    results.append(check_complement_isomorphism(name, g, wedges))
    for model in _MODELS:
        full = _operator(full_hamiltonian(g, model))
        results += check_sector_spectra(name, g, model, sectors, full, tol)
        results += check_dynamics(name, g, model, sectors, full, rng, n_states, times, tol)
        del full  # one model's 2^n operator at a time
    family = name.split(":", 1)[0]
    if family == "path":
        results += check_path_closed_form(g.n, tol, builder)
    elif family == "complete":
        results += check_johnson_family(g.n, tol, builder)
    return results


def run_verification(
    tol: float = DEFAULT_TOL,
    seed: int = 0,
    random_states: int = 20,
    times=DYNAMICS_TIMES,
    corpus: list[tuple[str, Graph]] | None = None,
    wedge_builder=None,
) -> VerificationReport:
    """Run every check over the corpus; deterministic for fixed arguments.

    Each graph's wedge powers, sector operators and full hamiltonians are
    built once and shared by all its checks; the path and Johnson family
    oracles build the wedge powers of their canonical graph themselves.  ``wedge_builder`` substitutes every construction
    (fault-injection hook for testing the suite itself).
    """
    start = time.monotonic()
    builder = wedge_builder if wedge_builder is not None else build_wedge_graph
    entries = corpus if corpus is not None else default_corpus()
    results = [
        r for i, (name, g) in enumerate(entries)
        for r in _graph_checks(i, name, g, tol, seed, random_states, times, builder)
    ]
    results += check_named_isomorphisms(builder)
    return VerificationReport(results, time.monotonic() - start)
