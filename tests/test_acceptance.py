"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with pytest -s or in captured
output).  The corpus is the built-in one: paths n=2..8, cycles 3..7,
complete graphs 2..6, five seeded G(6, 1/2) draws.
"""

import itertools
import math
import time

import numpy as np
import pytest

from spinwedge import (
    ModelSpec,
    adjacency,
    alt_delta_oracle,
    basis_states,
    block_hamiltonian,
    build_wedge_graph,
    complete_graph,
    connected_components,
    eigh,
    evolve_subset,
    full_hamiltonian,
    johnson_spectrum,
    lift_eigenvector,
    path_eigenvector,
    path_graph,
    path_spectrum,
    rank_subset,
    signed_matrix,
    spectrum_gap,
    subset_sums,
    unrank_subset,
    wedge_adjacency,
    wedge_laplacian,
    xy_path_spectrum,
)
from spinwedge import cli
from spinwedge.verify import DYNAMICS_TIMES, FIELD_VALUES, Operator, check_dynamics, default_corpus, sector_decompositions

TOL = 1e-9


@pytest.fixture(scope="module")
def corpus():
    return default_corpus()


@pytest.fixture(scope="module")
def wedges(corpus):
    return {name: {k: build_wedge_graph(g, k) for k in range(g.n + 1)} for name, g in corpus}


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")
    assert ok, detail


def _bitwise_block(g, k, spec):
    """Sector matrix cut from the full hamiltonian, which is built by bit
    operations, at the weight-k bitmasks."""
    states = basis_states(g.n, k)
    return full_hamiltonian(g, spec)[np.ix_(states, states)]


def _sector_agreement(corpus, wedges, spec, tol):
    """Max spectral gap of: bitwise sector vs wedge matrix, and sector union
    vs the full 2^n oracle."""
    worst = 0.0
    for name, g in corpus:
        union = []
        for k in range(g.n + 1):
            w = wedges[name][k]
            target = wedge_adjacency(w) if spec.is_xy else wedge_laplacian(w)
            bit_vals = np.linalg.eigvalsh(_bitwise_block(g, k, spec))
            gap = spectrum_gap(bit_vals, np.linalg.eigvalsh(target))
            if gap > tol:
                return gap, f"{name} k={k}"
            worst = max(worst, gap)
            union.extend(bit_vals)
        gap = spectrum_gap(union, np.linalg.eigvalsh(full_hamiltonian(g, spec)))
        if gap > tol:
            return gap, name
        worst = max(worst, gap)
    return worst, ""


def test_criterion_01_block_equivalence_xy(corpus, wedges):
    start = time.monotonic()
    worst, where = _sector_agreement(corpus, wedges, ModelSpec("xy"), TOL)
    elapsed = time.monotonic() - start
    ok = worst <= TOL and elapsed < 120.0
    _report(1, ok, f"XY sector==wedge adjacency and union==2^n oracle; max gap {worst:.2e}, {elapsed:.1f}s {where}")


def test_criterion_02_block_equivalence_heisenberg(corpus, wedges):
    worst, where = _sector_agreement(corpus, wedges, ModelSpec("heisenberg"), TOL)
    ok = worst <= TOL
    kernel_ok = True
    min_eig = 0.0
    for name, g in corpus:
        for k in range(g.n + 1):
            w = wedges[name][k]
            vals = np.linalg.eigvalsh(wedge_laplacian(w))
            min_eig = min(min_eig, float(vals.min()))
            zeros = int(np.sum(np.abs(vals) <= TOL))
            if zeros != connected_components(w.skeleton()):
                kernel_ok = False
                where = f"{name} k={k} kernel"
    ok = ok and min_eig >= -TOL and kernel_ok
    _report(2, ok, f"Heisenberg sectors==wedge laplacian, PSD (min {min_eig:.2e}), kernel==components {where}")


def test_criterion_03_signed_matrix_vs_projector(corpus, wedges):
    worst = 0.0
    where = ""
    for name, g in corpus:
        if g.n > 6:
            continue
        for k in range(min(g.n, 3) + 1):
            diff = float(np.max(np.abs(signed_matrix(wedges[name][k]) - alt_delta_oracle(g, k))))
            if diff > worst:
                worst, where = diff, f"{name} k={k}"
    _report(3, worst == 0.0, f"signed matrix == Alt projector oracle exactly (max int diff {worst:g}) {where}")


def test_criterion_04_path_closed_forms():
    worst = 0.0
    for n in range(2, 11):
        g = path_graph(n)
        a = adjacency(g)
        worst = max(worst, spectrum_gap(path_spectrum(n), np.linalg.eigvalsh(a)))
        for j in range(n):
            v = path_eigenvector(n, j)
            lam = -2.0 * math.cos(math.pi * (j + 1) / (n + 1))
            worst = max(worst, float(np.linalg.norm(a @ v - lam * v)))
        base = eigh(a)
        for k in range(n + 1):
            w = build_wedge_graph(g, k)
            worst = max(worst, spectrum_gap(xy_path_spectrum(n, k), np.linalg.eigvalsh(wedge_adjacency(w))))
            c = signed_matrix(w)
            lifted = lift_eigenvector(base, list(itertools.combinations(range(n), k)))
            residual = np.linalg.norm(c @ lifted.vectors - lifted.vectors * lifted.values, axis=0)
            worst = max(worst, float(residual.max()))
    _report(4, worst <= TOL, f"path spectra, eigenvectors, sector sums, lifted vectors for n<=10; max err {worst:.2e}")


def test_criterion_05_johnson_and_complete_graph():
    worst = 0.0
    for n in range(2, 9):
        g = complete_graph(n)
        for k in range(n + 1):
            vals = np.linalg.eigvalsh(wedge_adjacency(build_wedge_graph(g, k)))
            worst = max(worst, spectrum_gap(johnson_spectrum(n, k), vals))
        allowed = {j * (n + 1 - j) for j in range(n + 1)}
        for v in np.linalg.eigvalsh(full_hamiltonian(g, ModelSpec("heisenberg"))):
            worst = max(worst, min(abs(v - a) for a in allowed))
    notes = []
    for n in (2, 4, 6, 8):
        e0 = float(np.linalg.eigvalsh(full_hamiltonian(complete_graph(n), ModelSpec("xy"))).min())
        worst = max(worst, abs(e0 - (-n / 2)))
    for n in (3, 5, 7):
        e0 = float(np.linalg.eigvalsh(full_hamiltonian(complete_graph(n), ModelSpec("xy"))).min())
        notes.append(f"n={n}: E0={e0:.6f} (expected {-(n - 1) / 2})")
    _report(5, worst <= TOL, f"Johnson formula n<=8, Heisenberg value set, even E0=-n/2; max err {worst:.2e}; odd-n minima recorded: {'; '.join(notes)}")


def test_criterion_06_lift_spectral_theorem(corpus, wedges):
    worst = 0.0
    where = ""
    for name, g in corpus:
        base = eigh(adjacency(g))
        for k in range(g.n + 1):
            gap = spectrum_gap(subset_sums(base.values, k), np.linalg.eigvalsh(signed_matrix(wedges[name][k])))
            if gap > worst:
                worst, where = gap, f"{name} k={k}"
    # The signed and unsigned spectra provably differ on the 2nd power of K_4.
    w42 = build_wedge_graph(complete_graph(4), 2)
    differs = spectrum_gap(np.linalg.eigvalsh(signed_matrix(w42)), np.linalg.eigvalsh(wedge_adjacency(w42))) > TOL
    ok = worst <= TOL and differs
    _report(6, ok, f"eigenvalue sums == signed spectrum (max gap {worst:.2e} {where}); K4 k=2 signed!=unsigned: {differs}")


def _mapped_edges(w, image):
    return sorted(tuple(sorted((image[a], image[b]))) for a, b, _ in w.signed_edges)


def test_criterion_07_structural_isomorphisms(corpus, wedges):
    """The stated maps, hop by hop: S -> V \\ S from power k onto power n-k,
    and S -> its one left-out vertex from power n-1 onto the base graph."""
    bad = []
    for name, g in corpus:
        for k in range(g.n // 2 + 1):
            complement = [
                rank_subset(sorted(set(range(g.n)) - set(unrank_subset(r, g.n, k))), g.n)
                for r in range(math.comb(g.n, k))
            ]
            target = [(a, b) for a, b, _ in wedges[name][g.n - k].signed_edges]
            if _mapped_edges(wedges[name][k], complement) != target:
                bad.append(f"{name} k={k}")
    for g, label in ((path_graph(6), "wedge^5 path:6"), (complete_graph(4), "wedge^3 complete:4")):
        left_out = [(set(range(g.n)) - set(unrank_subset(r, g.n, g.n - 1))).pop() for r in range(g.n)]
        if _mapped_edges(build_wedge_graph(g, g.n - 1), left_out) != list(g.edges):
            bad.append(label)
    _report(7, not bad, f"complement isomorphisms on full corpus plus the two named equivalences {bad or ''}")


def test_criterion_08_magnetic_field_shift(corpus):
    worst = 0.0
    for name, g in corpus:
        for model in ("xy", "heisenberg"):
            for k in range(g.n + 1):
                dec0 = eigh(block_hamiltonian(g, k, ModelSpec(model)))
                for b in FIELD_VALUES:
                    hb = block_hamiltonian(g, k, ModelSpec(model, b))
                    shift = b * (g.n - 2 * k)
                    worst = max(worst, float(np.max(np.abs(np.linalg.eigvalsh(hb) - (dec0.values + shift)))))
                    resid = np.linalg.norm(hb @ dec0.vectors - dec0.vectors * (dec0.values + shift), axis=0)
                    worst = max(worst, float(resid.max()))
    _report(8, worst <= TOL, f"field B in {FIELD_VALUES} shifts sector k by B(n-2k), eigenvectors fixed; max err {worst:.2e}")


def test_criterion_09_dynamics(corpus, wedges):
    worst = 0.0
    for i, (name, g) in enumerate(corpus):
        sectors = sector_decompositions(g, wedges[name])
        for model in ("xy", "heisenberg"):
            rng = np.random.default_rng([0, i])
            h = full_hamiltonian(g, ModelSpec(model))
            full = Operator(h, eigh(h))
            for r in check_dynamics(name, g, ModelSpec(model), sectors, full, rng, 20, DYNAMICS_TIMES, TOL):
                if not r.passed:
                    worst = math.inf
                if r.check.startswith("dynamics_block"):
                    worst = max(worst, r.max_error)
    p2 = abs(evolve_subset(path_graph(2), ModelSpec("xy"), (0,), [math.pi / 2])[0][0, 1]) ** 2
    p3 = abs(evolve_subset(path_graph(3), ModelSpec("xy"), (0,), [math.pi / math.sqrt(2)])[0][0, 2]) ** 2
    worst = max(worst, abs(p2 - 1.0), abs(p3 - 1.0))
    _report(9, worst <= TOL, f"block vs full dynamics on 20 seeded states x t={DYNAMICS_TIMES}; perfect transfers; max err {worst:.2e}")


def test_criterion_10_verify_cli(capsys, monkeypatch):
    start = time.monotonic()
    code = cli.main(["verify"])
    elapsed = time.monotonic() - start
    out = capsys.readouterr().out
    ok = code == 0 and elapsed < 300.0 and "0 failed" in out

    # Inject a single sign corruption and require exit code 1.
    from spinwedge import WedgeGraph, verify as verify_mod

    real_builder = build_wedge_graph
    target = path_graph(5)

    def corrupted(g, k):
        w = real_builder(g, k)
        a, b, s = w.hops
        if g == target and k == 2 and len(a):
            return WedgeGraph(w.base, w.k, w.num_vertices, (a, b, np.concatenate(([-s[0]], s[1:]))))
        return w

    monkeypatch.setattr(verify_mod, "build_wedge_graph", corrupted)
    code_bad = cli.main(["verify"])
    capsys.readouterr()
    ok = ok and code_bad == 1
    _report(10, ok, f"verify exit 0 in {elapsed:.1f}s (<300s); single sign corruption exits {code_bad} (want 1)")
