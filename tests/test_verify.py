import hashlib
import math
from collections import Counter

import numpy as np
import pytest

import spinwedge.verify as verify_mod
from spinwedge import (
    WedgeGraph,
    build_wedge_graph,
    complete_graph,
    cycle_graph,
    erdos_renyi_graph,
    path_graph,
    wedge_degrees,
)
from spinwedge.verify import (
    CheckResult,
    check_complement_isomorphism,
    check_johnson_family,
    check_named_isomorphisms,
    check_path_closed_form,
    default_corpus,
    run_verification,
)

SMALL_CORPUS = [
    ("path:4", path_graph(4)),
    ("cycle:4", cycle_graph(4)),
    ("complete:3", complete_graph(3)),
    ("er:5:0.5:0", erdos_renyi_graph(5, 0.5, 0)),
]


def corrupting_builder(target_graph, target_k, edge_index=0):
    """Flip one signed edge of one specific wedge power."""

    def build(g, k):
        w = build_wedge_graph(g, k)
        a, b, s = w.hops
        if g == target_graph and k == target_k and len(a):
            s = s.copy()
            s[edge_index] = -s[edge_index]
            return WedgeGraph(w.base, w.k, w.num_vertices, (a, b, s))
        return w

    return build


def relabelling_builder(target_graph, target_k):
    """Shift every rank of one wedge power by one, cyclically: the same graph
    under another vertex labelling, hence the same spectrum."""

    def build(g, k):
        w = build_wedge_graph(g, k)
        if g == target_graph and k == target_k:
            m = w.num_vertices
            a, b, s = w.hops
            lo, hi = np.minimum((a + 1) % m, (b + 1) % m), np.maximum((a + 1) % m, (b + 1) % m)
            order = np.lexsort((hi, lo))
            return WedgeGraph(w.base, w.k, m, (lo[order], hi[order], s[order]))
        return w

    return build


def dropping_builder(target_graph, target_k):
    """Drop the first hop of one wedge power."""

    def build(g, k):
        w = build_wedge_graph(g, k)
        if g == target_graph and k == target_k:
            return WedgeGraph(w.base, w.k, w.num_vertices, tuple(x[1:] for x in w.hops))
        return w

    return build


# sha256 of the "check subject" lines of the default run, one per check.
CHECK_LIST_DIGEST = "2cf5d83f15eeb4d69ec893f707d1a704070ed7a325f711e01d0fe7a047c8a6ff"


def test_default_corpus_composition():
    names = [name for name, _ in default_corpus()]
    assert names[:7] == [f"path:{n}" for n in range(2, 9)]
    assert "cycle:7" in names and "complete:6" in names and "er:6:0.5:4" in names
    assert len(names) == 7 + 5 + 5 + 5


def test_small_corpus_passes():
    report = run_verification(corpus=SMALL_CORPUS, random_states=4)
    assert report.passed, report.first_failure
    assert report.first_failure is None
    assert any("verification:" in line for line in report.lines())


@pytest.mark.parametrize(
    "target,k",
    [
        (path_graph(4), 2),
        (complete_graph(3), 1),
        (erdos_renyi_graph(5, 0.5, 0), 3),
    ],
)
def test_single_sign_corruption_is_detected(target, k):
    report = run_verification(
        corpus=SMALL_CORPUS,
        random_states=2,
        wedge_builder=corrupting_builder(target, k),
    )
    assert not report.passed
    failing = {r.check for r in report.results if not r.passed}
    # The lift residual check covers every graph; the projector oracle also
    # fires at these sizes.
    assert failing & {"lift_eigenvector_residual", "signed_vs_projector_oracle", "lift_spectrum_vs_signed"}


def test_first_failure_names_graph_k_and_check():
    report = run_verification(
        corpus=SMALL_CORPUS,
        random_states=2,
        wedge_builder=corrupting_builder(path_graph(4), 2),
    )
    f = report.first_failure
    assert f is not None
    assert f.subject == "path:4"
    summary = report.lines()[-1]
    assert "first failure" in summary and "path:4" in summary


def test_check_result_line_format():
    line = CheckResult("some_check", "path:4", 1.5e-12, 1e-9, True, k=2).line()
    assert line.startswith("[PASS]") and "path:4 k=2" in line and "1.500e-12" in line


def test_path_closed_form_standalone():
    results = check_path_closed_form(9, 1e-9)
    assert all(r.passed for r in results)


def test_complement_isomorphism_check():
    g = cycle_graph(5)
    wedges = {k: build_wedge_graph(g, k) for k in range(6)}
    assert check_complement_isomorphism("cycle:5", g, wedges).passed
    # A cyclic relabelling of power 3 keeps it a path on 4 ranks, isomorphic
    # to power 1, but puts its hops on the wrong subsets.
    g = path_graph(4)
    relabel = relabelling_builder(g, 3)
    r = check_complement_isomorphism("path:4", g, {k: relabel(g, k) for k in range(5)})
    assert not r.passed and r.k == 1


@pytest.mark.parametrize(
    "g,k,bad_k",
    [
        (cycle_graph(5), 3, 2),
        (complete_graph(4), 2, 2),
        (erdos_renyi_graph(6, 0.5, 1), 4, 2),
        (path_graph(7), 5, 2),
        # Rotating the ranks of C_5's first power is an automorphism: same hops.
        (cycle_graph(5), 1, None),
    ],
)
def test_complement_map_sees_relabelled_powers(g, k, bad_k):
    relabel = relabelling_builder(g, k)
    r = check_complement_isomorphism("g", g, {j: relabel(g, j) for j in range(g.n + 1)})
    assert r.passed == (bad_k is None) and r.k == bad_k


def test_named_isomorphisms_follow_the_left_out_vertex():
    assert all(r.passed for r in check_named_isomorphisms())
    by_check = {r.check: r for r in check_named_isomorphisms(relabelling_builder(path_graph(6), 5))}
    assert not by_check["named_isomorphism_k5"].passed and by_check["named_isomorphism_k3"].passed


def test_named_isomorphism_fails_on_a_dropped_hop():
    # Any relabelling of K_4 is K_4 again; only a missing hop shows.
    by_check = {r.check: r for r in check_named_isomorphisms(dropping_builder(complete_graph(4), 3))}
    assert not by_check["named_isomorphism_k3"].passed and by_check["named_isomorphism_k5"].passed


def test_check_list_is_pinned():
    report = run_verification()
    assert report.passed, report.first_failure
    lines = "\n".join(f"{r.check} {r.subject}" for r in report.results)
    assert len(report.results) == 487
    assert hashlib.sha256(lines.encode()).hexdigest() == CHECK_LIST_DIGEST


def test_relabelled_isospectral_sector_fails_sector_vs_full():
    target = cycle_graph(4)
    report = run_verification(corpus=SMALL_CORPUS, random_states=2, wedge_builder=relabelling_builder(target, 2))
    by_check = {(r.check, r.subject): r for r in report.results}
    for model in ("xy", "heisenberg"):
        r = by_check[(f"sector_vs_full_{model}", "cycle:4")]
        assert not r.passed and r.k == 2 and "k=[2]" in r.note
        assert by_check[(f"sector_union_{model}", "cycle:4")].passed
        assert by_check[(f"sector_vs_full_{model}", "path:4")].passed
        # The full space evolves every sector's states superposed; the wrong
        # sector still shows.
        r = by_check[(f"dynamics_block_vs_full_{model}", "cycle:4")]
        assert not r.passed and r.k == 2
    assert len(report.results) == len(run_verification(corpus=SMALL_CORPUS, random_states=2).results)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_complete_ground_energy_checked_for_every_n(n, monkeypatch):
    by_check = {r.check: r for r in check_johnson_family(n, 1e-9)}
    assert by_check["xy_complete_ground_energy"].passed

    real = verify_mod.full_hamiltonian

    def shifted(g, spec):
        h = real(g, spec)
        return h + 0.5 * np.eye(len(h)) if spec.is_xy else h

    monkeypatch.setattr(verify_mod, "full_hamiltonian", shifted)
    by_check = {r.check: r for r in check_johnson_family(n, 1e-9)}
    assert not by_check["xy_complete_ground_energy"].passed
    assert by_check["heis_complete_value_set"].passed


def test_each_wedge_power_built_once_per_graph(monkeypatch):
    import spinwedge.spins as spins_mod

    builds = Counter()

    def counting(g, k):
        builds[(g, k)] += 1
        return build_wedge_graph(g, k)

    for module in (verify_mod, spins_mod):
        monkeypatch.setattr(module, "build_wedge_graph", counting)
    g = cycle_graph(5)
    report = run_verification(corpus=[("cycle:5", g)], random_states=2)
    assert report.passed
    assert {k: builds[(g, k)] for k in range(g.n + 1)} == {k: 1 for k in range(g.n + 1)}
    assert max(builds.values()) == 1


def test_each_operator_built_once_per_graph(monkeypatch):
    sectors, fulls = Counter(), Counter()
    real_block, real_full = verify_mod.block_hamiltonian, verify_mod.full_hamiltonian

    def counting_block(g, k, spec, wedge=None):
        sectors[(spec, k)] += 1
        return real_block(g, k, spec, wedge)

    def counting_full(g, spec):
        fulls[spec] += 1
        return real_full(g, spec)

    monkeypatch.setattr(verify_mod, "block_hamiltonian", counting_block)
    monkeypatch.setattr(verify_mod, "full_hamiltonian", counting_full)
    g = cycle_graph(5)
    assert run_verification(corpus=[("cycle:5", g)], random_states=2).passed
    models = [verify_mod.ModelSpec("xy"), verify_mod.ModelSpec("heisenberg")]
    assert {key: c for key, c in sectors.items() if key[0].field_b == 0.0} == {
        (m, k): 1 for m in models for k in range(g.n + 1)
    }
    # field_shift builds each field's sector itself, once per field value.
    assert sum(sectors.values()) == 2 * (g.n + 1) * (1 + len(verify_mod.FIELD_VALUES))
    assert fulls == {m: 1 for m in models}


def test_heisenberg_checks_read_the_shared_decompositions(monkeypatch):
    g = cycle_graph(5)
    wedges = {k: build_wedge_graph(g, k) for k in range(g.n + 1)}
    sectors = verify_mod.sector_decompositions(g, wedges)
    heisenberg = verify_mod.ModelSpec("heisenberg")
    h = verify_mod.full_hamiltonian(g, heisenberg)
    full = verify_mod.Operator(h, verify_mod.eigh(h))
    calls = Counter()

    def counting(real):
        def solve(m, *args, **kwargs):
            calls[len(m)] += 1
            return real(m, *args, **kwargs)

        return solve

    for solver in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, solver, counting(getattr(np.linalg, solver)))
    assert verify_mod.check_heis_psd_kernel("cycle:5", g, wedges, sectors, 1e-9).passed
    assert not calls
    assert all(r.passed for r in verify_mod.check_sector_spectra("cycle:5", g, heisenberg, sectors, full, 1e-9))
    # Only the n+1 projected blocks of the oracle side; never the 2^n matrix.
    assert sum(calls.values()) == g.n + 1 and calls[1 << g.n] == 0


def test_a_faulty_laplacian_fails_the_heisenberg_checks(monkeypatch):
    # The shared decompositions come from the same sector operator, so a
    # fault there must still show: a signless laplacian (+1 on the hops) has
    # no zero mode on the odd cycle's first power.
    import spinwedge.spins as spins_mod

    def signless(w):
        return spins_mod.wedge_adjacency(w) + np.diag(wedge_degrees(w))

    monkeypatch.setattr(spins_mod, "wedge_laplacian", signless)
    report = run_verification(corpus=[("cycle:5", cycle_graph(5))], random_states=2)
    by_check = {r.check: r for r in report.results}
    for check in ("heis_psd_kernel", "sector_vs_full_heisenberg"):
        assert not by_check[check].passed and by_check[check].k == 1, check
    # A failing spectral check reports the size of the mismatch.
    union = by_check["sector_union_heisenberg"]
    assert not union.passed and union.tol < union.max_error < math.inf
    assert by_check["sector_vs_full_xy"].passed
