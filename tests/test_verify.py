import hashlib
import math
from collections import Counter

import numpy as np
import pytest

import spinwedge.spectra as spectra_mod
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
    check_heis_su2_intertwining,
    check_heis_su2_levels,
    check_johnson_family,
    check_named_isomorphisms,
    check_path_closed_form,
    check_structure,
    default_corpus,
    run_verification,
    sector_decompositions,
)
from spinwedge.spectra import complete_graph_spectra
from spinwedge.wedge import colex_level

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
CHECK_LIST_DIGEST = "ab03758ca45737477447176ecbf18aea08bb36042788a769eaa326cfd857711c"


def test_default_corpus_composition():
    names = [name for name, _ in default_corpus()]
    assert names[:7] == [f"path:{n}" for n in range(2, 9)]
    assert "cycle:7" in names and "complete:6" in names and "er:6:0.5:4" in names
    assert names[-2:] == ["perm:path:7", "perm:cycle:6"]
    assert len(names) == 7 + 5 + 5 + 5 + 2


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
def test_single_sign_corruption_is_detected(target, k, monkeypatch):
    monkeypatch.setattr(verify_mod, "build_wedge_graph", corrupting_builder(target, k))
    report = run_verification(corpus=SMALL_CORPUS, random_states=2)
    assert not report.passed
    failing = {r.check for r in report.results if not r.passed}
    # The lift residual check covers every graph; the projector oracle also
    # fires at these sizes.
    assert failing & {"lift_eigenvector_residual", "signed_vs_projector_oracle", "lift_spectrum_vs_signed"}


def test_first_failure_names_graph_k_and_check(monkeypatch):
    monkeypatch.setattr(verify_mod, "build_wedge_graph", corrupting_builder(path_graph(4), 2))
    report = run_verification(corpus=SMALL_CORPUS, random_states=2)
    f = report.first_failure
    assert f is not None
    assert f.subject == "path:4"
    summary = report.lines()[-1]
    assert "first failure" in summary and "path:4" in summary


def test_check_result_line_format():
    line = CheckResult("some_check", "path:4", 1.5e-12, 1e-9, True, k=2).line()
    assert line.startswith("[PASS]") and "path:4 k=2" in line and "1.500e-12" in line


def test_path_closed_form_standalone():
    results = check_path_closed_form(9)
    assert all(r.passed for r in results)


def _moved_level(values):
    values = np.array(values, dtype=float)
    values[-1] += 0.1
    return values


def _flipped_entry(vector):
    vector = np.array(vector)
    vector[0] = -vector[0]
    return vector


FAMILY_FAULTS = [
    ("path_cosine_spectrum", "path_spectrum", lambda real, n: _moved_level(real(n)), None),
    ("path_sine_eigenvectors", "path_eigenvector", lambda real, n, j: _flipped_entry(real(n, j)), None),
    ("path_sector_sums", "xy_path_spectrum",
     lambda real, n, k: _moved_level(real(n, k)) if k == 2 else real(n, k), 2),
    ("johnson_formula", "complete_sector_spectrum",
     lambda real, n, k, model: _moved_level(real(n, k, model)) if k == 2 else real(n, k, model), 2),
]


@pytest.mark.parametrize("check, name, fault, k", FAMILY_FAULTS, ids=[case[0] for case in FAMILY_FAULTS])
def test_family_check_fails_on_a_faulty_closed_form(check, name, fault, k, monkeypatch):
    # Each family check fails on a fault of the closed form that it reads by
    # its name in the verify module, and names the faulty sector.
    family = check_johnson_family if check == "johnson_formula" else check_path_closed_form
    assert all(r.passed for r in family(5))
    real = getattr(verify_mod, name)
    monkeypatch.setattr(verify_mod, name, lambda *args: fault(real, *args))
    r = {r.check: r for r in family(5)}[check]
    assert not r.passed and r.k == k, r


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


def test_named_isomorphisms_follow_the_left_out_vertex(monkeypatch):
    assert all(r.passed for r in check_named_isomorphisms())
    monkeypatch.setattr(verify_mod, "build_wedge_graph", relabelling_builder(path_graph(6), 5))
    by_check = {r.check: r for r in check_named_isomorphisms()}
    assert not by_check["named_isomorphism_k5"].passed and by_check["named_isomorphism_k3"].passed


def test_named_isomorphism_fails_on_a_dropped_hop(monkeypatch):
    # Any relabelling of K_4 is K_4 again; only a missing hop shows.
    monkeypatch.setattr(verify_mod, "build_wedge_graph", dropping_builder(complete_graph(4), 3))
    by_check = {r.check: r for r in check_named_isomorphisms()}
    assert not by_check["named_isomorphism_k3"].passed and by_check["named_isomorphism_k5"].passed


def _structure_checks(name, g, builder):
    return {r.check: r for r in check_structure(name, g, {k: builder(g, k) for k in range(g.n + 1)})}


@pytest.mark.parametrize("fault", [relabelling_builder, corrupting_builder])
def test_wedge_k1_identity_fails_on_a_relabelled_or_flipped_first_power(fault):
    g = path_graph(5)
    assert _structure_checks("path:5", g, build_wedge_graph)["wedge_k1_identity"].passed
    r = _structure_checks("path:5", g, fault(g, 1))["wedge_k1_identity"]
    assert not r.passed and r.k == 1


def test_wedge_dimensions_names_the_first_failing_k():
    g = cycle_graph(5)
    drop = {k: dropping_builder(g, k) for k in (2, 3)}
    r = _structure_checks("cycle:5", g, lambda g, k: drop.get(k, build_wedge_graph)(g, k))
    assert not r["wedge_dimensions"].passed and r["wedge_dimensions"].k == 2


def test_johnson_regular_degree_fails_on_a_dropped_hop():
    g = complete_graph(5)
    assert _structure_checks("complete:5", g, build_wedge_graph)["johnson_regular_degree"].passed
    assert not _structure_checks("complete:5", g, dropping_builder(g, 2))["johnson_regular_degree"].passed


def test_default_run_lines_up_its_columns():
    report = run_verification()
    width = max(len(r.check) for r in report.results)
    assert width == len("dynamics_block_vs_full_heisenberg")
    lines = report.lines()[: len(report.results)]
    subjects = {line.index(r.subject, len("[PASS] ") + len(r.check)) for r, line in zip(report.results, lines)}
    assert subjects == {len("[PASS] ") + width + 1}
    assert len({line.index("max_err=") for line in lines}) == 1
    assert len({line.index("tol=") for line in lines}) == 1


def test_check_list_is_pinned():
    report = run_verification()
    assert report.passed, report.first_failure
    lines = "\n".join(f"{r.check} {r.subject}" for r in report.results)
    assert len(report.results) == 574
    assert hashlib.sha256(lines.encode()).hexdigest() == CHECK_LIST_DIGEST


@pytest.mark.parametrize(
    "builder, k, alone",
    [
        # Above n/2 the lift checks read no signed matrix, the sector and
        # complement checks are unsigned and the projector oracle stops at
        # k = 3, so a flipped sign there, or a relabelling that is an
        # automorphism of the unsigned 5-cycle, shows in xy_particle_hole alone.
        (corrupting_builder(cycle_graph(5), 4), 4, True),
        (relabelling_builder(cycle_graph(5), 4), 4, True),
        (corrupting_builder(cycle_graph(5), 2), 3, False),
        (relabelling_builder(path_graph(6), 4), 4, False),
    ],
)
def test_xy_particle_hole_fails_on_a_flipped_or_relabelled_wedge(builder, k, alone, monkeypatch):
    corpus = [("cycle:5", cycle_graph(5)), ("path:6", path_graph(6))]
    assert run_verification(corpus=corpus, random_states=2).passed
    monkeypatch.setattr(verify_mod, "build_wedge_graph", builder)
    failed = [r for r in run_verification(corpus=corpus, random_states=2).results if not r.passed]
    assert [r.k for r in failed if r.check == "xy_particle_hole"] == [k]
    assert alone == ({r.check for r in failed} == {"xy_particle_hole"})


def test_relabelled_isospectral_sector_fails_sector_vs_full(monkeypatch):
    target = cycle_graph(4)
    monkeypatch.setattr(verify_mod, "build_wedge_graph", relabelling_builder(target, 2))
    report = run_verification(corpus=SMALL_CORPUS, random_states=2)
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
    monkeypatch.undo()
    assert len(report.results) == len(run_verification(corpus=SMALL_CORPUS, random_states=2).results)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_complete_ground_energy_checked_for_every_n(n, monkeypatch):
    # The full spectrum of each model on K_n is checked against its closed
    # form, the ground energy and every multiplicity included.
    by_check = {r.check: r for r in check_johnson_family(n)}
    assert by_check["complete_spectrum_xy"].passed and by_check["complete_spectrum_heisenberg"].passed

    real = verify_mod.full_hamiltonian

    def shifted(g, spec):
        h = real(g, spec)
        return h + 0.5 * np.eye(len(h)) if spec.is_xy else h

    monkeypatch.setattr(verify_mod, "full_hamiltonian", shifted)
    by_check = {r.check: r for r in check_johnson_family(n)}
    assert not by_check["complete_spectrum_xy"].passed
    assert by_check["complete_spectrum_heisenberg"].passed

    # Move one Heisenberg eigenvalue onto another allowed value j(n+1-j): the
    # value set is right, one multiplicity is not.
    allowed = sorted({j * (n + 1 - j) for j in range(n + 1)})
    values = complete_graph_spectra(n, "heisenberg")
    values[-1] = allowed[0]
    assert all(min(abs(v - a) for a in allowed) <= 1e-9 for v in values)

    def moved(g, spec):
        return real(g, spec) if spec.is_xy else np.diag(values)

    monkeypatch.setattr(verify_mod, "full_hamiltonian", moved)
    by_check = {r.check: r for r in check_johnson_family(n)}
    assert by_check["complete_spectrum_xy"].passed
    r = by_check["complete_spectrum_heisenberg"]
    assert not r.passed and r.max_error >= 1.0


def test_each_wedge_power_built_once_per_graph(monkeypatch):
    builds = Counter()

    def counting(g, k):
        builds[(g, k)] += 1
        return build_wedge_graph(g, k)

    monkeypatch.setattr(verify_mod, "build_wedge_graph", counting)
    g = cycle_graph(5)
    report = run_verification(corpus=[("cycle:5", g)], random_states=2)
    assert report.passed
    assert {k: builds[(g, k)] for k in range(g.n + 1)} == {k: 1 for k in range(g.n + 1)}
    assert max(builds.values()) == 1


def test_a_corpus_pass_builds_each_subset_table_once():
    # No table is evicted and none is built twice: one miss per distinct
    # (n, min(k, n-k)), against many more reuses.  The minors kernel reads
    # the same levels, so it adds no miss.
    sides = {(g.n, min(k, g.n - k)) for _, g in default_corpus() for k in range(g.n + 1)}
    colex_level.cache_clear()
    assert run_verification().passed
    info = colex_level.cache_info()
    assert info.misses == info.currsize == len(sides) < info.maxsize
    assert info.hits > 10 * info.misses


def test_each_operator_built_once_per_graph(monkeypatch):
    sectors, fulls, solves = Counter(), Counter(), Counter()
    real_block, real_full, real_eigh = verify_mod.block_hamiltonian, verify_mod.full_hamiltonian, verify_mod.eigh

    def counting_block(w, spec):
        sectors[(spec, w.k)] += 1
        return real_block(w, spec)

    def counting_full(g, spec):
        fulls[spec] += 1
        return real_full(g, spec)

    def counting_eigh(m):
        solves[len(m)] += 1
        return real_eigh(m)

    monkeypatch.setattr(verify_mod, "block_hamiltonian", counting_block)
    monkeypatch.setattr(verify_mod, "full_hamiltonian", counting_full)
    monkeypatch.setattr(verify_mod, "eigh", counting_eigh)
    g = cycle_graph(5)
    assert run_verification(corpus=[("cycle:5", g)], random_states=2).passed
    models = [verify_mod.ModelSpec("xy"), verify_mod.ModelSpec("heisenberg")]
    # Every sector operator is field-free and built once.
    assert sectors == {(m, k): 1 for m in models for k in range(g.n + 1)}
    # One field-free full per model, shared; field_shift builds each field's
    # full oracle once.
    fields = [verify_mod.ModelSpec(m.model, b) for m in models for b in verify_mod.FIELD_VALUES]
    assert fulls == {spec: 1 for spec in models + fields}
    # One eigh per sector, one per model's full hamiltonian, one of the base
    # adjacency, shared by check_lift and free_fermion_route, and one of the
    # twisted base of side 2, the only side that reads it.
    assert solves[2**g.n] == len(models)
    assert solves[g.n] == 2 * len(models) + 2  # sectors 1 and 4, A and its twist
    assert sum(solves.values()) == 2 * (g.n + 1) + len(models) + 2


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
    assert verify_mod.check_heis_psd_kernel("cycle:5", g, wedges, sectors).passed
    assert not calls
    assert all(r.passed for r in verify_mod.check_sector_spectra("cycle:5", g, heisenberg, sectors, full))
    # The oracle's blocks are compared entry by entry, so nothing is solved.
    assert not calls


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


def _corpus_fulls():
    for name, g in default_corpus():
        yield name, g, {m: verify_mod.full_hamiltonian(g, m) for m in verify_mod._MODELS}


def test_field_shift_is_exact_on_the_corpus():
    for name, g, fulls in _corpus_fulls():
        r = verify_mod.check_field_shift(name, g, fulls)
        assert r.passed and r.max_error == 0.0 and r.tol == 0.0, r.line()


@pytest.mark.parametrize(
    "shift",
    [lambda spec, n, k: spec.field_b * (2 * k - n), lambda spec, n, k: spec.field_b * (n - 2 * k) + 1e-12],
    ids=["reversed-sign", "off-by-1e-12"],
)
def test_field_shift_fails_on_a_wrong_sector_shift(shift, monkeypatch):
    monkeypatch.setattr(verify_mod.ModelSpec, "sector_shift", shift)
    for name, g, fulls in _corpus_fulls():
        r = verify_mod.check_field_shift(name, g, fulls)
        assert not r.passed and r.max_error == math.inf and r.k is not None, name


def test_a_refusing_projector_oracle_fails_its_check(monkeypatch, capsys):
    from spinwedge import cli

    def refusing(g, k):
        raise RuntimeError("antisymmetrized matrix entries are not integral")

    monkeypatch.setattr(verify_mod, "alt_delta_oracle", refusing)
    assert cli.main(["verify", "--graph", "complete:4"]) == 1
    out = capsys.readouterr().out
    (line,) = [line for line in out.splitlines() if line.startswith("[") and "signed_vs_projector_oracle" in line]
    assert line.startswith("[FAIL]") and "max_err=      inf" in line and "not integral" in line
    assert "first failure: (complete:4, k=0, signed_vs_projector_oracle)" in out


def test_intertwining_fails_on_a_relabelled_wedge(monkeypatch):
    # The relabelled power is isospectral, but its laplacian no longer
    # commutes with the ladder operator read off the bitmasks.
    g = cycle_graph(4)
    relabel = relabelling_builder(g, 2)
    for builder, passed in ((build_wedge_graph, True), (relabel, False)):
        sectors = sector_decompositions(g, {k: builder(g, k) for k in range(5)})
        r = check_heis_su2_intertwining("cycle:4", g, sectors)
        assert r.passed == passed and r.k == (None if passed else 2)
    monkeypatch.setattr(verify_mod, "build_wedge_graph", relabel)
    report = run_verification(corpus=SMALL_CORPUS, random_states=2)
    by_check = {(r.check, r.subject): r for r in report.results}
    assert not by_check[("heis_su2_intertwining", "cycle:4")].passed
    assert by_check[("heis_su2_intertwining", "path:4")].passed


def _flip_first_singlet(real):
    """singlet_basis with the first pair of every vector of side 2 a triplet."""

    def basis(n, j):
        rows, signs = real(n, j)
        if j == 2:
            signs = signs * (1 - 2 * (np.arange(len(signs)) & 1))
        return rows, signs

    return basis


@pytest.mark.parametrize("name", ["path:5", "cycle:6", "er:6:0.5:1"])
def test_su2_levels_check_fails_on_a_flipped_singlet(name, monkeypatch):
    g = dict(default_corpus() + [("path:5", path_graph(5))])[name]
    wedges = {k: build_wedge_graph(g, k) for k in range(g.n + 1)}
    sectors = sector_decompositions(g, wedges)
    assert check_heis_su2_levels(name, g, wedges, sectors).passed
    flipped = _flip_first_singlet(verify_mod.singlet_basis)
    # Flipped where the levels are computed, with the kernel test on the true
    # basis: the levels miss the dense spectrum.
    monkeypatch.setattr(spectra_mod, "singlet_basis", flipped)
    r = check_heis_su2_levels(name, g, wedges, sectors)
    assert not r.passed and r.max_error > 1e-3
    # Flipped where the kernel is tested, with the levels right: W B != 0.
    monkeypatch.undo()
    monkeypatch.setattr(verify_mod, "singlet_basis", flipped)
    r = check_heis_su2_levels(name, g, wedges, sectors)
    assert not r.passed and r.k == 2 and "j=2" in r.note
