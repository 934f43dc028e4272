"""The su2 route: Heisenberg sector spectra from the spin-singlet blocks.

Sector k of the Heisenberg model is the union of the new levels of the sides
j = 0..min(k, n-k), each the laplacian L_j on the kernel of the inclusion
matrix W_{j-1,j}, spanned by Specht's polytabloids.
"""

import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest

import spinwedge.dynamics as dynamics_mod
import spinwedge.spectra as spectra_mod
from spinwedge import (
    build_wedge_graph,
    cli,
    complete_graph,
    cycle_graph,
    erdos_renyi_graph,
    singlet_basis,
    singlet_levels,
    spectrum_gap,
    su2_pays,
    wedge_laplacian,
)
from spinwedge.spectra import DEFAULT_TOL
from spinwedge.verify import default_corpus
from spinwedge.wedge import BLOCK_DIM_LIMIT


def _literal_basis(n, j):
    """The polytabloids by loops over the ballot subsets, as dense columns
    indexed by the subsets themselves (sorted tuples)."""
    subsets = list(itertools.combinations(range(n), j))
    index = {s: r for r, s in enumerate(sorted(subsets, key=lambda s: sum(1 << v for v in s)))}
    columns = []
    for b in sorted(subsets, key=lambda s: sum(1 << v for v in s)):
        if any(b[i] < 2 * i + 1 for i in range(j)):
            continue
        a = [v for v in range(n) if v not in b][:j]
        column = np.zeros(len(subsets), dtype=np.int64)
        for picks in itertools.product((0, 1), repeat=j):
            chosen = tuple(sorted(a[i] if p else b[i] for i, p in enumerate(picks)))
            column[index[chosen]] += (-1) ** sum(picks)
        columns.append(column)
    return np.array(columns, dtype=np.int64).reshape(-1, len(subsets)).T


def _dense(rows, signs, m):
    basis = np.zeros((m, len(rows)), dtype=np.int64)
    basis[rows, np.arange(len(rows))[:, None]] = signs
    return basis


def _inclusion(n, j):
    """W_{j-1,j} from sorted tuples, one 1 per (subset, element dropped)."""
    order = lambda s: sum(1 << v for v in s)  # noqa: E731
    lower = {s: r for r, s in enumerate(sorted(itertools.combinations(range(n), j - 1), key=order))}
    upper = sorted(itertools.combinations(range(n), j), key=order)
    w = np.zeros((len(lower), len(upper)), dtype=np.int64)
    for c, s in enumerate(upper):
        for p in range(j):
            w[lower[s[:p] + s[p + 1:]], c] = 1
    return w


@pytest.mark.parametrize("n", range(0, 10))
def test_singlet_basis_is_the_literal_polytabloid_basis_of_ker_w(n):
    for j in range(n // 2 + 1):
        rows, signs = singlet_basis(n, j)
        m = math.comb(n, j)
        d = m - (math.comb(n, j - 1) if j else 0)
        assert rows.shape == (d, 1 << j) and signs.shape == (1 << j,)
        basis = _dense(rows, signs, m)
        assert np.array_equal(basis, _literal_basis(n, j))
        assert np.linalg.matrix_rank(basis.astype(float)) == d
        if j:
            assert not np.any(_inclusion(n, j) @ basis)


def test_singlet_basis_refuses_the_wide_side():
    with pytest.raises(ValueError):
        singlet_basis(5, 3)


def _guarded_sides():
    """Every (n, j), 1 <= j <= n/2, whose C(n, j) passes the sector guard
    (side 0 has no hops and one state)."""
    for j in range(1, 16):
        for n in range(2 * j, BLOCK_DIM_LIMIT + 1):
            if math.comb(n, j) > BLOCK_DIM_LIMIT:
                break
            yield n, j


def test_singlet_basis_is_built_once_and_read_only():
    rows, signs = singlet_basis(8, 3)
    assert singlet_basis(8, 3)[0] is rows
    assert not rows.flags.writeable and not signs.flags.writeable
    # The largest basis the sector guard admits, as the docstring states.
    sizes = {(n, j): (math.comb(n, j) - math.comb(n, j - 1)) << j for n, j in _guarded_sides()}
    assert max(sizes, key=sizes.get) == (16, 5)
    assert singlet_basis(16, 5)[0].size == sizes[(16, 5)] == 81536


@pytest.mark.parametrize("n", range(1, 9))
def test_singlet_basis_is_an_eigenbasis_on_the_complete_graph(n):
    # On K_n every new level of side j is j(n+1-j): an oracle for the basis
    # that does not read the Johnson formula.
    g = complete_graph(n)
    for j in range(n // 2 + 1):
        rows, signs = singlet_basis(n, j)
        basis = _dense(rows, signs, math.comb(n, j))
        lap = wedge_laplacian(build_wedge_graph(g, j)).astype(np.int64)
        assert np.array_equal(lap @ basis, j * (n + 1 - j) * basis), (n, j)


def test_route_rule_is_half_the_sector():
    for n in range(0, 40):
        for k in range(n + 1):
            h = min(k, n - k)
            d = math.comb(n, h) - (math.comb(n, h - 1) if h else 0)
            assert su2_pays(n, k) == (2 * d <= math.comb(n, h)), (n, k)
    assert [k for k in range(15) if su2_pays(14, k)] == [5, 6, 7, 8, 9]


def test_float32_products_stay_exact_under_the_sector_guard():
    # singlet_levels forms B^T B and B^T L B in float32; no partial sum of
    # either exceeds 2^j * 2j(n-j), far below 2^24, wherever C(n, j) passes
    # the sector guard.
    worst = max((1 << j) * 2 * j * (n - j) for n, j in _guarded_sides())
    assert worst == 2 * 2 * 4999 and worst < 1 << 15


@pytest.mark.parametrize("name", [name for name, _ in default_corpus()])
def test_singlet_levels_make_every_corpus_sector(name):
    g = dict(default_corpus())[name]
    wedges = [build_wedge_graph(g, k) for k in range(g.n + 1)]
    levels = [singlet_levels(wedges[j]) for j in range(g.n // 2 + 1)]
    for values in levels:
        assert np.all(np.diff(values) >= 0)
    for k in range(g.n + 1):
        union = np.concatenate(levels[: min(k, g.n - k) + 1])
        dense = np.linalg.eigvalsh(wedge_laplacian(wedges[k]))
        assert spectrum_gap(union, dense) <= DEFAULT_TOL, (name, k)


def _spectrum(capsys, *argv):
    assert cli.main(["spectrum", *argv]) == 0
    return json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("k", [5, 6, 7])
def test_spectrum_su2_route_on_a_random_14_vertex_graph(k, capsys):
    g = erdos_renyi_graph(14, 0.3, 0)
    (block,) = _spectrum(capsys, "--graph", "er:14:0.3:0", "--model", "heis", "-k", str(k))["blocks"]
    assert block["route"] == "su2" and block["dim"] == math.comb(14, k)
    dense = np.linalg.eigvalsh(wedge_laplacian(build_wedge_graph(g, k)))
    assert spectrum_gap(block["spectrum"]["values"], dense) <= DEFAULT_TOL


@pytest.mark.parametrize("k", [5, 6, 7])
def test_closed_form_check_keeps_the_su2_accuracy_on_k14(k, capsys):
    # max_gap is 6.5e-11 at k = 5, and 2.1e-10 at k = 6 and 7 from side 6,
    # where B^T B has condition number 1.2e6.  An error 2.4 times the worst
    # of these fails here while it still passes DEFAULT_TOL.
    assert cli.main(["closed-form", "complete", "--n", "14", "--model", "heis", "-k", str(k), "--check"]) == 0
    check = json.loads(capsys.readouterr().out)["cross_check"]
    assert check["equal"] and check["max_gap"] <= 5e-10, check


def test_spectrum_all_computes_each_side_once(capsys, monkeypatch):
    sides, sizes, real = [], [], spectra_mod.singlet_levels
    real_eigvalsh = np.linalg.eigvalsh

    def recording(w):
        sides.append(w.k)
        return real(w)

    def sized(m, *args, **kwargs):
        sizes.append(len(m))
        return real_eigvalsh(m, *args, **kwargs)

    monkeypatch.setattr(dynamics_mod, "singlet_levels", recording)
    monkeypatch.setattr(np.linalg, "eigvalsh", sized)
    payload = _spectrum(capsys, "--graph", "cycle:8", "--model", "heis", "-k", "all", "--field", "0.5")
    routes = [b["route"] for b in payload["blocks"]]
    assert routes == ["dense"] * 3 + ["su2"] * 3 + ["dense"] * 3
    assert sides == [0, 1, 2, 3, 4]
    # Dense sides 0-2, read again by sectors 8-6, and one singlet block d_j
    # per side, k = 5 reading those of k = 3; no C(8, 3) or C(8, 4) matrix
    # and no second solve of any side.
    assert sizes == [1, 8, 28, 1, 7, 20, 28, 14]
    g = cycle_graph(8)
    for block in payload["blocks"]:
        k = block["k"]
        dense = np.linalg.eigvalsh(wedge_laplacian(build_wedge_graph(g, k))) + 0.5 * (8 - 2 * k)
        assert spectrum_gap(block["spectrum"]["values"], dense) <= DEFAULT_TOL, k


def _peak(capsys, *argv):
    tracemalloc.start()
    try:
        _spectrum(capsys, *argv)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_su2_sector_peaks_below_one_dense_sector_matrix(capsys):
    # The spectrum_cap benchmark's shape: C(14, 5) = 2002 and d_5 = 1001.
    # The dense route holds the C x C matrix and LAPACK's copy of it; the su2
    # route's work arrays stay below one such matrix.
    peak = _peak(capsys, "--graph", "er:14:0.3:1", "-k", "5", "--model", "heis")
    assert peak < 8 * math.comb(14, 5) ** 2, peak
