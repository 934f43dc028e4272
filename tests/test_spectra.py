import itertools
import json
import math

import numpy as np
import pytest

from spinwedge import (
    EigenDecomposition,
    ModelSpec,
    Spectrum,
    adjacency,
    build_wedge_graph,
    compare_spectra,
    complete_graph,
    complete_graph_spectra,
    eigh,
    erdos_renyi_graph,
    full_hamiltonian,
    johnson_spectrum,
    lift_eigenvector,
    lift_spectrum,
    path_eigenvector,
    path_graph,
    path_spectrum,
    signed_matrix,
    subset_minors,
    subset_table,
    wedge_adjacency,
    xy_path_spectrum,
)
from spinwedge.spectra import LIFT_NORM_TOL

SQRT2 = math.sqrt(2.0)


def test_eigh_swap_matrix():
    dec = eigh(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(dec.values, [-1.0, 1.0], atol=1e-12)


def test_eigh_identity():
    dec = eigh(np.eye(5))
    assert np.allclose(dec.values, 1.0)
    assert np.allclose(dec.vectors.T @ dec.vectors, np.eye(5), atol=1e-12)


def test_eigh_contract_on_random_symmetric():
    rng = np.random.default_rng(0)
    m = rng.normal(size=(40, 40))
    m = m + m.T
    dec = eigh(m)
    scale = max(1.0, np.abs(dec.values).max())
    assert np.linalg.norm(m @ dec.vectors - dec.vectors * dec.values, axis=0).max() <= 1e-9 * scale
    assert np.abs(dec.vectors.T @ dec.vectors - np.eye(40)).max() <= 1e-10


def test_eigh_input_validation():
    with pytest.raises(ValueError):
        eigh(np.array([[0.0, np.nan], [np.nan, 0.0]]))
    with pytest.raises(ValueError):
        eigh(np.array([[0.0, 1.0], [2.0, 0.0]]))
    with pytest.raises(ValueError):
        eigh(np.zeros((2, 3)))


def test_path_spectrum_n3():
    assert np.allclose(path_spectrum(3).values, [-SQRT2, 0.0, SQRT2], atol=1e-12)


@pytest.mark.parametrize("n", range(1, 11))
def test_path_spectrum_matches_dense_and_traceless(n):
    dense = np.linalg.eigvalsh(adjacency(path_graph(n)))
    assert np.allclose(path_spectrum(n).values, dense, atol=1e-9)
    assert abs(math.fsum(path_spectrum(n).values)) <= 1e-12


def test_path_eigenvector_n2_j0():
    # Eigenvalue -2cos(pi/3) = -1 belongs to the alternating vector; the
    # uniform vector (1,1)/sqrt(2) has eigenvalue +1 on the 2-path.
    v = path_eigenvector(2, 0)
    assert np.allclose(np.abs(v), [1 / SQRT2, 1 / SQRT2], atol=1e-12)
    a = adjacency(path_graph(2))
    lam = -2.0 * math.cos(math.pi / 3.0)
    assert np.linalg.norm(a @ v - lam * v) <= 1e-12


@pytest.mark.parametrize("n", range(2, 11))
def test_path_eigenvector_residuals(n):
    a = adjacency(path_graph(n))
    for j in range(n):
        v = path_eigenvector(n, j)
        lam = -2.0 * math.cos(math.pi * (j + 1) / (n + 1))
        assert abs(np.linalg.norm(v) - 1.0) <= 1e-12
        assert np.linalg.norm(a @ v - lam * v) <= 1e-9


def test_path_eigenvector_index_error():
    with pytest.raises(ValueError):
        path_eigenvector(4, 4)


def test_xy_path_3_2():
    # Pair sums of {-sqrt2, 0, sqrt2}.
    assert np.allclose(xy_path_spectrum(3, 2).values, [-SQRT2, 0.0, SQRT2], atol=1e-12)


def test_xy_path_k0_empty_sum():
    assert xy_path_spectrum(7, 0).values == (0.0,)


def test_xy_path_6_3_matches_dense():
    w = build_wedge_graph(path_graph(6), 3)
    dense = np.linalg.eigvalsh(wedge_adjacency(w))
    spec = xy_path_spectrum(6, 3)
    assert len(spec) == 20
    assert np.allclose(spec.values, dense, atol=1e-9)


def test_johnson_4_2_octahedron():
    assert johnson_spectrum(4, 2).collapsed() == [(-2.0, 2), (0.0, 3), (4.0, 1)]


def test_johnson_3_1_is_k3():
    assert johnson_spectrum(3, 1).values == (-1.0, -1.0, 2.0)


def test_johnson_k0():
    assert johnson_spectrum(5, 0).values == (0.0,)


@pytest.mark.parametrize("n", range(1, 7))
def test_johnson_matches_dense_all_k(n):
    g = complete_graph(n)
    for k in range(n + 1):
        dense = np.linalg.eigvalsh(wedge_adjacency(build_wedge_graph(g, k)))
        assert compare_spectra(johnson_spectrum(n, k), Spectrum(tuple(dense))).equal, (n, k)


def test_complete_2_xy():
    assert np.allclose(complete_graph_spectra(2, "xy").values, [-1.0, 0.0, 0.0, 1.0], atol=1e-12)


def test_complete_3_heis_value_set():
    spec = complete_graph_spectra(3, "heisenberg")
    assert {v for v, _ in spec.collapsed()} <= {0.0, 3.0, 4.0}
    assert len(spec) == 8


def test_complete_4_xy_ground_energy():
    assert complete_graph_spectra(4, "xy").min() == pytest.approx(-2.0, abs=1e-12)


@pytest.mark.parametrize("model", ["xy", "heisenberg"])
@pytest.mark.parametrize("n", range(1, 7))
def test_complete_spectra_match_full_oracle(n, model):
    closed = complete_graph_spectra(n, model)
    assert len(closed) == 2**n
    dense = np.linalg.eigvalsh(full_hamiltonian(complete_graph(n), ModelSpec(model)))
    assert compare_spectra(closed, Spectrum(tuple(dense))).equal, (n, model)


def test_lift_p3_k2():
    base = eigh(adjacency(path_graph(3)))
    assert np.allclose(lift_spectrum(base, 2).values, [-SQRT2, 0.0, SQRT2], atol=1e-9)


def test_lift_k4_k2_differs_from_unsigned():
    w = build_wedge_graph(complete_graph(4), 2)
    base = eigh(adjacency(complete_graph(4)))
    lifted = lift_spectrum(base, 2)
    signed_vals = Spectrum(tuple(np.linalg.eigvalsh(signed_matrix(w))))
    unsigned_vals = Spectrum(tuple(np.linalg.eigvalsh(wedge_adjacency(w))))
    assert compare_spectra(lifted, signed_vals).equal
    assert not compare_spectra(lifted, unsigned_vals).equal
    assert np.allclose(lifted.values, [-2.0, -2.0, -2.0, 2.0, 2.0, 2.0], atol=1e-9)


def test_lift_full_k_is_trace():
    base = eigh(adjacency(complete_graph(4)))
    spec = lift_spectrum(base, 4)
    assert len(spec) == 1
    assert spec.values[0] == pytest.approx(0.0, abs=1e-12)


def test_lift_eigenvector_k1_is_base_column():
    base = eigh(adjacency(path_graph(4)))
    (pair,) = lift_eigenvector(base, [(2,)])
    assert pair.value == pytest.approx(base.values[2])
    assert np.allclose(pair.vector, base.vectors[:, 2], atol=1e-12)


def test_lift_eigenvector_p3_indices_02():
    base = eigh(adjacency(path_graph(3)))
    c = signed_matrix(build_wedge_graph(path_graph(3), 2))
    (pair,) = lift_eigenvector(base, [(0, 2)])
    assert pair.value == pytest.approx(0.0, abs=1e-12)
    assert np.linalg.norm(c @ pair.vector - pair.value * pair.vector) <= 1e-9


def test_lift_eigenvector_k4_pairs():
    # Ascending base spectrum of K_4 is {-1,-1,-1,3}: indices (0,1) lift to
    # eigenvalue -2, indices (0,3) to 2; both satisfy the residual bound.
    base = eigh(adjacency(complete_graph(4)))
    c = signed_matrix(build_wedge_graph(complete_graph(4), 2))
    low, high = lift_eigenvector(base, [(0, 1), (0, 3)])
    assert low.value == pytest.approx(-2.0, abs=1e-9)
    assert np.linalg.norm(c @ low.vector - low.value * low.vector) <= 1e-9
    assert high.value == pytest.approx(2.0, abs=1e-9)
    assert np.linalg.norm(c @ high.vector - high.value * high.vector) <= 1e-9


def test_lift_eigenvector_norm_and_orthonormal_set():
    base = eigh(adjacency(path_graph(4)))
    vectors = []
    for pair in lift_eigenvector(base, list(itertools.combinations(range(4), 2))):
        assert abs(np.linalg.norm(pair.vector) - 1.0) <= 1e-12
        vectors.append(pair.vector)
    gram = np.array(vectors) @ np.array(vectors).T
    assert np.abs(gram - np.eye(6)).max() <= 1e-10


@pytest.mark.parametrize("n", [0, 1, 2, 3, 5, 8, 11, 14])
def test_subset_minors_match_lapack(n):
    rng = np.random.default_rng(n)
    unitary = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))[0]
    js = range(n + 1) if n <= 8 else sorted({0, 1, 2, n // 2, n - 1, n})
    for j in js:
        rows = subset_table(n, j)
        for x in (rng.normal(size=(3, n, j)), unitary[:, :j]):
            got = subset_minors(x)
            want = np.linalg.det(x[..., rows, :])
            assert got.shape == want.shape == x.shape[:-2] + (len(rows),)
            assert np.max(np.abs(got - want), initial=0.0) <= 1e-12 * max(1.0, np.max(np.abs(want))), (n, j)


def test_subset_minors_rejects_wide_input():
    with pytest.raises(ValueError):
        subset_minors(np.zeros((3, 4)))


def test_lift_eigenvector_is_the_determinant_on_both_sides():
    # Above k = d/2 the minors come from the complement columns.
    base = eigh(adjacency(erdos_renyi_graph(7, 0.5, 2)))
    for k in range(8):
        sets = subset_table(7, k)
        for idx, pair in zip(sets, lift_eigenvector(base, sets)):
            want = np.linalg.det(base.vectors[sets[:, :, None], idx])
            assert np.max(np.abs(pair.vector - want)) <= 1e-12, (k, idx)
            assert pair.indices == tuple(idx.tolist())


def test_lift_rejects_norm_defect_above_table_tolerance():
    # A 1e-9 scale error in the base columns is far below the old hard-coded
    # 1e-6 but far above LIFT_NORM_TOL.
    base = eigh(adjacency(path_graph(5)))
    skewed = EigenDecomposition(base.values, base.vectors * (1.0 + 1e-9))
    with pytest.raises(ValueError, match="orthonormal"):
        lift_eigenvector(skewed, [(0, 2)])
    assert abs(np.linalg.norm(lift_eigenvector(base, [(0, 2)])[0].vector) - 1.0) <= LIFT_NORM_TOL


def test_lift_rejects_repeated_indices():
    base = eigh(adjacency(path_graph(4)))
    with pytest.raises(ValueError):
        lift_eigenvector(base, [(0, 2), (1, 1)])
    with pytest.raises(ValueError):
        lift_eigenvector(base, [(2, 1)])
    with pytest.raises(ValueError):
        lift_spectrum(base, 5)


def test_compare_spectra_equal_within_tol():
    a = Spectrum((0.0, 1.0))
    b = Spectrum((1.0, 1e-12))
    assert compare_spectra(a, b).equal


def test_compare_spectra_count_mismatch():
    report = compare_spectra(Spectrum((0.0,)), Spectrum((0.0, 0.0)))
    assert not report.equal
    assert report.unmatched_b == (0.0,)


def test_compare_spectra_gap_reporting():
    report = compare_spectra(Spectrum((0.0, 2.0)), Spectrum((0.0, 3.0)))
    assert not report.equal
    assert report.unmatched_a == (2.0,) and report.unmatched_b == (3.0,)


def test_spectrum_collapse_and_json():
    s = Spectrum((1.0, 1.0 + 1e-12, 2.0), tol=1e-9)
    assert s.collapsed() == [(1.0, 2), (2.0, 1)]
    data = json.loads(json.dumps(s.to_dict()))
    assert data["tol"] == 1e-9
    assert data["multiplicity_collapsed"] == [[1.0, 2], [2.0, 1]]
    assert len(data["values"]) == 3


def test_lift_k4_k2_value_2_is_pair_sum():
    # Base spectrum of K_4 is {-1,-1,-1,3}; increasing pairs sum to
    # -2 (three ways) and 2 (three ways).
    base = eigh(adjacency(complete_graph(4)))
    sums = sorted(
        base.values[i] + base.values[j] for i, j in itertools.combinations(range(4), 2)
    )
    assert np.allclose(sums, [-2, -2, -2, 2, 2, 2], atol=1e-9)
