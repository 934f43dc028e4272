import itertools
import json
import math

import numpy as np
import pytest

from spinwedge import (
    EigenDecomposition,
    ModelSpec,
    adjacency,
    build_wedge_graph,
    complete_graph,
    complete_graph_spectra,
    eigh,
    erdos_renyi_graph,
    full_hamiltonian,
    johnson_spectrum,
    lift_eigenvector,
    path_eigenvector,
    path_graph,
    path_spectrum,
    signed_matrix,
    spectrum_dict,
    spectrum_gap,
    subset_minors,
    subset_sums,
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
    assert np.allclose(path_spectrum(3), [-SQRT2, 0.0, SQRT2], atol=1e-12)


@pytest.mark.parametrize("n", range(1, 11))
def test_path_spectrum_matches_dense_and_traceless(n):
    dense = np.linalg.eigvalsh(adjacency(path_graph(n)))
    assert np.allclose(path_spectrum(n), dense, atol=1e-9)
    assert abs(math.fsum(path_spectrum(n))) <= 1e-12


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
    assert np.allclose(xy_path_spectrum(3, 2), [-SQRT2, 0.0, SQRT2], atol=1e-12)


def test_xy_path_k0_empty_sum():
    assert xy_path_spectrum(7, 0).tolist() == [0.0]


def test_xy_path_6_3_matches_dense():
    w = build_wedge_graph(path_graph(6), 3)
    dense = np.linalg.eigvalsh(wedge_adjacency(w))
    spec = xy_path_spectrum(6, 3)
    assert len(spec) == 20
    assert np.allclose(spec, dense, atol=1e-9)


def test_johnson_4_2_octahedron():
    groups = spectrum_dict(johnson_spectrum(4, 2), 1e-9)["multiplicity_collapsed"]
    assert groups == [[-2.0, 2], [0.0, 3], [4.0, 1]]


def test_johnson_3_1_is_k3():
    assert johnson_spectrum(3, 1).tolist() == [-1.0, -1.0, 2.0]


def test_johnson_k0():
    assert johnson_spectrum(5, 0).tolist() == [0.0]


@pytest.mark.parametrize("n", range(1, 7))
def test_johnson_matches_dense_all_k(n):
    g = complete_graph(n)
    for k in range(n + 1):
        dense = np.linalg.eigvalsh(wedge_adjacency(build_wedge_graph(g, k)))
        assert spectrum_gap(johnson_spectrum(n, k), dense) <= 1e-9, (n, k)


def test_complete_2_xy():
    assert np.allclose(complete_graph_spectra(2, "xy"), [-1.0, 0.0, 0.0, 1.0], atol=1e-12)


def test_complete_3_heis_value_set():
    spec = complete_graph_spectra(3, "heisenberg")
    assert {v for v, _ in spectrum_dict(spec, 1e-9)["multiplicity_collapsed"]} <= {0.0, 3.0, 4.0}
    assert len(spec) == 8


def test_complete_4_xy_ground_energy():
    assert complete_graph_spectra(4, "xy").min() == pytest.approx(-2.0, abs=1e-12)


@pytest.mark.parametrize("model", ["xy", "heisenberg"])
@pytest.mark.parametrize("n", range(1, 7))
def test_complete_spectra_match_full_oracle(n, model):
    closed = complete_graph_spectra(n, model)
    assert len(closed) == 2**n
    dense = np.linalg.eigvalsh(full_hamiltonian(complete_graph(n), ModelSpec(model)))
    assert spectrum_gap(closed, dense) <= 1e-9, (n, model)


def test_lift_p3_k2():
    base = eigh(adjacency(path_graph(3)))
    assert np.allclose(subset_sums(base.values, 2), [-SQRT2, 0.0, SQRT2], atol=1e-9)


def test_lift_k4_k2_differs_from_unsigned():
    w = build_wedge_graph(complete_graph(4), 2)
    base = eigh(adjacency(complete_graph(4)))
    lifted = subset_sums(base.values, 2)
    assert spectrum_gap(lifted, np.linalg.eigvalsh(signed_matrix(w))) <= 1e-9
    assert spectrum_gap(lifted, np.linalg.eigvalsh(wedge_adjacency(w))) > 1e-9
    assert np.allclose(lifted, [-2.0, -2.0, -2.0, 2.0, 2.0, 2.0], atol=1e-9)


def test_lift_full_k_is_trace():
    base = eigh(adjacency(complete_graph(4)))
    spec = subset_sums(base.values, 4)
    assert len(spec) == 1
    assert spec[0] == pytest.approx(0.0, abs=1e-12)


def test_lift_eigenvector_k1_is_base_column():
    base = eigh(adjacency(path_graph(4)))
    lifted = lift_eigenvector(base, [(2,)])
    assert lifted.values.tolist() == [base.values[2]]
    assert np.allclose(lifted.vectors[:, 0], base.vectors[:, 2], atol=1e-12)


def test_lift_eigenvector_p3_indices_02():
    base = eigh(adjacency(path_graph(3)))
    c = signed_matrix(build_wedge_graph(path_graph(3), 2))
    lifted = lift_eigenvector(base, [(0, 2)])
    assert lifted.values[0] == pytest.approx(0.0, abs=1e-12)
    assert np.linalg.norm(c @ lifted.vectors - lifted.vectors * lifted.values) <= 1e-9


def test_lift_eigenvector_k4_pairs():
    # Ascending base spectrum of K_4 is {-1,-1,-1,3}: indices (0,1) lift to
    # eigenvalue -2, indices (0,3) to 2; both satisfy the residual bound.
    base = eigh(adjacency(complete_graph(4)))
    c = signed_matrix(build_wedge_graph(complete_graph(4), 2))
    lifted = lift_eigenvector(base, [(0, 1), (0, 3)])
    assert np.allclose(lifted.values, [-2.0, 2.0], atol=1e-9)
    assert np.linalg.norm(c @ lifted.vectors - lifted.vectors * lifted.values, axis=0).max() <= 1e-9


def test_lift_eigenvector_norm_and_orthonormal_set():
    base = eigh(adjacency(path_graph(4)))
    vectors = lift_eigenvector(base, list(itertools.combinations(range(4), 2))).vectors
    assert np.abs(np.linalg.norm(vectors, axis=0) - 1.0).max() <= 1e-12
    assert np.abs(vectors.T @ vectors - np.eye(6)).max() <= 1e-10


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
        lifted = lift_eigenvector(base, sets)
        for idx, vector, value in zip(sets, lifted.vectors.T, lifted.values):
            want = np.linalg.det(base.vectors[sets[:, :, None], idx])
            assert np.max(np.abs(vector - want)) <= 1e-12, (k, idx)
            assert value == math.fsum(base.values[idx])


def test_lift_rejects_norm_defect_above_table_tolerance():
    # A 1e-9 scale error in the base columns is far below the old hard-coded
    # 1e-6 but far above LIFT_NORM_TOL.
    base = eigh(adjacency(path_graph(5)))
    skewed = EigenDecomposition(base.values, base.vectors * (1.0 + 1e-9))
    with pytest.raises(ValueError, match="orthonormal"):
        lift_eigenvector(skewed, [(0, 2)])
    assert abs(np.linalg.norm(lift_eigenvector(base, [(0, 2)]).vectors) - 1.0) <= LIFT_NORM_TOL


def test_lift_rejects_repeated_indices():
    base = eigh(adjacency(path_graph(4)))
    with pytest.raises(ValueError):
        lift_eigenvector(base, [(0, 2), (1, 1)])
    with pytest.raises(ValueError):
        lift_eigenvector(base, [(2, 1)])
    with pytest.raises(ValueError):
        subset_sums(base.values, 5)


def test_spectrum_gap_ignores_input_order():
    assert spectrum_gap([0.0, 1.0], [1.0, 1e-12]) == 1e-12
    assert spectrum_gap([1.0, 1e-12], [0.0, 1.0]) == 1e-12
    assert spectrum_gap(np.array([3.0, -1.0, 2.0]), [2.0, 3.0, -1.0]) == 0.0


def test_spectrum_gap_size_mismatch_is_inf():
    assert spectrum_gap([0.0], [0.0, 0.0]) == math.inf
    assert spectrum_gap([], [0.0]) == math.inf


def test_spectrum_gap_reports_the_largest_pair_gap():
    assert spectrum_gap([0.0, 2.0], [0.0, 3.0]) == 1.0
    assert spectrum_gap([], []) == 0.0


def test_spectrum_collapse_and_json():
    s = spectrum_dict(np.array([2.0, 1.0 + 1e-12, 1.0]), 1e-9)
    data = json.loads(json.dumps(s))
    assert data["tol"] == 1e-9
    assert data["values"] == [1.0, 1.0 + 1e-12, 2.0]
    assert data["multiplicity_collapsed"] == [[1.0, 2], [2.0, 1]]
    # A value joins a group within tol of the group's first value, not of its
    # last: 1.0, 1.6 and 2.2 at tol 1 make two groups.
    assert spectrum_dict([1.0, 1.6, 2.2], 1.0)["multiplicity_collapsed"] == [[1.0, 2], [2.2, 1]]


def test_lift_k4_k2_value_2_is_pair_sum():
    # Base spectrum of K_4 is {-1,-1,-1,3}; increasing pairs sum to
    # -2 (three ways) and 2 (three ways).
    base = eigh(adjacency(complete_graph(4)))
    sums = sorted(
        base.values[i] + base.values[j] for i, j in itertools.combinations(range(4), 2)
    )
    assert np.allclose(sums, [-2, -2, -2, 2, 2, 2], atol=1e-9)
