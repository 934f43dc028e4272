import json
import re

import numpy as np
import pytest

from spinwedge import (
    Graph,
    adjacency,
    complete_graph,
    connected_components,
    cycle_graph,
    degree_matrix,
    export_dot,
    erdos_renyi_graph,
    graph_from_edge_list,
    graph_from_json,
    graph_to_json,
    laplacian,
    path_graph,
)


def test_from_edge_list_builds_p3():
    g = graph_from_edge_list(3, [(0, 1), (1, 2)])
    assert g == path_graph(3)


def test_from_edge_list_dedups_and_normalizes():
    g = graph_from_edge_list(3, [(1, 0), (0, 1), (1, 2)])
    assert g == path_graph(3)


def test_from_edge_list_out_of_range():
    with pytest.raises(ValueError):
        graph_from_edge_list(2, [(0, 2)])


def test_self_loop_rejected():
    with pytest.raises(ValueError):
        graph_from_edge_list(3, [(1, 1)])
    with pytest.raises(ValueError):
        Graph(3, ((1, 1),))


def test_graph_rejects_duplicates():
    with pytest.raises(ValueError):
        Graph(3, ((0, 1), (1, 0)))


def test_family_edge_counts():
    assert path_graph(6).num_edges == 5
    assert complete_graph(4).num_edges == 6
    assert cycle_graph(5).num_edges == 5
    assert path_graph(1).num_edges == 0


def test_cycle_too_small():
    with pytest.raises(ValueError):
        cycle_graph(2)


def test_adjacency_p3():
    assert np.array_equal(adjacency(path_graph(3)), [[0, 1, 0], [1, 0, 1], [0, 1, 0]])


def test_adjacency_k2_and_edgeless():
    assert np.array_equal(adjacency(complete_graph(2)), [[0, 1], [1, 0]])
    assert np.array_equal(adjacency(Graph(3, ())), np.zeros((3, 3)))


def test_laplacian_p3():
    assert np.array_equal(laplacian(path_graph(3)), [[1, -1, 0], [-1, 2, -1], [0, -1, 1]])


def test_degree_matrix_k3():
    assert np.array_equal(degree_matrix(complete_graph(3)), np.diag([2.0, 2.0, 2.0]))


def test_laplacian_k2_eigenvalues():
    # 2x2 by hand: det(L - x I) = x^2 - 2x, roots 0 and 2.
    vals = np.linalg.eigvalsh(laplacian(complete_graph(2)))
    assert np.allclose(vals, [0.0, 2.0], atol=1e-12)


@pytest.mark.parametrize("g", [path_graph(7), cycle_graph(6), complete_graph(5), erdos_renyi_graph(8, 0.4, 3)])
def test_handshake_and_zero_row_sums(g):
    assert 2 * g.num_edges == sum(g.degrees())
    assert np.allclose(laplacian(g).sum(axis=1), 0.0)


def test_connected_components():
    assert connected_components(path_graph(4)) == 1
    assert connected_components(Graph(3, ())) == 3
    two_triangles = graph_from_edge_list(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    assert connected_components(two_triangles) == 2


def test_erdos_renyi_deterministic():
    assert erdos_renyi_graph(6, 0.5, 0) == erdos_renyi_graph(6, 0.5, 0)
    draws = {erdos_renyi_graph(6, 0.5, s) for s in range(5)}
    assert all(g.n == 6 for g in draws)


def test_dot_p2():
    text = export_dot(path_graph(2))
    tokens = text.split()
    assert tokens[0] == "graph" and "0" in tokens and "--" in tokens and "1;" in tokens


def test_dot_isolated_vertices_and_quoting():
    g = Graph(3, ((0, 1),))
    text = export_dot(g, ["a", "b c", "2"])
    assert 'a -- "b c";' in text
    assert "  2;" in text


def test_dot_name_length_checked():
    with pytest.raises(ValueError):
        export_dot(path_graph(3), ["a", "b"])


def test_json_roundtrip_k4():
    g = complete_graph(4)
    assert graph_from_json(graph_to_json(g)) == g


def test_json_malformed_reports_position():
    with pytest.raises(json.JSONDecodeError) as err:
        graph_from_json('{"n": 3, "edges": [[0, 1],]}')
    assert err.value.pos >= 0


def test_json_schema_errors():
    with pytest.raises(ValueError):
        graph_from_json('{"n": 3}')
    with pytest.raises(ValueError):
        graph_from_json('{"n": "3", "edges": []}')
    with pytest.raises(ValueError):
        graph_from_json('{"n": 3, "edges": [[0, 1, 2]]}')


@pytest.mark.parametrize(
    "text,named",
    [
        ('{"n": 2, "edges": [[false, true]]}', "[False, True]"),
        ('{"n": 2, "edges": [[0, true]]}', "[0, True]"),
        ('{"n": true, "edges": []}', "True"),
        ('{"n": false, "edges": []}', "False"),
    ],
)
def test_json_rejects_boolean_labels(text, named):
    # JSON booleans are not vertex labels, though Python counts bool as int.
    with pytest.raises(ValueError, match=re.escape(named)):
        graph_from_json(text)
