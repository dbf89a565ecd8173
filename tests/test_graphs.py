import json
import math
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from udgraph.graphs import (
    MAX_DOCUMENT_N,
    Graph,
    bipartition_of,
    exact_coloring,
    graph_from_json,
    graph_to_json,
    greedy_coloring,
    make_complete,
    make_complete_multipartite,
    make_kdoubleprime,
    make_kprime,
    make_petersen,
    make_remark_graph,
)


def test_complete_graph_edge_count():
    for n in range(1, 7):
        assert make_complete(n).m == n * (n - 1) // 2


def test_multipartite_structure():
    g = make_complete_multipartite([3, 3])
    assert g.n == 6 and g.m == 9
    assert not g.has_edge(0, 1)  # same part
    assert g.has_edge(0, 3)


def test_petersen_shape():
    g = make_petersen()
    assert g.n == 10 and g.m == 15
    degrees = [len(g.neighbors(v)) for v in range(10)]
    assert degrees == [3] * 10


def test_kprime_family():
    # d ground vertices; three of the other side see all of them, the rest
    # miss exactly one
    for d in (3, 4, 5, 6):
        g = make_kprime(d)
        assert g.n == 2 * d
        full = sum(1 for v in range(d) if len(g.neighbors(v)) == d)
        assert full == 3


def test_kprime_rejects_small():
    with pytest.raises(ValueError):
        make_kprime(2)
    with pytest.raises(ValueError, match="^d must be at least 3$"):
        make_kdoubleprime(2)


def test_edge_count_families():
    for d in range(4, 11):
        assert make_kdoubleprime(d).m == math.comb(d + 3, 2) - 6
        assert make_remark_graph(d).m == math.comb(d + 3, 2)


def test_colorings_are_proper():
    for g in (make_petersen(), make_complete(5), make_kprime(4)):
        for classes in (greedy_coloring(g), exact_coloring(g)):
            seen = sorted(v for cls in classes for v in cls)
            assert seen == list(range(g.n))
            for cls in classes:
                for i, u in enumerate(cls):
                    for v in cls[i + 1:]:
                        assert not g.has_edge(u, v)


def test_exact_coloring_matches_chromatic_number():
    g = make_petersen()
    assert len(exact_coloring(g)) == 3
    assert len(exact_coloring(make_complete(4))) == 4


def test_exact_coloring_at_its_bounds():
    assert exact_coloring(Graph(0, [])) == []
    with pytest.raises(ValueError, match="capped at n=16"):
        exact_coloring(Graph(17, []))


def test_complement_of_a_path_and_back():
    p4 = Graph(4, [(0, 1), (1, 2), (2, 3)])
    co = p4.complement()
    assert co.sorted_edges() == [(0, 2), (0, 3), (1, 3)]
    assert co.complement() == p4


def test_bipartition():
    g = make_complete_multipartite([3, 3])
    a, b = bipartition_of(g)
    assert sorted(a) + sorted(b) == list(range(6)) or sorted(b) + sorted(a) == list(range(6))
    with pytest.raises(ValueError):
        bipartition_of(make_complete(3))


def test_json_roundtrip():
    g = make_kprime(4)
    text = graph_to_json(g)
    back = graph_from_json(text)
    assert back == g
    doc = json.loads(text)
    assert doc["n"] == g.n
    assert all(u < v for u, v in doc["edges"])


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph(3, [(0, 3)])
    with pytest.raises(ValueError):
        Graph(3, [(1, 1)])
    with pytest.raises(ValueError):
        Graph(-1, [])


def test_graph_document_vertex_cap():
    assert graph_from_json(json.dumps({"n": MAX_DOCUMENT_N, "edges": []})).n == MAX_DOCUMENT_N
    with pytest.raises(ValueError, match="capped"):
        graph_from_json(json.dumps({"n": MAX_DOCUMENT_N + 1, "edges": []}))


@st.composite
def _graphs(draw):
    n = draw(st.integers(0, 9))
    edges = draw(st.lists(st.sampled_from(list(combinations(range(n), 2))), max_size=20)
                 if n >= 2 else st.just([]))
    # either orientation, duplicates allowed: the constructor normalises both
    return Graph(n, [(v, u) if draw(st.booleans()) else (u, v) for u, v in edges])


@settings(max_examples=300, deadline=None)
@given(_graphs())
def test_neighbour_table_matches_an_edge_scan(g):
    scan = [sorted({w for e in g.edges if v in e for w in e if w != v}) for v in range(g.n)]
    assert g.adjacency() == scan
    assert [g.neighbors(v) for v in range(g.n)] == scan
    assert [g.degree(v) for v in range(g.n)] == [len(nb) for nb in scan]
    assert g.degrees() == [len(nb) for nb in scan]


def test_neighbour_table_edge_cases():
    assert Graph(0).adjacency() == [] and Graph(0).degrees() == []
    g = Graph(4, [(2, 1), (1, 2)])
    assert g.adjacency() == [[], [2], [1], []]
    assert g.neighbors(0) == [] and g.degree(3) == 0
    # the table is no field: equality, hashing and repr see only the edges
    assert g == Graph(4, [(1, 2)]) and hash(g) == hash(Graph(4, [(1, 2)]))
    assert "_nbrs" not in repr(g)
