import itertools
import json

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from branchrep import (
    DirectedGraph,
    Edge,
    GraphError,
    decompose,
    graph_from_json,
    is_p_simple,
    parse_graph,
    truncate,
)
from branchrep.graph import component_forests
from conftest import EXAMPLE_GRAPH_PATH, path_graph, single_edge_graph
from graph_oracle import adjacent, find_paths
from structure_oracle import component_edges


def test_example_fixture_accessors(example_graph):
    g = example_graph
    assert g.vertex_count == 12
    assert g.edge_count == 12
    assert [e.id for e in g.out_edges("v9")] == ["e10", "e11", "e12"]
    assert [e.id for e in g.incident("v4")] == ["e3", "e4", "e5"]
    # a loop shows up once in the incident list
    assert [e.id for e in g.incident("v8")] == ["e8"]
    assert g.edge("e5").src == "v4" and g.edge("e5").rng == "v5"
    assert g.sinks() == ("v6", "v7", "v10", "v11", "v12")
    assert g.vertex_position("v3") == 2
    assert g.edge_position("e10") == 9


def test_edge_helpers():
    e = Edge("x", "a", "b")
    assert not e.is_loop
    assert Edge("l", "a", "a").is_loop


@pytest.mark.parametrize(
    "doc, fragment",
    [
        ([], "must be an object"),
        ({"vertices": []}, "missing required field 'edges'"),
        ({"edges": []}, "missing required field 'vertices'"),
        ({"vertices": [], "edges": [], "extra": 1}, "unknown top-level field"),
        ({"vertices": {}, "edges": []}, "'vertices' must be an array"),
        ({"vertices": ["a", "a"], "edges": []}, "vertices[1]"),
        ({"vertices": [3], "edges": []}, "vertices[0]"),
        (
            {"vertices": ["a"], "edges": [{"id": "e", "src": "a"}]},
            "edges[0]",
        ),
        (
            {"vertices": ["a"], "edges": [{"id": "e", "src": "a", "rng": "a", "w": 1}]},
            "unknown edge field",
        ),
        (
            {"vertices": ["a"], "edges": [{"id": "e", "src": "a", "rng": "b"}]},
            "unknown rng vertex 'b'",
        ),
        (
            {"vertices": ["a"], "edges": [{"id": "e", "src": "b", "rng": "a"}]},
            "unknown src vertex 'b'",
        ),
        (
            {"vertices": ["a"], "edges": [{"id": 7, "src": "a", "rng": "a"}]},
            "edges[0].id",
        ),
        (
            {
                "vertices": ["a"],
                "edges": [
                    {"id": "e", "src": "a", "rng": "a"},
                    {"id": "e", "src": "a", "rng": "a"},
                ],
            },
            "duplicate edge id 'e'",
        ),
    ],
)
def test_parse_errors_are_located(doc, fragment):
    with pytest.raises(GraphError) as exc:
        graph_from_json(doc)
    assert fragment in str(exc.value)


def test_parse_graph_rejects_bad_json():
    with pytest.raises(GraphError) as exc:
        parse_graph("{nope")
    assert "invalid JSON" in str(exc.value)


def test_adjacent(example_graph):
    g = example_graph
    assert adjacent(g, "v2", "v3")
    assert adjacent(g, "v3", "v2")
    assert adjacent(g, "v4", "v5")
    assert not adjacent(g, "v1", "v3")
    # loops never make a vertex adjacent to itself
    assert not adjacent(g, "v8", "v8")
    with pytest.raises(GraphError):
        adjacent(g, "v2", "nope")


def test_find_paths_example(example_graph):
    g = example_graph
    paths = find_paths(g, "v2", "v3", limit=10)
    assert [p.edges for p in paths] == [("e2",), ("e3", "e4")]
    assert paths[0].vertices == ("v2", "v3")
    assert paths[1].vertices == ("v2", "v4", "v3")
    assert not paths[0].is_cycle
    # direction does not matter when walking
    back = find_paths(g, "v3", "v2", limit=10)
    assert [p.edges for p in back] == [("e2",), ("e4", "e3")]


def test_find_paths_cycles_and_limit(example_graph):
    g = example_graph
    cycles = find_paths(g, "v2", "v2", limit=10)
    cycle_edge_sets = {frozenset(p.edges) for p in cycles if p.is_cycle}
    assert frozenset({"e2", "e4", "e3"}) in cycle_edge_sets
    loop = find_paths(g, "v8", "v8", limit=10)
    assert [p.edges for p in loop] == [("e8",)]
    assert loop[0].is_cycle

    only_one = find_paths(g, "v2", "v3", limit=1)
    assert len(only_one) == 1
    with pytest.raises(GraphError):
        find_paths(g, "v2", "v3", limit=0)


def test_find_paths_edge_distinct():
    # parallel edges a =( e1, e2 )= b: two one-edge paths and nothing longer
    g = graph_from_json(
        {
            "vertices": ["a", "b"],
            "edges": [
                {"id": "e1", "src": "a", "rng": "b"},
                {"id": "e2", "src": "a", "rng": "b"},
            ],
        }
    )
    paths = find_paths(g, "a", "b", limit=10)
    assert [p.edges for p in paths] == [("e1",), ("e2", "e1")] or [
        p.edges for p in paths
    ] == [("e1",), ("e2",)]
    # walks may not reuse an edge, so every returned path has distinct ids
    for p in paths:
        assert len(set(p.edges)) == len(p.edges)


def test_is_p_simple_cases(example_graph):
    assert not is_p_simple(example_graph)  # triangle v2-v3-v4 and the loop e8
    assert is_p_simple(path_graph(4))
    assert is_p_simple(graph_from_json({"vertices": ["a"], "edges": []}))
    parallel = graph_from_json(
        {
            "vertices": ["a", "b"],
            "edges": [
                {"id": "e1", "src": "a", "rng": "b"},
                {"id": "e2", "src": "b", "rng": "a"},
            ],
        }
    )
    assert not is_p_simple(parallel)
    loop = graph_from_json(
        {"vertices": ["a"], "edges": [{"id": "l", "src": "a", "rng": "a"}]}
    )
    assert not is_p_simple(loop)


def _direct_p_simple(g: DirectedGraph) -> bool:
    """Definition-level predicate: no loops, at most one trail per vertex pair."""
    if any(e.is_loop for e in g.edges):
        return False
    for a, b in itertools.combinations(g.non_isolated(), 2):
        if len(find_paths(g, a, b, limit=2)) > 1:
            return False
    return True


def test_p_simple_exhaustive_cross_check():
    """Compare the component sweep against the definition on every multigraph
    with 5 labeled vertices and at most 6 edges. Both predicates only see
    endpoint multisets, so enumerating those is exhaustive over directions;
    loops, parallel pairs, and every cycle length fit inside the budget."""
    names = ["a", "b", "c", "d", "e"]
    pair_types = [(i, j) for i in range(5) for j in range(i, 5)]
    checked = 0
    for k in range(0, 7):
        for combo in itertools.combinations_with_replacement(pair_types, k):
            edges = [
                {"id": f"e{t}", "src": names[i], "rng": names[j]}
                for t, (i, j) in enumerate(combo)
            ]
            g = graph_from_json({"vertices": names, "edges": edges})
            assert is_p_simple(g) == _direct_p_simple(g), combo
            checked += 1
    assert checked == sum(
        len(list(itertools.combinations_with_replacement(range(15), k)))
        for k in range(0, 7)
    )


def test_decompose_example(example_graph):
    dec = decompose(example_graph)
    assert dec.components == (
        ("v1", "v2", "v3", "v4", "v5", "v6", "v7", "v9", "v10", "v11", "v12"),
        ("v8",),
    )
    assert dec.isolated == ()


def test_decompose_isolated():
    g = graph_from_json(
        {
            "vertices": ["a", "b", "z"],
            "edges": [{"id": "e", "src": "a", "rng": "b"}],
        }
    )
    dec = decompose(g)
    assert dec.components == (("a", "b"),)
    assert dec.isolated == ("z",)


@st.composite
def small_graph_docs(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    vertices = [f"v{i}" for i in range(n)]
    m = draw(st.integers(min_value=0, max_value=12))
    endpoint = st.integers(min_value=0, max_value=n - 1)
    edges = [
        {"id": f"e{k}", "src": vertices[draw(endpoint)], "rng": vertices[draw(endpoint)]}
        for k in range(m)
    ]
    return {"vertices": vertices, "edges": edges}


@given(small_graph_docs())
@settings(max_examples=150, deadline=None)
def test_decompose_is_a_partition(doc):
    g = graph_from_json(doc)
    dec = decompose(g)
    pieces = [set(c) for c in dec.components] + [set(dec.isolated)]
    union = set().union(*pieces) if pieces else set()
    assert union == set(g.vertices)
    total = sum(len(p) for p in pieces)
    assert total == g.vertex_count  # pairwise disjoint
    member_of = {v: i for i, c in enumerate(dec.components) for v in c}
    for e in g.edges:
        assert member_of[e.src] == member_of[e.rng]
    for c in dec.components:
        assert len(c) >= 1
    for v in dec.isolated:
        assert not g.incident(v)


@given(small_graph_docs())
@settings(max_examples=150, deadline=None)
def test_one_sweep_gives_every_components_forest_bit(doc):
    """Loops, parallel edges and isolated vertices included: each component's
    forest bit is networkx's on that component alone, and P-simple means every bit is set."""
    g = graph_from_json(doc)
    dec = decompose(g)
    assert decompose(g) is dec
    forests = component_forests(g)
    assert len(forests) == len(dec.components)
    for comp, forest in zip(dec.components, forests):
        edges = tuple(component_edges(g, comp))
        undirected = nx.MultiGraph()
        undirected.add_nodes_from(comp)
        undirected.add_edges_from((e.src, e.rng) for e in edges)
        assert forest == nx.is_forest(undirected)
    assert is_p_simple(g) == all(forests)


@given(small_graph_docs())
@settings(max_examples=150, deadline=None)
def test_incident_is_the_touching_edges_in_document_order(doc):
    """Loops and parallel edges included; a loop is listed once."""
    g = graph_from_json(doc)
    for v in g.vertices:
        assert g.incident(v) == tuple(e for e in g.edges if v in (e.src, e.rng))
        assert g.out_edges(v) == tuple(e for e in g.edges if e.src == v)


def test_truncate_example(example_graph):
    g12, boundary12 = truncate(example_graph, 12)
    assert g12.vertex_count == 12 and g12.edge_count == 12
    assert boundary12 == frozenset()

    g5, boundary5 = truncate(example_graph, 5)
    assert g5.vertices == ("v1", "v2", "v3", "v4", "v5")
    assert [e.id for e in g5.edges] == ["e1", "e2", "e3", "e4", "e5"]
    assert boundary5 == frozenset({"v3", "v5"})

    g0, boundary0 = truncate(example_graph, 0)
    assert g0.vertex_count == 0 and boundary0 == frozenset()

    with pytest.raises(GraphError):
        truncate(example_graph, -1)


def test_subgraph_keeps_document_order(example_graph):
    sg = example_graph.subgraph(["v9", "v3", "v2"], ["e9", "e2"])
    assert sg.vertices == ("v2", "v3", "v9")
    assert [e.id for e in sg.edges] == ["e2", "e9"]


def test_single_edge_graph_shape():
    g = single_edge_graph()
    assert g.sinks() == ("v",)
    assert g.non_isolated() == ("u", "v")
    assert json.loads(json.dumps(g.to_json())) == g.to_json()
