import json

import networkx as nx
import numpy as np
import pytest

import genutil
from branchrep import (
    Classification,
    ClassificationKind,
    LevelDecomposition,
    Role,
    StructureError,
    check_structure,
    component_classifications,
    graph_from_json,
    level_decomposition,
    level_report,
    truncate,
    vertex_roles,
)
from conftest import path_graph, star_graph, single_edge_graph
from structure_oracle import extreme_vertices


def undirected_copy(g):
    t = nx.MultiGraph()
    t.add_nodes_from(g.vertices)
    for e in g.edges:
        t.add_edge(e.src, e.rng)
    return t


# -- frozen decompositions ---------------------------------------------------


def test_single_edge_levels():
    d = level_decomposition(single_edge_graph())
    assert d.vertex_levels == (("u", "v"),)
    assert d.edge_levels == (("e",),)
    assert d.residual_vertices == ()
    assert d.max_level == 1
    assert d.level_of("u") == 1 and d.level_of("v") == 1


def test_path4_levels_and_kind():
    g = path_graph(4)
    d = level_decomposition(g)
    assert d.vertex_levels == (("v1", "v4"), ("v2", "v3"))
    assert d.edge_levels == (("e1", "e3"), ("e2",))
    assert d.residual_vertices == () and d.residual_edges == ()
    ((comp, c),) = component_classifications(g, d)
    assert c.kind is ClassificationKind.ALL_LEVELS and c.center is None


def test_path5_levels_and_center():
    g = path_graph(5)
    d = level_decomposition(g)
    assert d.vertex_levels == (("v1", "v5"), ("v2", "v4"))
    assert d.residual_vertices == ("v3",)
    assert d.level_of("v3") is None
    ((comp, c),) = component_classifications(g, d)
    assert c.kind is ClassificationKind.LEVELS_PLUS_CENTER and c.center == "v3"


@pytest.mark.parametrize("outward", [True, False])
def test_star_levels(outward):
    g = star_graph(4, outward=outward)
    d = level_decomposition(g)
    assert d.vertex_levels == (("l1", "l2", "l3", "l4"),)
    # the center drops to zero incident edges after round one and is never
    # extreme, so it stays unleveled
    assert d.residual_vertices == ("c",)
    assert d.residual_edges == ()
    ((comp, c),) = component_classifications(g, d)
    assert c.kind is ClassificationKind.LEVELS_PLUS_CENTER and c.center == "c"


def test_example_graph_levels(example_graph):
    d = level_decomposition(example_graph)
    assert d.vertex_levels == (
        ("v1", "v6", "v7", "v10", "v11", "v12"),
        ("v5", "v9"),
    )
    assert d.edge_levels == (("e1", "e6", "e7", "e10", "e11", "e12"), ("e5", "e9"))
    assert d.residual_vertices == ("v2", "v3", "v4", "v8")
    assert d.residual_edges == ("e2", "e3", "e4", "e8")

    pairs = component_classifications(example_graph, d)
    assert len(pairs) == 2
    (main, c_main), (loop, c_loop) = pairs
    assert c_main.kind is ClassificationKind.IRREGULAR
    assert loop == ("v8",)
    assert c_loop.kind is ClassificationKind.LEVELS_PLUS_CENTER
    assert c_loop.center == "v8"


def test_extreme_vertices_ignores_loops_and_degree(example_graph):
    """The first peeling round is the extreme vertices: a loop-only vertex
    meets one edge and is still not extreme."""
    d = level_decomposition(example_graph)
    assert d.vertex_levels[0] == ("v1", "v6", "v7", "v10", "v11", "v12")
    loop_only = graph_from_json(
        {"vertices": ["a"], "edges": [{"id": "l", "src": "a", "rng": "a"}]}
    )
    assert level_decomposition(loop_only).vertex_levels == ()


# -- roles --------------------------------------------------------------------


def test_roles_on_directed_path():
    g = path_graph(4)
    d = level_decomposition(g)
    ((comp, c),) = component_classifications(g, d)
    roles = vertex_roles(g, d, comp, c)
    assert {v: (r.role, r.witness_edge) for v, r in roles.items()} == {
        "v1": (Role.INITIAL, "e1"),
        "v2": (Role.INITIAL, "e2"),
        "v3": (Role.FINAL, "e2"),
        "v4": (Role.FINAL, "e3"),
    }


def test_roles_on_star_and_center():
    g = star_graph(3, outward=True)
    d = level_decomposition(g)
    ((comp, c),) = component_classifications(g, d)
    roles = vertex_roles(g, d, comp, c)
    assert roles["c"].role is Role.CENTER and roles["c"].witness_edge is None
    for i in (1, 2, 3):
        assert roles[f"l{i}"].role is Role.FINAL
        assert roles[f"l{i}"].witness_edge == f"e{i}"


def test_roles_raise_on_irregular(example_graph):
    d = level_decomposition(example_graph)
    (main, c_main), _ = component_classifications(example_graph, d)
    with pytest.raises(StructureError):
        vertex_roles(example_graph, d, main, c_main)


# -- independent oracles on random trees ---------------------------------------


def _branch_heights(t: nx.MultiGraph, v) -> list[int]:
    """Longest-path length from v into each branch, computed by deleting v."""
    t2 = nx.Graph(t)
    t2.remove_node(v)
    heights = []
    for u in set(t.neighbors(v)):
        comp = nx.node_connected_component(t2, u)
        dist = nx.shortest_path_length(t2.subgraph(comp), u)
        heights.append(1 + max(dist.values()))
    return sorted(heights, reverse=True)


def test_levels_match_branch_height_oracle():
    """On a tree, a vertex goes in round 1 + (second-tallest branch height);
    it survives forever exactly when its two tallest branches tie, and the
    survivor set is the tree center when that is a single vertex. The branch
    heights come from networkx path lengths, not from the peel."""
    for seed in range(100):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 31))
        g = genutil.tree_graph(rng, n)
        d = level_decomposition(g)
        t = undirected_copy(g)
        center = set(nx.center(nx.Graph(t)))
        ((comp, c),) = component_classifications(g, d)
        if len(center) == 2:
            assert c.kind is ClassificationKind.ALL_LEVELS
            assert d.residual_vertices == ()
        else:
            assert c.kind is ClassificationKind.LEVELS_PLUS_CENTER
            assert set(d.residual_vertices) == center
            assert c.center in center
        for v in g.vertices:
            heights = _branch_heights(t, v)
            h1 = heights[0] if heights else 0
            h2 = heights[1] if len(heights) > 1 else 0
            if h1 == h2:
                assert d.level_of(v) is None, (seed, v)
            else:
                assert d.level_of(v) == 1 + h2, (seed, v)


def test_peel_rounds_rederived_per_round():
    """X_n must equal the extreme vertices of the graph left after removing
    rounds 1..n-1, recomputed from scratch each round."""
    for seed in range(30):
        rng = np.random.default_rng(1000 + seed)
        g = genutil.tree_graph(rng, int(rng.integers(2, 25)))
        d = level_decomposition(g)
        current = g
        for xs, ys in zip(d.vertex_levels, d.edge_levels):
            assert extreme_vertices(current) == xs
            keep_v = [v for v in current.vertices if v not in set(xs)]
            keep_e = [e.id for e in current.edges if e.id not in set(ys)]
            current = current.subgraph(keep_v, keep_e)
        assert extreme_vertices(current) == ()
        assert current.vertices == d.residual_vertices


def test_roles_match_walk_toward_center_oracle():
    """A vertex's witness edge must be its first step toward the tree center,
    and the role says whether that edge points at the vertex."""
    for seed in range(50):
        rng = np.random.default_rng(2000 + seed)
        g = genutil.tree_graph(rng, int(rng.integers(2, 20)))
        d = level_decomposition(g)
        ((comp, c),) = component_classifications(g, d)
        roles = vertex_roles(g, d, comp, c)
        t = undirected_copy(g)
        center = nx.center(t)
        for v in g.vertices:
            if c.kind is ClassificationKind.LEVELS_PLUS_CENTER and v == c.center:
                assert roles[v].role is Role.CENTER
                continue
            target = min(center, key=lambda z: nx.shortest_path_length(t, v, z))
            if target == v:  # two-vertex center: walk to the other one
                target = next(z for z in center if z != v)
            step = nx.shortest_path(t, v, target)[1]
            e = g.edge(roles[v].witness_edge)
            assert {e.src, e.rng} == {v, step}
            expected = Role.FINAL if e.rng == v else Role.INITIAL
            assert roles[v].role is expected


# -- shape checks ---------------------------------------------------------------


def test_check_structure_passes_on_honest_decompositions(example_graph):
    for g in (path_graph(4), path_graph(5), star_graph(4, True), example_graph):
        report = check_structure(g, level_decomposition(g))
        assert report.passed, report.to_json()


def test_check_structure_item4_applicability(example_graph):
    report = check_structure(example_graph, level_decomposition(example_graph))
    # neither component is simple-forest shaped, so item 4 never applies
    assert report.item("4").status == "n/a"
    # AllLevels components are absent too
    assert report.item("2a").status == "n/a"
    assert report.item("2b").status == "n/a"
    # the loop component is LevelsPlusCenter with an empty top level
    assert report.item("3a").status == "pass"
    assert report.item("3b").status == "pass"


def test_check_structure_detects_tampered_top_level():
    g = path_graph(4)
    tampered = LevelDecomposition(
        vertex_levels=(("v1",), ("v2", "v3", "v4")),
        edge_levels=(("e1",), ("e2", "e3")),
        residual_vertices=(),
        residual_edges=(),
    )
    report = check_structure(g, tampered)
    assert not report.passed
    assert report.item("1").status == "fail"
    assert report.item("2b").status == "fail"
    assert any(w["vertex"] == "v3" for w in report.item("1").witness)


def test_check_structure_detects_tampered_center_claim():
    g = path_graph(5)
    tampered = LevelDecomposition(
        vertex_levels=(("v1",), ("v2", "v4", "v5")),
        edge_levels=(("e1",), ("e2", "e3")),
        residual_vertices=("v3",),
        residual_edges=("e4",),
    )
    report = check_structure(g, tampered)
    assert not report.passed
    assert report.item("3b").status == "fail"
    assert any(w["vertex"] == "v5" for w in report.item("3b").witness)


def test_check_structure_flags_irregular_claim_on_forest():
    g = path_graph(5)
    tampered = LevelDecomposition(
        vertex_levels=(("v1", "v5"),),
        edge_levels=(("e1", "e4"),),
        residual_vertices=("v2", "v3", "v4"),
        residual_edges=("e2", "e3"),
    )
    report = check_structure(g, tampered)
    assert report.item("4").status == "fail"
    (witness,) = report.item("4").witness
    assert set(witness["unleveled"]) == {"v2", "v3", "v4"}


# -- reporting -------------------------------------------------------------------


def test_level_report_shape_and_truncation_flags(example_graph):
    g5, boundary = truncate(example_graph, 5)
    d = level_decomposition(g5)
    report = level_report(g5, d, boundary)
    assert json.loads(json.dumps(report)) == report
    by_level = {entry["level"]: entry for entry in report["vertexLevels"]}
    # v5 lost its outgoing edges to the cut, so any level set containing it
    # is marked; v3 is also on the boundary
    for entry in report["vertexLevels"]:
        touches = bool(set(entry["vertices"]) & {"v3", "v5"})
        assert entry["truncationSensitive"] == touches
    for entry in report["edgeLevels"]:
        touches = any(
            g5.edge(eid).src in boundary or g5.edge(eid).rng in boundary
            for eid in entry["edges"]
        )
        assert entry["truncationSensitive"] == touches
    assert by_level[1]["level"] == 1


def test_level_report_without_boundary(example_graph):
    d = level_decomposition(example_graph)
    report = level_report(example_graph, d)
    assert [entry["vertices"] for entry in report["vertexLevels"]] == [
        ["v1", "v6", "v7", "v10", "v11", "v12"],
        ["v5", "v9"],
    ]
    assert [entry["edges"] for entry in report["edgeLevels"]] == [
        ["e1", "e6", "e7", "e10", "e11", "e12"],
        ["e5", "e9"],
    ]
    assert report["residualVertices"] == ["v2", "v3", "v4", "v8"]
    assert report["residualEdges"] == ["e2", "e3", "e4", "e8"]
    assert not any(e["truncationSensitive"] for e in report["vertexLevels"])
