"""The one-pass structure routines against the original quadratic ones.

``structure_oracle`` holds the original ``level_decomposition``,
``component_classifications`` and ``check_structure`` verbatim; on every
multigraph the library must produce exactly what they produce.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import structure_oracle as oracle
from branchrep import (
    LevelDecomposition,
    check_structure,
    component_classifications,
    component_is_p_simple,
    decompose,
    graph_from_json,
    level_decomposition,
)
from conftest import oracle_examples, path_graph


@st.composite
def multigraph_docs(draw):
    """Random multigraph plus, on demand, each shape the peel treats specially.

    The random part has loops and parallel edges; the extras add an isolated
    vertex, a vertex carrying only loops, an edge whose two endpoints are both
    extreme, and a parallel copy of an existing edge. Vertex document order
    is shuffled so that it differs from the order of the names.
    """
    n = draw(st.integers(0, 12))
    names = [f"v{i}" for i in range(n)]
    pairs = []
    if n:
        vertex = st.sampled_from(names)
        pairs = draw(st.lists(st.tuples(vertex, vertex), max_size=14))
    if draw(st.booleans()):
        names.append("iso")
    if draw(st.booleans()):
        names.append("looped")
        pairs += [("looped", "looped")] * draw(st.integers(1, 2))
    if draw(st.booleans()):
        names += ["pa", "pb"]
        pairs.append(draw(st.sampled_from([("pa", "pb"), ("pb", "pa")])))
    if pairs and draw(st.booleans()):
        pairs.append(draw(st.sampled_from(pairs)))
    vertices = draw(st.permutations(names))
    edges = [{"id": f"e{i}", "src": s, "rng": r} for i, (s, r) in enumerate(pairs)]
    edges = draw(st.permutations(edges))
    return {"vertices": list(vertices), "edges": list(edges)}


def _same_structure(g, d):
    assert component_classifications(g, d) == oracle.component_classifications(g, d)
    assert json.dumps(check_structure(g, d).to_json()) == json.dumps(
        oracle.check_structure(g, d).to_json()
    )
    for comp in decompose(g).components:
        assert component_is_p_simple(g, comp) == oracle.component_is_p_simple(g, comp)


@settings(max_examples=oracle_examples(400), deadline=None)
@given(multigraph_docs())
def test_structure_matches_quadratic_oracle(doc):
    g = graph_from_json(doc)
    d = level_decomposition(g)
    expected = oracle.level_decomposition(g)
    assert d.vertex_levels == expected.vertex_levels
    assert d.edge_levels == expected.edge_levels
    assert d.residual_vertices == expected.residual_vertices
    assert d.residual_edges == expected.residual_edges
    _same_structure(g, d)


@settings(max_examples=oracle_examples(200), deadline=None)
@given(multigraph_docs(), st.data())
def test_check_structure_matches_quadratic_oracle_on_claimed_levels(doc, data):
    """check_structure takes any claimed decomposition, not only honest ones."""
    g = graph_from_json(doc)
    claimed = {v: data.draw(st.sampled_from([None, 1, 2, 3])) for v in g.vertices}
    top = max((n for n in claimed.values() if n is not None), default=0)
    d = LevelDecomposition(
        vertex_levels=tuple(
            tuple(v for v in g.vertices if claimed[v] == n) for n in range(1, top + 1)
        ),
        edge_levels=(),
        residual_vertices=tuple(v for v in g.vertices if claimed[v] is None),
        residual_edges=(),
    )
    _same_structure(g, d)


@pytest.mark.parametrize("n", [5000, 5001])
def test_deep_path_levels_and_center(n):
    """A path loses both ends each round: n // 2 rounds, odd n keeps the middle vertex."""
    g = path_graph(n)
    d = level_decomposition(g)
    rounds = n // 2
    assert [len(xs) for xs in d.vertex_levels] == [2] * rounds
    # the last round of an even path removes both ends of one edge
    assert [len(ys) for ys in d.edge_levels] == [2] * (rounds - 1) + [2 if n % 2 else 1]
    assert d.residual_edges == ()
    center = f"v{rounds + 1}" if n % 2 else None
    assert d.residual_vertices == ((center,) if center else ())
    [(_, c)] = component_classifications(g, d)
    assert c.center == center
    assert check_structure(g, d).passed
