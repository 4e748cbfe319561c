"""The sink-first constructions against the two-sweep and post-order originals.

``alignment_oracle`` holds the original ``align_bases`` and
``vertex_dimensions`` verbatim. On honest representations the library must
give the same basis bits and index maps. With corrupted matrices the
outcome is the same, except which vertex is named when two or more fail a
block check. ``vertex_dimensions`` must return the same dict, in the same order,
and name the same vertex on a directed cycle.
"""

import re
import sys
from pathlib import Path

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import alignment_oracle as oracle
import genutil
from branchrep import (
    AlignmentError,
    BranchingError,
    ConcreteRepresentation,
    GraphError,
    align_bases,
    graph_from_json,
    random_representation,
    vertex_dimensions,
)
from branchrep import structure
from branchrep.graph import sink_first_order
from conftest import oracle_examples

# -- align_bases -----------------------------------------------------------------


@st.composite
def honest_cases(draw):
    """An attachment tree, a forest cut from one, or a star, with extra
    isolated vertices, shuffled document order, sink dims 1-3 and a
    complement of 0-2; randomised or axis-aligned."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 8))
    shape = draw(st.sampled_from(["tree", "forest", "ostar", "istar"]))
    doc = genutil.tree_doc(rng, n)
    if shape == "forest":
        first, *rest = doc["edges"]
        doc["edges"] = [first] + [e for e in rest if rng.integers(0, 2)]
    elif shape != "tree":
        doc["edges"] = [
            {"id": f"e{i}", "src": "v1", "rng": f"v{i + 1}"}
            if shape == "ostar"
            else {"id": f"e{i}", "src": f"v{i + 1}", "rng": "v1"}
            for i in range(1, n)
        ]
    doc["vertices"] += [f"iso{i}" for i in range(draw(st.integers(0, 2)))]
    doc["vertices"] = draw(st.permutations(doc["vertices"]))
    doc["edges"] = draw(st.permutations(doc["edges"]))
    g = graph_from_json(doc)
    dims = genutil.random_sink_dims(rng, g, 3)
    rep = random_representation(
        g, dims, draw(st.integers(0, 2)), int(rng.integers(2**32)), draw(st.booleans())
    )
    return g, rep


def _outcome(align, rep, g):
    """The basis bits and both index maps, in order, or the error raised."""
    try:
        ba = align(rep, g)
    except ValueError as err:
        return type(err), str(err)
    return (
        ba.global_basis.tobytes(),
        list(ba.vertex_bases.items()),
        list(ba.edge_bases.items()),
    )


@settings(max_examples=oracle_examples(100), deadline=None)
@given(honest_cases())
def test_align_bases_matches_two_sweep_original(case):
    g, rep = case
    mine = _outcome(align_bases, rep, g)
    assert isinstance(mine[0], bytes)
    assert mine == _outcome(oracle.align_bases, rep, g)


def _corrupt(rep, g, rng, faults):
    """``rep`` with ``faults`` distinct edge or vertex matrices corrupted."""
    edges = dict(rep.edge_matrices)
    vertices = dict(rep.vertex_matrices)
    names = [("edge", e.id) for e in g.edges] + [("vertex", v) for v in g.vertices]
    picks = rng.choice(len(names), size=min(faults, len(names)), replace=False)
    for i in picks:
        kind, key = names[int(i)]
        mats = edges if kind == "edge" else vertices
        m = mats[key]
        how = int(rng.integers(0, 5))
        if how == 0:
            m = m * float(rng.choice([0.5, 1 + 1e-6, 2.0]))
        elif how == 1:
            eps = float(rng.choice([1e-12, 1e-9, 1e-6, 1e-3]))
            noise = rng.standard_normal(m.shape) + 1j * rng.standard_normal(m.shape)
            m = m + eps * noise
        elif how == 2:
            m = np.zeros_like(m)
        elif how == 3:  # another generator's matrix, or the transpose
            others = [k for k in mats if k != key]
            m = mats[others[int(rng.integers(0, len(others)))]] if others else m.T
        else:  # times a random unitary of the whole space
            gauss = rng.standard_normal(m.shape) + 1j * rng.standard_normal(m.shape)
            m = m @ np.linalg.qr(gauss)[0]
        mats[key] = m
    return ConcreteRepresentation(
        dim=rep.dim,
        complement_dim=rep.complement_dim,
        edge_matrices=edges,
        vertex_matrices=vertices,
    )


_WALK_ERRORS = (
    # the three block checks of the walk, each naming its vertex
    re.compile(r"^rank mismatch at vertex '([^']*)'"),
    re.compile(r"^assembled block at vertex '([^']*)' is not orthonormal"),
    re.compile(r"^block assembled for vertex '([^']*)' leaves"),
    # numpy's error when a block check meets an empty block; a known fault
    # of both constructions, which names no vertex
    re.compile(r"^zero-size array to reduction operation maximum()"),
)


def _failed_vertex(outcome):
    """The vertex a failed block check names ('' for none), or None when the
    outcome is not a block-check failure."""
    if outcome[0] not in (AlignmentError, ValueError):
        return None
    for pattern in _WALK_ERRORS:
        match = pattern.match(outcome[1])
        if match:
            return match.group(1)
    return None


@settings(max_examples=oracle_examples(150), deadline=None)
@given(honest_cases(), st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_corrupted_input_fails_as_the_original_fails(case, faults, seed):
    """Equal outcomes, except which block check is reported when two or
    more vertices fail one; a single corrupted matrix can do that (a sink
    whose rank changed fails the rank check of each of its in-neighbours)."""
    g, rep = case
    bad = _corrupt(rep, g, np.random.default_rng(seed), faults)
    mine = _outcome(align_bases, bad, g)
    theirs = _outcome(oracle.align_bases, bad, g)
    if mine == theirs:
        return
    named, other = _failed_vertex(mine), _failed_vertex(theirs)
    assert named is not None and other is not None, (mine, theirs)
    if named and other:
        # the library reports the first failing vertex in its order, and
        # the vertex the original names fails too
        order = sink_first_order(g)
        assert order.index(named) < order.index(other)


def test_align_bases_does_not_compute_vertex_roles(monkeypatch):
    rng = np.random.default_rng(3)
    g = genutil.tree_graph(rng, 7)
    rep = random_representation(g, genutil.random_sink_dims(rng, g), 1, 5)
    expected = _outcome(oracle.align_bases, rep, g)

    def no_roles(*args):
        pytest.fail("align_bases computed vertex roles")

    monkeypatch.setattr(structure, "vertex_roles", no_roles)
    assert _outcome(align_bases, rep, g) == expected


# -- the sink-first order and vertex_dimensions ------------------------------------


@st.composite
def multigraphs(draw):
    """A multigraph with loops, parallel edges and isolated vertices, in
    shuffled document order."""
    names = [f"v{i}" for i in range(draw(st.integers(1, 10)))]
    vertex = st.sampled_from(names)
    pairs = draw(st.lists(st.tuples(vertex, vertex), max_size=14))
    if pairs and draw(st.booleans()):
        pairs.append(draw(st.sampled_from(pairs)))
    names += [f"iso{i}" for i in range(draw(st.integers(0, 2)))]
    edges = [{"id": f"e{i}", "src": s, "rng": r} for i, (s, r) in enumerate(pairs)]
    return graph_from_json(
        {"vertices": draw(st.permutations(names)), "edges": draw(st.permutations(edges))}
    )


def _networkx(g):
    t = nx.MultiDiGraph()
    t.add_nodes_from(g.vertices)
    t.add_edges_from((e.src, e.rng) for e in g.edges)
    return t


@settings(max_examples=oracle_examples(300), deadline=None)
@given(multigraphs())
def test_sink_first_order_against_networkx(g):
    sink_dims = {v: 1 for v in g.sinks()}
    if nx.is_directed_acyclic_graph(_networkx(g)):
        order = sink_first_order(g)
        assert sorted(order) == sorted(g.vertices)
        position = {v: i for i, v in enumerate(order)}
        assert all(position[e.rng] < position[e.src] for e in g.edges)
        mine = vertex_dimensions(g, sink_dims)
        assert list(mine.items()) == list(oracle.vertex_dimensions(g, sink_dims).items())
    else:
        with pytest.raises(GraphError, match="directed cycle detected through vertex"):
            sink_first_order(g)
        with pytest.raises(BranchingError) as mine:
            vertex_dimensions(g, sink_dims)
        with pytest.raises(BranchingError) as theirs:
            oracle.vertex_dimensions(g, sink_dims)
        assert str(mine.value) == str(theirs.value)


def test_vertex_dimensions_matches_original_on_random_dags():
    rng = np.random.default_rng(11)
    for _ in range(200):
        g = genutil.dag_graph(rng, int(rng.integers(1, 14)), extra=int(rng.integers(0, 6)))
        sink_dims = genutil.random_sink_dims(rng, g)
        mine = vertex_dimensions(g, sink_dims)
        assert list(mine.items()) == list(oracle.vertex_dimensions(g, sink_dims).items())


def test_vertex_dimensions_matches_original_on_exact_family_pool():
    bench = Path(__file__).resolve().parent.parent / "perfbench"
    sys.path.insert(0, str(bench))
    try:
        import workloads
    finally:
        sys.path.remove(str(bench))
    for case in workloads.WORKLOADS["exact-family"].cases:
        for variant in range(workloads.VARIANTS):
            s = workloads.draw_structure(case, variant, case.size + 1, 0.03)
            mine = vertex_dimensions(s["g"], s["dims"])
            theirs = oracle.vertex_dimensions(s["g"], s["dims"])
            assert list(mine.items()) == list(theirs.items())

