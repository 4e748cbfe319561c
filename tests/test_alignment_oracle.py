"""The sink-first constructions against the two-sweep and post-order originals.

``alignment_oracle`` holds the original ``align_bases`` and
``vertex_dimensions`` verbatim. Its ``align_bases`` still refuses graphs
that are not P-simple, so the two are compared on forests; on other
acyclic graphs the pipeline's own checks and ``synthesize`` referee. On
honest representations the library must give the same basis bits and
index maps. With corrupted matrices the outcome is the same, except which
vertex is named when two or more fail a block check, and where the
original dies in numpy on an empty block. ``vertex_dimensions`` must return
the same dict, in the same order, and name the same vertex on a directed
cycle.
"""

import dataclasses
import re
import sys
from pathlib import Path

import networkx as nx
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import alignment_oracle as oracle
import genutil
from branchrep import (
    AlignmentError,
    BranchingError,
    ClassificationKind,
    ConcreteRepresentation,
    DegenerateRankError,
    GraphError,
    Tolerances,
    align_bases,
    branching_to_json,
    check_b2b,
    check_representation,
    component_classifications,
    extract_branching_system,
    graph_from_json,
    is_p_simple,
    level_decomposition,
    random_representation,
    synthesize,
    validate,
    verify_equivalence,
    vertex_dimensions,
)
from branchrep import alignment, structure
from branchrep.graph import sink_first_order
from conftest import oracle_examples
from test_alignment import twisted_edge

# -- align_bases -----------------------------------------------------------------


@st.composite
def honest_cases(draw):
    """An attachment tree, a forest cut from one, or a star, with extra
    isolated vertices, shuffled document order, sink dims 1-3 and a
    complement of 0-2; Haar-twisted or the exact 0/1 canonical model."""
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
    comp = draw(st.integers(0, 2))
    seed = int(rng.integers(2**32))
    if draw(st.booleans()):
        rep = genutil.canonical_representation(g, dims, comp)
    else:
        rep = random_representation(g, dims, comp, seed)
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
    # numpy's error when the original's block check meets an empty block,
    # which names no vertex; the library measures an empty block's
    # deviations as 0 instead
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
    whose rank changed fails the rank check of each of its in-neighbours).
    Where the original meets an empty block and dies in numpy, the library
    may go on."""
    g, rep = case
    bad = _corrupt(rep, g, np.random.default_rng(seed), faults)
    mine = _outcome(align_bases, bad, g)
    theirs = _outcome(oracle.align_bases, bad, g)
    if mine == theirs:
        return
    if theirs[0] is ValueError and theirs[1].startswith("zero-size array"):
        # only the original dies on an empty block; the library goes on to
        # a basis or a check that refuses, never a bare ValueError
        assert isinstance(mine[0], bytes) or issubclass(mine[0], AlignmentError), mine
        return
    named, other = _failed_vertex(mine), _failed_vertex(theirs)
    assert named is not None and other is not None, (mine, theirs)
    if named and other:
        # the library reports the first failing vertex in its order, and
        # the vertex the original names fails too
        order = sink_first_order(g)
        assert order.index(named) < order.index(other)


@settings(max_examples=oracle_examples(100), deadline=None)
@given(
    honest_cases(),
    st.booleans(),
    st.integers(1, 3),
    st.integers(0, 2**32 - 1),
    st.sampled_from([1e-10, 1e-6, 1e-3]),
)
def test_own_basis_matches_block_to_block_positionally(case, corrupt, faults, seed, rep_tol):
    """An emitter's block is the images S_e·B_rng(e) themselves, in the
    order of ``edge_bases``, so on the basis ``align_bases`` returns the
    strict positional block-to-block check passes and the system read off
    it validates, whenever the relation check passes and the basis is
    built."""
    g, rep = case
    if corrupt:
        rep = _corrupt(rep, g, np.random.default_rng(seed), faults)
    tols = Tolerances(rep=rep_tol)
    if not check_representation(rep, g, tols).passed:
        return
    try:
        ba = align_bases(rep, g, tols)
    except AlignmentError:
        return
    assert check_b2b(rep, ba, g, tols).passed
    assert validate(extract_branching_system(rep, ba, g, tols).system, g).passed


def test_align_bases_does_not_compute_vertex_roles(monkeypatch):
    rng = np.random.default_rng(3)
    g = genutil.tree_graph(rng, 7)
    rep = random_representation(g, genutil.random_sink_dims(rng, g), 1, 5)
    expected = _outcome(oracle.align_bases, rep, g)

    def no_roles(*args):
        pytest.fail("align_bases computed vertex roles")

    monkeypatch.setattr(structure, "vertex_roles", no_roles)
    assert _outcome(align_bases, rep, g) == expected


def _svd_calls(monkeypatch, rep):
    """Record each SVD ``alignment`` asks numpy for: whose matrix (a vertex,
    or 'complement' for any other) and whether vectors were requested."""
    owner = {id(m): v for v, m in rep.vertex_matrices.items()}
    calls = []
    svd = np.linalg.svd

    def spy(m, *args, **kwargs):
        calls.append((owner.get(id(m), "complement"), kwargs.get("compute_uv", True)))
        return svd(m, *args, **kwargs)

    monkeypatch.setattr(alignment.np.linalg, "svd", spy)
    return calls


def _svd_case(seed):
    """A 9-vertex tree with two isolated vertices and a complement of 1."""
    rng = np.random.default_rng(seed)
    doc = genutil.tree_doc(rng, 9)
    doc["vertices"] += ["iso0", "iso1"]
    g = graph_from_json(doc)
    return g, random_representation(g, genutil.random_sink_dims(rng, g, 3), 1, 6)


def test_honest_input_aligns_with_no_svd(monkeypatch):
    """Every vertex's rank, and every sink's, isolated vertex's and the
    complement's basis, comes from the rank proof's thin QR: on honest
    input ``align_bases`` asks numpy for no SVD at all."""
    g, rep = _svd_case(4)
    calls = _svd_calls(monkeypatch, rep)
    ba = align_bases(rep, g)
    emitters = [v for v in g.vertices if g.out_edges(v)]
    assert len(emitters) >= 3 and set(g.sinks()) - {"iso0", "iso1"}
    assert calls == []
    assert check_b2b(rep, ba, g).passed


def test_a_sink_whose_proof_fails_aligns_through_the_svd(monkeypatch):
    """(1 + δ)·P_v, with δ = 0.9·lo under the refuse band (lo, hi) and P_v
    of rank k ≥ 2, has every singular value clear of the band, and so has
    the complement, which gains δ·P_v; but ‖δ·P_v‖_F = δ·√k > lo is too
    much for either proof. The full SVDs give the bases, and the index maps
    and the extracted system are those of the honest input."""
    g, rep = _svd_case(4)
    lo, hi = Tolerances().rank * 1e-2, Tolerances().rank * 1e2
    sinks = [v for v in g.sinks() if g.incident(v)]
    v = max(sinks, key=lambda v: np.trace(rep.vertex_matrices[v]).real)
    assert np.trace(rep.vertex_matrices[v]).real > 1.5
    m = rep.vertex_matrices[v] * (1 + 0.9 * lo)
    bad = dataclasses.replace(rep, vertex_matrices={**rep.vertex_matrices, v: m})
    assert alignment._proved_rank(m, lo, hi) is None
    honest = align_bases(rep, g)
    calls = _svd_calls(monkeypatch, bad)
    ba = align_bases(bad, g)
    assert calls == [(v, True), ("complement", True)]
    assert (ba.vertex_bases, ba.edge_bases) == (honest.vertex_bases, honest.edge_bases)
    assert check_b2b(bad, ba, g).passed
    assert extract_branching_system(bad, ba, g).system == extract_branching_system(rep, honest, g).system


@pytest.mark.parametrize("seed", range(4))
def test_a_degenerate_sink_is_refused_in_the_full_svds_digits(monkeypatch, seed):
    """A sink with a singular value inside the refuse band fails the proof,
    and its full SVD words the refusal."""
    g, rep = _svd_case(seed)
    v = next(v for v in g.sinks() if g.incident(v))
    rng = np.random.default_rng(seed)
    w = np.linalg.svd(alignment._leftover(rep, g))[0][:, 0]
    weight = Tolerances().rank * float(rng.uniform(0.1, 90))
    m = rep.vertex_matrices[v] + weight * np.outer(w, w.conj())
    bad = dataclasses.replace(rep, vertex_matrices={**rep.vertex_matrices, v: m})
    lo, hi = Tolerances().rank * 1e-2, Tolerances().rank * 1e2
    shady = [float(x) for x in np.linalg.svd(m)[1] if lo < x < hi]
    assert len(shady) == 1
    calls = _svd_calls(monkeypatch, bad)
    with pytest.raises(DegenerateRankError) as err:
        align_bases(bad, g)
    assert str(err.value) == (
        f"singular value(s) {shady} fall between {lo} and {hi}; rank is numerically ambiguous"
    )
    assert calls[-1] == (v, True) and (v, False) not in calls


@pytest.mark.parametrize("seed", range(4))
def test_a_degenerate_emitter_is_refused_in_the_full_svds_digits(monkeypatch, seed):
    """An emitter whose rank proof fails gets one full SVD, with no
    values-only one first, and its digits word the refusal."""
    rng = np.random.default_rng(seed)
    g = graph_from_json(genutil.tree_doc(rng, 6))
    rep = random_representation(g, genutil.random_sink_dims(rng, g, 3), 2, seed)
    v = next(v for v in g.vertices if g.out_edges(v))
    # a unit vector of the complement, added to v's projection at a weight
    # inside (tols.rank·1e-2, tols.rank·1e2)
    w = np.linalg.svd(alignment._leftover(rep, g))[0][:, 0]
    weight = Tolerances().rank * float(rng.uniform(0.1, 90))
    vertices = {**rep.vertex_matrices, v: rep.vertex_matrices[v] + weight * np.outer(w, w.conj())}
    bad = dataclasses.replace(rep, vertex_matrices=vertices)
    expected = _outcome(oracle.align_bases, bad, g)
    assert expected[0] is DegenerateRankError
    calls = _svd_calls(monkeypatch, bad)
    assert _outcome(align_bases, bad, g) == expected
    assert calls[-1] == (v, True) and (v, False) not in calls


# -- acyclic graphs beyond P-simple ----------------------------------------------


@st.composite
def acyclic_multigraph_cases(draw):
    """A graph whose edges all run forward in a hidden order of 2-7 vertices,
    so it has no directed cycle but may have parallel edges and undirected
    cycles, plus isolated vertices, in shuffled document order; sink dims
    1-3, a complement of 0-2, and a universe of at most 64 indices (parallel
    edges along a path multiply it); Haar-twisted or the exact 0/1
    canonical model."""
    n = draw(st.integers(2, 7))
    names = [f"v{i}" for i in range(n)]
    forward = st.integers(0, n - 2).flatmap(
        lambda a: st.tuples(st.just(a), st.integers(a + 1, n - 1))
    )
    pairs = draw(st.lists(forward, min_size=1, max_size=2 * n))
    if draw(st.booleans()):
        pairs.append(draw(st.sampled_from(pairs)))
    edges = [{"id": f"e{k}", "src": names[a], "rng": names[b]} for k, (a, b) in enumerate(pairs)]
    names += [f"iso{i}" for i in range(draw(st.integers(0, 2)))]
    g = graph_from_json(
        {"vertices": draw(st.permutations(names)), "edges": draw(st.permutations(edges))}
    )
    sink_dims = {v: draw(st.integers(1, 3)) for v in g.sinks()}
    comp = draw(st.integers(0, 2))
    assume(sum(vertex_dimensions(g, sink_dims).values()) + comp <= 64)
    seed = draw(st.integers(0, 2**32 - 1))
    if draw(st.booleans()):
        rep = genutil.canonical_representation(g, sink_dims, comp)
    else:
        rep = random_representation(g, sink_dims, comp, seed)
    return g, sink_dims, comp, rep


@settings(max_examples=oracle_examples(100), deadline=None)
@given(acyclic_multigraph_cases(), st.integers(0, 2**16))
def test_every_acyclic_graph_certifies_and_still_catches_a_twist(case, pick):
    """No directed cycle is all the construction needs: an honest
    representation of any acyclic multigraph certifies, and extracts the
    synthesized system. A rotation inside a block of rank two or more
    still fails the block-to-block check."""
    g, sink_dims, comp, rep = case
    tols = Tolerances()
    assert check_representation(rep, g, tols).passed
    ba = align_bases(rep, g, tols)
    assert check_b2b(rep, ba, g, tols).passed
    cert = extract_branching_system(rep, ba, g, tols)
    assert validate(cert.system, g).passed
    cert = verify_equivalence(rep, cert, g, tols)
    assert cert.max_residual <= tols.residual
    assert branching_to_json(cert.system) == branching_to_json(
        synthesize(g, sink_dims, slack=comp)
    )

    wide = [e.id for e in g.edges if len(ba.vertex_bases[e.rng]) >= 2]
    if wide:
        mutated = twisted_edge(rep, ba, g, wide[pick % len(wide)])
        assert not check_b2b(mutated, ba, g, tols).passed
        with pytest.raises(AlignmentError, match="block-to-block condition fails"):
            extract_branching_system(mutated, ba, g, tols)


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
def test_p_simple_graphs_are_forests_and_always_level(g):
    """A structure fact for ``analyze``: a P-simple graph is a forest, and a
    finite forest peels down to at most one leftover vertex per component
    (C. Jordan, J. reine angew. Math. 70, 1869), so no P-simple graph has an
    Irregular component. ``align_bases`` does not ask for either; it needs
    only that the graph has no directed cycle."""
    undirected = nx.MultiGraph()
    undirected.add_nodes_from(g.vertices)
    undirected.add_edges_from((e.src, e.rng) for e in g.edges)
    assert is_p_simple(g) == nx.is_forest(undirected)
    if is_p_simple(g):
        classifications = component_classifications(g, level_decomposition(g))
        assert all(c.kind is not ClassificationKind.IRREGULAR for _, c in classifications)


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

