import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import genutil
from branchrep import (
    AlignmentError,
    ConcreteRepresentation,
    DegenerateRankError,
    DiscreteBranchingSystem,
    NotApplicableError,
    RepresentationError,
    Tolerances,
    align_bases,
    check_b2b,
    check_representation,
    component_classifications,
    extract_branching_system,
    graph_from_json,
    haar_unitary,
    induce,
    level_decomposition,
    random_representation,
    rep_from_json,
    rep_to_json,
    synthesize,
    to_matrix,
    validate,
    verify_equivalence,
    vertex_dimensions,
    wpi_matrix,
)
from branchrep import alignment
from conftest import path_graph, single_edge_graph, star_graph


def run_pipeline(g, rep):
    ba = align_bases(rep, g)
    assert check_b2b(rep, ba, g).passed
    cert = verify_equivalence(rep, extract_branching_system(rep, ba, g), g)
    assert validate(cert.system, g).passed
    return ba, cert


def twisted_edge(rep, ba, g, edge_id, *, phase_only=False):
    """Post-multiply one edge matrix by a unitary of its domain block.

    The twist acts inside the range vertex's subspace and as the identity on
    its complement, so every graph relation survives; only the block-to-block
    matching against the *prior* basis assignment breaks (a pure phase is
    invisible to the phase-slack matching).
    """
    e = g.edge(edge_id)
    dom = list(ba.vertex_bases[e.rng])
    bmat = ba.global_basis[:, dom]
    k = len(dom)
    if phase_only or k < 2:
        q = -np.eye(k, dtype=complex)
    else:
        q = np.eye(k, dtype=complex)
        c = s = np.sqrt(0.5)
        q[0, 0] = c
        q[0, 1] = -s
        q[1, 0] = s
        q[1, 1] = c
    p = bmat @ bmat.conj().T
    w = bmat @ q @ bmat.conj().T + (np.eye(rep.dim, dtype=complex) - p)
    edges = dict(rep.edge_matrices)
    edges[edge_id] = rep.edge_matrices[edge_id] @ w
    return ConcreteRepresentation(
        dim=rep.dim,
        complement_dim=rep.complement_dim,
        edge_matrices=edges,
        vertex_matrices=rep.vertex_matrices,
    )


# -- exact behaviour on axis-aligned models ------------------------------------


def test_axis_aligned_single_edge_is_exactly_canonical():
    g = single_edge_graph()
    rep = random_representation(g, {"v": 1}, axis_aligned=True)
    assert np.array_equal(to_matrix(induce(synthesize(g, {"v": 1}), g), "e").astype(complex), rep.edge_matrices["e"])
    ba, cert = run_pipeline(g, rep)
    assert np.array_equal(ba.global_basis, np.eye(2, dtype=complex))
    assert np.array_equal(cert.unitary, np.eye(2, dtype=complex))
    assert cert.max_residual == 0.0
    assert cert.system == synthesize(g, {"v": 1})
    assert ba.vertex_bases == {"u": (0,), "v": (1,)}
    assert ba.edge_bases == {"e": (0,)}


def test_axis_aligned_star_recovers_canonical_system():
    g = star_graph(3, outward=True)
    dims = {"l1": 1, "l2": 2, "l3": 1}
    rep = random_representation(g, dims, axis_aligned=True)
    ba, cert = run_pipeline(g, rep)
    b = ba.global_basis
    # every basis vector is a standard coordinate vector (possibly permuted
    # inside blocks where the projection alone cannot order them)
    assert np.array_equal(b @ b.conj().T, np.eye(rep.dim, dtype=complex))
    assert set(np.unique(np.abs(b))) == {0.0, 1.0}
    assert cert.max_residual == 0.0
    assert cert.system == synthesize(g, dims)
    assert ba.vertex_bases == {"c": (0, 1, 2, 3), "l1": (4,), "l2": (5, 6), "l3": (7,)}
    assert ba.edge_bases == {"e1": (0,), "e2": (1, 2), "e3": (3,)}


# -- randomized end-to-end runs --------------------------------------------------


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_pipeline_on_directed_path(seed):
    g = path_graph(5)
    rep = random_representation(g, {"v5": 2}, complement_dim=2, seed=seed)
    _, cert = run_pipeline(g, rep)
    assert cert.max_residual <= 1e-8


def test_pipeline_on_inward_star():
    # the centre is a sink, exercising the free-basis branch at the top
    g = star_graph(3, outward=False)
    rep = random_representation(g, {"c": 2}, complement_dim=1, seed=5)
    _, cert = run_pipeline(g, rep)
    assert cert.max_residual <= 1e-8
    assert sorted(cert.system.domain_sets["c"]) == [0, 1]


def test_pipeline_on_random_trees():
    rng = np.random.default_rng(12)
    for _ in range(10):
        n = int(rng.integers(2, 8))
        g = genutil.tree_graph(rng, n)
        dims = genutil.random_sink_dims(rng, g, max_dim=3)
        rep = random_representation(
            g, dims, complement_dim=int(rng.integers(0, 3)), seed=int(rng.integers(0, 2**31))
        )
        _, cert = run_pipeline(g, rep)
        assert cert.max_residual <= 1e-8


def test_alignment_satisfies_block_identities():
    rng = np.random.default_rng(13)
    for _ in range(8):
        g = genutil.tree_graph(rng, int(rng.integers(2, 8)))
        dims = genutil.random_sink_dims(rng, g, max_dim=3)
        rep = random_representation(g, dims, seed=int(rng.integers(0, 2**31)))
        ba = align_bases(rep, g)
        for e in g.edges:
            assert set(ba.edge_bases[e.id]) <= set(ba.vertex_bases[e.src])
            assert len(ba.edge_bases[e.id]) == len(ba.vertex_bases[e.rng])
        for v in g.vertices:
            out = g.out_edges(v)
            if not out:
                continue
            pieces = [ba.edge_bases[e.id] for e in out]
            flat = [i for piece in pieces for i in piece]
            assert len(flat) == len(set(flat))
            assert sorted(flat) == sorted(ba.vertex_bases[v])


def test_complement_indices_belong_to_no_vertex():
    g = path_graph(3)
    rep = random_representation(g, {"v3": 2}, complement_dim=3, seed=21)
    _, cert = run_pipeline(g, rep)
    union = set()
    for s in cert.system.domain_sets.values():
        union |= s
    complement = set(range(rep.dim)) - union
    assert len(complement) == 3
    assert complement.isdisjoint(union)


def test_align_accepts_precomputed_structure():
    g = path_graph(4)
    rep = random_representation(g, {"v4": 1}, seed=9)
    d = level_decomposition(g)
    cls = component_classifications(g, d)
    ba = align_bases(rep, g, d=d, classifications=cls)
    assert ba.vertex_bases == align_bases(rep, g).vertex_bases


def test_align_bases_block_sizes_match_dimensions():
    g = path_graph(4)
    dims = {"v4": 3}
    rep = random_representation(g, dims, complement_dim=1, seed=4)
    ba = align_bases(rep, g)
    expected = vertex_dimensions(g, dims)
    assert ba.global_basis.shape == (rep.dim, rep.dim)
    for v in g.vertices:
        assert len(ba.vertex_bases[v]) == expected[v]
    for e in g.edges:
        assert len(ba.edge_bases[e.id]) == expected[e.rng]


# -- guards and failure modes ---------------------------------------------------


def test_not_applicable_for_two_unleveled_vertices():
    g = graph_from_json(
        {
            "vertices": ["v1", "v2", "v3", "v4"],
            "edges": [
                {"id": "e1", "src": "v1", "rng": "v2"},
                {"id": "e2", "src": "v3", "rng": "v2"},
                {"id": "e3", "src": "v3", "rng": "v4"},
                {"id": "e4", "src": "v1", "rng": "v4"},
            ],
        }
    )
    rep = random_representation(g, {"v2": 1, "v4": 1}, seed=2)
    with pytest.raises(NotApplicableError, match="not applicable"):
        align_bases(rep, g)


def test_not_applicable_for_loop():
    g = graph_from_json(
        {"vertices": ["u"], "edges": [{"id": "l", "src": "u", "rng": "u"}]}
    )
    one = np.eye(1, dtype=complex)
    rep = ConcreteRepresentation(
        dim=1, complement_dim=0, edge_matrices={"l": one}, vertex_matrices={"u": one}
    )
    assert check_representation(rep, g).passed
    with pytest.raises(NotApplicableError, match="loop, parallel edge, or undirected cycle"):
        align_bases(rep, g)


def test_degenerate_rank_is_reported_not_guessed():
    g = graph_from_json({"vertices": ["a"], "edges": []})
    p = np.diag([1.0, 1e-10, 0.0]).astype(complex)
    rep = ConcreteRepresentation(
        dim=3, complement_dim=2, edge_matrices={}, vertex_matrices={"a": p}
    )
    with pytest.raises(DegenerateRankError, match="numerically ambiguous"):
        align_bases(rep, g)


def test_refuse_band_follows_rank_tol():
    # the leftover I - P has singular values 1, 1e-7, 0: below rank_tol=1e-6
    # but inside the band (1e-8, 1e-4) around it
    g = graph_from_json({"vertices": ["a"], "edges": []})
    p = np.diag([1.0, 1.0 - 1e-7, 0.0]).astype(complex)
    rep = ConcreteRepresentation(
        dim=3, complement_dim=1, edge_matrices={}, vertex_matrices={"a": p}
    )
    tols = Tolerances(rank=1e-6)
    item = check_representation(rep, g, tols).item("complement")
    assert item.status == "fail"
    assert "numerically ambiguous" in item.witness["error"]
    with pytest.raises(DegenerateRankError, match="numerically ambiguous"):
        align_bases(rep, g, tols=tols)


def test_non_finite_rank_is_refused():
    g = graph_from_json({"vertices": ["a"], "edges": []})
    p = np.diag([1.0, np.nan, 0.0]).astype(complex)
    rep = ConcreteRepresentation(
        dim=3, complement_dim=1, edge_matrices={}, vertex_matrices={"a": p}
    )
    item = check_representation(rep, g).item("complement")
    assert item.status == "fail" and "non-finite" in item.witness["error"]
    with pytest.raises(DegenerateRankError, match="non-finite"):
        align_bases(rep, g)


def nan_in_first_entry(rep, edge_id):
    edges = dict(rep.edge_matrices)
    edges[edge_id] = edges[edge_id].copy()
    edges[edge_id][0, 0] = np.nan
    return dataclasses.replace(rep, edge_matrices=edges)


def test_nan_residual_fails_the_certificate():
    # a NaN residual that is not the first one must not be skipped
    g = path_graph(3)
    rep = random_representation(g, {"v3": 2}, seed=5)
    cert = extract_branching_system(rep, align_bases(rep, g), g)
    cert = verify_equivalence(nan_in_first_entry(rep, "e2"), cert, g)
    assert np.isnan(cert.edge_residuals["e2"])
    assert np.isnan(cert.max_residual)
    assert not cert.passes()


def test_align_rejects_nan_edge_entry():
    g = path_graph(3)
    rep = nan_in_first_entry(random_representation(g, {"v3": 2}, seed=5), "e2")
    with pytest.raises(AlignmentError, match="not orthonormal"):
        align_bases(rep, g)


def test_isolated_vertex_gets_an_empty_block():
    g = graph_from_json(
        {
            "vertices": ["r", "a", "b", "z"],
            "edges": [
                {"id": "e1", "src": "r", "rng": "a"},
                {"id": "e2", "src": "r", "rng": "b"},
            ],
        }
    )
    rep = random_representation(g, {"a": 1, "b": 2}, complement_dim=1, seed=5)
    ba, cert = run_pipeline(g, rep)
    assert ba.vertex_bases["z"] == ()
    assert cert.passes()


def test_align_rejects_wrong_complement_declaration():
    g = single_edge_graph()
    honest = random_representation(g, {"v": 1}, complement_dim=2, seed=6)
    lying = ConcreteRepresentation(
        dim=honest.dim,
        complement_dim=1,
        edge_matrices=honest.edge_matrices,
        vertex_matrices=honest.vertex_matrices,
    )
    with pytest.raises(AlignmentError, match="declares"):
        align_bases(lying, g)


# -- representation checking -------------------------------------------------------


def test_check_representation_accepts_random_models():
    g = path_graph(4)
    rep = random_representation(g, {"v4": 2}, complement_dim=1, seed=8)
    assert check_representation(rep, g).passed


def test_check_representation_detects_scaled_edge():
    g = single_edge_graph()
    rep = random_representation(g, {"v": 1}, seed=10)
    edges = dict(rep.edge_matrices)
    edges["e"] = 1.1 * edges["e"]
    bad = ConcreteRepresentation(
        dim=rep.dim,
        complement_dim=rep.complement_dim,
        edge_matrices=edges,
        vertex_matrices=rep.vertex_matrices,
    )
    report = check_representation(bad, g)
    assert report.item("ii").status == "fail"
    assert report.item("ii").witness["edge"] == "e"


def test_check_representation_detects_non_projection():
    g = single_edge_graph()
    rep = random_representation(g, {"v": 1}, seed=11)
    vertices = dict(rep.vertex_matrices)
    vertices["u"] = 0.5 * vertices["u"]
    bad = ConcreteRepresentation(
        dim=rep.dim,
        complement_dim=rep.complement_dim,
        edge_matrices=rep.edge_matrices,
        vertex_matrices=vertices,
    )
    report = check_representation(bad, g)
    assert report.item("projections").status == "fail"
    assert report.item("projections").witness["vertex"] == "u"


def test_check_representation_detects_image_escape_and_bad_sum():
    g = single_edge_graph()
    s = np.zeros((2, 2), dtype=complex)
    s[0, 1] = 1.0
    zero = np.zeros((2, 2), dtype=complex)
    p_v = np.diag([0.0, 1.0]).astype(complex)
    rep = ConcreteRepresentation(
        dim=2,
        complement_dim=1,
        edge_matrices={"e": s},
        vertex_matrices={"u": zero, "v": p_v},
    )
    report = check_representation(rep, g)
    assert report.item("iii").status == "fail"
    assert report.item("v").status == "fail"


def test_check_representation_detects_overlapping_edges():
    g = star_graph(2, outward=True)
    rep = random_representation(g, {"l1": 1, "l2": 1}, axis_aligned=True)
    edges = dict(rep.edge_matrices)
    edges["e2"] = edges["e1"]
    bad = ConcreteRepresentation(
        dim=rep.dim,
        complement_dim=0,
        edge_matrices=edges,
        vertex_matrices=rep.vertex_matrices,
    )
    report = check_representation(bad, g)
    assert report.item("iv").status == "fail"
    assert report.item("iv").witness["edges"] == ["e1", "e2"]


def test_check_representation_detects_wrong_complement():
    g = single_edge_graph()
    rep = random_representation(g, {"v": 1}, complement_dim=1, seed=12)
    lying = ConcreteRepresentation(
        dim=rep.dim,
        complement_dim=2,
        edge_matrices=rep.edge_matrices,
        vertex_matrices=rep.vertex_matrices,
    )
    report = check_representation(lying, g)
    item = report.item("complement")
    assert item.status == "fail"
    assert item.witness == {"declared": 2, "actual": 1}


def test_check_representation_flags_ambiguous_complement_rank():
    g = graph_from_json({"vertices": ["a"], "edges": []})
    p = np.diag([1.0, 1.0 - 1e-10, 0.0]).astype(complex)
    rep = ConcreteRepresentation(
        dim=3, complement_dim=1, edge_matrices={}, vertex_matrices={"a": p}
    )
    report = check_representation(rep, g)
    item = report.item("complement")
    assert item.status == "fail"
    assert "numerically ambiguous" in item.witness["error"]


def test_check_representation_requires_matching_keys():
    g = single_edge_graph()
    rep = random_representation(g, {"v": 1}, seed=1)
    with pytest.raises(RepresentationError, match="edge matrices"):
        check_representation(
            ConcreteRepresentation(
                dim=rep.dim,
                complement_dim=0,
                edge_matrices={},
                vertex_matrices=rep.vertex_matrices,
            ),
            g,
        )


# -- mutations the pipeline must catch -----------------------------------------


def test_b2b_catches_block_rotation():
    g = path_graph(3)
    rep = random_representation(g, {"v3": 2}, seed=14)
    ba = align_bases(rep, g)
    mutated = twisted_edge(rep, ba, g, "e2")
    assert check_representation(mutated, g).passed
    report = check_b2b(mutated, ba, g)
    assert not report.passed
    bad = report.item("e2")
    assert bad.status == "fail"
    assert bad.witness["edge"] == "e2"
    assert bad.witness["bestResidual"] > 0.1
    # the rotation mixes two basis vectors, so even phase slack cannot pass it
    assert not check_b2b(mutated, ba, g, allow_phase=True).passed
    with pytest.raises(AlignmentError, match="block-to-block condition fails"):
        extract_branching_system(mutated, ba, g)


def test_b2b_phase_slack_forgives_pure_phase():
    g = path_graph(3)
    rep = random_representation(g, {"v3": 2}, seed=15)
    ba = align_bases(rep, g)
    mutated = twisted_edge(rep, ba, g, "e1", phase_only=True)
    assert not check_b2b(mutated, ba, g).passed
    assert check_b2b(mutated, ba, g, allow_phase=True).passed


def test_b2b_phase_slack_passes_random_trees():
    # a phase residual formed as sqrt(|img|² + |tv|² − 2|<tv, img>|) loses
    # all precision to cancellation and reads ~1.5e-8, above b2b
    rng = np.random.default_rng(24)
    for _ in range(12):
        g = genutil.tree_graph(rng, int(rng.integers(2, 8)))
        dims = genutil.random_sink_dims(rng, g, max_dim=4)
        rep = random_representation(
            g, dims, complement_dim=int(rng.integers(0, 3)), seed=int(rng.integers(0, 2**31))
        )
        ba = align_bases(rep, g)
        strict = check_b2b(rep, ba, g)
        assert strict.passed
        assert check_b2b(rep, ba, g, allow_phase=True).to_json() == strict.to_json()


def test_swapped_unitary_rows_leave_a_visible_residual():
    g = path_graph(3)
    rep = random_representation(g, {"v3": 1}, seed=16)
    _, cert = run_pipeline(g, rep)
    assert cert.max_residual <= 1e-8
    i = min(cert.system.domain_sets["v1"])
    j = min(cert.system.domain_sets["v2"])
    swapped = cert.unitary.copy()
    swapped[[i, j]] = swapped[[j, i]]
    corrupted = dataclasses.replace(cert, unitary=swapped)
    resid = verify_equivalence(rep, corrupted, g).max_residual
    assert resid >= 0.1


def test_verify_equivalence_guards():
    g = single_edge_graph()
    rep = random_representation(g, {"v": 1}, seed=17)
    _, cert = run_pipeline(g, rep)
    with pytest.raises(AlignmentError, match="expected"):
        verify_equivalence(
            rep, dataclasses.replace(cert, unitary=np.eye(3, dtype=complex)), g
        )
    with pytest.raises(AlignmentError, match="not unitary"):
        verify_equivalence(
            rep, dataclasses.replace(cert, unitary=0.5 * cert.unitary), g
        )
    tiny = DiscreteBranchingSystem(
        universe=(0,),
        range_sets={"e": frozenset({0})},
        domain_sets={"u": frozenset({0}), "v": frozenset()},
        edge_maps={"e": {}},
    )
    with pytest.raises(AlignmentError, match="universe has 1 indices"):
        verify_equivalence(rep, dataclasses.replace(cert, system=tiny), g)


# -- random models ------------------------------------------------------------------


def test_haar_unitary_is_deterministic_and_unitary():
    a = haar_unitary(6, np.random.default_rng(3))
    b = haar_unitary(6, np.random.default_rng(3))
    assert np.array_equal(a, b)
    assert np.abs(a @ a.conj().T - np.eye(6)).max() <= 1e-10
    c = haar_unitary(6, np.random.default_rng(4))
    assert not np.array_equal(a, c)
    with pytest.raises(AlignmentError):
        haar_unitary(0, np.random.default_rng(0))


def test_random_representation_is_seed_deterministic():
    g = path_graph(3)
    a = random_representation(g, {"v3": 2}, complement_dim=1, seed=19)
    b = random_representation(g, {"v3": 2}, complement_dim=1, seed=19)
    c = random_representation(g, {"v3": 2}, complement_dim=1, seed=20)
    for e in ("e1", "e2"):
        assert np.array_equal(a.edge_matrices[e], b.edge_matrices[e])
    assert not np.array_equal(a.edge_matrices["e1"], c.edge_matrices["e1"])


@st.composite
def trees_and_forests(draw):
    """An attachment tree, or a forest cut from one by dropping edges after the first."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    doc = genutil.tree_doc(rng, draw(st.integers(2, 7)))
    if draw(st.booleans()):
        first, *rest = doc["edges"]
        doc["edges"] = [first] + [e for e in rest if rng.integers(0, 2)]
    g = graph_from_json(doc)
    return g, genutil.random_sink_dims(rng, g, 3)


representation_args = st.tuples(
    trees_and_forests(), st.integers(0, 2), st.integers(0, 2**32 - 1), st.booleans()
)


@settings(max_examples=80, deadline=None)
@given(representation_args)
def test_random_representation_passes_check_representation(args):
    (g, dims), complement_dim, seed, axis_aligned = args
    rep = random_representation(g, dims, complement_dim, seed, axis_aligned)
    assert check_representation(rep, g).passed


def padded_twist_representation(g, sink_dims, complement_dim, seed, axis_aligned):
    """``random_representation`` as first written: each edge twist is padded
    with zeros to an N×N matrix and applied by a full product."""
    bs = synthesize(g, sink_dims, slack=complement_dim)
    fam = induce(bs, g)
    n = len(bs.universe)
    edge_mats = {
        e.id: wpi_matrix(fam.edge_ops[e.id], n).astype(complex) for e in g.edges
    }
    vertex_mats = {
        v: wpi_matrix(fam.vertex_projs[v].as_partial_isometry(), n).astype(complex)
        for v in g.vertices
    }
    if not axis_aligned:
        rng = np.random.default_rng(seed)
        for e in g.edges:
            block = sorted(bs.domain_sets[e.rng])
            w = haar_unitary(len(block), rng)
            w_full = np.zeros((n, n), dtype=complex)
            w_full[np.ix_(block, block)] = w
            edge_mats[e.id] = edge_mats[e.id] @ w_full
        gmat = haar_unitary(n, rng)
        gstar = gmat.conj().T
        edge_mats = {k: gmat @ m @ gstar for k, m in edge_mats.items()}
        vertex_mats = {k: gmat @ m @ gstar for k, m in vertex_mats.items()}
    return edge_mats, vertex_mats


@settings(max_examples=60, deadline=None)
@given(representation_args)
def test_block_twist_is_bit_identical_to_padded_twist(args):
    (g, dims), complement_dim, seed, axis_aligned = args
    rep = random_representation(g, dims, complement_dim, seed, axis_aligned)
    edge_mats, vertex_mats = padded_twist_representation(
        g, dims, complement_dim, seed, axis_aligned
    )
    for mine, reference in (
        (rep.edge_matrices, edge_mats),
        (rep.vertex_matrices, vertex_mats),
    ):
        assert list(mine) == list(reference)
        for key, m in mine.items():
            assert m.dtype == reference[key].dtype
            assert m.tobytes() == reference[key].tobytes()


@pytest.mark.parametrize("axis_aligned", [False, True])
def test_random_representation_runs_no_relation_check(monkeypatch, axis_aligned):
    calls = []
    monkeypatch.setattr(
        alignment,
        "check_representation",
        lambda *args, **kw: calls.append(args) or check_representation(*args, **kw),
    )
    g = path_graph(4)
    rep = random_representation(
        g, {"v4": 2}, complement_dim=1, seed=3, axis_aligned=axis_aligned
    )
    assert calls == []
    assert check_representation(rep, g).passed


@pytest.mark.parametrize("axis_aligned", [False, True])
def test_random_representation_of_size_zero_raises_one_error(monkeypatch, axis_aligned):
    """Two isolated vertices and no complement give N = 0 in both modes; it
    is refused with ConcreteRepresentation's error before any Haar draw."""

    def no_haar(*args):
        pytest.fail("haar_unitary called for N = 0")

    monkeypatch.setattr(alignment, "haar_unitary", no_haar)
    g = graph_from_json({"vertices": ["u", "v"], "edges": []})
    with pytest.raises(RepresentationError, match=r"^dim must be positive, got 0$"):
        random_representation(g, {}, complement_dim=0, axis_aligned=axis_aligned)


def test_axis_aligned_matches_induced_canonical_matrices():
    g = path_graph(3)
    rep = random_representation(g, {"v3": 2}, complement_dim=1, axis_aligned=True)
    fam = induce(synthesize(g, {"v3": 2}, slack=1), g)
    for e in g.edges:
        assert np.array_equal(rep.edge_matrices[e.id], to_matrix(fam, e.id).astype(complex))
    for v in g.vertices:
        assert np.array_equal(rep.vertex_matrices[v], to_matrix(fam, v).astype(complex))


# -- JSON interchange ----------------------------------------------------------------


def test_rep_json_round_trip_is_exact():
    g = path_graph(3)
    rep = random_representation(g, {"v3": 2}, complement_dim=1, seed=23)
    doc = json.loads(json.dumps(rep_to_json(rep)))
    back = rep_from_json(doc)
    assert back.dim == rep.dim and back.complement_dim == 1
    for e in g.edges:
        assert np.array_equal(back.edge_matrices[e.id], rep.edge_matrices[e.id])
    for v in g.vertices:
        assert np.array_equal(back.vertex_matrices[v], rep.vertex_matrices[v])


@pytest.mark.parametrize(
    "mutate, fragment",
    [
        (lambda d: d.update(extra=1), "unknown top-level field"),
        (lambda d: d.pop("dim"), "missing required field 'dim'"),
        (lambda d: d.update(dim=0), "'dim' must be a positive integer"),
        (lambda d: d.update(complementDim=-1), "nonnegative"),
        (lambda d: d.update(edges=[]), "must be objects"),
        (lambda d: d["edges"].update(e=[[0.0, 0.0]]), "flat row-major list"),
        (lambda d: d["edges"]["e"].__setitem__(0, [True, 0.0]), "pair of numbers"),
    ],
)
def test_rep_json_rejections(mutate, fragment):
    g = single_edge_graph()
    doc = rep_to_json(random_representation(g, {"v": 1}, axis_aligned=True))
    mutate(doc)
    with pytest.raises(RepresentationError) as exc:
        rep_from_json(doc)
    assert fragment in str(exc.value)


def test_representation_shape_validation():
    with pytest.raises(RepresentationError, match="shape"):
        ConcreteRepresentation(
            dim=2,
            complement_dim=0,
            edge_matrices={"e": np.zeros((1, 1))},
            vertex_matrices={},
        )
    with pytest.raises(RepresentationError, match="positive"):
        ConcreteRepresentation(
            dim=0, complement_dim=0, edge_matrices={}, vertex_matrices={}
        )
