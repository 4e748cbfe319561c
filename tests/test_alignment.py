import dataclasses
import json
import re

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
    branching_to_json,
    check_b2b,
    check_representation,
    extract_branching_system,
    graph_from_json,
    haar_unitary,
    induce,
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
    matching against the *prior* basis assignment breaks (a pure phase breaks
    it too, as the matching is strict).
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


def householder_bound(n):
    """How far from exact an axis-aligned alignment of dimension n may come
    out: per entry of B*·B − I, B the global basis, and per residual.

    The input is exactly canonical, so every basis vector is a column of a
    Householder QR's Q factor of an n×k matrix, k ≤ n (a sink's block or the
    complement, from the rank proof's range finder), or an exact copy of one
    (an emitter's block, through 0/1 edge matrices). Higham (*Accuracy and
    Stability of Numerical Algorithms*, 2nd ed., Thm 19.4) puts such a Q
    within √k·γ̃(n·k) of orthonormal columns, γ̃ being γ up to a small
    constant; each residual adds the γ(n) of the product that forms it.
    n·γ(n²) covers √k·γ(n·k) + γ(n), leaving the constant a factor √n.
    """
    return n * alignment._gamma(n * n)


def test_canonical_model_single_edge_is_exactly_recovered():
    g = single_edge_graph()
    rep = genutil.canonical_representation(g, {"v": 1})
    assert np.array_equal(to_matrix(induce(synthesize(g, {"v": 1}), g), "e").astype(complex), rep.edge_matrices["e"])
    ba, cert = run_pipeline(g, rep)
    assert cert.system == synthesize(g, {"v": 1})
    assert ba.vertex_bases == {"u": (0,), "v": (1,)}
    assert ba.edge_bases == {"e": (0,)}
    bound = householder_bound(rep.dim)
    assert np.abs(cert.unitary @ cert.unitary.conj().T - np.eye(2)).max() <= bound
    assert cert.max_residual <= bound


def test_canonical_model_star_recovers_synthesized_system():
    g = star_graph(3, outward=True)
    dims = {"l1": 1, "l2": 2, "l3": 1}
    rep = genutil.canonical_representation(g, dims)
    ba, cert = run_pipeline(g, rep)
    assert cert.system == synthesize(g, dims)
    assert ba.vertex_bases == {"c": (0, 1, 2, 3), "l1": (4,), "l2": (5, 6), "l3": (7,)}
    assert ba.edge_bases == {"e1": (0,), "e2": (1, 2), "e3": (3,)}
    b = ba.global_basis
    bound = householder_bound(rep.dim)
    assert np.abs(b.conj().T @ b - np.eye(rep.dim)).max() <= bound
    assert cert.max_residual <= bound


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


def test_four_cycle_with_two_unleveled_vertices_certifies():
    """An undirected 4-cycle has no directed cycle, so it aligns like a tree."""
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
    dims = {"v2": 1, "v4": 1}
    rep = random_representation(g, dims, seed=2)
    _, cert = run_pipeline(g, rep)
    assert cert.passes()
    assert branching_to_json(cert.system) == branching_to_json(synthesize(g, dims))


LOOP = {"vertices": ["u"], "edges": [{"id": "l", "src": "u", "rng": "u"}]}


def _loop_rep(p):
    """The loop's edge and its vertex both given by the matrix p."""
    return ConcreteRepresentation(
        dim=len(p), complement_dim=0, edge_matrices={"l": p}, vertex_matrices={"u": p}
    )


def test_not_applicable_for_loop():
    g = graph_from_json(LOOP)
    rep = _loop_rep(np.eye(1, dtype=complex))
    assert check_representation(rep, g).passed
    with pytest.raises(NotApplicableError) as exc:
        align_bases(rep, g)
    assert str(exc.value) == (
        "directed cycle detected through vertex 'u'; "
        "the alignment construction is not applicable"
    )


def test_not_applicable_for_two_cycle():
    g = graph_from_json(
        {
            "vertices": ["a", "b"],
            "edges": [{"id": "e", "src": "a", "rng": "b"}, {"id": "f", "src": "b", "rng": "a"}],
        }
    )
    # S_e maps b's line onto a's, S_f a's onto b's
    rep = ConcreteRepresentation(
        dim=2,
        complement_dim=0,
        edge_matrices={"e": np.array([[0, 1], [0, 0]]), "f": np.array([[0, 0], [1, 0]])},
        vertex_matrices={"a": np.diag([1, 0]), "b": np.diag([0, 1])},
    )
    assert check_representation(rep, g).passed
    with pytest.raises(NotApplicableError, match="^directed cycle detected through vertex 'a'; "):
        align_bases(rep, g)


def test_directed_cycle_is_refused_before_any_rank_is_read():
    # P_u has a singular value of 1e-10, inside the refuse band around
    # rank_tol; an acyclic graph would get DegenerateRankError for it
    g = graph_from_json(LOOP)
    with pytest.raises(NotApplicableError, match="directed cycle"):
        align_bases(_loop_rep(np.diag([1.0, 1e-10, 0.0]).astype(complex)), g)


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


def test_an_unverified_certificate_does_not_pass():
    """Extraction measures no residual, so its certificate must not pass
    until ``verify_equivalence`` has filled them."""
    g = single_edge_graph()
    rep = random_representation(g, {"v": 1}, seed=3)
    cert = extract_branching_system(rep, align_bases(rep, g), g)
    assert cert.edge_residuals is None and cert.vertex_residuals is None
    assert np.isnan(cert.max_residual)
    assert not cert.passes()
    assert verify_equivalence(rep, cert, g).passes()


def test_a_verified_certificate_of_an_empty_graph_passes():
    g = graph_from_json({"vertices": [], "edges": []})
    rep = random_representation(g, {}, complement_dim=2, seed=3)
    cert = extract_branching_system(rep, align_bases(rep, g), g)
    assert not cert.passes()
    cert = verify_equivalence(rep, cert, g)
    assert cert.edge_residuals == {} and cert.vertex_residuals == {}
    assert cert.max_residual == 0.0
    assert cert.passes()


def test_replacing_what_was_measured_clears_the_residuals():
    """Residuals belong to the system and unitary they were measured for, so a
    certificate with either swapped out does not pass until measured again."""
    g = path_graph(3)
    rep = random_representation(g, {"v3": 2}, seed=5)
    cert = verify_equivalence(rep, extract_branching_system(rep, align_bases(rep, g), g), g)
    assert cert.passes()
    for changes in ({"unitary": np.eye(rep.dim, dtype=complex)}, {"system": cert.system}):
        swapped = dataclasses.replace(cert, **changes)
        assert swapped.edge_residuals is None and swapped.vertex_residuals is None
        assert not swapped.passes()
    remeasured = verify_equivalence(rep, dataclasses.replace(cert, unitary=np.eye(rep.dim)), g)
    assert remeasured.max_residual > 1
    with pytest.raises(TypeError):
        alignment.EquivalenceCertificate(cert.system, cert.unitary, edge_residuals={})


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


def test_zero_rank_sink_under_an_emitter_is_a_rank_mismatch():
    # the sink's empty block passes its span check; the emitter above it
    # then has one vector's rank and no edge images to fill it
    g = single_edge_graph()
    rep = ConcreteRepresentation(
        dim=1,
        complement_dim=0,
        edge_matrices={"e": np.zeros((1, 1), dtype=complex)},
        vertex_matrices={"u": np.eye(1, dtype=complex), "v": np.zeros((1, 1), dtype=complex)},
    )
    with pytest.raises(AlignmentError, match="rank mismatch at vertex 'u'"):
        align_bases(rep, g)


def test_extraction_fails_closed_on_a_system_that_violates_a_condition():
    """Emptying u's block leaves every edge block intact, so b2b passes; the
    system read off the blocks then has R_e outside D_u, and extraction
    refuses it rather than return it."""
    g = single_edge_graph()
    rep = random_representation(g, {"v": 2}, complement_dim=1, seed=3)
    ba = align_bases(rep, g)
    bad = dataclasses.replace(ba, vertex_bases={**ba.vertex_bases, "u": ()})
    assert check_b2b(rep, bad, g).passed
    with pytest.raises(
        AlignmentError,
        match=re.escape(
            "extracted system violates branching condition 3: "
            "{'edge': 'e', 'src': 'u', 'index': 0}"
        ),
    ):
        extract_branching_system(rep, bad, g)


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
    rep = genutil.canonical_representation(g, {"l1": 1, "l2": 1})
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
    assert bad.witness["residual"] > 0.1
    with pytest.raises(AlignmentError, match="block-to-block condition fails"):
        extract_branching_system(mutated, ba, g)


def test_b2b_refuses_a_pure_phase():
    g = path_graph(3)
    rep = random_representation(g, {"v3": 2}, seed=15)
    ba = align_bases(rep, g)
    mutated = twisted_edge(rep, ba, g, "e1", phase_only=True)
    assert not check_b2b(mutated, ba, g).passed


def test_b2b_refuses_a_permuted_edge_block():
    # the order of edge_bases is the bijection f_e, so swapping two targets
    # sends each domain vector to the wrong one of two orthonormal vectors
    g = path_graph(3)
    rep = random_representation(g, {"v3": 2}, seed=14)
    ba = align_bases(rep, g)
    assert check_b2b(rep, ba, g).passed
    a, b = ba.edge_bases["e2"]
    permuted = dataclasses.replace(ba, edge_bases={**ba.edge_bases, "e2": (b, a)})
    report = check_b2b(rep, permuted, g)
    assert report.item("e1").status == "pass"
    bad = report.item("e2")
    assert bad.status == "fail"
    assert bad.witness["domainIndex"] == ba.vertex_bases["v3"][0]
    assert bad.witness["residual"] == pytest.approx(np.sqrt(2))
    with pytest.raises(AlignmentError, match="block-to-block condition fails"):
        extract_branching_system(rep, permuted, g)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_b2b_fails_a_non_finite_entry(value):
    # the residual is NaN either way, and numpy's warning about inf is kept quiet
    g = path_graph(3)
    rep = random_representation(g, {"v3": 2}, seed=5)
    ba = align_bases(rep, g)
    mutated = nan_in_first_entry(rep, "e2")
    mutated.edge_matrices["e2"][0, 0] = value  # the helper copied this matrix
    bad = check_b2b(mutated, ba, g).item("e2")
    assert bad.status == "fail"
    assert bad.witness["domainIndex"] == ba.vertex_bases["v3"][0]
    assert np.isnan(bad.witness["residual"])
    with pytest.raises(AlignmentError, match="block-to-block condition fails"):
        extract_branching_system(mutated, ba, g)


@pytest.mark.parametrize(
    "field, key, columns",
    [
        ("edge_bases", "e", (-2,)),
        ("edge_bases", "e", (2,)),
        ("edge_bases", "e", (np.int64(0),)),
        ("vertex_bases", "v", (1.0,)),
    ],
)
def test_basis_assignment_refuses_columns_that_do_not_exist(field, key, columns):
    # numpy would wrap -2 to column 0 and let check_b2b pass
    g = single_edge_graph()
    ba = align_bases(genutil.canonical_representation(g, {"v": 1}), g)
    label = field.split("_")[0]
    with pytest.raises(AlignmentError, match=f"{label} '{key}' names column"):
        dataclasses.replace(ba, **{field: {**getattr(ba, field), key: columns}})


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
    trees_and_forests(), st.integers(0, 2), st.integers(0, 2**32 - 1)
)


@settings(max_examples=80, deadline=None)
@given(representation_args, st.booleans())
def test_random_representation_passes_check_representation(args, canonical):
    (g, dims), complement_dim, seed = args
    if canonical:
        rep = genutil.canonical_representation(g, dims, complement_dim)
    else:
        rep = random_representation(g, dims, complement_dim, seed)
    assert check_representation(rep, g).passed


def padded_twist_representation(g, sink_dims, complement_dim, seed):
    """``random_representation`` as first written: each edge twist is padded
    with zeros to an N×N matrix and applied by a full product, then every
    canonical matrix is conjugated by two full products.

    Returns the edge and vertex matrices, each with its majorant
    |G|·|M|·|G*| (M the twisted canonical matrix, G the global unitary).
    """
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
    rng = np.random.default_rng(seed)
    for e in g.edges:
        block = sorted(bs.domain_sets[e.rng])
        w = haar_unitary(len(block), rng)
        w_full = np.zeros((n, n), dtype=complex)
        w_full[np.ix_(block, block)] = w
        edge_mats[e.id] = edge_mats[e.id] @ w_full
    gmat = haar_unitary(n, rng)
    gstar = gmat.conj().T
    return [
        (
            {k: gmat @ m @ gstar for k, m in mats.items()},
            {k: np.abs(gmat) @ np.abs(m) @ np.abs(gstar) for k, m in mats.items()},
        )
        for mats in (edge_mats, vertex_mats)
    ]


@settings(max_examples=60, deadline=None)
@given(representation_args)
def test_gathered_twist_is_within_rounding_of_padded_twist(args):
    """The same Haar draws, in the same order, as the padded dense twist:
    each entry within the two computations' rounding of each other.

    Either way of forming G·M·G* is three products of inner dimension at
    most N, or fewer (M·W for a twisted edge M = T·W, T having one nonzero
    per column); so each is within γ(3N + 6)·|G|·|T|·|W|·|G*| of the exact
    value, entry by entry (Higham, *Accuracy and Stability of Numerical
    Algorithms*, 2nd ed., §3.5, with γ_a + γ_b + γ_a·γ_b ≤ γ_{a+b}). The
    majorant is itself a sum of nonnegative products, formed to within
    γ(3N + 6) of its exact value, and gradual underflow adds at most the
    smallest normal float per product term.
    """
    (g, dims), complement_dim, seed = args
    rep = random_representation(g, dims, complement_dim, seed)
    n = rep.dim
    gamma = alignment._gamma(3 * n + 6)
    for mine, (reference, majorant) in zip(
        (rep.edge_matrices, rep.vertex_matrices),
        padded_twist_representation(g, dims, complement_dim, seed),
    ):
        assert list(mine) == list(reference)
        for key, m in mine.items():
            assert m.dtype == reference[key].dtype
            bound = 2 * gamma * (1 + gamma) * majorant[key] + 3 * n * np.finfo(float).tiny
            assert np.all(np.abs(m - reference[key]) <= bound), key


def test_random_representation_runs_no_relation_check(monkeypatch):
    calls = []
    monkeypatch.setattr(
        alignment,
        "check_representation",
        lambda *args, **kw: calls.append(args) or check_representation(*args, **kw),
    )
    g = path_graph(4)
    rep = random_representation(g, {"v4": 2}, complement_dim=1, seed=3)
    assert calls == []
    assert check_representation(rep, g).passed


def test_random_representation_of_size_zero_raises_one_error(monkeypatch):
    """Two isolated vertices and no complement give N = 0; it is refused
    with ConcreteRepresentation's error before any Haar draw."""

    def no_haar(*args):
        pytest.fail("haar_unitary called for N = 0")

    monkeypatch.setattr(alignment, "haar_unitary", no_haar)
    g = graph_from_json({"vertices": ["u", "v"], "edges": []})
    with pytest.raises(RepresentationError, match=r"^dim must be positive, got 0$"):
        random_representation(g, {}, complement_dim=0)


def test_random_representation_forms_no_exact_operator(monkeypatch):
    """The canonical model's index maps are read off the synthesized system:
    no induced family, no second validation, no identity operators and no
    dense operator matrices."""
    from branchrep import branching, operators

    def refuse(name):
        def refused(*args, **kw):
            pytest.fail(f"random_representation called {name}")

        return refused

    for module, name in (
        (alignment, "induce"),
        (alignment, "validate"),
        (branching, "validate"),
        (operators, "induce"),
        (operators, "validate"),
        (operators, "identity_on"),
        (operators, "wpi_matrix"),
    ):
        monkeypatch.setattr(module, name, refuse(name))
    g = star_graph(3, outward=True)
    rep = random_representation(g, {v: 2 for v in g.sinks()}, complement_dim=1, seed=5)
    monkeypatch.undo()
    assert check_representation(rep, g).passed


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
    doc = rep_to_json(genutil.canonical_representation(g, {"v": 1}))
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
