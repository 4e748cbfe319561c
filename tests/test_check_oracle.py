"""The witness-generator checkers against the original scan loops.

``check_oracle`` holds the original ``validate``, ``verify_ck`` and
``check_representation`` verbatim; on every input the library must produce
byte-identical reports, and the same ``exact`` flag on passing relation
reports. The one exception is a dense representation with a non-finite
entry, where the original lets NaN errors pass and the library fails them.
"""

import dataclasses
import json
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import check_oracle as oracle
import genutil
from conftest import oracle_examples, star_graph
from branchrep import (
    ConcreteRepresentation,
    DiscreteBranchingSystem,
    GeneratorFamily,
    Tolerances,
    WeightedPartialIsometry,
    check_representation,
    graph_from_json,
    induce,
    random_representation,
    synthesize,
    validate,
    verify_ck,
)
from branchrep import alignment

WEIGHTS = st.sampled_from([0.5, 1.0, 2.0, 3.0, 0.25])


def _same(new, old):
    assert json.dumps(new.to_json()) == json.dumps(old.to_json())


@st.composite
def small_graphs(draw, max_vertices=4, max_edges=5):
    """Multigraph with loops and parallel edges allowed."""
    names = [f"v{i}" for i in range(draw(st.integers(1, max_vertices)))]
    vertex = st.sampled_from(names)
    pairs = draw(st.lists(st.tuples(vertex, vertex), max_size=max_edges))
    edges = [{"id": f"e{i}", "src": s, "rng": r} for i, (s, r) in enumerate(pairs)]
    return graph_from_json({"vertices": names, "edges": edges})


@st.composite
def dag_systems(draw, vertices=st.integers(1, 5), extra=st.integers(0, 2)):
    """A synthesized (valid) system on a random acyclic graph, weights redrawn."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = genutil.dag_graph(rng, draw(vertices), extra=draw(extra))
    bs = synthesize(g, genutil.random_sink_dims(rng, g, 2), slack=draw(st.integers(0, 2)))
    weights = {x: draw(WEIGHTS) for x in bs.universe}
    return g, DiscreteBranchingSystem(
        universe=bs.universe,
        range_sets=bs.range_sets,
        domain_sets=bs.domain_sets,
        edge_maps=bs.edge_maps,
        weights=weights,
    )


@st.composite
def random_systems(draw):
    """Arbitrary sets and maps over a small universe: mostly invalid systems."""
    g = draw(small_graphs())
    universe = tuple(range(draw(st.integers(0, 6))))
    index_sets = st.frozensets(st.sampled_from(universe)) if universe else st.just(frozenset())

    def partial_map():
        if not universe:
            return {}
        keys = draw(st.lists(st.sampled_from(universe), unique=True))
        return {x: draw(st.sampled_from(universe)) for x in keys}

    return g, DiscreteBranchingSystem(
        universe=universe,
        range_sets={e.id: draw(index_sets) for e in g.edges},
        domain_sets={v: draw(index_sets) for v in g.vertices},
        edge_maps={e.id: partial_map() for e in g.edges},
    )


@st.composite
def mutated_systems(draw):
    """A valid system with one set or map entry moved, dropped or redirected."""
    g, bs = draw(dag_systems())
    if not bs.universe:
        return g, bs
    index = st.sampled_from(bs.universe)
    range_sets = dict(bs.range_sets)
    domain_sets = dict(bs.domain_sets)
    edge_maps = {e: dict(f) for e, f in bs.edge_maps.items()}
    kind = draw(st.sampled_from(["range", "domain", "map", "drop"]))
    if kind == "range" and range_sets:
        e = draw(st.sampled_from(sorted(range_sets)))
        range_sets[e] = range_sets[e] ^ {draw(index)}
    elif kind == "domain":
        v = draw(st.sampled_from(sorted(domain_sets)))
        domain_sets[v] = domain_sets[v] ^ {draw(index)}
    elif edge_maps:
        f = edge_maps[draw(st.sampled_from(sorted(edge_maps)))]
        if kind == "map":
            f[draw(index)] = draw(index)
        elif f:
            del f[draw(st.sampled_from(sorted(f)))]
    return g, DiscreteBranchingSystem(
        universe=bs.universe,
        range_sets=range_sets,
        domain_sets=domain_sets,
        edge_maps=edge_maps,
        weights=bs.weights,
    )


@settings(max_examples=oracle_examples(150), deadline=None)
@given(st.one_of(random_systems(), dag_systems(), mutated_systems()))
def test_validate_matches_original(case):
    g, bs = case
    _same(validate(bs, g), oracle.validate(bs, g))


def _float_only(t):
    return WeightedPartialIsometry(mapping=t.mapping, amplitude=t.amplitude)


def _rescaled(t, factor):
    """t with every amplitude scaled, keeping exact squares if it had them."""
    amplitude_sq = None
    if t.amplitude_sq is not None:
        amplitude_sq = {x: q * Fraction(factor) ** 2 for x, q in t.amplitude_sq.items()}
    return WeightedPartialIsometry(
        mapping=t.mapping,
        amplitude={x: a * factor for x, a in t.amplitude.items()},
        amplitude_sq=amplitude_sq,
    )


@st.composite
def families(draw):
    """Induced families with some edge operators made float-only, rescaled,
    nudged by a float rounding step, or replaced, and some vertex supports
    redrawn."""
    g, bs = draw(dag_systems())
    fam = induce(bs, g)
    edge_ops = dict(fam.edge_ops)
    for e in g.edges:
        t = edge_ops[e.id]
        kind = draw(st.sampled_from(["exact", "float", "scaled", "nudged", "random"]))
        if kind == "float":
            t = _float_only(t)
        elif kind == "scaled":
            t = _rescaled(t, draw(st.sampled_from([0.5, 2.0])))
        elif kind == "nudged":
            t = _rescaled(_float_only(t), 1.0 + draw(st.sampled_from([1e-15, 1e-13, 1e-9])))
        elif kind == "random":
            rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
            t = genutil.random_wpi(rng, len(bs.universe)) if bs.universe else t
        edge_ops[e.id] = t
    vertex_projs = dict(fam.vertex_projs)
    if bs.universe and draw(st.booleans()):
        v = draw(st.sampled_from(g.vertices))
        support = draw(st.frozensets(st.sampled_from(bs.universe)))
        vertex_projs[v] = type(vertex_projs[v])(support)
    return g, GeneratorFamily(
        universe=fam.universe,
        edge_ops=edge_ops,
        vertex_projs=vertex_projs,
        weights=fam.weights,
    )


@settings(max_examples=oracle_examples(150), deadline=None)
@given(families())
def test_verify_ck_matches_original(case):
    g, fam = case
    new = verify_ck(fam, g)
    old = oracle.verify_ck(fam, g)
    _same(new, old)
    if old.passed:
        assert new.exact == old.exact


@st.composite
def overlapping_families(draw):
    """Induced families with about half the edge operators from a drawn
    position on replaced by random partial maps over the whole universe, so
    images meet in many pairs, pairs late in edge order included."""
    g, bs = draw(dag_systems(vertices=st.integers(2, 9), extra=st.integers(0, 4)))
    fam = induce(bs, g)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lead = draw(st.integers(0, len(g.edges) - 1))
    edge_ops = dict(fam.edge_ops)
    for e in g.edges[lead:]:
        if rng.random() < 0.5:
            edge_ops[e.id] = genutil.random_wpi(rng, len(fam.universe))
    return g, GeneratorFamily(
        universe=fam.universe,
        edge_ops=edge_ops,
        vertex_projs=fam.vertex_projs,
        weights=fam.weights,
    )


@settings(max_examples=oracle_examples(150), deadline=None)
@given(overlapping_families())
def test_verify_ck_matches_original_on_overlapping_images(case):
    g, fam = case
    _same(verify_ck(fam, g), oracle.verify_ck(fam, g))


def test_relation_iv_witness_on_a_large_out_star():
    """One overlap planted between the last two of 3000 edges: e3000 also
    sends index 0 onto the image {2998} of e2999."""
    g = star_graph(3000, outward=True)
    fam = induce(synthesize(g, {v: 1 for v in g.sinks()}), g)
    assert fam.edge_ops["e2999"].range == {2998}
    assert fam.edge_ops["e3000"].mapping == {5999: 2999}
    edge_ops = dict(fam.edge_ops)
    edge_ops["e3000"] = WeightedPartialIsometry(
        mapping={5999: 2999, 0: 2998}, amplitude={5999: 1.0, 0: 1.0}
    )
    planted = GeneratorFamily(
        universe=fam.universe,
        edge_ops=edge_ops,
        vertex_projs=fam.vertex_projs,
        weights=fam.weights,
    )
    assert verify_ck(fam, g).passed
    item = verify_ck(planted, g).item("iv")
    assert item.status == "fail"
    assert item.witness == {"edges": ["e2999", "e3000"], "index": 0}


REP_TOLERANCES = st.sampled_from(
    [Tolerances(rep=1e-14), Tolerances(rep=1e-10), Tolerances(rep=1e-6)]
)


def _unit_in_range(rng, p):
    x = p @ (rng.standard_normal(p.shape[0]) + 1j * rng.standard_normal(p.shape[0]))
    return x / np.linalg.norm(x)


def plant_vertex_overlap(rng, rep, a, b, size):
    """P_a plus a rank-2 Hermitian term joining unit vectors u of range(P_a)
    and w of range(P_b), scaled so that the largest entry of P_a·P_b grows
    by about ``size``."""
    u = _unit_in_range(rng, rep.vertex_matrices[a])
    w = _unit_in_range(rng, rep.vertex_matrices[b])
    scale = size / (np.abs(u).max() * np.abs(w).max())
    vertices = dict(rep.vertex_matrices)
    vertices[a] = vertices[a] + scale * (np.outer(u, w.conj()) + np.outer(w, u.conj()))
    return dataclasses.replace(rep, vertex_matrices=vertices)


def plant_edge_overlap(rep, e, f, size):
    """S_e plus a multiple of S_f, scaled so that the largest entry of
    S_e*·S_f grows by about ``size``."""
    s_f = rep.edge_matrices[f]
    edges = dict(rep.edge_matrices)
    edges[e] = edges[e] + size / np.abs(s_f.conj().T @ s_f).max() * s_f
    return dataclasses.replace(rep, edge_matrices=edges)


@st.composite
def dense_representations(draw):
    """A random honest representation with one mutation, and the tolerances
    to check it at.

    Graphs are attachment trees or in-stars (every edge into one vertex) of
    2 to 12 vertices. Mutations: the finite ones below, an item-i or item-iv
    overlap planted at 0.5 or 2 times the tolerance, or one non-finite entry.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size = draw(st.integers(2, 12))
    if draw(st.booleans()):
        g = genutil.tree_graph(rng, size)
    else:
        g = star_graph(size - 1, outward=False)
    tols = draw(REP_TOLERANCES)
    rep = random_representation(
        g,
        genutil.random_sink_dims(rng, g, 2),
        complement_dim=draw(st.integers(0, 2)),
        seed=draw(st.integers(0, 1000)),
        axis_aligned=draw(st.booleans()),
    )
    edges = dict(rep.edge_matrices)
    vertices = dict(rep.vertex_matrices)
    complement_dim = rep.complement_dim
    n = rep.dim
    kind = draw(
        st.sampled_from(
            ["none", "real", "entry", "scale", "swap", "rank", "complement",
             "overlap-i", "overlap-iv", "non-finite"]
        )
    )
    mats = edges if edges and draw(st.booleans()) else vertices
    key = draw(st.sampled_from(sorted(mats)))
    size = 10.0 ** draw(st.integers(-14, -1))
    planted = draw(st.sampled_from([0.5, 2.0])) * tols.rep
    if kind == "real":
        edges = {k: m.real.copy() for k, m in edges.items()}
        vertices = {k: m.real.copy() for k, m in vertices.items()}
    elif kind == "entry":
        m = mats[key].copy()
        m[draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))] += size
        mats[key] = m
    elif kind == "scale":
        mats[key] = mats[key] * (1.0 + size)
    elif kind == "swap" and len(edges) > 1:
        a, b = draw(st.permutations(sorted(edges)))[:2]
        edges[a], edges[b] = edges[b], edges[a]
    elif kind == "rank":
        v = draw(st.sampled_from(g.vertices))
        u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        u /= np.linalg.norm(u)
        vertices[v] = vertices[v] + size * np.outer(u, u.conj())
    elif kind == "complement":
        complement_dim = max(0, complement_dim + draw(st.sampled_from([-1, 1])))
    elif kind == "overlap-i":
        a, b = draw(st.permutations(g.vertices))[:2]
        return g, plant_vertex_overlap(rng, rep, a, b, planted), tols
    elif kind == "overlap-iv" and len(edges) > 1:
        e, f = draw(st.permutations(sorted(edges)))[:2]
        return g, plant_edge_overlap(rep, e, f, planted), tols
    elif kind == "non-finite":
        m = mats[key].copy()
        m[draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))] = draw(
            st.sampled_from([np.inf, -np.inf, np.nan, complex(0.0, np.inf)])
        )
        mats[key] = m
    return g, ConcreteRepresentation(
        dim=n,
        complement_dim=complement_dim,
        edge_matrices=edges,
        vertex_matrices=vertices,
    ), tols


def _all_finite(rep):
    return all(
        np.isfinite(m).all()
        for m in (*rep.edge_matrices.values(), *rep.vertex_matrices.values())
    )


@settings(max_examples=oracle_examples(300), deadline=None)
@given(dense_representations())
def test_check_representation_matches_original(case):
    """Byte-identical to the original pairwise scan on finite input.

    The original scan lets a NaN error pass (``err > tol``), which the
    library fails closed; on non-finite input the screen must stand aside,
    so every pair gets the exact product.
    """
    g, rep, tols = case
    report = check_representation(rep, g, tols)
    if _all_finite(rep):
        _same(report, oracle.check_representation(rep, g, tols.rep))
    else:
        assert alignment._pair_screen(rep, g, tols.rep) is None
        assert not report.passed


def _tree_150():
    """An honest representation on a 30-vertex attachment tree: 147 indices
    from the vertices plus a complement of 3, N = 150."""
    g = genutil.tree_graph(np.random.default_rng(6), 30)
    return g, random_representation(g, {v: 3 for v in g.sinks()}, complement_dim=3, seed=5)


def test_screen_clears_every_pair_of_an_honest_large_tree():
    g, rep = _tree_150()
    assert rep.dim == 150 and len(g.vertices) == 30
    cleared_i, cleared_iv = alignment._pair_screen(rep, g, Tolerances().rep)
    assert cleared_i >= set(combinations(g.vertices, 2))
    ids = [e.id for e in g.edges]
    assert cleared_iv == {(e, f) for e in ids for f in ids if e != f}
    assert check_representation(rep, g).passed


@pytest.mark.parametrize("item", ["i", "iv"])
@pytest.mark.parametrize("factor", [0.5, 2.0])
def test_planted_pair_is_reported_as_the_original_reports_it(item, factor):
    """A pair planted at 0.5 or 2 times the tolerance passes or fails as in
    the original scan; at 2 times the screen must leave it to the exact
    product, which reports the original's float."""
    g, rep = _tree_150()
    tols = Tolerances()
    if item == "i":
        pair = g.vertices[4], g.vertices[17]
        rep = plant_vertex_overlap(np.random.default_rng(0), rep, *pair, factor * tols.rep)
    else:
        pair = g.edges[6].id, g.edges[21].id
        rep = plant_edge_overlap(rep, *pair, factor * tols.rep)
    report = check_representation(rep, g, tols)
    _same(report, oracle.check_representation(rep, g, tols.rep))
    if factor < 1:
        assert report.item(item).status == "pass"
    else:
        assert pair not in alignment._pair_screen(rep, g, tols.rep)[item == "iv"]
        witness = report.item(item).witness
        assert witness[{"i": "vertices", "iv": "edges"}[item]] == list(pair)
        assert witness["error"] > tols.rep


def _skip_cases():
    """Representations the screen must skip, by why."""
    g = genutil.tree_graph(np.random.default_rng(8), 6)
    rep = random_representation(g, {v: 2 for v in g.sinks()}, complement_dim=1, seed=2)
    v, w = g.vertices[:2]
    eye = np.eye(rep.dim, dtype=complex)
    # two traces of N: the vertex bases stack 2N wide
    wide = dataclasses.replace(rep, vertex_matrices={**rep.vertex_matrices, v: eye, w: eye})
    # a trace of 1.5·N rounds outside [0, N]
    big = dataclasses.replace(rep, vertex_matrices={**rep.vertex_matrices, v: 1.5 * eye})
    # four edges into c, of trace 3, with the leaves' projections zeroed: the
    # vertex bases stack 3 wide, the edge images 12, and N is 10
    instar = star_graph(4, outward=False)
    honest = random_representation(instar, {"c": 2}, seed=4)
    assert honest.dim == 10
    leaves = {v: np.zeros((10, 10), dtype=complex) for v in instar.vertices if v != "c"}
    c = np.diag([1.0, 1.0, 1.0] + [0.0] * 7).astype(complex)
    edge_wide = dataclasses.replace(honest, vertex_matrices={**leaves, "c": c})
    return {
        "stack wider than N": (g, wide),
        "trace out of range": (g, big),
        "edge images wider than N": (instar, edge_wide),
    }


@pytest.mark.parametrize(
    "why", ["stack wider than N", "trace out of range", "edge images wider than N"]
)
def test_screen_is_skipped_and_reports_match_the_original(why):
    g, rep = _skip_cases()[why]
    assert alignment._pair_screen(rep, g, Tolerances().rep) is None
    _same(check_representation(rep, g), oracle.check_representation(rep, g))
