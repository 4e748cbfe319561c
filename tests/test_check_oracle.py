"""The witness-generator checkers against the original scan loops.

``check_oracle`` holds the original ``validate``, ``verify_ck`` and
``check_representation`` verbatim; on every input the library must produce
byte-identical reports, and the same ``exact`` flag on passing relation
reports. The one exception is a dense representation with a non-finite
entry, where the original lets NaN errors pass and the library fails them.
"""

import dataclasses
import json
import warnings
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

# dyadic weights, and non-dyadic ones whose exact ratios have long integer parts
WEIGHTS = st.sampled_from([0.5, 1.0, 2.0, 3.0, 0.25, 0.1, 0.3, 1 / 3, 7e-5, 1e5])


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


def plant_projection_defect(rng, rep, g, v, size):
    """P_v plus c·uu* for a unit u of range(P_v): P_v² − P_v becomes
    (c + c²)·uu*, c scaled so that its largest entry is about ``size``."""
    u = _unit_in_range(rng, rep.vertex_matrices[v])
    vertices = dict(rep.vertex_matrices)
    vertices[v] = vertices[v] + size / np.abs(u).max() ** 2 * np.outer(u, u.conj())
    return dataclasses.replace(rep, vertex_matrices=vertices)


def plant_isometry_defect(rng, rep, g, e, size):
    """S_e·(I + c·ww*) for a unit w of range(P_rng): S_e*·S_e − P_rng becomes
    (2c + c²)·ww*, c scaled so that its largest entry is about ``size``."""
    s = rep.edge_matrices[e]
    w = _unit_in_range(rng, rep.vertex_matrices[g.edge(e).rng])
    c = size / (2 * np.abs(w).max() ** 2)
    edges = {**rep.edge_matrices, e: s + c * np.outer(s @ w, w.conj())}
    return dataclasses.replace(rep, edge_matrices=edges)


def plant_range_escape(rng, rep, g, e, size):
    """S_e plus c·zw* for a unit z orthogonal to range(P_src) and a unit w of
    range(P_rng): (P_src − I)·S_e·S_e* becomes −c·z(S_e·w)* − c²·zz*, c
    scaled so that its largest entry is about ``size``."""
    s = rep.edge_matrices[e]
    z = _unit_in_range(rng, np.eye(rep.dim) - rep.vertex_matrices[g.edge(e).src])
    w = _unit_in_range(rng, rep.vertex_matrices[g.edge(e).rng])
    c = size / (np.abs(z).max() * np.abs(s @ w).max())
    edges = {**rep.edge_matrices, e: s + c * np.outer(z, w.conj())}
    return dataclasses.replace(rep, edge_matrices=edges)


def plant_sum_defect(rng, rep, g, v, size):
    """v's first out-edge S_e scaled by 1 + c: Σ S_f·S_f* − P_v becomes
    (2c + c²)·S_e·S_e*, c scaled so that its largest entry is about ``size``."""
    e = g.out_edges(v)[0].id
    s = rep.edge_matrices[e]
    c = size / (2 * np.abs(s @ s.conj().T).max())
    return dataclasses.replace(rep, edge_matrices={**rep.edge_matrices, e: (1 + c) * s})


def plant_outside_ranges(rng, rep, g, e, size):
    """S_e plus c·yz* for a unit y orthogonal to range(P_src) and a unit z
    orthogonal to range(P_rng). S_e·B_rng misses it, so only the residual
    of S_e against its image sees it; items ii, iii and v move by c² only:
    Σ S_f·S_f* − P_src gains c²·yy*, c scaled so that its largest entry is
    about ``size``."""
    y = _unit_in_range(rng, np.eye(rep.dim) - rep.vertex_matrices[g.edge(e).src])
    z = _unit_in_range(rng, np.eye(rep.dim) - rep.vertex_matrices[g.edge(e).rng])
    c = np.sqrt(size) / np.abs(y).max()
    edges = {**rep.edge_matrices, e: rep.edge_matrices[e] + c * np.outer(y, z.conj())}
    return dataclasses.replace(rep, edge_matrices=edges)


# single-generator defects: the plant, where it goes, and the item it breaks
DEFECTS = {
    "projections": (plant_projection_defect, "vertex", "projections"),
    "ii": (plant_isometry_defect, "edge", "ii"),
    "iii": (plant_range_escape, "edge", "iii"),
    "v": (plant_sum_defect, "emitter", "v"),
    "v-outside": (plant_outside_ranges, "edge", "v"),
}


@st.composite
def dense_representations(draw):
    """A random honest representation with one mutation, and the tolerances
    to check it at.

    Graphs are attachment trees, in-stars (every edge into one vertex) or
    acyclic multigraphs with up to 4 extra edges, parallel ones included, of
    2 to 12 vertices. Mutations: the finite ones below, an item-i or item-iv
    overlap or a projections, ii, iii or v defect planted at 0.5 or 2 times
    the tolerance, or one non-finite entry.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size = draw(st.integers(2, 12))
    shape = draw(st.sampled_from(["tree", "star", "dag"]))
    if shape == "tree":
        g = genutil.tree_graph(rng, size)
    elif shape == "star":
        g = star_graph(size - 1, outward=False)
    else:
        g = genutil.dag_graph(rng, size, extra=draw(st.integers(0, 4)))
    tols = draw(REP_TOLERANCES)
    sink_dims = genutil.random_sink_dims(rng, g, 2)
    complement_dim = draw(st.integers(0, 2))
    seed = draw(st.integers(0, 1000))
    if draw(st.booleans()):
        rep = genutil.canonical_representation(g, sink_dims, complement_dim)
    else:
        rep = random_representation(g, sink_dims, complement_dim, seed)
    edges = dict(rep.edge_matrices)
    vertices = dict(rep.vertex_matrices)
    n = rep.dim
    kind = draw(
        st.sampled_from(
            ["none", "real", "entry", "scale", "swap", "rank", "complement",
             "overlap-i", "overlap-iv", "non-finite", *DEFECTS]
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
    elif kind in DEFECTS:
        plant, where, _ = DEFECTS[kind]
        names = {
            "vertex": g.vertices,
            "edge": [e.id for e in g.edges],
            "emitter": [v for v in g.vertices if g.out_edges(v)],
        }[where]
        return g, plant(rng, rep, g, draw(st.sampled_from(names)), planted), tols
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
        assert alignment._pair_screen(rep, g) is None
        assert not report.passed


def _cleared(rep, g, tol):
    """Per item, the names whose ``_pair_screen`` bound is within tol: a
    generator's id, or a pair of them; None when the screen is skipped."""
    bounds = alignment._pair_screen(rep, g)
    if bounds is None:
        return None
    ids = [e.id for e in g.edges]
    cleared = {}
    for item, bound in bounds.items():
        names = g.vertices if item in ("projections", "i", "v") else ids
        found = (tuple(names[i] for i in at) for at in zip(*np.nonzero(bound <= tol)))
        cleared[item] = {at if bound.ndim == 2 else at[0] for at in found}
    return cleared


def _tree_150():
    """An honest representation on a 30-vertex attachment tree: 147 indices
    from the vertices plus a complement of 3, N = 150."""
    g = genutil.tree_graph(np.random.default_rng(6), 30)
    return g, random_representation(g, {v: 3 for v in g.sinks()}, complement_dim=3, seed=5)


@pytest.mark.parametrize("tol", [1e-10, 1e-12])
def test_screen_clears_every_pair_of_an_honest_large_tree(tol):
    """At the default tolerance and a hundred times below it. Item iii's
    P_src·T_e is charged γ(N)·‖P_src‖_F·‖T_e‖_F for its rounding; a 2-norm
    rule's γ(N)·N·‖P_src‖₂·‖T_e‖₂ is over 1e-12 at N = 150, so that rule
    clears no item-iii edge there."""
    g, rep = _tree_150()
    assert rep.dim == 150 and len(g.vertices) == 30
    cleared = _cleared(rep, g, tol)
    assert cleared["i"] >= set(combinations(g.vertices, 2))
    ids = [e.id for e in g.edges]
    assert cleared["iv"] == {(e, f) for e in ids for f in ids if e != f}
    assert cleared["projections"] == set(g.vertices)
    assert cleared["ii"] == cleared["iii"] == set(ids)
    assert cleared["v"] == {v for v in g.vertices if g.out_edges(v)}
    assert check_representation(rep, g, Tolerances(rep=tol)).passed


def _computed_error(rep, g, item, name):
    """The largest entry of the deviation ``check_representation`` forms for
    one name of one item, formed as it forms it."""
    p, s = rep.vertex_matrices, rep.edge_matrices
    if item == "projections":
        deviation = p[name] @ p[name] - p[name]
    elif item == "i":
        deviation = p[name[0]] @ p[name[1]]
    elif item == "ii":
        deviation = s[name].conj().T @ s[name] - p[g.edge(name).rng]
    elif item == "iii":
        q = s[name] @ s[name].conj().T
        deviation = p[g.edge(name).src] @ q - q
    elif item == "iv":
        deviation = s[name[0]].conj().T @ s[name[1]]
    else:
        deviation = sum(s[e.id] @ s[e.id].conj().T for e in g.out_edges(name)) - p[name]
    return float(np.abs(deviation).max())


@settings(max_examples=oracle_examples(150), deadline=None)
@given(dense_representations())
def test_every_name_the_screen_clears_is_within_tolerance(case):
    """Soundness of the screen: for every name it clears, of every item, the
    deviation the check would form has its largest entry within
    ``tols.rep``, and a vertex cleared for the projections item is also
    self-adjoint within it, as the check does not measure that there.
    Report equality with the original scan cannot show this when an earlier
    witness of the same item masks a wrongly cleared name."""
    g, rep, tols = case
    cleared = _cleared(rep, g, tols.rep)
    if cleared is None:
        return
    for item, names in cleared.items():
        for name in names:
            assert _computed_error(rep, g, item, name) <= tols.rep, (item, name)
    for v in cleared["projections"]:
        p = rep.vertex_matrices[v]
        assert np.abs(p - p.conj().T).max() <= tols.rep, v


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
        assert pair not in _cleared(rep, g, tols.rep)[item]
        witness = report.item(item).witness
        assert witness[{"i": "vertices", "iv": "edges"}[item]] == list(pair)
        assert witness["error"] > tols.rep


@pytest.mark.parametrize("defect", list(DEFECTS))
@pytest.mark.parametrize("factor", [0.5, 2.0])
def test_planted_defect_is_reported_as_the_original_reports_it(defect, factor):
    """A single-generator defect planted at 0.5 or 2 times the tolerance
    passes or fails as in the original scan; at 2 times the screen must
    leave it to the exact product, which reports the original's float. The
    projections plant sits on an edge's range vertex, so item ii must also
    see it, through that vertex's residual alone."""
    g, rep = _tree_150()
    tols = Tolerances()
    e = g.edges[6]
    plant, where, item = DEFECTS[defect]
    target = {"vertex": e.rng, "edge": e.id, "emitter": e.src}[where]
    rep = plant(np.random.default_rng(1), rep, g, target, factor * tols.rep)
    report = check_representation(rep, g, tols)
    _same(report, oracle.check_representation(rep, g, tols.rep))
    if factor < 1:
        assert report.item(item).status == "pass"
    else:
        named = {"projections": e.rng, "ii": e.id, "iii": e.id, "v": e.src}[item]
        assert named not in _cleared(rep, g, tols.rep)[item]
        witness = report.item(item).witness
        assert witness["edge" if item in ("ii", "iii") else "vertex"] == named
        if item == "projections":
            assert witness["idempotencyError"] > tols.rep
            assert report.item("ii").witness["edge"] == e.id
        else:
            assert witness["error"] > tols.rep


@pytest.mark.parametrize("tol", [1e-10, 1e-6])
@pytest.mark.parametrize("factor", [0.5, 1.2])
def test_a_skew_plant_is_cleared_only_when_self_adjoint_within_tolerance(factor, tol):
    """P_v + c·(E_ij − E_ji) for two indices i, j of a sink's axis-aligned
    block, with 2c = factor·tol: self-adjointness moves by 2c, idempotency
    by c only, so at 1.2 self-adjointness alone fails the item. The range
    finder's basis still spans range(P_v), so the residual r_v is about
    √2·c, under the tolerance: a projections bound that charged r_v but not
    the 2β_v²·r_v that covers ‖P_v − P_v*‖₂ would clear the vertex, and the
    check, which measures neither quantity for a cleared vertex, would pass
    it."""
    g, _ = _tree_150()
    rep = genutil.canonical_representation(g, {v: 3 for v in g.sinks()}, complement_dim=3)
    v = g.sinks()[0]
    i, j = np.flatnonzero(np.diag(rep.vertex_matrices[v]).real > 0.5)[:2]
    m = rep.vertex_matrices[v].copy()
    m[i, j] += factor * tol / 2
    m[j, i] -= factor * tol / 2
    rep = dataclasses.replace(rep, vertex_matrices={**rep.vertex_matrices, v: m})
    report = check_representation(rep, g, Tolerances(rep=tol))
    _same(report, oracle.check_representation(rep, g, tol))
    if factor < 1:
        assert report.item("projections").status == "pass"
    else:
        assert v not in _cleared(rep, g, tol)["projections"]
        witness = report.item("projections").witness
        assert witness["vertex"] == v
        assert witness["idempotencyError"] <= tol < witness["selfAdjointnessError"]


# -- the rank proof ---------------------------------------------------------------


def _rank_or_refusal(rank_of, m):
    try:
        return rank_of(m)
    except alignment.DegenerateRankError as err:
        return str(err)


def _proved_or_svd_rank(m):
    return alignment._svd_rank(m, Tolerances().rank, compute_uv=False)[0]


def _planted(rng, m, delta):
    """m plus δ·ww* for a unit w of range(I − m), which m's own range misses
    when m is a projection: one more singular value, of about δ."""
    w = _unit_in_range(rng, np.eye(len(m)) - m)
    return m + delta * np.outer(w, w.conj())


@st.composite
def rank_cases(draw):
    """An emitter's projection or the complement I − Σ P_v of an honest
    representation, as is or with δ·ww* planted, δ log-uniform in
    [1e-15, 1e-6]."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = genutil.tree_graph(rng, draw(st.integers(2, 12)))
    sink_dims = genutil.random_sink_dims(rng, g, 3)
    complement_dim = draw(st.integers(0, 2))
    seed = draw(st.integers(0, 1000))
    if draw(st.booleans()):
        rep = genutil.canonical_representation(g, sink_dims, complement_dim)
    else:
        rep = random_representation(g, sink_dims, complement_dim, seed)
    if draw(st.booleans()):
        m = rep.vertex_matrices[draw(st.sampled_from([v for v in g.vertices if g.out_edges(v)]))]
    else:
        m = alignment._leftover(rep, g)
    if draw(st.booleans()):
        m = _planted(rng, m, 10.0 ** draw(st.floats(-15, -6)))
    return m


@settings(max_examples=oracle_examples(150), deadline=None)
@given(rank_cases())
def test_rank_proof_gives_the_svds_rank_or_refusal(m):
    """The rank ``_svd_rank`` proves, or the refusal its fallback words, is
    the values-only SVD's, unless a singular value lies within 1e-6
    relative of a band edge, where rounding may decide either way."""
    expected = _rank_or_refusal(lambda m: oracle._stable_rank(m, Tolerances().rank), m)
    lo, hi = oracle.DEGENERATE_BAND
    sv = np.linalg.svd(m, compute_uv=False)
    if not any(abs(x - edge) <= 1e-6 * edge for x in sv for edge in (lo, hi)):
        assert _rank_or_refusal(_proved_or_svd_rank, m) == expected


def _unit_missed_by_the_range_finder(m):
    """A unit w of range(I − m) orthogonal to the k columns of the Gaussian
    that ``_svd_rank`` multiplies m by, so that m + δ·ww* times it is m times
    it: the range finder's Q misses the plant, and its residual is δ."""
    n = len(m)
    k = round(np.trace(m).real)
    evals, evecs = np.linalg.eigh(np.eye(n) - m)
    away = evecs[:, evals > 0.5]
    a = np.linalg.svd(alignment._gaussian(n, k).conj().T @ away)[2][-1].conj()
    return away @ a


@pytest.mark.parametrize("delta", [0.0, 5e-13, 1.2e-12, 1e-10, 1.5e-8, 1e-6])
@pytest.mark.parametrize("which", ["emitter", "complement"])
def test_rank_proof_stands_aside_inside_the_band(monkeypatch, which, delta):
    """δ below the band's lower edge 1e-12 keeps the rank and needs no SVD;
    δ just above it, or anywhere in the band, is refused in the SVD's
    digits; δ past the upper edge 1e-8 adds one to the rank. The plant is
    one the range finder misses, so the proof sees δ itself."""
    rng = np.random.default_rng(3)
    g = genutil.tree_graph(rng, 8)
    rep = random_representation(g, genutil.random_sink_dims(rng, g, 3), 2, seed=4)
    emitter = next(v for v in g.vertices if g.out_edges(v))
    m = rep.vertex_matrices[emitter] if which == "emitter" else alignment._leftover(rep, g)
    k = round(np.trace(m).real)
    w = _unit_missed_by_the_range_finder(m)
    m = m + delta * np.outer(w, w.conj())
    svds = []
    svd = np.linalg.svd

    def spy(*args, **kwargs):
        svds.append(kwargs)
        return svd(*args, **kwargs)

    monkeypatch.setattr(alignment.np.linalg, "svd", spy)
    got = _rank_or_refusal(_proved_or_svd_rank, m)
    monkeypatch.setattr(alignment.np.linalg, "svd", svd)
    assert got == _rank_or_refusal(lambda m: oracle._stable_rank(m, Tolerances().rank), m)
    if delta < 1e-12:
        assert got == k and svds == []
    elif delta < 1e-8:
        assert got.startswith("singular value(s) [")
    else:
        assert got == k + 1


def test_rank_proof_that_overflows_leaves_the_rank_to_the_svd():
    """Entries near the top of the float range overflow the proof's
    products; the proof then proves nothing, with no numpy warning, and the
    SVD decides."""
    m = np.zeros((5, 5), dtype=complex)
    m[0, 0] = 1.0
    m[0, 1:] = 1e308
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _proved_or_svd_rank(m) == oracle._stable_rank(m, Tolerances().rank) == 1


def test_residual_bound_covers_the_rounding_of_its_product():
    """m is the computed L·R*, so the measured part of the bound is zero;
    the exact ‖m − L·R*‖_F, which the rounding makes nonzero, must still be
    covered by the rounding charged to the factors' Frobenius norms."""
    rng = np.random.default_rng(5)
    left = rng.standard_normal((20, 8)) * 3.0
    right = rng.standard_normal((20, 8)) / 7.0
    m = left @ right.T
    exact = [
        [Fraction(m[i, j]) - sum(Fraction(a) * Fraction(b) for a, b in zip(left[i], right[j]))
         for j in range(20)]
        for i in range(20)
    ]
    frobenius_sq = sum(d * d for row in exact for d in row)
    assert frobenius_sq > 0
    bound = alignment._residual(
        m, left, np.linalg.norm(left) * (1 + 1e-9), right, np.linalg.norm(right) * (1 + 1e-9)
    )
    assert Fraction(bound) ** 2 >= frobenius_sq


class _CountingMatrix(np.ndarray):
    """A matrix that counts the square products of its own size it enters."""

    products = 0

    def _count(self, other):
        if np.shape(other) == self.shape and self.shape[0] == self.shape[-1]:
            type(self).products += 1

    def __matmul__(self, other):
        self._count(other)
        return np.asarray(self) @ np.asarray(other)

    def __rmatmul__(self, other):
        self._count(other)
        return np.asarray(other) @ np.asarray(self)


def test_honest_input_is_checked_without_n_by_n_products_or_svds(monkeypatch):
    """On the honest N = 150 tree, and on a single edge, every relation item
    is settled by the screen and the complement's rank by its proof: no
    product of two N×N matrices and no SVD."""
    svds = []
    svd = np.linalg.svd

    def spy(*args, **kwargs):
        svds.append(kwargs)
        return svd(*args, **kwargs)

    monkeypatch.setattr(alignment.np.linalg, "svd", spy)
    monkeypatch.setattr(_CountingMatrix, "products", 0)
    single = graph_from_json(
        {"vertices": ["u", "v"], "edges": [{"id": "e", "src": "u", "rng": "v"}]}
    )
    for g, rep in (_tree_150(), (single, random_representation(single, {"v": 3}, 1, seed=2))):
        counted = dataclasses.replace(
            rep,
            edge_matrices={k: m.view(_CountingMatrix) for k, m in rep.edge_matrices.items()},
            vertex_matrices={k: m.view(_CountingMatrix) for k, m in rep.vertex_matrices.items()},
        )
        assert check_representation(counted, g).passed
    assert _CountingMatrix.products == 0 and svds == []


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
    assert alignment._pair_screen(rep, g) is None
    _same(check_representation(rep, g), oracle.check_representation(rep, g))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "value",
    [np.inf, -np.inf, np.nan, complex(0.0, np.inf), complex(0.0, np.nan)],
    ids=["inf", "-inf", "nan", "imag-inf", "imag-nan"],
)
@pytest.mark.parametrize("kind", ["vertex", "edge"])
def test_one_non_finite_entry_skips_the_screen_and_fails_the_check(kind, value):
    g = genutil.tree_graph(np.random.default_rng(8), 6)
    rep = random_representation(g, {v: 2 for v in g.sinks()}, complement_dim=1, seed=2)
    field = f"{kind}_matrices"
    mats = dict(getattr(rep, field))
    key = next(iter(mats))
    m = mats[key].copy()
    m[1, 2] = value
    mats[key] = m
    bad = dataclasses.replace(rep, **{field: mats})
    assert alignment._pair_screen(bad, g) is None
    assert not check_representation(bad, g).passed
