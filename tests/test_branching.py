import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import genutil
from branchrep import (
    BranchingError,
    DiscreteBranchingSystem,
    branching_from_json,
    branching_to_json,
    graph_from_json,
    radon_nikodym,
    synthesize,
    validate,
    vertex_dimensions,
)
from conftest import path_graph, single_edge_graph


def single_edge_system(**overrides) -> DiscreteBranchingSystem:
    fields = dict(
        universe=(0, 1),
        range_sets={"e": frozenset({0})},
        domain_sets={"u": frozenset({0}), "v": frozenset({1})},
        edge_maps={"e": {1: 0}},
    )
    fields.update(overrides)
    return DiscreteBranchingSystem(**fields)


# -- construction-time validation ---------------------------------------------


def test_default_weights_are_unit():
    bs = single_edge_system()
    assert bs.weights == {0: 1.0, 1: 1.0}
    assert bs.weight(0) == 1.0


@pytest.mark.parametrize(
    "overrides, fragment",
    [
        (dict(universe=(0, 0)), "duplicate universe index"),
        (dict(universe=(0, "x")), "must be integers"),
        (dict(weights={0: 1.0}), "exactly the universe"),
        (dict(weights={0: 1.0, 1: -2.0}), "must be positive"),
        (dict(range_sets={"e": frozenset({7})}), "outside the universe"),
        (dict(edge_maps={"e": {1: 9}}), "outside the universe"),
    ],
)
def test_structural_rejections(overrides, fragment):
    with pytest.raises(BranchingError) as exc:
        single_edge_system(**overrides)
    assert fragment in str(exc.value)


# -- the six conditions ---------------------------------------------------------


def test_validate_passes_single_edge():
    g = single_edge_graph()
    report = validate(single_edge_system(), g)
    assert report.passed
    assert [item.item for item in report.items] == [
        "1",
        "2",
        "3",
        "4",
        "5",
        "6",
    ]


def test_validate_key_mismatch_raises():
    g = single_edge_graph()
    bs = single_edge_system(range_sets={"other": frozenset({0})})
    with pytest.raises(BranchingError) as exc:
        validate(bs, g)
    assert "do not match graph edges" in str(exc.value)


def test_validate_detects_range_outside_source_domain():
    # move the range of e into the domain of the wrong vertex
    g = single_edge_graph()
    bs = single_edge_system(
        range_sets={"e": frozenset({1})}, edge_maps={"e": {1: 1}}
    )
    report = validate(bs, g)
    assert not report.passed
    item = report.item("3")
    assert item.status == "fail"
    assert item.witness == {"edge": "e", "src": "u", "index": 1}


def test_validate_detects_domain_union_gap():
    # an emitter's domain picks up an index no outgoing edge covers
    g = single_edge_graph()
    bs = DiscreteBranchingSystem(
        universe=(0, 1, 2),
        range_sets={"e": frozenset({0})},
        domain_sets={"u": frozenset({0, 2}), "v": frozenset({1})},
        edge_maps={"e": {1: 0}},
    )
    report = validate(bs, g)
    assert report.item("3").status == "pass"
    item = report.item("4")
    assert item.status == "fail"
    assert item.witness["vertex"] == "u"
    assert item.witness["missingFromUnion"] == [2]
    assert report.item("5").status == "pass"


def test_validate_detects_overlapping_ranges_and_domains():
    g = graph_from_json(
        {
            "vertices": ["u", "v"],
            "edges": [
                {"id": "e1", "src": "u", "rng": "v"},
                {"id": "e2", "src": "u", "rng": "v"},
            ],
        }
    )
    bs = DiscreteBranchingSystem(
        universe=(0, 1),
        range_sets={"e1": frozenset({0}), "e2": frozenset({0})},
        domain_sets={"u": frozenset({0}), "v": frozenset({1})},
        edge_maps={"e1": {1: 0}, "e2": {1: 0}},
    )
    report = validate(bs, g)
    assert report.item("1").status == "fail"
    assert report.item("1").witness == {"edges": ["e1", "e2"], "index": 0}

    overlapping_domains = DiscreteBranchingSystem(
        universe=(0, 1),
        range_sets={"e1": frozenset({0}), "e2": frozenset({1})},
        domain_sets={"u": frozenset({0, 1}), "v": frozenset({0})},
        edge_maps={"e1": {0: 0}, "e2": {0: 1}},
    )
    report = validate(overlapping_domains, g)
    assert report.item("2").status == "fail"
    assert report.item("2").witness["index"] == 0


def test_validate_detects_bijection_defects():
    g = single_edge_graph()
    wrong_domain = single_edge_system(edge_maps={"e": {0: 0}})
    report = validate(wrong_domain, g)
    assert report.item("5").status == "fail"
    assert report.item("5").witness["missingDomain"] == [1]

    g2 = graph_from_json(
        {
            "vertices": ["u", "v"],
            "edges": [{"id": "e", "src": "u", "rng": "v"}],
        }
    )
    not_injective = DiscreteBranchingSystem(
        universe=(0, 1, 2, 3),
        range_sets={"e": frozenset({0, 1})},
        domain_sets={"u": frozenset({0, 1}), "v": frozenset({2, 3})},
        edge_maps={"e": {2: 0, 3: 0}},
    )
    report = validate(not_injective, g2)
    assert report.item("5").status == "fail"  # image misses 1
    assert report.item("6").status == "fail"
    assert report.item("6").witness == {
        "edge": "e",
        "collidingDomain": [2, 3],
        "image": 0,
    }


# -- derivatives -----------------------------------------------------------------


def test_radon_nikodym_frozen_values():
    bs = DiscreteBranchingSystem(
        universe=(1, 2),
        range_sets={"e": frozenset({1})},
        domain_sets={"u": frozenset({1}), "v": frozenset({2})},
        edge_maps={"e": {2: 1}},
        weights={1: 1.0, 2: 4.0},
    )
    forward, inverse = radon_nikodym(bs, "e")
    assert forward == {2: 0.25}
    assert inverse == {1: 4.0}


def test_radon_nikodym_product_is_one():
    rng = np.random.default_rng(42)
    for _ in range(25):
        g = genutil.dag_graph(rng, int(rng.integers(2, 8)), extra=int(rng.integers(0, 3)))
        bs = synthesize(g, genutil.random_sink_dims(rng, g))
        weights = {x: float(rng.choice([0.5, 1.0, 2.0, 4.0])) for x in bs.universe}
        weighted = DiscreteBranchingSystem(
            universe=bs.universe,
            range_sets=bs.range_sets,
            domain_sets=bs.domain_sets,
            edge_maps=bs.edge_maps,
            weights=weights,
        )
        for e in g.edges:
            forward, inverse = radon_nikodym(weighted, e.id)
            f = weighted.edge_maps[e.id]
            for x, j in f.items():
                assert forward[x] * inverse[j] == pytest.approx(1.0, abs=1e-15)


def test_radon_nikodym_errors():
    bs = single_edge_system()
    with pytest.raises(BranchingError):
        radon_nikodym(bs, "nope")
    squash = DiscreteBranchingSystem(
        universe=(0, 1, 2),
        range_sets={"e": frozenset({0})},
        domain_sets={"u": frozenset({0}), "v": frozenset({1, 2})},
        edge_maps={"e": {1: 0, 2: 0}},
    )
    with pytest.raises(BranchingError) as exc:
        radon_nikodym(squash, "e")
    assert "not injective" in str(exc.value)


# -- dimension propagation ---------------------------------------------------------


def _dims_oracle(g, sink_dims):
    """Kahn-style resolution: settle vertices whose out-neighbors are settled."""
    dims = {}
    pending = set(g.vertices)
    while pending:
        progressed = False
        for v in sorted(pending):
            out = g.out_edges(v)
            if not out:
                dims[v] = sink_dims[v]
            elif all(e.rng in dims for e in out):
                dims[v] = sum(dims[e.rng] for e in out)
            else:
                continue
            pending.discard(v)
            progressed = True
        assert progressed, "cycle in supposedly acyclic graph"
    return dims


def test_vertex_dimensions_against_oracle():
    rng = np.random.default_rng(7)
    for _ in range(50):
        g = genutil.dag_graph(rng, int(rng.integers(2, 10)), extra=int(rng.integers(0, 4)))
        sink_dims = genutil.random_sink_dims(rng, g)
        assert vertex_dimensions(g, sink_dims) == _dims_oracle(g, sink_dims)


@pytest.mark.parametrize(
    "doc, dims, fragment",
    [
        (
            {
                "vertices": ["a", "b"],
                "edges": [
                    {"id": "e1", "src": "a", "rng": "b"},
                    {"id": "e2", "src": "b", "rng": "a"},
                ],
            },
            {},
            "directed cycle",
        ),
        (
            {"vertices": ["a", "b"], "edges": [{"id": "e", "src": "a", "rng": "b"}]},
            {},
            "missing sink dimension",
        ),
        (
            {"vertices": ["a", "b"], "edges": [{"id": "e", "src": "a", "rng": "b"}]},
            {"b": 0},
            "zero dimension",
        ),
        (
            {"vertices": ["a", "b"], "edges": [{"id": "e", "src": "a", "rng": "b"}]},
            {"a": 1, "b": 1},
            "not a sink",
        ),
        (
            {"vertices": ["a", "b"], "edges": [{"id": "e", "src": "a", "rng": "b"}]},
            {"zzz": 1},
            "unknown vertex",
        ),
    ],
)
def test_vertex_dimensions_errors(doc, dims, fragment):
    g = graph_from_json(doc)
    with pytest.raises(BranchingError) as exc:
        vertex_dimensions(g, dims)
    assert fragment in str(exc.value)


def test_loop_counts_as_directed_cycle():
    g = graph_from_json(
        {"vertices": ["a"], "edges": [{"id": "l", "src": "a", "rng": "a"}]}
    )
    with pytest.raises(BranchingError) as exc:
        vertex_dimensions(g, {})
    assert "directed cycle" in str(exc.value)


def test_directed_cycle_names_first_reentered_vertex():
    # the walk enters t, a, b, c in document order and first meets a again
    g = graph_from_json(
        {
            "vertices": ["t", "a", "b", "c"],
            "edges": [
                {"id": "e1", "src": "t", "rng": "a"},
                {"id": "e2", "src": "a", "rng": "b"},
                {"id": "e3", "src": "b", "rng": "c"},
                {"id": "e4", "src": "c", "rng": "a"},
            ],
        }
    )
    with pytest.raises(BranchingError, match="directed cycle detected through vertex 'a'"):
        vertex_dimensions(g, {})


def test_synthesize_long_path_needs_no_recursion():
    g = path_graph(2500)
    bs = synthesize(g, {"v2500": 2})
    assert len(bs.universe) == 2 * 2500
    assert validate(bs, g).passed


# -- canonical synthesis -------------------------------------------------------------


def test_synthesize_frozen_path_layout():
    g = path_graph(3)
    bs = synthesize(g, {"v3": 2})
    assert bs.universe == (0, 1, 2, 3, 4, 5)
    assert bs.domain_sets == {
        "v1": frozenset({0, 1}),
        "v2": frozenset({2, 3}),
        "v3": frozenset({4, 5}),
    }
    assert bs.range_sets == {"e1": frozenset({0, 1}), "e2": frozenset({2, 3})}
    assert bs.edge_maps == {"e1": {2: 0, 3: 1}, "e2": {4: 2, 5: 3}}
    assert validate(bs, g).passed
    assert all(w == 1.0 for w in bs.weights.values())


def test_synthesize_splits_emitter_block_per_edge():
    g = graph_from_json(
        {
            "vertices": ["a", "b", "c"],
            "edges": [
                {"id": "e1", "src": "a", "rng": "b"},
                {"id": "e2", "src": "a", "rng": "c"},
            ],
        }
    )
    bs = synthesize(g, {"b": 2, "c": 1})
    assert bs.domain_sets["a"] == frozenset({0, 1, 2})
    assert bs.range_sets["e1"] == frozenset({0, 1})
    assert bs.range_sets["e2"] == frozenset({2})
    assert bs.edge_maps["e1"] == {3: 0, 4: 1}
    assert bs.edge_maps["e2"] == {5: 2}


def test_synthesize_slack_and_errors():
    g = single_edge_graph()
    bs = synthesize(g, {"v": 1}, slack=2)
    assert bs.universe == (0, 1, 2, 3)
    used = set().union(*bs.domain_sets.values())
    assert used == {0, 1}
    assert validate(bs, g).passed
    with pytest.raises(BranchingError):
        synthesize(g, {"v": 1}, slack=-1)


def test_synthesize_validates_on_random_dags():
    rng = np.random.default_rng(11)
    for _ in range(30):
        g = genutil.dag_graph(rng, int(rng.integers(2, 9)), extra=int(rng.integers(0, 3)))
        bs = synthesize(g, genutil.random_sink_dims(rng, g), slack=int(rng.integers(0, 3)))
        assert validate(bs, g).passed


# -- JSON interchange -----------------------------------------------------------------


def test_json_round_trip_unit_weights():
    g = path_graph(3)
    bs = synthesize(g, {"v3": 2}, slack=1)
    doc = branching_to_json(bs)
    assert "weights" not in doc  # unit weights stay implicit
    assert json.loads(json.dumps(doc)) == doc
    back = branching_from_json(doc)
    assert back == bs


def test_json_round_trip_with_weights():
    bs = DiscreteBranchingSystem(
        universe=(0, 1),
        range_sets={"e": frozenset({0})},
        domain_sets={"u": frozenset({0}), "v": frozenset({1})},
        edge_maps={"e": {1: 0}},
        weights={0: 1.0, 1: 4.0},
    )
    doc = branching_to_json(bs)
    assert doc["weights"] == {"0": 1.0, "1": 4.0}
    assert branching_from_json(doc) == bs


@pytest.mark.parametrize(
    "mutate, fragment",
    [
        (lambda d: d.update(extra=1), "unknown top-level field"),
        (lambda d: d.pop("universe"), "missing required field 'universe'"),
        (lambda d: d.update(universe=[0, "x"]), "array of integers"),
        (lambda d: d.update(R=[1]), "'R' must be an object"),
        (lambda d: d.update(f={"e": {"zero": 0}}), "non-integer domain key"),
        (lambda d: d.update(f={"e": {"1": 0.5}}), "must be an integer"),
        (lambda d: d.update(weights={"0": "x", "1": 1}), "must be a number"),
    ],
)
def test_json_rejections(mutate, fragment):
    doc = branching_to_json(single_edge_system())
    mutate(doc)
    with pytest.raises(BranchingError) as exc:
        branching_from_json(doc)
    assert fragment in str(exc.value)


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_synthesized_systems_round_trip(seed):
    rng = np.random.default_rng(seed)
    g = genutil.dag_graph(rng, int(rng.integers(2, 7)), extra=int(rng.integers(0, 3)))
    bs = synthesize(g, genutil.random_sink_dims(rng, g), slack=int(rng.integers(0, 2)))
    assert branching_from_json(json.loads(json.dumps(branching_to_json(bs)))) == bs
