from fractions import Fraction

import numpy as np
import pytest

import genutil
from branchrep import (
    DiagonalProjection,
    DirectedGraph,
    DiscreteBranchingSystem,
    GeneratorFamily,
    OperatorError,
    WeightedPartialIsometry,
    adjoint,
    adjoint_weighted,
    compose,
    coordinate_export,
    graph_from_json,
    identity_on,
    induce,
    operators,
    synthesize,
    to_matrix,
    verify_ck,
    wpi_matrix,
    zero_operator,
)
from conftest import path_graph, single_edge_graph, star_graph


def exact_wpi(mapping: dict[int, int]) -> WeightedPartialIsometry:
    return WeightedPartialIsometry(
        mapping=mapping,
        amplitude={x: 1.0 for x in mapping},
        amplitude_sq={x: Fraction(1) for x in mapping},
    )


# -- the operator type ------------------------------------------------------------


@pytest.mark.parametrize(
    "kwargs, fragment",
    [
        (dict(mapping={0: 1}, amplitude={}), "share the same domain"),
        (dict(mapping={0: 2, 1: 2}, amplitude={0: 1.0, 1: 1.0}), "not injective"),
        (dict(mapping={0: 1}, amplitude={0: 0.0}), "must be positive"),
        (dict(mapping={0: 1}, amplitude={0: -1.0}), "must be positive"),
        (
            dict(mapping={0: 1}, amplitude={0: 1.0}, amplitude_sq={1: Fraction(1)}),
            "amplitude_sq must share",
        ),
        (
            dict(mapping={0: 1}, amplitude={0: 1.0}, amplitude_sq={0: Fraction(0)}),
            "amplitude_sq at 0 must be positive",
        ),
    ],
)
def test_operator_construction_rejections(kwargs, fragment):
    with pytest.raises(OperatorError) as exc:
        WeightedPartialIsometry(**kwargs)
    assert fragment in str(exc.value)


def test_operator_accessors():
    t = WeightedPartialIsometry(mapping={3: 7, 4: 2}, amplitude={3: 1.5, 4: 0.5})
    assert t.domain == frozenset({3, 4})
    assert t.range == frozenset({7, 2})
    assert t.inverse_mapping() == {7: 3, 2: 4}


def test_zero_and_identity_helpers():
    z = zero_operator()
    assert z.mapping == {} and z.domain == frozenset()
    ident = identity_on([2, 0, 2])
    assert ident.mapping == {0: 0, 2: 2}
    assert ident.amplitude_sq == {0: Fraction(1), 2: Fraction(1)}
    proj = DiagonalProjection(frozenset({1}))
    assert proj.as_partial_isometry().mapping == {1: 1}


# -- dense snapshots and oracles -----------------------------------------------


def test_to_matrix_frozen_single_edge():
    g = single_edge_graph()
    fam = induce(synthesize(g, {"v": 1}), g)
    assert np.array_equal(to_matrix(fam, "e"), np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert np.array_equal(to_matrix(fam, "u"), np.diag([1.0, 0.0]))
    assert np.array_equal(to_matrix(fam, "v"), np.diag([0.0, 1.0]))


def test_to_matrix_errors():
    g = single_edge_graph()
    fam = induce(synthesize(g, {"v": 1}), g)
    with pytest.raises(OperatorError, match="unknown generator"):
        to_matrix(fam, "nope")
    with pytest.raises(OperatorError, match="exceeds max_size"):
        to_matrix(fam, "e", max_size=1)

    clash = graph_from_json(
        {"vertices": ["x", "w"], "edges": [{"id": "x", "src": "w", "rng": "w"}]}
    )
    assert clash.edge("x").is_loop
    fam2 = GeneratorFamily(
        universe=(0,),
        edge_ops={"x": exact_wpi({0: 0})},
        vertex_projs={"x": DiagonalProjection(frozenset({0})), "w": DiagonalProjection(frozenset())},
        weights={0: 1.0},
    )
    with pytest.raises(OperatorError, match="names both an edge and a vertex"):
        to_matrix(fam2, "x")

    gapped = GeneratorFamily(
        universe=(0, 2),
        edge_ops={},
        vertex_projs={},
        weights={0: 1.0, 2: 1.0},
    )
    with pytest.raises(OperatorError, match="contiguous 0-based universe"):
        to_matrix(gapped, "anything")


def test_wpi_matrix_bounds():
    t = exact_wpi({5: 0})
    with pytest.raises(OperatorError, match="outside matrix size"):
        wpi_matrix(t, 3)


def test_adjoint_is_transpose():
    rng = np.random.default_rng(3)
    for _ in range(100):
        size = int(rng.integers(1, 15))
        t = genutil.random_wpi(rng, size)
        assert np.array_equal(wpi_matrix(adjoint(t), size), wpi_matrix(t, size).T)


def test_adjoint_weighted_matches_dense_oracle():
    rng = np.random.default_rng(4)
    for _ in range(100):
        size = int(rng.integers(1, 12))
        t = genutil.random_wpi(rng, size)
        weights = {x: float(rng.choice([0.5, 1.0, 2.0, 4.0])) for x in range(size)}
        w = np.diag([weights[x] for x in range(size)])
        w_inv = np.diag([1.0 / weights[x] for x in range(size)])
        expected = w_inv @ wpi_matrix(t, size).T @ w
        actual = wpi_matrix(adjoint_weighted(t, weights), size)
        assert np.max(np.abs(actual - expected)) <= 1e-14


def test_compose_matches_dense_oracle():
    rng = np.random.default_rng(5)
    for _ in range(200):
        size = int(rng.integers(1, 15))
        a = genutil.random_wpi(rng, size)
        b = genutil.random_wpi(rng, size)
        dense = wpi_matrix(a, size) @ wpi_matrix(b, size)
        assert np.max(np.abs(wpi_matrix(compose(a, b), size) - dense)) <= 1e-14


def test_compose_is_associative():
    rng = np.random.default_rng(6)
    for _ in range(50):
        size = int(rng.integers(1, 12))
        a, b, c = (genutil.random_wpi(rng, size) for _ in range(3))
        left = compose(compose(a, b), c)
        right = compose(a, compose(b, c))
        assert left.mapping == right.mapping
        for x in left.mapping:
            assert left.amplitude[x] == pytest.approx(right.amplitude[x], rel=1e-15)


def test_compose_drops_exactness_when_a_factor_is_float_only():
    ex = exact_wpi({0: 1})
    fl = WeightedPartialIsometry(mapping={1: 0}, amplitude={1: 1.0})
    assert compose(ex, identity_on([0])).amplitude_sq == {0: Fraction(1)}
    assert compose(ex, fl).amplitude_sq is None
    assert compose(fl, ex).amplitude_sq is None


# -- induced families --------------------------------------------------------------


def test_induce_rejects_invalid_system():
    g = single_edge_graph()
    broken = DiscreteBranchingSystem(
        universe=(0, 1),
        range_sets={"e": frozenset({1})},
        domain_sets={"u": frozenset({0}), "v": frozenset({1})},
        edge_maps={"e": {1: 1}},
    )
    with pytest.raises(OperatorError) as exc:
        induce(broken, g)
    assert "fails condition(s)" in str(exc.value)


def test_induce_weighted_amplitudes_frozen():
    g = single_edge_graph()
    bs = DiscreteBranchingSystem(
        universe=(0, 1),
        range_sets={"e": frozenset({0})},
        domain_sets={"u": frozenset({0}), "v": frozenset({1})},
        edge_maps={"e": {1: 0}},
        weights={0: 1.0, 1: 4.0},
    )
    fam = induce(bs, g)
    op = fam.edge_ops["e"]
    assert op.mapping == {1: 0}
    assert op.amplitude == {1: 2.0}
    assert op.amplitude_sq == {1: Fraction(4, 1)}
    assert fam.vertex_projs["u"].support == frozenset({0})


def test_verify_ck_exact_on_synthesized_systems():
    rng = np.random.default_rng(8)
    for _ in range(20):
        g = genutil.dag_graph(rng, int(rng.integers(2, 8)), extra=int(rng.integers(0, 3)))
        bs = synthesize(g, genutil.random_sink_dims(rng, g), slack=int(rng.integers(0, 2)))
        report = verify_ck(induce(bs, g), g)
        assert report.passed and report.exact


def test_verify_ck_exact_on_weighted_systems():
    rng = np.random.default_rng(9)
    for _ in range(20):
        g = genutil.dag_graph(rng, int(rng.integers(2, 8)))
        base = synthesize(g, genutil.random_sink_dims(rng, g))
        weights = {x: float(rng.choice([1.0, 2.0, 4.0])) for x in base.universe}
        bs = DiscreteBranchingSystem(
            universe=base.universe,
            range_sets=base.range_sets,
            domain_sets=base.domain_sets,
            edge_maps=base.edge_maps,
            weights=weights,
        )
        report = verify_ck(induce(bs, g), g)
        assert report.passed and report.exact


# -- relation failures, one at a time -----------------------------------------------


def family_on_single_edge(
    *,
    universe=(0, 1),
    edge=None,
    u_support=frozenset({0}),
    v_support=frozenset({1}),
    weights=None,
) -> tuple[GeneratorFamily, DirectedGraph]:
    g = single_edge_graph()
    fam = GeneratorFamily(
        universe=universe,
        edge_ops={"e": edge if edge is not None else exact_wpi({1: 0})},
        vertex_projs={
            "u": DiagonalProjection(u_support),
            "v": DiagonalProjection(v_support),
        },
        weights=weights if weights is not None else {x: 1.0 for x in universe},
    )
    return fam, g


def test_relation_i_detects_support_overlap():
    fam, g = family_on_single_edge(u_support=frozenset({0, 1}))
    report = verify_ck(fam, g)
    item = report.item("i")
    assert item.status == "fail"
    assert item.witness == {"vertices": ["u", "v"], "index": 1}


def test_relation_ii_detects_wrong_amplitude():
    bad = WeightedPartialIsometry(
        mapping={1: 0},
        amplitude={1: 1.1},
        amplitude_sq={1: Fraction(121, 100)},
    )
    fam, g = family_on_single_edge(edge=bad)
    report = verify_ck(fam, g)
    item = report.item("ii")
    assert item.status == "fail"
    assert item.witness["edge"] == "e"
    assert item.witness["amplitudeSquared"] == pytest.approx(1.4641)
    # the same defect shows up as a non-unit diagonal in the vertex sum
    v_item = report.item("v")
    assert v_item.status == "fail"
    assert v_item.witness == {"vertex": "u", "index": 0, "diagonal": pytest.approx(1.4641)}


def test_relation_ii_detects_support_mismatch():
    # the edge lands in v but only covers part of v's projection
    fam, g = family_on_single_edge(
        universe=(0, 1, 2), v_support=frozenset({1, 2})
    )
    report = verify_ck(fam, g)
    item = report.item("ii")
    assert item.status == "fail"
    assert item.witness == {"edge": "e", "missing": [2], "extra": []}


def test_relation_iii_detects_range_escaping_source():
    fam, g = family_on_single_edge(universe=(0, 1, 2), u_support=frozenset({2}))
    report = verify_ck(fam, g)
    item = report.item("iii")
    assert item.status == "fail"
    assert item.witness == {"edge": "e", "index": 0, "outsideSource": "u"}


def test_relation_iv_detects_overlapping_edge_ranges():
    g = graph_from_json(
        {
            "vertices": ["u", "v"],
            "edges": [
                {"id": "e1", "src": "u", "rng": "v"},
                {"id": "e2", "src": "u", "rng": "v"},
            ],
        }
    )
    fam = GeneratorFamily(
        universe=(0, 1, 2),
        edge_ops={"e1": exact_wpi({2: 0}), "e2": exact_wpi({2: 0})},
        vertex_projs={
            "u": DiagonalProjection(frozenset({0})),
            "v": DiagonalProjection(frozenset({2})),
        },
        weights={0: 1.0, 1: 1.0, 2: 1.0},
    )
    report = verify_ck(fam, g)
    item = report.item("iv")
    assert item.status == "fail"
    assert item.witness == {"edges": ["e1", "e2"], "index": 2}


def test_relation_v_detects_uncovered_support():
    fam, g = family_on_single_edge(universe=(0, 1, 2), u_support=frozenset({0, 2}))
    report = verify_ck(fam, g)
    for name in ("i", "ii", "iii", "iv"):
        assert report.item(name).status == "pass"
    item = report.item("v")
    assert item.status == "fail"
    assert item.witness == {"vertex": "u", "missing": [2], "extra": []}


def test_verify_ck_requires_matching_keys():
    fam, g = family_on_single_edge()
    orphan = GeneratorFamily(
        universe=fam.universe,
        edge_ops={"other": exact_wpi({1: 0})},
        vertex_projs=fam.vertex_projs,
        weights=fam.weights,
    )
    with pytest.raises(OperatorError, match="do not match the graph's edges"):
        verify_ck(orphan, g)


def test_verify_ck_float_fallback_sets_exact_false():
    float_edge = WeightedPartialIsometry(mapping={1: 0}, amplitude={1: 1.0})
    fam, g = family_on_single_edge(edge=float_edge)
    report = verify_ck(fam, g)
    assert report.passed
    assert not report.exact


@pytest.mark.parametrize("edges", [50, 200])
@pytest.mark.parametrize("shape", ["out-star", "path"])
def test_verify_ck_forms_at_most_two_products_per_edge(monkeypatch, shape, edges):
    """Items ii, iii and v need one product per edge each, iii and v the same
    one; relation iv needs none, so the count stays linear in E."""
    g = star_graph(edges, outward=True) if shape == "out-star" else path_graph(edges + 1)
    fam = induce(synthesize(g, {v: 1 for v in g.sinks()}), g)
    calls = 0

    def counting_compose(a, b):
        nonlocal calls
        calls += 1
        return compose(a, b)

    monkeypatch.setattr(operators, "compose", counting_compose)
    assert verify_ck(fam, g).passed
    assert 0 < calls <= 2 * edges


# -- text export --------------------------------------------------------------------


def test_coordinate_export_frozen():
    assert coordinate_export(np.array([[0.0, 1.0], [0.0, 0.0]])) == "2 2 1\n0 1 1\n"
    assert coordinate_export(np.array([[1 + 2j]])) == "1 1 1\n0 0 1 2\n"
    assert coordinate_export(np.zeros((2, 2))) == "2 2 0\n"


def test_coordinate_export_is_row_major_and_precise():
    m = np.array([[0.5, 0.0], [0.0, 1.0 / 3.0]])
    text = coordinate_export(m)
    lines = text.splitlines()
    assert lines[0] == "2 2 2"
    assert lines[1].startswith("0 0 ")
    assert lines[2].startswith("1 1 ")
    assert float(lines[2].split()[2]) == 1.0 / 3.0


def test_coordinate_export_rejects_non_matrix():
    with pytest.raises(OperatorError, match="2-d matrix"):
        coordinate_export(np.zeros(3))


def _entry_loop_export(matrix: np.ndarray) -> str:
    """The entry-by-entry scan coordinate_export replaced, kept as reference."""
    rows, cols = matrix.shape
    complex_valued = np.iscomplexobj(matrix)
    lines = []
    nnz = 0
    for i in range(rows):
        for j in range(cols):
            v = matrix[i, j]
            if v == 0:
                continue
            nnz += 1
            if complex_valued:
                lines.append(f"{i} {j} {v.real:.17g} {v.imag:.17g}")
            else:
                lines.append(f"{i} {j} {v:.17g}")
    return "\n".join([f"{rows} {cols} {nnz}"] + lines) + "\n"


def _export_cases():
    rng = np.random.default_rng(5)
    real = rng.standard_normal((7, 5))
    real[rng.random((7, 5)) < 0.5] = 0.0
    cplx = real + 1j * rng.standard_normal((7, 5))
    cplx[0, :] = 0.0
    cplx[1, 0] = 1j
    cplx[1, 1] = -0.0 - 0.0j
    special = np.array(
        [[np.nan, -0.0, 5e-324], [0.0, -np.inf, 1e-310], [np.inf, -5e-324, 0.1]]
    )
    complex_special = np.empty(special.shape, dtype=complex)
    complex_special.real = special
    complex_special.imag = special[::-1]
    return {
        "real": real,
        "complex": cplx,
        "nan-negzero-subnormal": special,
        "complex-nan-negzero-subnormal": complex_special,
        "transposed-view": real.T,
        "float32": real.astype(np.float32),
        "int64": np.array([[0, 3], [-2, 0]]),
        "bool": np.array([[True, False], [False, True]]),
        "identity": np.eye(64),
        "empty-rows": np.zeros((0, 3)),
        "all-zero": np.zeros((3, 4)),
    }


@pytest.mark.parametrize("name", sorted(_export_cases()))
def test_coordinate_export_matches_the_entry_loop(name):
    matrix = _export_cases()[name]
    assert coordinate_export(matrix) == _entry_loop_export(matrix)
