import argparse
import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import genutil
from branchrep import (
    ClassificationKind,
    Tolerances,
    align_bases,
    branching_to_json,
    check_structure,
    component_classifications,
    coordinate_export,
    decompose,
    extract_branching_system,
    graph_from_json,
    is_p_simple,
    level_decomposition,
    random_representation,
    rep_from_json,
    rep_to_json,
    synthesize,
    verify_equivalence,
    vertex_roles,
)
from branchrep import alignment, cli, graph, structure
from branchrep.cli import main
from conftest import EXAMPLE_GRAPH_PATH, FIXTURES, GOLDEN, path_graph
from test_alignment import householder_bound

# the README's two-leaf graph, and a representation of it:
# random_representation(g, {"a": 1, "b": 2}, 0, seed=7)
TWO_LEAF_GRAPH_PATH = FIXTURES / "two_leaf_graph.json"
TWO_LEAF_REP_PATH = FIXTURES / "two_leaf_rep.json"

TWO_LEAF_DOC = {
    "vertices": ["r", "a", "b"],
    "edges": [
        {"id": "e1", "src": "r", "rng": "a"},
        {"id": "e2", "src": "r", "rng": "b"},
    ],
}

FOUR_VERTEX_TREE_DOC = {
    "vertices": ["r", "a", "b", "c"],
    "edges": [
        {"id": "e1", "src": "r", "rng": "a"},
        {"id": "e2", "src": "r", "rng": "b"},
        {"id": "e3", "src": "a", "rng": "c"},
    ],
}

SINGLE_EDGE_DOC = {
    "vertices": ["u", "v"],
    "edges": [{"id": "e", "src": "u", "rng": "v"}],
}

IRREGULAR_DOC = {
    "vertices": ["v1", "v2", "v3", "v4"],
    "edges": [
        {"id": "e1", "src": "v1", "rng": "v2"},
        {"id": "e2", "src": "v3", "rng": "v2"},
        {"id": "e3", "src": "v3", "rng": "v4"},
        {"id": "e4", "src": "v1", "rng": "v4"},
    ],
}

# the undirected 4-cycle, committed as a fixture with a representation of it:
# random_representation(g, {"v2": 1, "v4": 1}, seed=9)
DIAMOND_GRAPH_PATH = FIXTURES / "diamond_graph.json"
DIAMOND_REP_PATH = FIXTURES / "diamond_rep.json"

# an inverted Bratteli diagram (levels a, b, c; every edge points one level
# down, with parallel edges b0→a0 and c1→b1), committed with a representation:
# random_representation(g, {"a0": 1, "a1": 1}, complement_dim=1, seed=1)
BRATTELI_GRAPH_PATH = FIXTURES / "bratteli_graph.json"
BRATTELI_REP_PATH = FIXTURES / "bratteli_rep.json"

PARALLEL_DOC = {
    "vertices": ["a", "b"],
    "edges": [{"id": "p", "src": "a", "rng": "b"}, {"id": "q", "src": "a", "rng": "b"}],
}

LOOP_DOC = {"vertices": ["u"], "edges": [{"id": "l", "src": "u", "rng": "u"}]}
LOOP_REP = {"dim": 1, "complementDim": 0, "edges": {"l": [[1, 0]]}, "vertices": {"u": [[1, 0]]}}

# LOOP_DOC again, committed with a representation on C^2 whose edge matrix
# has rank 1 against a rank-2 projection, so it also fails relation ii
LOOP_GRAPH_PATH = FIXTURES / "loop_graph.json"
LOOP_REP_PATH = FIXTURES / "loop_rep.json"

TWO_CYCLE_DOC = {
    "vertices": ["a", "b"],
    "edges": [{"id": "e", "src": "a", "rng": "b"}, {"id": "f", "src": "b", "rng": "a"}],
}
# S_e maps b's line onto a's, S_f a's onto b's
TWO_CYCLE_REP = {
    "dim": 2,
    "complementDim": 0,
    "edges": {"e": [[0, 0], [1, 0], [0, 0], [0, 0]], "f": [[0, 0], [0, 0], [1, 0], [0, 0]]},
    "vertices": {"a": [[1, 0], [0, 0], [0, 0], [0, 0]], "b": [[0, 0], [0, 0], [0, 0], [1, 0]]},
}


def write_json(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


# -- analyze -------------------------------------------------------------------


def test_analyze_example_frozen_structure(capsys):
    code, doc, _ = run_json(capsys, "analyze", str(EXAMPLE_GRAPH_PATH))
    assert code == 0
    assert doc["passed"] is True
    assert doc["graph"] == {"vertexCount": 12, "edgeCount": 12}
    levels = {row["level"]: row["vertices"] for row in doc["levels"]["vertexLevels"]}
    assert set(levels[1]) == {"v1", "v6", "v7", "v10", "v11", "v12"}
    assert set(levels[2]) == {"v5", "v9"}
    edge_levels = {row["level"]: row["edges"] for row in doc["levels"]["edgeLevels"]}
    assert set(edge_levels[2]) == {"e5", "e9"}
    assert set(doc["levels"]["residualVertices"]) == {"v2", "v3", "v4", "v8"}
    assert doc["isolated"] == []
    kinds = {tuple(c["vertices"]): c["classification"]["kind"] for c in doc["components"]}
    assert sorted(kinds.values()) == ["irregular", "levelsPlusCenter"]
    for c in doc["components"]:
        assert "roles" not in c  # one component is irregular, the other has a loop


def test_analyze_output_is_byte_deterministic(capsys):
    _, first, _ = run(capsys, "analyze", str(EXAMPLE_GRAPH_PATH))
    _, second, _ = run(capsys, "analyze", str(EXAMPLE_GRAPH_PATH))
    assert first == second


def test_analyze_matches_golden_bytes(capsys):
    _, out, _ = run(capsys, "analyze", str(EXAMPLE_GRAPH_PATH))
    assert out == (GOLDEN / "analyze_example.json").read_text(encoding="utf-8")


@pytest.mark.parametrize(
    "graph_path, golden",
    [
        # a forest: item 4 applies and the roles are emitted
        (TWO_LEAF_GRAPH_PATH, "analyze_two_leaf.json"),
        # an undirected 4-cycle: one Irregular component, no roles, item 4 n/a
        (DIAMOND_GRAPH_PATH, "analyze_diamond.json"),
        # an inverted Bratteli diagram with parallel edges: one Irregular component
        (BRATTELI_GRAPH_PATH, "analyze_bratteli.json"),
        # a loop alone holds one levelsPlusCenter component together, with no roles
        (LOOP_GRAPH_PATH, "analyze_loop.json"),
    ],
)
def test_analyze_fixture_matches_golden_bytes(capsys, graph_path, golden):
    code, out, _ = run(capsys, "analyze", str(graph_path))
    assert code == 0
    assert out == (GOLDEN / golden).read_text(encoding="utf-8")


def test_analyze_truncated_matches_golden_bytes(capsys):
    """Both the vertex level and the edge level meet the boundary vertex v1,
    so both are flagged; the edge flag reads each edge's endpoints."""
    code, out, _ = run(
        capsys, "analyze", str(EXAMPLE_GRAPH_PATH), "--truncate", "5", "--boundary", "v1"
    )
    assert code == 0
    assert out == (GOLDEN / "analyze_example_truncated.json").read_text(encoding="utf-8")


@pytest.mark.parametrize("graph_path", [EXAMPLE_GRAPH_PATH, TWO_LEAF_GRAPH_PATH])
def test_the_structure_layer_sweeps_each_graph_once(capsys, monkeypatch, graph_path):
    """decompose, is_p_simple, the classifications, the shape report and the
    roles all read one component sweep per graph; so does ``analyze``."""
    built = []
    sweep = graph._sweep

    def counting_sweep(g):
        built.append(None)
        return sweep(g)

    monkeypatch.setattr(graph, "_sweep", counting_sweep)
    g = graph_from_json(json.loads(graph_path.read_text(encoding="utf-8")))
    d = level_decomposition(g)
    dec = decompose(g)
    is_p_simple(g)
    classes = component_classifications(g, d)
    check_structure(g, d)
    for (comp, c), forest in zip(classes, graph.component_forests(g)):
        if c.kind is not ClassificationKind.IRREGULAR and forest:
            vertex_roles(g, d, comp, c)
    assert decompose(g) is dec
    assert len(built) == 1
    run(capsys, "analyze", str(graph_path))  # parses, and so sweeps, a graph of its own
    assert len(built) == 2


def test_analyze_truncation_marks_boundary_levels(capsys, tmp_path):
    code, doc, _ = run_json(
        capsys, "analyze", str(EXAMPLE_GRAPH_PATH), "--truncate", "5"
    )
    assert code == 0
    # keeping v1..v5 cuts e6/e7/e9 and leaves v3, v5 on the boundary
    flagged = {
        row["level"]: row["truncationSensitive"]
        for row in doc["levels"]["vertexLevels"]
    }
    assert any(flagged.values())


def test_analyze_roles_appear_for_clean_components(capsys, tmp_path):
    path = write_json(tmp_path / "g.json", TWO_LEAF_DOC)
    code, doc, _ = run_json(capsys, "analyze", path)
    assert code == 0
    (component,) = doc["components"]
    assert component["classification"] == {"kind": "levelsPlusCenter", "center": "r"}
    assert component["roles"]["a"] == {"role": "final", "witnessEdge": "e1"}
    assert component["roles"]["r"] == {"role": "center", "witnessEdge": None}


def test_analyze_seed_is_echoed(capsys):
    code, doc, _ = run_json(capsys, "analyze", str(EXAMPLE_GRAPH_PATH), "--seed", "7")
    assert code == 0
    assert doc["seed"] == 7


def test_analyze_text_format(capsys):
    code, out, _ = run(capsys, "analyze", str(EXAMPLE_GRAPH_PATH), "--format", "text")
    assert code == 0
    assert out.startswith("seed: 0\n")
    assert "passed: true" in out


def test_analyze_out_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run(
        capsys, "analyze", str(EXAMPLE_GRAPH_PATH), "--out", str(target)
    )
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text(encoding="utf-8"))["passed"] is True


@pytest.mark.parametrize(
    "argv_tail, fragment",
    [
        (("missing-file.json",), "error:"),
        (("{bad json",), "error:"),
        (("unknown-field",), "error:"),
        (("ok", "--tol", "nope=1"), "--tol expects NAME=VALUE"),
        (("ok", "--tol", "ck=abc"), "not a number"),
        (("ok", "--truncate", "-1"), "--truncate must be nonnegative"),
        (("ok", "--boundary", "zzz"), "not in the (truncated) graph"),
        (("ok", "--tol", "rank=nan"), "finite and nonnegative"),
        (("ok", "--tol", "rank=inf"), "finite and nonnegative"),
        (("ok", "--tol", "rep=-1"), "finite and nonnegative"),
    ],
)
def test_analyze_exit_2_cases(capsys, tmp_path, argv_tail, fragment):
    head, *rest = argv_tail
    if head == "{bad json":
        path = tmp_path / "bad.json"
        path.write_text("{bad json", encoding="utf-8")
        head = str(path)
    elif head == "unknown-field":
        head = write_json(tmp_path / "unk.json", {"vertices": [], "edges": [], "x": 1})
    elif head == "ok":
        head = write_json(tmp_path / "ok.json", SINGLE_EDGE_DOC)
    code, out, err = run(capsys, "analyze", head, *rest)
    assert code == 2
    assert fragment in err


def test_readme_round_trip_runs():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    (block,) = re.findall(r"^```python\n(.*?)^```", readme.read_text(encoding="utf-8"), re.M | re.S)
    assert "align_bases(rep, g)" in block
    exec(compile(block, "README.md", "exec"), {})


def test_readme_tolerance_table_lists_the_defaults():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text(encoding="utf-8").split("### Tolerances", 1)[1]
    rows = re.findall(r"^\| `(\w+)` +\| `([^`]+)` +\|", section, flags=re.MULTILINE)
    assert [(name, float(value)) for name, value in rows] == [
        (f.name, f.default) for f in dataclasses.fields(Tolerances)
    ]


def test_readme_command_line_names_every_option():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text(encoding="utf-8").split("## Command line", 1)[1]
    section = section.split("\n## ", 1)[0]
    (subparsers,) = (
        a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    options = {
        (command, option)
        for command, parser in subparsers.choices.items()
        for action in parser._actions
        for option in action.option_strings
        if option not in ("-h", "--help")
    }
    missing = sorted(
        (command, option)
        for command, option in options
        if not re.search(rf"(?<![\w-]){re.escape(option)}(?![\w-])", section)
    )
    assert missing == []


# -- synthesize -----------------------------------------------------------------


def test_synthesize_frozen_output(capsys, tmp_path):
    path = write_json(tmp_path / "g.json", TWO_LEAF_DOC)
    code, doc, _ = run_json(capsys, "synthesize", path, "--dim", "a=1", "--dim", "b=2")
    assert code == 0
    assert doc == {
        "universe": [0, 1, 2, 3, 4, 5],
        "R": {"e1": [0], "e2": [1, 2]},
        "D": {"r": [0, 1, 2], "a": [3], "b": [4, 5]},
        "f": {"e1": {"3": 0}, "e2": {"4": 1, "5": 2}},
    }


def test_synthesize_matches_golden_bytes(capsys, tmp_path):
    path = write_json(tmp_path / "g.json", TWO_LEAF_DOC)
    _, out, _ = run(capsys, "synthesize", path, "--dim", "a=1", "--dim", "b=2")
    assert out == (GOLDEN / "synthesize_two_leaf.json").read_text(encoding="utf-8")


def test_synthesize_default_dim_and_slack(capsys, tmp_path):
    path = write_json(tmp_path / "g.json", TWO_LEAF_DOC)
    code, doc, _ = run_json(
        capsys, "synthesize", path, "--default-dim", "1", "--slack", "2"
    )
    assert code == 0
    assert doc["universe"] == [0, 1, 2, 3, 4, 5]
    assert doc["D"] == {"r": [0, 1], "a": [2], "b": [3]}


def test_synthesize_long_path_exits_zero(capsys, tmp_path):
    n = 2500
    path = write_json(tmp_path / "path.json", path_graph(n).to_json())
    code, out, err = run_json(capsys, "synthesize", path, "--default-dim", "1")
    assert code == 0 and err == ""
    assert len(out["universe"]) == n


def test_synthesize_and_induce_with_isolated_vertex(capsys, tmp_path):
    doc = {"vertices": TWO_LEAF_DOC["vertices"] + ["z"], "edges": TWO_LEAF_DOC["edges"]}
    gpath = write_json(tmp_path / "g.json", doc)
    code, system, err = run_json(capsys, "synthesize", gpath, "--default-dim", "1")
    assert code == 0 and err == ""
    assert system["D"]["z"] == []
    spath = write_json(tmp_path / "bs.json", system)
    code, report, _ = run_json(capsys, "induce", spath, "--graph", gpath)
    assert code == 0 and report["passed"] is True


def test_synthesize_error_cases(capsys, tmp_path):
    path = write_json(tmp_path / "g.json", TWO_LEAF_DOC)
    code, _, err = run(capsys, "synthesize", path)
    assert code == 2 and "missing sink dimension" in err
    code, _, err = run(capsys, "synthesize", path, "--dim", "a")
    assert code == 2 and "--dim expects VERTEX=K" in err
    code, _, err = run(capsys, "synthesize", path, "--dim", "a=x")
    assert code == 2 and "not an integer" in err
    loop = write_json(
        tmp_path / "loop.json",
        {"vertices": ["u"], "edges": [{"id": "l", "src": "u", "rng": "u"}]},
    )
    code, _, err = run(capsys, "synthesize", loop)
    assert code == 2 and "directed cycle" in err


# -- induce ----------------------------------------------------------------------


def test_induce_reports_exact_relations(capsys, tmp_path):
    gpath = write_json(tmp_path / "g.json", TWO_LEAF_DOC)
    g = graph_from_json(TWO_LEAF_DOC)
    spath = write_json(
        tmp_path / "bs.json", branching_to_json(synthesize(g, {"a": 1, "b": 2}))
    )
    code, doc, _ = run_json(capsys, "induce", spath, "--graph", gpath)
    assert code == 0
    assert doc["passed"] is True and doc["exact"] is True
    assert [item["item"] for item in doc["relations"]] == ["i", "ii", "iii", "iv", "v"]
    assert all(item["status"] == "pass" for item in doc["relations"])


def test_induce_rejects_invalid_system_with_report(capsys, tmp_path):
    gpath = write_json(tmp_path / "g.json", SINGLE_EDGE_DOC)
    bad = {
        "universe": [0, 1],
        "R": {"e": [1]},
        "D": {"u": [0], "v": [1]},
        "f": {"e": {"1": 1}},
    }
    spath = write_json(tmp_path / "bs.json", bad)
    code, doc, _ = run_json(capsys, "induce", spath, "--graph", gpath)
    assert code == 1
    assert doc["passed"] is False
    statuses = {item["item"]: item["status"] for item in doc["validation"]}
    assert statuses["3"] == "fail"
    assert "relations" not in doc


def test_induce_rejects_infinite_weight(capsys, tmp_path):
    gpath = write_json(tmp_path / "g.json", SINGLE_EDGE_DOC)
    g = graph_from_json(SINGLE_EDGE_DOC)
    doc = branching_to_json(synthesize(g, {"v": 1}))
    doc["weights"] = {"0": float("inf"), "1": 1.0}
    spath = write_json(tmp_path / "bs.json", doc)
    code, out, err = run(capsys, "induce", spath, "--graph", gpath)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and "must be positive and finite" in err


def _induce_with_weights(capsys, tmp_path, weights):
    gpath = write_json(tmp_path / "g.json", SINGLE_EDGE_DOC)
    doc = branching_to_json(synthesize(graph_from_json(SINGLE_EDGE_DOC), {"v": 1}))
    doc["weights"] = {"0": weights[0], "1": weights[1]}
    spath = write_json(tmp_path / "bs.json", doc)
    return run(capsys, "induce", spath, "--graph", gpath)


@pytest.mark.parametrize("weights", [(1e-308, 1e308), (1e308, 1e-308)])
def test_induce_exact_at_extreme_finite_weights(capsys, tmp_path, weights):
    """The weight ratio 1e±616 leaves the float range; the amplitude 1e±308
    and its adjoint do not, and the relations hold exactly."""
    code, out, err = _induce_with_weights(capsys, tmp_path, weights)
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["passed"] is True and doc["exact"] is True


@pytest.mark.parametrize("weights", [(5e-324, 1.7e308), (1.7e308, 5e-324)])
def test_induce_rejects_unrepresentable_amplitude(capsys, tmp_path, weights):
    """An amplitude of about 2**±1049 or its adjoint cannot be a float."""
    code, out, err = _induce_with_weights(capsys, tmp_path, weights)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and "too large for a float" in err


@pytest.mark.parametrize(
    "weights, index",
    [
        ({"3": 1.7e308, "0": 5e-324, "4": 5e-324, "1": 1.7e308}, 3),
        ({"3": 5e-324, "0": 1.7e308, "4": 1.7e308, "1": 5e-324}, 4),
    ],
    ids=["forward-then-adjoint", "adjoint-then-forward"],
)
def test_induce_reports_a_forward_overflow_before_an_adjoint_one(
    capsys, tmp_path, weights, index
):
    """One edge's forward amplitude and the other's adjoint both overflow;
    whichever edge comes first, the forward one is named."""
    gpath = write_json(tmp_path / "g.json", TWO_LEAF_DOC)
    doc = json.loads((GOLDEN / "synthesize_two_leaf.json").read_text(encoding="utf-8"))
    doc["weights"] = {str(x): 1.0 for x in doc["universe"]} | weights
    spath = write_json(tmp_path / "bs.json", doc)
    code, out, err = run(capsys, "induce", spath, "--graph", gpath)
    assert code == 2 and out == ""
    assert err == f"error: amplitude at {index} is too large for a float\n"


def test_induce_weighted_system_matches_golden_bytes(capsys):
    """Non-dyadic weights (0.1, 0.3, 1/3, 7e-5, 1e5, 0.7) make every ratio a
    long exact fraction; every relation still holds exactly."""
    code, out, _ = run(
        capsys,
        "induce",
        str(FIXTURES / "two_leaf_weighted_system.json"),
        "--graph",
        str(TWO_LEAF_GRAPH_PATH),
    )
    assert code == 0
    assert out == (GOLDEN / "induce_two_leaf_weighted.json").read_text(encoding="utf-8")


def test_induce_validates_the_system_once(capsys, monkeypatch):
    """The report's validation is the one the family is built after."""
    from branchrep import operators

    calls = []
    for module in (cli, operators):
        monkeypatch.setattr(
            module,
            "validate",
            lambda *args, real=module.validate: calls.append(args) or real(*args),
        )
    code, out, _ = run(
        capsys,
        "induce",
        str(FIXTURES / "two_leaf_weighted_system.json"),
        "--graph",
        str(TWO_LEAF_GRAPH_PATH),
    )
    assert code == 0
    assert out == (GOLDEN / "induce_two_leaf_weighted.json").read_text(encoding="utf-8")
    assert len(calls) == 1


def test_induce_weighted_matrix_files_match_golden_bytes(capsys, tmp_path):
    """The coordinate files carry the exported float amplitudes, such as
    577.35026918962581 = sqrt(1e5 / 0.3)."""
    out_dir = tmp_path / "mats"
    code, out, _ = run(
        capsys,
        "induce",
        str(FIXTURES / "two_leaf_weighted_system.json"),
        "--graph",
        str(TWO_LEAF_GRAPH_PATH),
        "--out-dir",
        str(out_dir),
    )
    assert code == 0
    assert out == (GOLDEN / "induce_two_leaf_weighted.json").read_text(encoding="utf-8")
    golden = GOLDEN / "induce_two_leaf_weighted_matrices"
    names = sorted(p.name for p in golden.iterdir())
    assert names == ["edge-e1.txt", "edge-e2.txt", "vertex-a.txt", "vertex-b.txt", "vertex-r.txt"]
    assert sorted(p.name for p in out_dir.iterdir()) == names
    for name in names:
        assert (out_dir / name).read_bytes() == (golden / name).read_bytes(), name


def test_induce_writes_matrix_files(capsys, tmp_path):
    gpath = write_json(tmp_path / "g.json", SINGLE_EDGE_DOC)
    g = graph_from_json(SINGLE_EDGE_DOC)
    spath = write_json(
        tmp_path / "bs.json", branching_to_json(synthesize(g, {"v": 1}))
    )
    out_dir = tmp_path / "mats"
    code, _, _ = run(
        capsys, "induce", spath, "--graph", gpath, "--out-dir", str(out_dir)
    )
    assert code == 0
    assert (out_dir / "edge-e.txt").read_text(encoding="utf-8") == "2 2 1\n0 1 1\n"
    assert (out_dir / "vertex-u.txt").read_text(encoding="utf-8") == "2 2 1\n0 0 1\n"
    assert (out_dir / "vertex-v.txt").read_text(encoding="utf-8") == "2 2 1\n1 1 1\n"


def _single_edge_system_files(tmp_path, edge_id="e", sink="v"):
    doc = {
        "vertices": ["u", sink],
        "edges": [{"id": edge_id, "src": "u", "rng": sink}],
    }
    g = graph_from_json(doc)
    gpath = write_json(tmp_path / "g.json", doc)
    spath = write_json(tmp_path / "bs.json", branching_to_json(synthesize(g, {sink: 1})))
    return gpath, spath


@pytest.mark.parametrize("bad_id", ["a\0b", "a/b", "\ud800"], ids=["nul", "slash", "surrogate"])
@pytest.mark.parametrize("kind", ["edge", "vertex"])
def test_induce_out_dir_refuses_ids_that_cannot_name_a_file(
    capsys, tmp_path, monkeypatch, kind, bad_id
):
    def no_work(*args):
        pytest.fail("the system was validated before the ids were checked")

    monkeypatch.setattr(cli, "validate", no_work)
    ids = {"edge_id": bad_id} if kind == "edge" else {"sink": bad_id}
    gpath, spath = _single_edge_system_files(tmp_path, **ids)
    out_dir = tmp_path / "mats"
    code, out, err = run(capsys, "induce", spath, "--graph", gpath, "--out-dir", str(out_dir))
    assert code == 2
    assert out == ""
    assert err == f"error: --out-dir: id {bad_id!r} cannot name a file\n"
    assert not out_dir.exists()


@pytest.mark.parametrize("kind", ["edge", "vertex"])
def test_induce_out_dir_refuses_ids_too_long_for_a_file_name(
    capsys, tmp_path, monkeypatch, kind
):
    def no_work(*args):
        pytest.fail("the system was validated before the ids were checked")

    monkeypatch.setattr(cli, "validate", no_work)
    long_id = "x" * 300  # past NAME_MAX (255 bytes) of common file systems
    ids = {"edge_id": long_id} if kind == "edge" else {"sink": long_id}
    gpath, spath = _single_edge_system_files(tmp_path, **ids)
    out_dir = tmp_path / "new" / "mats"
    code, out, err = run(capsys, "induce", spath, "--graph", gpath, "--out-dir", str(out_dir))
    assert code == 2
    assert out == ""
    assert err == f"error: --out-dir: id {long_id!r} cannot name a file\n"
    assert not (tmp_path / "new").exists()


def test_induce_out_dir_file_names_are_the_ids(capsys, tmp_path):
    edge_id, sink = "e .. \\ \u00fc\n-", "..\udcff"
    gpath, spath = _single_edge_system_files(tmp_path, edge_id, sink)
    out_dir = tmp_path / "mats"
    code, _, _ = run(capsys, "induce", spath, "--graph", gpath, "--out-dir", str(out_dir))
    assert code == 0
    assert sorted(p.name for p in out_dir.iterdir()) == sorted(
        [f"edge-{edge_id}.txt", "vertex-u.txt", f"vertex-{sink}.txt"]
    )


def test_induce_out_dir_writes_an_edge_and_a_vertex_that_share_an_id(capsys, tmp_path):
    gpath, spath = _single_edge_system_files(tmp_path, edge_id="v")
    out_dir = tmp_path / "mats"
    code, doc, err = run_json(
        capsys, "induce", spath, "--graph", gpath, "--out-dir", str(out_dir)
    )
    assert (code, err) == (0, "") and doc["passed"] is True
    names = sorted(p.name for p in out_dir.iterdir())
    assert names == ["edge-v.txt", "vertex-u.txt", "vertex-v.txt"]
    assert (out_dir / "edge-v.txt").read_text(encoding="utf-8") == "2 2 1\n0 1 1\n"
    assert (out_dir / "vertex-v.txt").read_text(encoding="utf-8") == "2 2 1\n1 1 1\n"


def test_induce_out_dir_refuses_a_non_contiguous_universe_before_any_work(
    capsys, tmp_path, monkeypatch
):
    def no_work(*args):
        pytest.fail("the system was validated before its universe was checked")

    monkeypatch.setattr(cli, "validate", no_work)
    gpath = write_json(tmp_path / "g.json", SINGLE_EDGE_DOC)
    spath = write_json(
        tmp_path / "bs.json",
        {"universe": [5, 7], "R": {"e": [5]}, "D": {"u": [5], "v": [7]}, "f": {"e": {"7": 5}}},
    )
    out_dir = tmp_path / "mats"
    code, out, err = run(capsys, "induce", spath, "--graph", gpath, "--out-dir", str(out_dir))
    assert (code, out) == (2, "")
    assert err == "error: dense export needs a contiguous 0-based universe\n"
    assert not out_dir.exists()


# -- verify ----------------------------------------------------------------------


def test_verify_infers_branching_system(capsys, tmp_path):
    gpath = write_json(tmp_path / "g.json", TWO_LEAF_DOC)
    g = graph_from_json(TWO_LEAF_DOC)
    spath = write_json(
        tmp_path / "bs.json", branching_to_json(synthesize(g, {"a": 2, "b": 1}))
    )
    code, doc, _ = run_json(capsys, "verify", spath, "--graph", gpath)
    assert code == 0
    assert doc["kind"] == "branchingSystem"
    assert doc["passed"] is True


def test_verify_infers_representation(capsys, tmp_path):
    gpath = write_json(tmp_path / "g.json", SINGLE_EDGE_DOC)
    g = graph_from_json(SINGLE_EDGE_DOC)
    rep = random_representation(g, {"v": 2}, complement_dim=1, seed=3)
    rpath = write_json(tmp_path / "rep.json", rep_to_json(rep))
    code, doc, _ = run_json(capsys, "verify", rpath, "--graph", gpath)
    assert code == 0
    assert doc["kind"] == "representation"
    assert doc["passed"] is True


def test_verify_fails_broken_representation(capsys, tmp_path):
    gpath = write_json(tmp_path / "g.json", SINGLE_EDGE_DOC)
    g = graph_from_json(SINGLE_EDGE_DOC)
    doc = rep_to_json(random_representation(g, {"v": 1}, seed=4))
    doc["edges"]["e"] = [[1.5 * re, 1.5 * im] for re, im in doc["edges"]["e"]]
    rpath = write_json(tmp_path / "rep.json", doc)
    code, out, _ = run_json(capsys, "verify", rpath, "--graph", gpath)
    assert code == 1
    assert out["passed"] is False
    statuses = {item["item"]: item["status"] for item in out["checks"]}
    assert statuses["ii"] == "fail"


@pytest.mark.parametrize("kind, key", [("edges", "e"), ("vertices", "v")])
def test_nan_entry_fails_closed(capsys, tmp_path, kind, key):
    gpath = write_json(tmp_path / "g.json", SINGLE_EDGE_DOC)
    g = graph_from_json(SINGLE_EDGE_DOC)
    doc = rep_to_json(random_representation(g, {"v": 2}, complement_dim=1, seed=3))
    doc[kind][key][4] = [float("nan"), 0.0]
    rpath = write_json(tmp_path / "rep.json", doc)
    code, out, err = run_json(capsys, "verify", rpath, "--graph", gpath)
    assert code == 1 and err == ""
    assert out["passed"] is False
    code, _, err = run(capsys, "align", rpath, "--graph", gpath)
    assert code == 1
    assert len(err.splitlines()) == 1 and err.startswith("check failed: relation")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "kind, key, value",
    [("edges", "e", float("inf")), ("vertices", "v", float("inf")), ("edges", "e", 1e308)],
)
def test_infinite_entry_fails_closed_without_warnings(capsys, tmp_path, kind, key, value):
    gpath = write_json(tmp_path / "g.json", SINGLE_EDGE_DOC)
    g = graph_from_json(SINGLE_EDGE_DOC)
    doc = rep_to_json(random_representation(g, {"v": 2}, complement_dim=1, seed=3))
    doc[kind][key][4] = [value, 0.0]
    rpath = write_json(tmp_path / "rep.json", doc)
    code, out, err = run_json(capsys, "verify", rpath, "--graph", gpath)
    assert code == 1 and err == ""
    assert out["passed"] is False
    code, _, err = run(capsys, "align", rpath, "--graph", gpath)
    assert code == 1
    assert len(err.splitlines()) == 1 and err.startswith("check failed: relation")


@pytest.mark.parametrize(
    "kind, key, token", [("edges", "e", "NaN"), ("vertices", "v", "Infinity")]
)
def test_non_finite_witness_is_written_as_rfc_8259_json(capsys, tmp_path, kind, key, token):
    """An infinite entry gives NaN or infinite witness values; each is written
    as a string, never as the bare token that jq and JSON.parse reject."""
    gpath = write_json(tmp_path / "g.json", SINGLE_EDGE_DOC)
    g = graph_from_json(SINGLE_EDGE_DOC)
    doc = rep_to_json(random_representation(g, {"v": 2}, complement_dim=1, seed=3))
    doc[kind][key][4] = [float("inf"), 0.0]
    rpath = write_json(tmp_path / "rep.json", doc)
    code, out, _ = run(capsys, "verify", rpath, "--graph", gpath)
    assert code == 1

    def reject(token):
        raise ValueError(f"{token} is not RFC 8259 JSON")

    report = json.loads(out, parse_constant=reject)
    assert report["passed"] is False
    values = [
        value
        for item in report["checks"]
        if isinstance(item["witness"], dict)
        for value in item["witness"].values()
    ]
    assert token in values


@pytest.mark.parametrize("rank", ["nan", "inf"])
def test_verify_rejects_non_finite_rank_tolerance(capsys, tmp_path, rank):
    # at these cutoffs no singular value counts, so an understated
    # complement would pass
    gpath = write_json(tmp_path / "g.json", TWO_LEAF_DOC)
    g = graph_from_json(TWO_LEAF_DOC)
    doc = rep_to_json(random_representation(g, {"a": 1, "b": 1}, complement_dim=2, seed=3))
    doc["complementDim"] = 0
    rpath = write_json(tmp_path / "rep.json", doc)
    code, out, _ = run_json(capsys, "verify", rpath, "--graph", gpath)
    assert code == 1
    assert {i["item"]: i["status"] for i in out["checks"]}["complement"] == "fail"
    code, out, err = run(capsys, "verify", rpath, "--graph", gpath, "--tol", f"rank={rank}")
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:")


def test_verify_rejects_shapeless_document(capsys, tmp_path):
    gpath = write_json(tmp_path / "g.json", SINGLE_EDGE_DOC)
    spath = write_json(tmp_path / "what.json", {"neither": 1})
    code, _, err = run(capsys, "verify", spath, "--graph", gpath)
    assert code == 2
    assert "cannot tell what to verify" in err


def test_verify_two_leaf_representation_matches_golden_bytes(capsys):
    """Every item passes with a null witness, so no float reaches the report
    and the bytes are the same under any BLAS."""
    code, out, _ = run(
        capsys, "verify", str(TWO_LEAF_REP_PATH), "--graph", str(TWO_LEAF_GRAPH_PATH)
    )
    assert code == 0
    assert out == (GOLDEN / "verify_two_leaf_rep.json").read_text(encoding="utf-8")


def test_verify_escaping_edge_matches_golden_bytes(capsys):
    """The axis-aligned two_leaf representation (N = 5, a complement of 1)
    with e1 sending a's index to the complement's: its image leaves r's
    range (item iii) and r's range is no longer filled (item v). Every entry
    is 0 or 1, so both errors are exactly 1.0 under any BLAS."""
    code, out, _ = run(
        capsys,
        "verify",
        str(FIXTURES / "two_leaf_escape_rep.json"),
        "--graph",
        str(TWO_LEAF_GRAPH_PATH),
    )
    assert code == 1
    assert out == (GOLDEN / "verify_two_leaf_escape_rep.json").read_text(encoding="utf-8")


def test_verify_oblique_projection_matches_golden_bytes(capsys):
    """The axis-aligned two_leaf representation (N = 5, a complement of 1)
    with P_a = E₂₂ + E₂₄, which is idempotent but not self-adjoint: the
    projections item fails on self-adjointness alone, and item ii on
    S_e1*·S_e1 − P_a. Every entry is 0 or 1, so each error is exact under
    any BLAS."""
    code, out, _ = run(
        capsys,
        "verify",
        str(FIXTURES / "two_leaf_oblique_rep.json"),
        "--graph",
        str(TWO_LEAF_GRAPH_PATH),
    )
    assert code == 1
    assert out == (GOLDEN / "verify_two_leaf_oblique_rep.json").read_text(encoding="utf-8")


# -- align -----------------------------------------------------------------------


def test_align_recovers_canonical_system(capsys, tmp_path):
    gpath = write_json(tmp_path / "g.json", TWO_LEAF_DOC)
    g = graph_from_json(TWO_LEAF_DOC)
    dims = {"a": 1, "b": 2}
    rep = random_representation(g, dims, complement_dim=1, seed=7)
    rpath = write_json(tmp_path / "rep.json", rep_to_json(rep))
    code, doc, _ = run_json(capsys, "align", rpath, "--graph", gpath, "--seed", "7")
    assert code == 0
    assert doc["seed"] == 7
    assert doc["passed"] is True
    assert doc["maxResidual"] <= 1e-8
    assert doc["system"]["D"] == branching_to_json(synthesize(g, dims, slack=1))["D"]
    assert all(item["status"] == "pass" for item in doc["b2b"])


def test_align_canonical_model_is_exact(capsys, tmp_path):
    """The extracted system is exactly the synthesized one; the unitary and
    the residuals are within ``householder_bound`` of exact."""
    gpath = write_json(tmp_path / "g.json", SINGLE_EDGE_DOC)
    g = graph_from_json(SINGLE_EDGE_DOC)
    rep = genutil.canonical_representation(g, {"v": 1})
    rpath = write_json(tmp_path / "rep.json", rep_to_json(rep))
    out_dir = tmp_path / "out"
    code, doc, _ = run_json(capsys, "align", rpath, "--graph", gpath, "--out-dir", str(out_dir))
    assert code == 0
    assert doc["system"] == branching_to_json(synthesize(g, {"v": 1}))
    bound = householder_bound(rep.dim)
    assert doc["maxResidual"] <= bound
    head, *entries = (out_dir / "unitary.txt").read_text(encoding="utf-8").splitlines()
    u = np.zeros((rep.dim, rep.dim), dtype=complex)
    for line in entries:
        i, j, re_, im = line.split()
        u[int(i), int(j)] = complex(float(re_), float(im))
    assert head.split()[:2] == [str(rep.dim)] * 2
    assert np.abs(u @ u.conj().T - np.eye(rep.dim)).max() <= bound


def test_align_rejects_broken_representation(capsys, tmp_path):
    gpath = write_json(tmp_path / "g.json", SINGLE_EDGE_DOC)
    g = graph_from_json(SINGLE_EDGE_DOC)
    doc = rep_to_json(random_representation(g, {"v": 1}, seed=8))
    doc["edges"]["e"] = [[1.5 * re, 1.5 * im] for re, im in doc["edges"]["e"]]
    rpath = write_json(tmp_path / "rep.json", doc)
    code, out, err = run_json(capsys, "align", rpath, "--graph", gpath)
    assert code == 1
    assert out["passed"] is False
    assert "check failed: relation 'ii'" in err


def test_align_not_applicable_exits_2(capsys, tmp_path):
    """Only a directed cycle rules the construction out: the undirected
    4-cycle certifies, while a loop and a 2-cycle exit 2 with one line."""
    assert json.loads(DIAMOND_GRAPH_PATH.read_text(encoding="utf-8")) == IRREGULAR_DOC
    code, doc, err = run_json(
        capsys, "align", str(DIAMOND_REP_PATH), "--graph", str(DIAMOND_GRAPH_PATH)
    )
    assert (code, err) == (0, "")
    assert doc["passed"] is True
    for graph_doc, rep_doc, vertex in (
        (LOOP_DOC, LOOP_REP, "u"),
        (TWO_CYCLE_DOC, TWO_CYCLE_REP, "a"),
    ):
        gpath = write_json(tmp_path / "g.json", graph_doc)
        rpath = write_json(tmp_path / "rep.json", rep_doc)
        assert run(capsys, "verify", rpath, "--graph", gpath)[0] == 0
        code, out, err = run(capsys, "align", rpath, "--graph", gpath)
        assert (code, out) == (2, "")
        assert err == (
            f"theorem not applicable: directed cycle detected through vertex '{vertex}'; "
            "the alignment construction is not applicable\n"
        )


def test_align_refuses_a_directed_cycle_before_the_relation_check(capsys, monkeypatch):
    """A directed cycle rules the construction out whatever the matrices, so
    a cyclic graph exits 2 even when its matrices fail a relation, and no
    relation check runs first."""
    assert json.loads(LOOP_GRAPH_PATH.read_text(encoding="utf-8")) == LOOP_DOC
    gpath, rpath = str(LOOP_GRAPH_PATH), str(LOOP_REP_PATH)
    code, out, _ = run_json(capsys, "verify", rpath, "--graph", gpath)
    assert code == 1
    assert {item["item"]: item["status"] for item in out["checks"]}["ii"] == "fail"

    def no_check(*args):
        pytest.fail("align ran the relation check on a cyclic graph")

    monkeypatch.setattr(cli, "check_representation", no_check)
    code, out, err = run(capsys, "align", rpath, "--graph", gpath)
    assert (code, out) == (2, "")
    assert err == (
        "theorem not applicable: directed cycle detected through vertex 'u'; "
        "the alignment construction is not applicable\n"
    )


@pytest.mark.parametrize(
    "graph_doc, dims, comp",
    [(None, {"v2": 1, "v4": 1}, 0), (PARALLEL_DOC, {"b": 2}, 1)],
    ids=["diamond", "parallel-edges"],
)
def test_align_on_an_acyclic_multigraph_extracts_the_synthesized_system(
    capsys, tmp_path, graph_doc, dims, comp
):
    if graph_doc is None:
        gpath, rpath = str(DIAMOND_GRAPH_PATH), str(DIAMOND_REP_PATH)
    else:
        gpath = write_json(tmp_path / "g.json", graph_doc)
        rep = random_representation(graph_from_json(graph_doc), dims, comp, seed=4)
        rpath = write_json(tmp_path / "rep.json", rep_to_json(rep))
    out_dir = tmp_path / "out"
    code, _, err = run(capsys, "align", rpath, "--graph", gpath, "--out-dir", str(out_dir))
    assert (code, err) == (0, "")
    dim_args = [a for v, k in dims.items() for a in ("--dim", f"{v}={k}")]
    code, synthesized, _ = run(capsys, "synthesize", gpath, *dim_args, "--slack", str(comp))
    assert code == 0
    assert (out_dir / "system.json").read_text(encoding="utf-8") == synthesized


def test_bratteli_synthesize_and_align_match_golden_bytes(capsys, tmp_path):
    """The inverted Bratteli diagram is not P-simple; the system align
    extracts from its committed representation is the synthesized one."""
    golden = (GOLDEN / "synthesize_bratteli.json").read_text(encoding="utf-8")
    gpath = str(BRATTELI_GRAPH_PATH)
    code, out, _ = run(capsys, "synthesize", gpath, "--dim", "a0=1", "--dim", "a1=1", "--slack", "1")
    assert (code, out) == (0, golden)
    out_dir = tmp_path / "out"
    code, _, err = run(
        capsys, "align", str(BRATTELI_REP_PATH), "--graph", gpath, "--out-dir", str(out_dir)
    )
    assert (code, err) == (0, "")
    assert (out_dir / "system.json").read_text(encoding="utf-8") == golden


def test_align_zero_rank_vertices_give_an_empty_system(capsys, tmp_path):
    gpath = write_json(tmp_path / "g.json", SINGLE_EDGE_DOC)
    zero = [[0, 0]]
    rpath = write_json(
        tmp_path / "rep.json",
        {"dim": 1, "complementDim": 1, "edges": {"e": zero}, "vertices": {"u": zero, "v": zero}},
    )
    code, _, _ = run(capsys, "verify", rpath, "--graph", gpath)
    assert code == 0
    code, doc, err = run_json(capsys, "align", rpath, "--graph", gpath)
    assert (code, err) == (0, "")
    assert doc["system"] == {
        "universe": [0], "R": {"e": []}, "D": {"u": [], "v": []}, "f": {"e": {}}
    }
    assert doc["maxResidual"] == 0.0


def test_align_on_a_p_simple_graph_neither_peels_nor_classifies(capsys, tmp_path, monkeypatch):
    def refuse(*args):
        pytest.fail("the align path computed the level structure")

    # alignment imports nothing from structure; cli imports both by name
    for module in (structure, cli):
        monkeypatch.setattr(module, "level_decomposition", refuse)
        monkeypatch.setattr(module, "component_classifications", refuse)
    g = graph_from_json(json.loads(TWO_LEAF_GRAPH_PATH.read_text(encoding="utf-8")))
    rep = rep_from_json(json.loads(TWO_LEAF_REP_PATH.read_text(encoding="utf-8")))
    align_bases(rep, g)
    out_dir = tmp_path / "out"
    code, _, _ = run(
        capsys, "align", str(TWO_LEAF_REP_PATH), "--graph", str(TWO_LEAF_GRAPH_PATH),
        "--out-dir", str(out_dir),
    )
    assert code == 0
    golden = (GOLDEN / "synthesize_two_leaf.json").read_text(encoding="utf-8")
    assert (out_dir / "system.json").read_text(encoding="utf-8") == golden


def test_align_out_dir_writes_artifacts(capsys, tmp_path):
    gpath = write_json(tmp_path / "g.json", SINGLE_EDGE_DOC)
    g = graph_from_json(SINGLE_EDGE_DOC)
    rep = genutil.canonical_representation(g, {"v": 1})
    rpath = write_json(tmp_path / "rep.json", rep_to_json(rep))
    out_dir = tmp_path / "artifacts"
    code, doc, _ = run_json(
        capsys, "align", rpath, "--graph", gpath, "--out-dir", str(out_dir)
    )
    assert code == 0
    system = json.loads((out_dir / "system.json").read_text(encoding="utf-8"))
    assert system == doc["system"]
    unitary = (out_dir / "unitary.txt").read_text(encoding="utf-8").splitlines()
    assert unitary[0] == "2 2 2"
    assert all(len(line.split()) == 4 for line in unitary[1:])  # row col re im
    report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
    assert report == doc


def test_align_has_no_phase_slack_flag(capsys):
    rpath, gpath = str(TWO_LEAF_REP_PATH), str(TWO_LEAF_GRAPH_PATH)
    code, out, err = run(capsys, "align", rpath, "--graph", gpath, "--phase-slack")
    assert code == 2 and out == ""
    assert "unrecognized arguments: --phase-slack" in err


@pytest.mark.parametrize(
    "dims, seed, dim", [({"b": 3, "c": 4}, 1, 19), ({"b": 2, "c": 1}, 2, 8)]
)
def test_align_accepts_honest_tree(capsys, tmp_path, dims, seed, dim):
    gpath = write_json(tmp_path / "g.json", FOUR_VERTEX_TREE_DOC)
    g = graph_from_json(FOUR_VERTEX_TREE_DOC)
    rep = random_representation(g, dims, complement_dim=1, seed=seed)
    assert rep.dim == dim
    rpath = write_json(tmp_path / "rep.json", rep_to_json(rep))
    code, out, err = run_json(capsys, "align", rpath, "--graph", gpath)
    assert code == 0 and err == "" and out["passed"] is True


def test_align_matches_blocks_once(capsys, tmp_path, monkeypatch):
    """The block-to-block check runs once, and the files are the bytes the
    public functions give."""
    gpath = write_json(tmp_path / "g.json", FOUR_VERTEX_TREE_DOC)
    g = graph_from_json(FOUR_VERTEX_TREE_DOC)
    rep = random_representation(g, {"b": 3, "c": 4}, complement_dim=1, seed=1)
    rpath = write_json(tmp_path / "rep.json", rep_to_json(rep))
    calls = []
    check_b2b = alignment.check_b2b

    def spy(*args, **kwargs):
        calls.append(args)
        return check_b2b(*args, **kwargs)

    # cli imports the name; extract_branching_system looks it up in alignment
    monkeypatch.setattr(alignment, "check_b2b", spy)
    monkeypatch.setattr(cli, "check_b2b", spy)
    out_dir = tmp_path / "out"
    code, _, _ = run(capsys, "align", rpath, "--graph", gpath, "--out-dir", str(out_dir))
    assert code == 0 and len(calls) == 1
    cert = verify_equivalence(rep, extract_branching_system(rep, align_bases(rep, g), g), g)
    system = cli._json_text(branching_to_json(cert.system))
    assert (out_dir / "system.json").read_bytes() == system.encode()
    assert (out_dir / "unitary.txt").read_bytes() == coordinate_export(cert.unitary).encode()


def test_align_residual_tolerance_can_force_failure(capsys, tmp_path):
    gpath = write_json(tmp_path / "g.json", TWO_LEAF_DOC)
    g = graph_from_json(TWO_LEAF_DOC)
    rep = random_representation(g, {"a": 1, "b": 1}, seed=11)
    rpath = write_json(tmp_path / "rep.json", rep_to_json(rep))
    code, doc, _ = run_json(
        capsys, "align", rpath, "--graph", gpath, "--tol", "residual=1e-20"
    )
    assert code == 1
    assert doc["passed"] is False
    assert doc["maxResidual"] > 1e-20


# -- process-level wiring -----------------------------------------------------------


def test_module_entry_point_runs():
    result = subprocess.run(
        [sys.executable, "-m", "branchrep", "analyze", str(EXAMPLE_GRAPH_PATH)],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["passed"] is True


HOSTILE_FILES = {
    "invalid-utf8": b'{"vertices": ["\xff"], "edges": []}',
    "nested-past-recursion-limit": b"[" * 100000,
}


@pytest.mark.parametrize("content", HOSTILE_FILES.values(), ids=HOSTILE_FILES)
@pytest.mark.parametrize("command", ["analyze", "induce", "verify", "align"])
def test_undecodable_input_exits_2_with_one_line(tmp_path, command, content):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    argv = [command, str(bad)]
    if command != "analyze":
        argv += ["--graph", str(EXAMPLE_GRAPH_PATH)]
    result = subprocess.run(
        [sys.executable, "-m", "branchrep", *argv], capture_output=True, text=True
    )
    assert result.returncode == 2
    assert "Traceback" not in result.stderr
    assert len(result.stderr.splitlines()) == 1
    assert result.stderr.startswith(f"error: {bad}: ")


# 401 digits: JSON has no size limit on integers, but a float stops near 1.8e308
HUGE_INT = 10**400


def _run_module(*argv):
    return subprocess.run(
        [sys.executable, "-m", "branchrep", *map(str, argv)], capture_output=True, text=True
    )


@pytest.mark.parametrize("command", ["verify", "align"])
def test_huge_integer_representation_entry_exits_2(tmp_path, command):
    gpath = write_json(tmp_path / "g.json", SINGLE_EDGE_DOC)
    doc = rep_to_json(random_representation(graph_from_json(SINGLE_EDGE_DOC), {"v": 1}, seed=3))
    doc["vertices"]["u"][2] = [HUGE_INT, 0]
    rpath = write_json(tmp_path / "rep.json", doc)
    result = _run_module(command, rpath, "--graph", gpath)
    assert result.returncode == 2 and result.stdout == ""
    assert result.stderr == "error: vertices['u'][2] has an entry too large for a float\n"


def test_missing_representation_fields_are_named_in_document_order(tmp_path):
    """With three fields missing, the first of them in document order is
    named, whatever order the interpreter's string hashing gives a set."""
    gpath = write_json(tmp_path / "g.json", SINGLE_EDGE_DOC)
    rpath = write_json(tmp_path / "rep.json", {"dim": 2})
    for seed in range(1, 9):
        result = subprocess.run(
            [sys.executable, "-m", "branchrep", "align", rpath, "--graph", gpath],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONHASHSEED": str(seed)},
        )
        assert result.returncode == 2 and result.stdout == ""
        assert result.stderr == "error: missing required field 'complementDim'\n", seed


@pytest.mark.parametrize("command", ["verify", "align"])
def test_representation_too_large_to_allocate_exits_2(tmp_path, command):
    """dim 10⁸ parses, but the complement item's N×N identity would take
    142 PiB; numpy refuses that at once, without touching memory."""
    gpath = write_json(tmp_path / "g.json", {"vertices": [], "edges": []})
    doc = {"dim": 10**8, "complementDim": 0, "edges": {}, "vertices": {}}
    rpath = write_json(tmp_path / "rep.json", doc)
    result = _run_module(command, rpath, "--graph", gpath)
    assert result.returncode == 2 and result.stdout == ""
    assert len(result.stderr.splitlines()) == 1
    assert result.stderr.startswith("error: ") and "allocate" in result.stderr


@pytest.mark.parametrize("command", ["induce", "verify"])
def test_huge_integer_weight_exits_2(tmp_path, command):
    gpath = write_json(tmp_path / "g.json", SINGLE_EDGE_DOC)
    doc = branching_to_json(synthesize(graph_from_json(SINGLE_EDGE_DOC), {"v": 1}))
    doc["weights"] = {"0": 1, "1": HUGE_INT}
    spath = write_json(tmp_path / "bs.json", doc)
    result = _run_module(command, spath, "--graph", gpath)
    assert result.returncode == 2 and result.stdout == ""
    assert result.stderr == "error: weights[1] is too large for a float\n"


# "01" has a leading zero and "١" is ARABIC-INDIC DIGIT ONE: int() reads
# both as 1, so each would silently stand for, or collide with, the key "1"
@pytest.mark.parametrize("key", ["01", "\u0661"])
@pytest.mark.parametrize("field", ["f", "weights"])
@pytest.mark.parametrize("command", ["induce", "verify"])
def test_integer_key_not_written_canonically_exits_2(tmp_path, command, field, key):
    gpath = write_json(tmp_path / "g.json", SINGLE_EDGE_DOC)
    doc = branching_to_json(synthesize(graph_from_json(SINGLE_EDGE_DOC), {"v": 1}))
    if field == "f":
        doc["f"]["e"] = {key: 0}
        where = "f['e'] has domain key"
    else:
        doc["weights"] = {"0": 1.0, key: 4.0}
        where = "weights has key"
    spath = write_json(tmp_path / "bs.json", doc)
    result = _run_module(command, spath, "--graph", gpath)
    assert result.returncode == 2 and result.stdout == ""
    assert result.stderr == f"error: {where} {key!r}; write it as '1'\n"


@pytest.mark.parametrize("command", ["verify", "align"])
def test_float_literal_past_the_float_range_fails_closed(tmp_path, command):
    """1e400 parses as inf, which fails the relation checks (exit 1)."""
    gpath = write_json(tmp_path / "g.json", SINGLE_EDGE_DOC)
    doc = rep_to_json(random_representation(graph_from_json(SINGLE_EDGE_DOC), {"v": 1}, seed=3))
    doc["vertices"]["u"][2] = ["HUGE", 0]
    rpath = tmp_path / "rep.json"
    rpath.write_text(json.dumps(doc).replace('"HUGE"', "1e400"), encoding="utf-8")
    result = _run_module(command, rpath, "--graph", gpath)
    assert result.returncode == 1
    assert "Traceback" not in result.stderr


def test_missing_subcommand_exits_2(capsys):
    assert main([]) == 2


def test_unknown_flag_exits_2(capsys):
    assert main(["analyze", "--bogus"]) == 2
