import dataclasses
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from branchrep import (
    Tolerances,
    branching_to_json,
    graph_from_json,
    random_representation,
    rep_to_json,
    synthesize,
)
from branchrep import cli
from branchrep.cli import main
from conftest import EXAMPLE_GRAPH_PATH, GOLDEN, path_graph

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


def test_readme_tolerance_table_lists_the_defaults():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text(encoding="utf-8").split("### Tolerances", 1)[1]
    rows = re.findall(r"^\| `(\w+)` +\| `([^`]+)` +\|", section, flags=re.MULTILINE)
    assert [(name, float(value)) for name, value in rows] == [
        (f.name, f.default) for f in dataclasses.fields(Tolerances)
    ]


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


def test_induce_out_dir_file_names_are_the_ids(capsys, tmp_path):
    edge_id, sink = "e .. \\ \u00fc\n-", "..\udcff"
    gpath, spath = _single_edge_system_files(tmp_path, edge_id, sink)
    out_dir = tmp_path / "mats"
    code, _, _ = run(capsys, "induce", spath, "--graph", gpath, "--out-dir", str(out_dir))
    assert code == 0
    assert sorted(p.name for p in out_dir.iterdir()) == sorted(
        [f"edge-{edge_id}.txt", "vertex-u.txt", f"vertex-{sink}.txt"]
    )


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


def test_align_axis_aligned_is_exact(capsys, tmp_path):
    gpath = write_json(tmp_path / "g.json", SINGLE_EDGE_DOC)
    g = graph_from_json(SINGLE_EDGE_DOC)
    rep = random_representation(g, {"v": 1}, axis_aligned=True)
    rpath = write_json(tmp_path / "rep.json", rep_to_json(rep))
    code, doc, _ = run_json(capsys, "align", rpath, "--graph", gpath)
    assert code == 0
    assert doc["maxResidual"] == 0.0
    assert doc["system"] == branching_to_json(synthesize(g, {"v": 1}))


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
    gpath = write_json(tmp_path / "g.json", IRREGULAR_DOC)
    g = graph_from_json(IRREGULAR_DOC)
    rep = random_representation(g, {"v2": 1, "v4": 1}, seed=9)
    rpath = write_json(tmp_path / "rep.json", rep_to_json(rep))
    code, out, err = run(capsys, "align", rpath, "--graph", gpath)
    assert code == 2
    assert out == ""
    assert "theorem not applicable" in err
    assert "two or more unleveled vertices" in err


def test_align_out_dir_writes_artifacts(capsys, tmp_path):
    gpath = write_json(tmp_path / "g.json", SINGLE_EDGE_DOC)
    g = graph_from_json(SINGLE_EDGE_DOC)
    rep = random_representation(g, {"v": 1}, axis_aligned=True)
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


def test_align_phase_slack_flag(capsys, tmp_path):
    gpath = write_json(tmp_path / "g.json", TWO_LEAF_DOC)
    g = graph_from_json(TWO_LEAF_DOC)
    rep = random_representation(g, {"a": 1, "b": 1}, seed=10)
    rpath = write_json(tmp_path / "rep.json", rep_to_json(rep))
    code, doc, _ = run_json(
        capsys, "align", rpath, "--graph", gpath, "--phase-slack"
    )
    assert code == 0 and doc["passed"] is True


@pytest.mark.parametrize(
    "dims, seed, dim", [({"b": 3, "c": 4}, 1, 19), ({"b": 2, "c": 1}, 2, 8)]
)
def test_align_phase_slack_accepts_honest_tree(capsys, tmp_path, dims, seed, dim):
    gpath = write_json(tmp_path / "g.json", FOUR_VERTEX_TREE_DOC)
    g = graph_from_json(FOUR_VERTEX_TREE_DOC)
    rep = random_representation(g, dims, complement_dim=1, seed=seed)
    assert rep.dim == dim
    rpath = write_json(tmp_path / "rep.json", rep_to_json(rep))
    code, strict, _ = run_json(capsys, "align", rpath, "--graph", gpath)
    assert code == 0
    code, out, err = run_json(capsys, "align", rpath, "--graph", gpath, "--phase-slack")
    assert code == 0 and err == ""
    assert out == strict


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


def test_missing_subcommand_exits_2(capsys):
    assert main([]) == 2


def test_unknown_flag_exits_2(capsys):
    assert main(["analyze", "--bogus"]) == 2
