"""The four benchmark workloads: seeded inputs, one op per input, output checks.

Every op drives branchrep through its public functions or through
``branchrep.cli.main`` in-process, with each call wrapped by the tracer under
the name ``<module>.<call>``.

Inputs. A *case* fixes a graph family, a size and how many ops of it each
round holds. The combinatorial part of an op's input (graph, sink dims,
complement) is variant ``j`` of a committed pool of ``VARIANTS`` per case;
``digests.json`` holds the combinatorial outputs of every pool member at the
commit that recorded it, so every op's output is checked against a known
answer whatever the workload seed. The workload seed picks each op's variant,
the op order, and every float the op uses (Haar unitaries, weights).

Cost control. Where the op cost depends on the universe size N, a variant is
redrawn until N hits the case's target (exactly for dense representations,
within a few percent for the exact workload), so two seeds do the same work
and their throughput can be compared.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import shutil
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import branchrep.cli
from branchrep import (
    RESIDUAL_TOL,
    ClassificationKind,
    align_bases,
    branching_from_json,
    branching_to_json,
    check_b2b,
    check_representation,
    check_structure,
    component_classifications,
    decompose,
    extract_branching_system,
    graph_from_json,
    induce,
    is_p_simple,
    level_decomposition,
    level_report,
    parse_graph,
    random_representation,
    rep_to_json,
    synthesize,
    validate,
    verify_ck,
    verify_equivalence,
    vertex_dimensions,
    vertex_roles,
)

VARIANTS = 8
_POOL_SALT = 0x62726570  # "brep": keeps pool streams apart from any other use of the case key
_MAX_DRAWS = 20000


@dataclass(frozen=True)
class Case:
    family: str
    size: int  # vertices, except edges for the exact-family workload
    per_round: int
    target: int = 0  # universe size N to hit; 0 leaves N free

    @property
    def key(self) -> str:
        return f"{self.family}-{self.size}"


@dataclass
class Op:
    case: Case
    variant: int
    payload: dict  # what ``build`` returned; its "sizes" hold the input's V, E and N


@dataclass
class Outcome:
    """What the checks found: per-part digests, failures by module, counters."""

    digests: dict[str, str] = field(default_factory=dict)
    failures: list[tuple[str, str]] = field(default_factory=list)
    counts: dict[str, float] = field(default_factory=dict)

    def require(self, module: str, ok: bool, what: str) -> None:
        if not ok:
            self.failures.append((module, what))


def digest(obj: object) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


# -- graph families ------------------------------------------------------------


def _doc(rng: np.random.Generator, n: int, pairs: list[tuple[int, int]]) -> dict:
    """Graph document on n vertices with seeded labels and document order."""
    labels = [f"v{i}" for i in rng.permutation(n)]
    vertices = [labels[i] for i in rng.permutation(n)]
    edges = [
        {"id": f"e{k}", "src": labels[pairs[i][0]], "rng": labels[pairs[i][1]]}
        for k, i in enumerate(rng.permutation(len(pairs)))
    ]
    return {"vertices": vertices, "edges": edges}


def _flip(rng: np.random.Generator, a: int, b: int) -> tuple[int, int]:
    return (b, a) if rng.integers(0, 2) else (a, b)


def _tree_pairs(rng: np.random.Generator, n: int, offset: int = 0) -> list[tuple[int, int]]:
    """Attachment tree: vertex i attaches to a uniform earlier one, random direction."""
    return [_flip(rng, offset + int(rng.integers(0, i)), offset + i) for i in range(1, n)]


FAMILIES: dict[str, Callable[[np.random.Generator, int], dict]] = {
    "path": lambda rng, n: _doc(rng, n, [(i, i + 1) for i in range(n - 1)]),
    "matching": lambda rng, n: _doc(
        rng, n, [_flip(rng, 2 * i, 2 * i + 1) for i in range(n // 2)]
    ),
    "ostar": lambda rng, n: _doc(rng, n, [(0, i) for i in range(1, n)]),
    "istar": lambda rng, n: _doc(rng, n, [(i, 0) for i in range(1, n)]),
    "tree": lambda rng, n: _doc(rng, n, _tree_pairs(rng, n)),
    "forest": lambda rng, n: _doc(
        rng, n, _tree_pairs(rng, n // 2) + _tree_pairs(rng, n - n // 2, n // 2)
    ),
}


def _pool_rng(case: Case, variant: int) -> np.random.Generator:
    return np.random.default_rng([_POOL_SALT, zlib.crc32(case.key.encode()), variant])


def draw_structure(case: Case, variant: int, vertices: int, window: float) -> dict:
    """Pool member ``variant`` of a case: graph doc, sink dims 1-3, complement, N.

    With a target, draws repeat until the summed vertex dimensions land
    within ``window * target`` of the target; a window of 0 instead takes
    sums up to two short of it and lets the complement (0-2 extra indices)
    make up the rest, so N equals the target exactly.
    """
    rng = _pool_rng(case, variant)
    for _ in range(_MAX_DRAWS):
        doc = FAMILIES[case.family](rng, vertices)
        g = graph_from_json(doc)
        dims = {v: int(rng.integers(1, 4)) for v in g.sinks()}
        if not case.target:
            return {"doc": doc, "g": g, "dims": dims, "comp": 0, "n": 0}
        n0 = sum(vertex_dimensions(g, dims).values())
        if window:
            if abs(n0 - case.target) <= window * case.target:
                return {"doc": doc, "g": g, "dims": dims, "comp": 0, "n": n0}
        elif case.target - 2 <= n0 <= case.target:
            return {"doc": doc, "g": g, "dims": dims, "comp": case.target - n0, "n": case.target}
    raise RuntimeError(f"no draw of {case.key} reached universe size {case.target}")


def _sizes(g, n: int = 0) -> dict:
    return {"V": g.vertex_count, "E": g.edge_count, "N": n}


# -- workloads ----------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    """Cases, how to build one op's input, run it, and check what it returned.

    ``build(case, variant, slot, rng)`` returns the payload; ``slot`` numbers
    the ops of a round in case order and ``rng`` is the workload-seeded
    stream for floats. ``run(payload, tracer, workdir)``
    is the timed pipeline. ``check(payload, outputs, workdir)`` returns
    an Outcome. ``tail_pct`` is the fixed percentile reported as the op
    tail: the highest one that keeps ten samples beyond it at the op count
    a run reaches on the commit that set it, fixed so that a faster commit
    is not measured at a different percentile.
    """

    name: str
    why: str
    cases: tuple[Case, ...]
    tail_pct: float
    build: Callable
    run: Callable
    check: Callable
    uses_workdir: bool = False


# graph-peel ------------------------------------------------------------------


def _peel_build(case: Case, variant: int, slot: int, rng: np.random.Generator) -> dict:
    s = draw_structure(case, variant, case.size, 0)
    return {"text": json.dumps(s["doc"]), "sizes": _sizes(s["g"])}


def _peel_run(p: dict, tr, workdir) -> dict:
    g = tr.call("graph.parse_graph", parse_graph, p["text"])
    dec = tr.call("graph.decompose", decompose, g)
    simple = tr.call("graph.is_p_simple", is_p_simple, g)
    d = tr.call("structure.level_decomposition", level_decomposition, g)
    classes = tr.call("structure.component_classifications", component_classifications, g, d)
    checks = tr.call("structure.check_structure", check_structure, g, d)
    roles = []
    if simple:
        for comp, c in classes:
            if c.kind is not ClassificationKind.IRREGULAR:
                roles.append(tr.call("structure.vertex_roles", vertex_roles, g, d, comp, c))
    return {"g": g, "dec": dec, "simple": simple, "d": d, "classes": classes,
            "checks": checks, "roles": roles}


def _peel_check(p: dict, out: dict, workdir) -> Outcome:
    o = Outcome()
    o.require("graph", out["simple"], "generated forest is not P-simple")
    o.require("structure", out["checks"].passed, "check_structure failed")
    o.digests = {
        "graph.decompose": digest([list(out["dec"].components), list(out["dec"].isolated)]),
        "structure.levels": digest(level_report(out["g"], out["d"])),
        "structure.classifications": digest(
            [[list(comp), c.to_json()] for comp, c in out["classes"]]
        ),
        "structure.check_structure": digest(out["checks"].to_json()),
        "structure.roles": digest(
            [{v: r.to_json() for v, r in roles.items()} for roles in out["roles"]]
        ),
    }
    return o


# exact-family ----------------------------------------------------------------


def _exact_build(case: Case, variant: int, slot: int, rng: np.random.Generator) -> dict:
    s = draw_structure(case, variant, case.size + 1, 0.03)
    # every other slot carries non-unit weights; tying this to the slot, not
    # the seed, keeps the share of (slower) Fraction arithmetic fixed
    weights = {x: float(rng.uniform(0.25, 4.0)) for x in range(s["n"])} if slot % 2 else None
    return {"doc": s["doc"], "g": s["g"], "dims": s["dims"], "weights": weights,
            "sizes": _sizes(s["g"], s["n"])}


def _roundtrip(bs):
    return branching_from_json(json.loads(json.dumps(branching_to_json(bs))))


def _exact_run(p: dict, tr, workdir) -> dict:
    g = p["g"]
    canonical = tr.call("branching.synthesize", synthesize, g, p["dims"])
    bs = canonical
    if p["weights"] is not None:
        bs = dataclasses.replace(canonical, weights=p["weights"])
    val = tr.call("branching.validate", validate, bs, g)
    fam = tr.call("operators.induce", induce, bs, g)
    ck = tr.call("operators.verify_ck", verify_ck, fam, g)
    back = tr.call("branching.json_roundtrip", _roundtrip, bs)
    return {"canonical": canonical, "bs": bs, "val": val, "ck": ck, "back": back}


def _exact_check(p: dict, out: dict, workdir) -> Outcome:
    o = Outcome()
    o.require("branching", out["val"].passed, "validate failed")
    o.require("operators", out["ck"].passed, "verify_ck failed")
    o.require("operators", out["ck"].exact, "verify_ck was not exact")
    o.require("branching", out["back"] == out["bs"], "JSON round trip changed the system")
    o.digests = {
        "branching.synthesize": digest(branching_to_json(out["canonical"])),
        "branching.validate": digest(out["val"].to_json()),
        "operators.verify_ck": digest(out["ck"].to_json()),
    }
    return o


# dense-align -----------------------------------------------------------------


def _dense_build(case: Case, variant: int, slot: int, rng: np.random.Generator) -> dict:
    s = draw_structure(case, variant, case.size, 0)
    return {"doc": s["doc"], "g": s["g"], "dims": s["dims"], "comp": s["comp"],
            "seed": int(rng.integers(2**32)), "sizes": _sizes(s["g"], case.target)}


def _dense_run(p: dict, tr, workdir) -> dict:
    g = p["g"]
    rep = tr.call("alignment.random_representation", random_representation,
                  g, p["dims"], p["comp"], p["seed"])
    rep_report = tr.call("alignment.check_representation", check_representation, rep, g)
    ba = tr.call("alignment.align_bases", align_bases, rep, g)
    b2b = tr.call("alignment.check_b2b", check_b2b, rep, ba, g)
    cert = tr.call("alignment.extract_branching_system", extract_branching_system, rep, ba, g)
    cert = tr.call("alignment.verify_equivalence", verify_equivalence, rep, cert, g)
    return {"rep": rep, "rep_report": rep_report, "b2b": b2b, "cert": cert}


def _dense_check(p: dict, out: dict, workdir) -> Outcome:
    o = Outcome()
    o.require("alignment", out["rep"].dim == p["sizes"]["N"], "representation has the wrong size")
    o.require("alignment", out["rep_report"].passed, "check_representation failed")
    o.require("alignment", out["b2b"].passed, "check_b2b failed")
    residual = out["cert"].max_residual
    o.require("alignment", residual <= RESIDUAL_TOL, f"max residual {residual} over tolerance")
    o.digests = {
        "alignment.check_representation": digest(out["rep_report"].to_json()),
        "alignment.check_b2b": digest(out["b2b"].to_json()),
        "alignment.extract_branching_system": digest(branching_to_json(out["cert"].system)),
    }
    return o


# cli-files -------------------------------------------------------------------

_CLI_INPUTS = ("graph.json", "rep.json")


def _cli_build(case: Case, variant: int, slot: int, rng: np.random.Generator) -> dict:
    s = draw_structure(case, variant, case.size, 0)
    rep = random_representation(s["g"], s["dims"], s["comp"], int(rng.integers(2**32)))
    return {"doc": s["doc"], "dims": s["dims"], "comp": s["comp"], "rep": rep,
            "sizes": _sizes(s["g"], case.target)}


def write_rep(rep, path: Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(rep_to_json(rep), fh)


def _cli_run(p: dict, tr, workdir: Path) -> dict:
    w = {name: str(workdir / name) for name in (
        "graph.json", "analyze.json", "system.json", "induce.json", "matrices",
        "verify-system.json", "rep.json", "verify-rep.json", "align", "align.json")}
    main = branchrep.cli.main
    with open(w["graph.json"], "w", encoding="utf-8") as fh:
        json.dump(p["doc"], fh)
    dim_args = [a for v, k in p["dims"].items() for a in ("--dim", f"{v}={k}")]
    g, rc = w["graph.json"], {}
    rc["analyze"] = tr.call("cli.analyze", main, ["analyze", g, "--out", w["analyze.json"]])
    rc["synthesize"] = tr.call("cli.synthesize", main, [
        "synthesize", g, *dim_args, "--slack", str(p["comp"]), "--out", w["system.json"]])
    rc["induce"] = tr.call("cli.induce", main, [
        "induce", w["system.json"], "--graph", g, "--out-dir", w["matrices"],
        "--out", w["induce.json"]])
    rc["verify-system"] = tr.call("cli.verify", main, [
        "verify", w["system.json"], "--graph", g, "--out", w["verify-system.json"]])
    tr.call("alignment.rep_write", write_rep, p["rep"], Path(w["rep.json"]))
    rc["verify-rep"] = tr.call("cli.verify", main, [
        "verify", w["rep.json"], "--graph", g, "--out", w["verify-rep.json"]])
    rc["align"] = tr.call("cli.align", main, [
        "align", w["rep.json"], "--graph", g, "--out-dir", w["align"],
        "--out", w["align.json"]])
    return rc


def _cli_check(p: dict, rc: dict, workdir: Path) -> Outcome:
    o = Outcome()
    for cmd, code in rc.items():
        o.require("cli", code == 0, f"{cmd} exited with {code}")

    def load(name: str):
        try:
            return json.loads((workdir / name).read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return {}

    for name in ("analyze.json", "induce.json", "verify-system.json", "verify-rep.json",
                 "align.json"):
        o.require("cli", load(name).get("passed") is True, f"{name} does not say passed")
    residual = load("align.json").get("maxResidual")
    o.require("alignment", isinstance(residual, float) and residual <= RESIDUAL_TOL,
              f"align max residual {residual} over tolerance")

    def file_digest(*names: str) -> str:
        h = hashlib.sha256()
        for name in names:
            path = workdir / name
            h.update(name.encode() + b"\0" + (path.read_bytes() if path.is_file() else b"-"))
        return h.hexdigest()[:16]

    matrices = workdir / "matrices"
    matrix_files = sorted(f"matrices/{f}" for f in os.listdir(matrices)) if matrices.is_dir() else []
    o.digests = {
        "cli.analyze": file_digest("analyze.json"),
        "cli.synthesize": file_digest("system.json"),
        "cli.induce": file_digest("induce.json"),
        "operators.coordinate_export": file_digest(*matrix_files),
        "cli.verify_system": file_digest("verify-system.json"),
        "cli.verify_rep": file_digest("verify-rep.json"),
        "cli.align_system": file_digest("align/system.json"),
    }
    written = [f for f in workdir.rglob("*") if f.is_file() and f.name not in _CLI_INPUTS]
    o.counts = {
        "alignment.rep_bytes": (workdir / "rep.json").stat().st_size
        if (workdir / "rep.json").is_file() else 0,
        "cli.out_bytes": sum(f.stat().st_size for f in written),
    }
    return o


def clear_workdir(workdir: Path) -> None:
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)


def _cases(spec: dict[str, list[tuple[int, int, int]]]) -> tuple[Case, ...]:
    return tuple(
        Case(family, size, per_round, target)
        for family, rows in spec.items()
        for size, per_round, target in rows
    )


# Sizes: three per family, small ones repeated so that a round holds enough
# ops for a tail percentile while the largest case still shows the scaling.
# Copies per case are set so that the median and the tail percentile fall
# inside a block of many similar ops, where run-to-run noise moves them least.
WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="graph-peel",
            why="graph and structure layers only (no numpy): parse, peel, classify, "
            "shape checks, roles on paths, matchings, stars and trees, V 250-1200",
            cases=_cases({
                "path": [(250, 4, 0), (700, 3, 0), (1200, 1, 0)],
                "matching": [(250, 4, 0), (700, 3, 0), (1200, 1, 0)],
                "ostar": [(250, 8, 0), (700, 2, 0), (1200, 1, 0)],
                "istar": [(250, 8, 0), (700, 2, 0), (1200, 1, 0)],
                "tree": [(250, 20, 0), (700, 2, 0), (1200, 1, 0)],
            }),
            tail_pct=90,
            build=_peel_build,
            run=_peel_run,
            check=_peel_check,
        ),
        Workload(
            name="exact-family",
            why="branching and exact operator layers: synthesize, validate, induce, "
            "exact verify_ck (pairwise relation iv), JSON round trip, E 120-600",
            cases=_cases({
                # paths stop at 300 edges: synthesize recurses once per vertex
                # and hits Python's recursion limit near 500 vertices
                "path": [(120, 8, 242), (300, 3, 602)],
                "ostar": [(120, 8, 480), (300, 3, 1200), (600, 1, 2400)],
                "istar": [(120, 8, 242), (300, 3, 602), (600, 1, 1202)],
                "tree": [(120, 4, 630), (300, 3, 1775), (600, 1, 3950)],
            }),
            tail_pct=80,
            build=_exact_build,
            run=_exact_run,
            check=_exact_check,
        ),
        Workload(
            name="dense-align",
            why="dense BLAS/LAPACK layer in memory: random representation, relation "
            "check, adapted basis, b2b, extraction, residuals, N 26-150",
            cases=_cases({
                "tree": [(10, 4, 30), (20, 4, 70), (30, 1, 150)],
                "forest": [(10, 4, 26), (20, 4, 60), (30, 1, 110)],
            }),
            tail_pct=80,
            build=_dense_build,
            run=_dense_run,
            check=_dense_check,
        ),
        Workload(
            name="cli-files",
            why="user file workflow through branchrep.cli.main: JSON representation "
            "write and reads dominate, plus CLI dispatch and reports, N 24-64",
            cases=_cases({"tree": [(8, 8, 24), (12, 3, 40), (16, 1, 64)]}),
            tail_pct=80,
            build=_cli_build,
            run=_cli_run,
            check=_cli_check,
            uses_workdir=True,
        ),
    )
}


def fingerprint(payload: dict) -> bytes:
    """Bytes that identify an op's input, to check that set-up is deterministic."""
    h = hashlib.sha256()
    for key in sorted(payload):
        value = payload[key]
        if key == "g":
            continue  # parsed from "doc", which is fingerprinted
        if key == "rep":
            for mats in (value.edge_matrices, value.vertex_matrices):
                for name in sorted(mats):
                    h.update(name.encode() + mats[name].tobytes())
        else:
            h.update(key.encode() + json.dumps(value, sort_keys=True).encode())
    return h.digest()
