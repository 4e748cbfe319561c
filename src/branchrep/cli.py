"""Command-line front end.

Five subcommands: ``analyze`` (level structure, components, roles, shape
checks), ``synthesize`` (canonical branching system for an acyclic graph),
``induce`` (generator family from a system, with relation checks and
optional matrix export), ``verify`` (re-check a saved system or
representation), ``align`` (adapted basis, block-to-block check, extracted
system, unitary, residuals).

Exit codes: 0 all checks pass, 1 a check fails (reports are still written),
2 malformed input, input too large to allocate, or a graph shape the
construction does not cover.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from pathlib import Path
from typing import Optional, Sequence

from .alignment import (
    AlignmentError,
    NotApplicableError,
    RepresentationError,
    _certificate,
    _construction_order,
    align_bases,
    check_b2b,
    check_representation,
    rep_from_json,
    verify_equivalence,
)
from .branching import (
    BranchingError,
    branching_from_json,
    branching_to_json,
    synthesize,
    validate,
)
from .graph import (
    DirectedGraph,
    GraphError,
    component_forests,
    decompose,
    graph_from_json,
    truncate,
)
from .operators import OperatorError, _family, coordinate_export, to_matrix, verify_ck
from .report import Tolerances
from .structure import (
    ClassificationKind,
    StructureError,
    check_structure,
    component_classifications,
    level_decomposition,
    level_report,
    vertex_roles,
)

_TOL_NAMES = sorted(f.name for f in dataclasses.fields(Tolerances))


class CLIError(ValueError):
    pass


def _load_json(path: str) -> object:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except UnicodeDecodeError as err:
            raise CLIError(f"{path}: not UTF-8 ({err.reason} at byte {err.start})") from None
        except RecursionError:
            raise CLIError(f"{path}: JSON nested too deeply to read") from None


def _load_graph(path: str) -> DirectedGraph:
    return graph_from_json(_load_json(path))


def _parse_tols(pairs: Optional[Sequence[str]]) -> Tolerances:
    overrides: dict[str, float] = {}
    for item in pairs or []:
        name, sep, value = item.partition("=")
        if not sep or name not in _TOL_NAMES:
            raise CLIError(
                f"--tol expects NAME=VALUE with NAME one of {_TOL_NAMES}, got {item!r}"
            )
        try:
            overrides[name] = float(value)
        except ValueError:
            raise CLIError(f"--tol {name}: {value!r} is not a number") from None
    try:
        return Tolerances(**overrides)
    except ValueError as err:
        raise CLIError(str(err)) from None


def _scalar(value: object) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (dict, list)):
        return "{}" if isinstance(value, dict) else "[]"
    return str(value)


def _text_lines(doc: object, indent: int = 0) -> list[str]:
    pad = "  " * indent
    lines: list[str] = []
    if isinstance(doc, dict):
        for key, value in doc.items():
            if isinstance(value, (dict, list)) and value:
                lines.append(f"{pad}{key}:")
                lines.extend(_text_lines(value, indent + 1))
            else:
                lines.append(f"{pad}{key}: {_scalar(value)}")
    elif isinstance(doc, list):
        for value in doc:
            if isinstance(value, (dict, list)) and value:
                lines.append(f"{pad}-")
                lines.extend(_text_lines(value, indent + 1))
            else:
                lines.append(f"{pad}- {_scalar(value)}")
    else:
        lines.append(f"{pad}{_scalar(doc)}")
    return lines


def _non_finite_as_strings(obj: object) -> object:
    if isinstance(obj, float) and not math.isfinite(obj):
        return "NaN" if math.isnan(obj) else ("Infinity" if obj > 0 else "-Infinity")
    if isinstance(obj, dict):
        return {k: _non_finite_as_strings(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_non_finite_as_strings(v) for v in obj]
    return obj


def _json_text(doc: object) -> str:
    """Indented, key-sorted JSON that RFC 8259 parsers accept.

    JSON has no literal for a non-finite float, so a NaN or infinite value is
    written as the string "NaN", "Infinity" or "-Infinity".
    """
    try:
        text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
    except ValueError:
        text = json.dumps(_non_finite_as_strings(doc), indent=2, sort_keys=True)
    return text + "\n"


def _emit(doc: object, args: argparse.Namespace) -> None:
    if args.format == "json":
        text = _json_text(doc)
    else:
        text = "\n".join(_text_lines(doc)) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


# -- subcommands --------------------------------------------------------------


def cmd_analyze(args: argparse.Namespace) -> int:
    _parse_tols(args.tol)  # analyze uses none, but a typo should still be caught
    g = _load_graph(args.graph)
    boundary = frozenset(args.boundary or [])
    if args.truncate is not None:
        if args.truncate < 0:
            raise CLIError("--truncate must be nonnegative")
        g, auto_boundary = truncate(g, args.truncate)
        boundary = boundary | auto_boundary
    for v in boundary:
        if not g.has_vertex(v):
            raise CLIError(f"boundary vertex '{v}' is not in the (truncated) graph")

    d = level_decomposition(g)
    dec = decompose(g)
    classifications = component_classifications(g, d)
    checks = check_structure(g, d)

    components = []
    for (comp, c), forest in zip(classifications, component_forests(g)):
        entry: dict = {"vertices": list(comp), "classification": c.to_json()}
        if c.kind is not ClassificationKind.IRREGULAR and forest:
            roles = vertex_roles(g, d, comp, c)
            entry["roles"] = {v: r.to_json() for v, r in roles.items()}
        components.append(entry)

    out = {
        "seed": args.seed,
        "graph": {"vertexCount": g.vertex_count, "edgeCount": g.edge_count},
        "levels": level_report(g, d, boundary),
        "isolated": list(dec.isolated),
        "components": components,
        "structureChecks": checks.to_json(),
        "passed": checks.passed,
    }
    _emit(out, args)
    return 0 if checks.passed else 1


def cmd_synthesize(args: argparse.Namespace) -> int:
    _parse_tols(args.tol)
    g = _load_graph(args.graph)
    dims: dict[str, int] = {}
    for item in args.dim or []:
        name, sep, value = item.partition("=")
        if not sep:
            raise CLIError(f"--dim expects VERTEX=K, got {item!r}")
        try:
            dims[name] = int(value)
        except ValueError:
            raise CLIError(f"--dim {name}: {value!r} is not an integer") from None
    if args.default_dim is not None:
        for v in g.sinks():
            dims.setdefault(v, args.default_dim)
    bs = synthesize(g, dims, slack=args.slack)
    _emit(branching_to_json(bs), args)
    return 0


def _name_max(out_dir: str) -> Optional[int]:
    """The longest file name, in bytes, that ``out_dir``'s file system takes.

    Asked of the nearest ancestor that exists, as ``out_dir`` may not yet;
    None when the system does not say.
    """
    where = os.path.abspath(out_dir)
    while not os.path.exists(where):
        where = os.path.dirname(where)
    try:
        limit = os.pathconf(where, "PC_NAME_MAX")
    except (AttributeError, OSError, ValueError):
        return None
    return limit if limit > 0 else None


def _matrix_files(g: DirectedGraph, out_dir: str) -> list[tuple[str, str, str]]:
    """(kind, generator id, file name) per edge, then per vertex, for ``--out-dir``.

    An id with a NUL or a '/', one the file system cannot encode, or one
    whose file name is longer than ``out_dir``'s file system allows, cannot
    name a file and is refused.
    """
    files = [("edge", e.id, f"edge-{e.id}.txt") for e in g.edges]
    files += [("vertex", v, f"vertex-{v}.txt") for v in g.vertices]
    name_max = _name_max(out_dir)
    for _, key, name in files:
        try:
            raw = os.fsencode(name)
        except UnicodeError:
            raw = b"\0"
        if b"\0" in raw or b"/" in raw or (name_max is not None and len(raw) > name_max):
            raise CLIError(f"--out-dir: id {key!r} cannot name a file")
    return files


def _write_matrices(fam, files: list[tuple[str, str, str]], out_dir: str) -> None:
    # each matrix is looked up by its kind, so an edge and a vertex may share an id
    directory = Path(out_dir)
    directory.mkdir(parents=True, exist_ok=True)
    for kind, key, name in files:
        matrix = to_matrix(fam, key, kind=kind)
        (directory / name).write_text(coordinate_export(matrix), encoding="utf-8")


def cmd_induce(args: argparse.Namespace) -> int:
    tols = _parse_tols(args.tol)
    g = _load_graph(args.graph)
    files = _matrix_files(g, args.out_dir) if args.out_dir else []
    bs = branching_from_json(_load_json(args.system))
    if args.out_dir and bs.universe != tuple(range(len(bs.universe))):
        raise CLIError("dense export needs a contiguous 0-based universe")
    val = validate(bs, g)
    if not val.passed:
        _emit({"seed": args.seed, "validation": val.to_json(), "passed": False}, args)
        return 1
    fam = _family(bs, g)
    ck = verify_ck(fam, g, tols)
    if args.out_dir:
        _write_matrices(fam, files, args.out_dir)
    out = {
        "seed": args.seed,
        "validation": val.to_json(),
        "relations": ck.to_json(),
        "exact": ck.exact,
        "passed": ck.passed,
    }
    _emit(out, args)
    return 0 if ck.passed else 1


def cmd_verify(args: argparse.Namespace) -> int:
    tols = _parse_tols(args.tol)
    g = _load_graph(args.graph)
    doc = _load_json(args.subject)
    if isinstance(doc, dict) and "universe" in doc:
        bs = branching_from_json(doc)
        report = validate(bs, g)
        kind = "branchingSystem"
    elif isinstance(doc, dict) and "dim" in doc:
        rep = rep_from_json(doc)
        report = check_representation(rep, g, tols)
        kind = "representation"
    else:
        raise CLIError(
            "cannot tell what to verify: expected a top-level 'universe' "
            "(branching system) or 'dim' (representation)"
        )
    out = {
        "seed": args.seed,
        "kind": kind,
        "checks": report.to_json(),
        "passed": report.passed,
    }
    _emit(out, args)
    return 0 if report.passed else 1


def cmd_align(args: argparse.Namespace) -> int:
    tols = _parse_tols(args.tol)
    g = _load_graph(args.graph)
    rep = rep_from_json(_load_json(args.rep))
    # a directed cycle rules the construction out whatever the matrices,
    # so it is refused before the relation check
    _construction_order(g)

    rep_report = check_representation(rep, g, tols)
    if not rep_report.passed:
        bad = rep_report.failures()[0]
        out = {
            "seed": args.seed,
            "representationChecks": rep_report.to_json(),
            "passed": False,
        }
        _emit(out, args)
        print(f"check failed: relation '{bad.item}': {bad.witness}", file=sys.stderr)
        return 1

    try:
        ba = align_bases(rep, g, tols)
        b2b = check_b2b(rep, ba, g, tols)
        if not b2b.passed:
            out = {"seed": args.seed, "b2b": b2b.to_json(), "passed": False}
            _emit(out, args)
            bad = b2b.failures()[0]
            print(f"check failed: edge '{bad.item}': {bad.witness}", file=sys.stderr)
            return 1
        cert = verify_equivalence(rep, _certificate(rep, ba, g), g, tols)
    except AlignmentError as err:
        _emit({"seed": args.seed, "error": str(err), "passed": False}, args)
        print(f"check failed: {err}", file=sys.stderr)
        return 1

    passed = cert.passes(tols)
    out = {
        "seed": args.seed,
        "system": branching_to_json(cert.system),
        "b2b": b2b.to_json(),
        "edgeResiduals": cert.edge_residuals,
        "vertexResiduals": cert.vertex_residuals,
        "maxResidual": cert.max_residual,
        "passed": passed,
    }
    if args.out_dir:
        directory = Path(args.out_dir)
        directory.mkdir(parents=True, exist_ok=True)
        (directory / "system.json").write_text(
            _json_text(branching_to_json(cert.system)), encoding="utf-8"
        )
        (directory / "unitary.txt").write_text(
            coordinate_export(cert.unitary), encoding="utf-8"
        )
        (directory / "report.json").write_text(_json_text(out), encoding="utf-8")
    _emit(out, args)
    return 0 if passed else 1


# -- wiring --------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="branchrep",
        description="Level structure, branching systems, and basis alignment "
        "for directed-graph operator families.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--seed", type=int, default=0, help="echoed into reports for bookkeeping"
    )
    common.add_argument(
        "--tol",
        action="append",
        metavar="NAME=VALUE",
        help=f"override a tolerance; names: {', '.join(_TOL_NAMES)}",
    )
    common.add_argument("--format", choices=("json", "text"), default="json")
    common.add_argument("--out", metavar="FILE", help="write the report here instead of stdout")

    p = sub.add_parser("analyze", parents=[common], help="level structure and shape checks")
    p.add_argument("graph", help="graph JSON file")
    p.add_argument("--truncate", type=int, metavar="N", help="keep only the first N vertices")
    p.add_argument(
        "--boundary",
        action="append",
        metavar="VERTEX",
        help="mark a vertex as sitting on a truncation boundary",
    )
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser(
        "synthesize", parents=[common], help="canonical branching system for an acyclic graph"
    )
    p.add_argument("graph", help="graph JSON file")
    p.add_argument("--dim", action="append", metavar="VERTEX=K", help="index count at a sink")
    p.add_argument(
        "--default-dim", type=int, metavar="K", help="index count for sinks not named by --dim"
    )
    p.add_argument(
        "--slack", type=int, default=0, metavar="N", help="extra indices outside every domain set"
    )
    p.set_defaults(func=cmd_synthesize)

    p = sub.add_parser(
        "induce", parents=[common], help="generator family from a branching system"
    )
    p.add_argument("system", help="branching-system JSON file")
    p.add_argument("--graph", required=True, help="graph JSON file")
    p.add_argument("--out-dir", metavar="DIR", help="write one coordinate-format matrix per generator")
    p.set_defaults(func=cmd_induce)

    p = sub.add_parser(
        "verify", parents=[common], help="re-check a saved branching system or representation"
    )
    p.add_argument("subject", help="branching-system or representation JSON file")
    p.add_argument("--graph", required=True, help="graph JSON file")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser(
        "align", parents=[common], help="adapted basis, extracted system, and residuals"
    )
    p.add_argument("rep", help="representation JSON file")
    p.add_argument("--graph", required=True, help="graph JSON file")
    p.add_argument("--out-dir", metavar="DIR", help="write system.json, unitary.txt, report.json")
    p.set_defaults(func=cmd_align)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        return args.func(args)
    except NotApplicableError as err:
        print(f"theorem not applicable: {err}", file=sys.stderr)
        return 2
    except (
        CLIError,
        GraphError,
        StructureError,
        BranchingError,
        OperatorError,
        RepresentationError,
        json.JSONDecodeError,
        OSError,
    ) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except AlignmentError as err:
        print(f"check failed: {err}", file=sys.stderr)
        return 1
    except MemoryError as err:
        # numpy's message names the array it could not allocate
        print(f"error: {str(err) or 'out of memory'}", file=sys.stderr)
        return 2


def entry() -> None:
    raise SystemExit(main())
