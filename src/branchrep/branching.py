"""Discrete branching systems over finite weighted index sets.

A system assigns each edge a range set R_e, each vertex a domain set D_v,
and each edge a bijection f_e from D_rng(e) onto R_e. With point masses as
weights the Radon-Nikodym data reduces to ratios of weights, so everything
here is finite combinatorics plus positive rationals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

from .graph import DirectedGraph, GraphError, sink_first_order
from .report import Report, first_witness, shared_indices


class BranchingError(ValueError):
    pass


@dataclass(frozen=True)
class DiscreteBranchingSystem:
    universe: tuple[int, ...]
    range_sets: dict[str, frozenset[int]]
    domain_sets: dict[str, frozenset[int]]
    edge_maps: dict[str, dict[int, int]]
    weights: dict[int, float] = field(default_factory=dict)

    def __post_init__(self):
        seen = set()
        for x in self.universe:
            if not isinstance(x, int) or isinstance(x, bool):
                raise BranchingError(f"universe entries must be integers, got {x!r}")
            if x in seen:
                raise BranchingError(f"duplicate universe index {x}")
            seen.add(x)
        if not self.weights:
            object.__setattr__(self, "weights", {x: 1.0 for x in self.universe})
        if set(self.weights) != seen:
            raise BranchingError("weights must be defined on exactly the universe")
        for x, w in self.weights.items():
            if not (w > 0 and math.isfinite(w)):
                raise BranchingError(f"weight at index {x} must be positive and finite, got {w}")
        for label, sets in (("R", self.range_sets), ("D", self.domain_sets)):
            for key, s in sets.items():
                stray = set(s) - seen
                if stray:
                    raise BranchingError(
                        f"{label}[{key!r}] contains indices outside the universe: {sorted(stray)}"
                    )
        for e, f in self.edge_maps.items():
            for a, b in f.items():
                if a not in seen or b not in seen:
                    raise BranchingError(
                        f"f[{e!r}] uses indices outside the universe: {a} -> {b}"
                    )

    def weight(self, x: int) -> float:
        return self.weights[x]


def _check_keys(bs: DiscreteBranchingSystem, g: DirectedGraph) -> None:
    edge_ids = {e.id for e in g.edges}
    if set(bs.range_sets) != edge_ids:
        raise BranchingError(
            f"R keys {sorted(bs.range_sets)} do not match graph edges {sorted(edge_ids)}"
        )
    if set(bs.edge_maps) != edge_ids:
        raise BranchingError(
            f"f keys {sorted(bs.edge_maps)} do not match graph edges {sorted(edge_ids)}"
        )
    if set(bs.domain_sets) != set(g.vertices):
        raise BranchingError(
            f"D keys {sorted(bs.domain_sets)} do not match graph vertices {sorted(g.vertices)}"
        )


def validate(bs: DiscreteBranchingSystem, g: DirectedGraph) -> Report:
    """Check the six branching-system conditions; key mismatches raise.

    1. range sets pairwise disjoint
    2. domain sets pairwise disjoint
    3. R_e inside D_src(e)
    4. D_v equals the union of R_e over src(e) = v, for emitters
    5. f_e defined on exactly D_rng(e) and onto R_e
    6. f_e injective (so the inverse and its derivative exist)
    """
    _check_keys(bs, g)

    def range_stray():
        for e in g.edges:
            stray = bs.range_sets[e.id] - bs.domain_sets[e.src]
            if stray:
                yield {"edge": e.id, "src": e.src, "index": min(stray)}

    def emitter_unions():
        for v in g.vertices:
            out = g.out_edges(v)
            if not out:
                continue
            union: set[int] = set()
            for e in out:
                union |= bs.range_sets[e.id]
            missing = bs.domain_sets[v] - union
            extra = union - bs.domain_sets[v]
            if missing or extra:
                yield {
                    "vertex": v,
                    "missingFromUnion": sorted(missing),
                    "outsideDomain": sorted(extra),
                }

    def bijections():
        for e in g.edges:
            f = bs.edge_maps[e.id]
            dom = bs.domain_sets[e.rng]
            if set(f) != dom:
                yield {
                    "edge": e.id,
                    "missingDomain": sorted(dom - set(f)),
                    "extraDomain": sorted(set(f) - dom),
                }
            image = set(f.values())
            if image != bs.range_sets[e.id]:
                yield {
                    "edge": e.id,
                    "imageMissing": sorted(bs.range_sets[e.id] - image),
                    "imageExtra": sorted(image - bs.range_sets[e.id]),
                }

    def collisions():
        for e in g.edges:
            f = bs.edge_maps[e.id]
            hit: dict[int, int] = {}
            for a in sorted(f):
                b = f[a]
                if b in hit:
                    yield {"edge": e.id, "collidingDomain": [hit[b], a], "image": b}
                hit[b] = a

    ranges = ((e.id, bs.range_sets[e.id]) for e in g.edges)
    domains = ((v, bs.domain_sets[v]) for v in g.vertices)
    return Report(
        (
            first_witness("1", shared_indices("edges", ranges)),
            first_witness("2", shared_indices("vertices", domains)),
            first_witness("3", range_stray()),
            first_witness("4", emitter_unions()),
            first_witness("5", bijections()),
            first_witness("6", collisions()),
        )
    )


def radon_nikodym(bs: DiscreteBranchingSystem, e: str) -> tuple[dict[int, float], dict[int, float]]:
    """Derivative pair (forward on the domain of f_e, inverse on its image).

    forward(x) = w(f_e(x)) / w(x) and inverse(j) = w(f_e^{-1}(j)) / w(j);
    their product along f_e is identically 1.
    """
    if e not in bs.edge_maps:
        raise BranchingError(f"unknown edge '{e}'")
    f = bs.edge_maps[e]
    inverse_map: dict[int, int] = {}
    for a, b in f.items():
        if b in inverse_map:
            raise BranchingError(f"edge map for '{e}' is not injective, cannot invert")
        inverse_map[b] = a
    forward = {x: bs.weight(f[x]) / bs.weight(x) for x in sorted(f)}
    inverse = {j: bs.weight(inverse_map[j]) / bs.weight(j) for j in sorted(inverse_map)}
    return forward, inverse


def vertex_dimensions(g: DirectedGraph, sink_dims: Mapping[str, int]) -> dict[str, int]:
    """Propagate |D_v| from sink dimensions backwards along edges.

    Every non-isolated vertex without outgoing edges must appear in
    sink_dims with a positive integer; emitters get the sum over their
    outgoing edges of the range vertex's dimension, and isolated vertices
    get 0 (an empty domain set). Vertices are settled, and the result is
    ordered, by ``sink_first_order``; a directed cycle makes the propagation
    unsolvable and raises.
    """
    sinks = set(g.sinks())
    for v, dim in sink_dims.items():
        if not g.has_vertex(v):
            raise BranchingError(f"sink dimension given for unknown vertex '{v}'")
        if v not in sinks:
            raise BranchingError(f"vertex '{v}' is not a sink; only sinks take dimensions")
        if not isinstance(dim, int) or isinstance(dim, bool) or dim <= 0:
            raise BranchingError(f"zero dimension: sink '{v}' needs a positive integer, got {dim!r}")
    missing = sinks - set(sink_dims)
    if missing:
        raise BranchingError(f"missing sink dimension for {sorted(missing)}")

    try:
        order = sink_first_order(g)
    except GraphError as err:
        raise BranchingError(str(err)) from None
    dims: dict[str, int] = {}
    for v in order:
        out = g.out_edges(v)
        # an isolated vertex is in no sink_dims and gets no indices
        dims[v] = sum([dims[e.rng] for e in out]) if out else sink_dims.get(v, 0)
    return dims


def synthesize(g: DirectedGraph, sink_dims: Mapping[str, int], slack: int = 0) -> DiscreteBranchingSystem:
    """Build the canonical unit-weight system for a graph with no directed cycle.

    Indices are laid out contiguously, vertices in document order and, inside
    an emitter's block, ranges per outgoing edge in document order; each f_e
    is the order-preserving bijection. ``slack`` appends that many indices
    belonging to no domain set.
    """
    if slack < 0:
        raise BranchingError("slack must be nonnegative")
    dims = vertex_dimensions(g, sink_dims)

    domain_sets: dict[str, frozenset[int]] = {}
    range_sets: dict[str, frozenset[int]] = {}
    edge_maps: dict[str, dict[int, int]] = {}
    offsets: dict[str, int] = {}
    cursor = 0
    for v in g.vertices:
        offsets[v] = cursor
        domain_sets[v] = frozenset(range(cursor, cursor + dims[v]))
        cursor += dims[v]
    for v in g.vertices:
        sub = offsets[v]
        for e in g.out_edges(v):
            size = dims[e.rng]
            range_sets[e.id] = frozenset(range(sub, sub + size))
            sub += size
    for e in g.edges:
        domain = sorted(domain_sets[e.rng])
        rng = sorted(range_sets[e.id])
        edge_maps[e.id] = dict(zip(domain, rng))

    universe = tuple(range(cursor + slack))
    return DiscreteBranchingSystem(
        universe=universe,
        range_sets=range_sets,
        domain_sets=domain_sets,
        edge_maps=edge_maps,
    )


# -- JSON interchange ------------------------------------------------------

_TOP_FIELDS = frozenset({"universe", "weights", "R", "D", "f"})


def branching_to_json(bs: DiscreteBranchingSystem) -> dict:
    doc: dict = {
        "universe": list(bs.universe),
        "R": {e: sorted(s) for e, s in bs.range_sets.items()},
        "D": {v: sorted(s) for v, s in bs.domain_sets.items()},
        "f": {e: {str(a): b for a, b in sorted(f.items())} for e, f in bs.edge_maps.items()},
    }
    if any(w != 1.0 for w in bs.weights.values()):
        doc["weights"] = {str(x): bs.weights[x] for x in bs.universe}
    return doc


def _int_list(value: object, where: str) -> list[int]:
    if not isinstance(value, list) or any(
        not isinstance(x, int) or isinstance(x, bool) for x in value
    ):
        raise BranchingError(f"{where} must be an array of integers")
    return value


def branching_from_json(doc: object) -> DiscreteBranchingSystem:
    if not isinstance(doc, dict):
        raise BranchingError("branching-system document must be an object")
    unknown = set(doc) - _TOP_FIELDS
    if unknown:
        raise BranchingError(f"unknown top-level field(s): {sorted(unknown)}")
    for fieldname in ("universe", "R", "D", "f"):
        if fieldname not in doc:
            raise BranchingError(f"missing required field '{fieldname}'")
    universe = tuple(_int_list(doc["universe"], "universe"))

    def mapping_of_lists(obj: object, where: str) -> dict[str, frozenset[int]]:
        if not isinstance(obj, dict):
            raise BranchingError(f"'{where}' must be an object")
        return {k: frozenset(_int_list(v, f"{where}[{k!r}]")) for k, v in obj.items()}

    range_sets = mapping_of_lists(doc["R"], "R")
    domain_sets = mapping_of_lists(doc["D"], "D")

    if not isinstance(doc["f"], dict):
        raise BranchingError("'f' must be an object")
    edge_maps: dict[str, dict[int, int]] = {}
    for e, table in doc["f"].items():
        if not isinstance(table, dict):
            raise BranchingError(f"f[{e!r}] must be an object")
        parsed: dict[int, int] = {}
        for a, b in table.items():
            try:
                key = int(a)
            except ValueError:
                raise BranchingError(f"f[{e!r}] has non-integer domain key {a!r}") from None
            if str(key) != a:  # int() also reads "02", "+2", " 2" and non-ASCII digits
                raise BranchingError(f"f[{e!r}] has domain key {a!r}; write it as '{key}'")
            if not isinstance(b, int) or isinstance(b, bool):
                raise BranchingError(f"f[{e!r}][{a}] must be an integer")
            parsed[key] = b
        edge_maps[e] = parsed

    weights: dict[int, float] = {}
    if "weights" in doc:
        if not isinstance(doc["weights"], dict):
            raise BranchingError("'weights' must be an object")
        for k, w in doc["weights"].items():
            try:
                idx = int(k)
            except ValueError:
                raise BranchingError(f"weights has non-integer key {k!r}") from None
            if str(idx) != k:
                raise BranchingError(f"weights has key {k!r}; write it as '{idx}'")
            if isinstance(w, bool) or not isinstance(w, (int, float)):
                raise BranchingError(f"weights[{k}] must be a number")
            try:
                weights[idx] = float(w)
            except OverflowError:
                raise BranchingError(f"weights[{k}] is too large for a float") from None

    return DiscreteBranchingSystem(
        universe=universe,
        range_sets=range_sets,
        domain_sets=domain_sets,
        edge_maps=edge_maps,
        weights=weights,
    )
