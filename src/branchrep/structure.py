"""Level peeling of finite graphs and the shape checks built on it.

A vertex is extreme when it meets exactly one edge and that edge is not a
loop. Peeling removes every extreme vertex together with its unique edge,
then repeats on the remainder; round n yields the level-n vertex set X_n and
edge set Y_n. Vertices that survive every round are residual. A vertex that
merely loses all of its edges is not extreme (the predicate needs exactly
one edge), so it stays residual; that is what produces the single center
vertex of odd paths.

Per connected component the outcome is classified as AllLevels (every
vertex leveled), LevelsPlusCenter (exactly one residual vertex, the center)
or Irregular. For the first two shapes every leveled vertex below the top
level has a unique edge toward its unique higher neighbor, which orients it
as Final (edge points at it) or Initial (edge leaves it); top-level vertices
orient against the unique joining edge (AllLevels pair) or their unique edge
to the center.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Iterable, Mapping

from .graph import (
    ComponentDecomposition,
    DirectedGraph,
    Edge,
    component_edge_lists,
    component_edges,
    decompose,
    is_forest,
)
from .report import FAIL, NOT_APPLICABLE, PASS, CheckItem, Report


class StructureError(ValueError):
    pass


@dataclass(frozen=True)
class LevelDecomposition:
    """X_n / Y_n per round plus whatever peeling never removed."""

    vertex_levels: tuple[tuple[str, ...], ...]
    edge_levels: tuple[tuple[str, ...], ...]
    residual_vertices: tuple[str, ...]
    residual_edges: tuple[str, ...]

    @property
    def max_level(self) -> int:
        return len(self.vertex_levels)

    @cached_property
    def _levels(self) -> dict:
        table: dict[str, int] = {}
        for n, xs in enumerate(self.vertex_levels, start=1):
            for v in xs:
                table[v] = n
        return table

    def level_of(self, v: str) -> int | None:
        """Peeling round that removed v, or None if v is residual/isolated."""
        return self._levels.get(v)


class ClassificationKind(Enum):
    ALL_LEVELS = "allLevels"
    LEVELS_PLUS_CENTER = "levelsPlusCenter"
    IRREGULAR = "irregular"


@dataclass(frozen=True)
class Classification:
    kind: ClassificationKind
    center: str | None = None

    def to_json(self) -> dict:
        return {"kind": self.kind.value, "center": self.center}


class Role(Enum):
    FINAL = "final"
    INITIAL = "initial"
    CENTER = "center"


@dataclass(frozen=True)
class VertexRole:
    role: Role
    witness_edge: str | None

    def to_json(self) -> dict:
        return {"role": self.role.value, "witnessEdge": self.witness_edge}


def extreme_vertices(g: DirectedGraph) -> tuple[str, ...]:
    """Vertices with exactly one incident edge, that edge not a loop."""
    out = []
    for v in g.vertices:
        inc = g.incident(v)
        if len(inc) == 1 and not inc[0].is_loop:
            out.append(v)
    return tuple(out)


def level_decomposition(g: DirectedGraph) -> LevelDecomposition:
    """Peel extreme vertices until none remain.

    One pass with a counter of remaining incident edges per vertex. Removing
    X_n and Y_n only lowers counters, so a vertex whose counter ends round n
    at 1 is extreme in round n + 1 and is queued exactly once; a vertex
    carrying a loop keeps the loop and is never extreme. Each vertex scans
    its incident edges once, when it is peeled, and each round's sets are
    sorted into document order, so the cost is O(V + E log E).
    """
    degree = {v: len(g.incident(v)) for v in g.vertices}
    has_loop = {e.src for e in g.edges if e.is_loop}
    removed: set[str] = set()  # edge ids peeled in earlier rounds
    peeled: set[str] = set()
    vertex_levels: list[tuple[str, ...]] = []
    edge_levels: list[tuple[str, ...]] = []
    queue = [v for v in g.vertices if degree[v] == 1 and v not in has_loop]
    while queue:
        peeled.update(queue)
        ext_edges: dict[str, Edge] = {}
        for v in queue:
            e = next(e for e in g.incident(v) if e.id not in removed)
            ext_edges[e.id] = e
        vertex_levels.append(tuple(queue))
        edge_levels.append(tuple(sorted(ext_edges, key=g.edge_position)))
        removed.update(ext_edges)
        # peeled vertices drop to 0 here, so only survivors can be queued
        touched: dict[str, None] = {}
        for e in ext_edges.values():
            for w in (e.src, e.rng):
                degree[w] -= 1
                touched[w] = None
        queue = sorted(
            (w for w in touched if degree[w] == 1 and w not in has_loop),
            key=g.vertex_position,
        )
    return LevelDecomposition(
        tuple(vertex_levels),
        tuple(edge_levels),
        tuple(v for v in g.vertices if v not in peeled),
        tuple(e.id for e in g.edges if e.id not in removed),
    )


def _classify_members(d: LevelDecomposition, members: tuple[str, ...]) -> Classification:
    unleveled = [v for v in members if d.level_of(v) is None]
    if not unleveled:
        return Classification(ClassificationKind.ALL_LEVELS)
    if len(unleveled) == 1:
        return Classification(ClassificationKind.LEVELS_PLUS_CENTER, center=unleveled[0])
    return Classification(ClassificationKind.IRREGULAR)


def classify(g: DirectedGraph, d: LevelDecomposition, comp: Iterable[str]) -> Classification:
    """Classify one connected component of g against the level decomposition."""
    members = tuple(comp)
    comps = {frozenset(c): c for c in decompose(g).components}
    if frozenset(members) not in comps:
        raise StructureError(f"{sorted(members)} is not a connected component of the graph")
    return _classify_members(d, members)


def _classifications(
    d: LevelDecomposition, dec: ComponentDecomposition
) -> list[tuple[tuple[str, ...], Classification]]:
    return [(comp, _classify_members(d, comp)) for comp in dec.components]


def component_classifications(
    g: DirectedGraph, d: LevelDecomposition
) -> list[tuple[tuple[str, ...], Classification]]:
    """(component, classification) pairs in component order."""
    return _classifications(d, decompose(g))


def _component_max_level(d: LevelDecomposition, members: Iterable[str]) -> int:
    levels = [d.level_of(v) for v in members]
    return max((n for n in levels if n is not None), default=0)


def _higher_edges(g: DirectedGraph, d: LevelDecomposition, v: str, n: int):
    """Incident edges whose other endpoint outranks level n (residual counts as infinite)."""
    out = []
    for e in g.incident(v):
        if e.is_loop:
            continue
        w = e.other_endpoint(v)
        lw = d.level_of(w)
        if lw is None or lw > n:
            out.append(e)
    return out


def vertex_roles(
    g: DirectedGraph,
    d: LevelDecomposition,
    comp: Iterable[str],
    c: Classification,
) -> dict[str, VertexRole]:
    """Final / Initial / Center role for every vertex of a classified component.

    Raises when the classification is Irregular or when the expected
    uniqueness of witness edges fails, which signals non-P-simple input.
    """
    if c.kind is ClassificationKind.IRREGULAR:
        raise StructureError("roles are undefined for an Irregular component")
    members = sorted(comp, key=g.vertex_position)
    m = _component_max_level(d, members)
    roles: dict[str, VertexRole] = {}
    ordering = sorted(members, key=lambda v: (d.level_of(v) or math.inf, g.vertex_position(v)))
    for v in ordering:
        n = d.level_of(v)
        if n is None:
            if v != c.center:
                raise StructureError(
                    f"vertex '{v}' is unleveled but is not the center; component is Irregular"
                )
            roles[v] = VertexRole(Role.CENTER, None)
            continue
        if n < m:
            witnesses = _higher_edges(g, d, v, n)
        elif c.kind is ClassificationKind.ALL_LEVELS:
            pair = [w for w in members if d.level_of(w) == m]
            if len(pair) != 2:
                raise StructureError(
                    f"top level of an AllLevels component must hold 2 vertices, got {len(pair)}"
                )
            other = pair[0] if pair[1] == v else pair[1]
            witnesses = [
                e for e in g.incident(v) if not e.is_loop and e.other_endpoint(v) == other
            ]
        else:
            witnesses = [
                e for e in g.incident(v) if not e.is_loop and e.other_endpoint(v) == c.center
            ]
        if len(witnesses) != 1:
            raise StructureError(
                f"vertex '{v}' has {len(witnesses)} candidate witness edges, expected exactly 1 "
                "(non-P-simple input?)"
            )
        e = witnesses[0]
        role = Role.FINAL if e.rng == v else Role.INITIAL
        roles[v] = VertexRole(role, e.id)
    return roles


# -- structural shape report ----------------------------------------------


def component_is_p_simple(g: DirectedGraph, members: Iterable[str]) -> bool:
    members = tuple(members)
    return is_forest(members, component_edges(g, members))


def _level_or_inf(d: LevelDecomposition, v: str) -> float:
    n = d.level_of(v)
    return math.inf if n is None else n


def check_structure(g: DirectedGraph, d: LevelDecomposition) -> Report:
    """Shape report with items 1, 2a, 2b, 3a, 3b, 4.

    Item 1 applies to every leveled vertex; 2a/2b to AllLevels components;
    3a/3b to LevelsPlusCenter components; 4 to P-simple components (their
    classification must not be Irregular). Residual vertices count as having
    a level above every finite one, since peeling never removes them.
    """
    applicable: dict[str, bool] = {k: False for k in ("1", "2a", "2b", "3a", "3b", "4")}
    failures: dict[str, list] = {k: [] for k in applicable}

    def neighbors_at_least(v: str, n: float, strict: bool) -> list[str]:
        seen: dict[str, None] = {}
        for e in g.incident(v):
            if e.is_loop:
                continue
            w = e.other_endpoint(v)
            lw = _level_or_inf(d, w)
            if (lw > n) if strict else (lw >= n):
                seen.setdefault(w, None)
        return list(seen)

    for v in g.vertices:
        n = d.level_of(v)
        if n is None:
            continue
        applicable["1"] = True
        higher_eq = neighbors_at_least(v, n, strict=False)
        if len(higher_eq) > 1:
            failures["1"].append({"vertex": v, "level": n, "neighbors": higher_eq})

    dec = decompose(g)
    for (comp, c), edges in zip(_classifications(d, dec), component_edge_lists(g, dec)):
        m = _component_max_level(d, comp)
        top = [v for v in comp if d.level_of(v) == m] if m else []
        if c.kind in (ClassificationKind.ALL_LEVELS, ClassificationKind.LEVELS_PLUS_CENTER):
            a_key, b_key = ("2a", "2b") if c.kind is ClassificationKind.ALL_LEVELS else ("3a", "3b")
            applicable[a_key] = True
            applicable[b_key] = True
            for v in comp:
                n = d.level_of(v)
                if n is None or n >= m:
                    continue
                higher = neighbors_at_least(v, n, strict=True)
                if len(higher) != 1:
                    failures[a_key].append({"vertex": v, "level": n, "neighbors": higher})
            if c.kind is ClassificationKind.ALL_LEVELS:
                top_set = set(top)
                joining = [
                    e.id for e in edges if not e.is_loop and {e.src, e.rng} == top_set
                ]
                if len(top) != 2 or len(joining) != 1:
                    failures["2b"].append(
                        {"component": list(comp), "topLevel": top, "joiningEdges": joining}
                    )
            else:
                for v in top:
                    joining = [
                        e.id
                        for e in g.incident(v)
                        if not e.is_loop and e.other_endpoint(v) == c.center
                    ]
                    if len(joining) != 1:
                        failures[b_key].append(
                            {"vertex": v, "center": c.center, "joiningEdges": joining}
                        )
        if is_forest(comp, edges):
            applicable["4"] = True
            if c.kind is ClassificationKind.IRREGULAR:
                unleveled = [v for v in comp if d.level_of(v) is None]
                failures["4"].append({"component": list(comp), "unleveled": unleveled})

    items = []
    for key in ("1", "2a", "2b", "3a", "3b", "4"):
        if not applicable[key]:
            items.append(CheckItem(key, NOT_APPLICABLE))
        elif failures[key]:
            items.append(CheckItem(key, FAIL, failures[key]))
        else:
            items.append(CheckItem(key, PASS))
    return Report(tuple(items))


def level_report(
    g: DirectedGraph,
    d: LevelDecomposition,
    boundary: frozenset[str] = frozenset(),
) -> dict:
    """JSON-ready rendering of a level decomposition.

    Level sets that contain a boundary vertex (or an edge meeting one) are
    flagged truncation-sensitive: on a finite truncation of a larger graph
    they say nothing about the untruncated object.
    """

    def edge_touches_boundary(eid: str) -> bool:
        e = g.edge(eid)
        return e.src in boundary or e.rng in boundary

    return {
        "vertexLevels": [
            {
                "level": n,
                "vertices": list(xs),
                "truncationSensitive": any(v in boundary for v in xs),
            }
            for n, xs in enumerate(d.vertex_levels, start=1)
        ],
        "edgeLevels": [
            {
                "level": n,
                "edges": list(ys),
                "truncationSensitive": any(edge_touches_boundary(e) for e in ys),
            }
            for n, ys in enumerate(d.edge_levels, start=1)
        ],
        "residualVertices": list(d.residual_vertices),
        "residualEdges": list(d.residual_edges),
    }
