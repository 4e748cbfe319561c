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
from typing import Iterable

from .graph import DirectedGraph, Edge, component_forests, decompose
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


def level_decomposition(g: DirectedGraph) -> LevelDecomposition:
    """Peel extreme vertices until none remain.

    One pass with a counter of remaining incident edges per vertex. Removing
    X_n and Y_n only lowers counters, so a vertex whose counter ends round n
    at 1 is extreme in round n + 1 and is queued exactly once; a vertex
    carrying a loop keeps the loop and is never extreme. Each vertex scans
    its incident edges once, when it is peeled, and each round's sets are
    sorted into document order, so the cost is O(V + E log E).
    """
    incident, vertex_pos, edge_pos = g._incident, g._vertex_pos, g._edge_pos
    degree = {v: len(es) for v, es in incident.items()}
    has_loop = {e.src for e in g.edges if e.src == e.rng}
    removed: set[str] = set()  # edge ids peeled in earlier rounds
    peeled: set[str] = set()
    vertex_levels: list[tuple[str, ...]] = []
    edge_levels: list[tuple[str, ...]] = []
    queue = [v for v in g.vertices if degree[v] == 1 and v not in has_loop]
    while queue:
        peeled.update(queue)
        ext_edges: dict[str, Edge] = {}
        for v in queue:
            for e in incident[v]:
                if e.id not in removed:  # v's one remaining edge
                    ext_edges[e.id] = e
                    break
        vertex_levels.append(tuple(queue))
        edge_levels.append(tuple(sorted(ext_edges, key=edge_pos.__getitem__)))
        removed.update(ext_edges)
        # peeled vertices drop to 0 here, so only survivors can be queued
        touched: dict[str, None] = {}
        for e in ext_edges.values():
            for w in (e.src, e.rng):
                degree[w] -= 1
                touched[w] = None
        queue = sorted(
            (w for w in touched if degree[w] == 1 and w not in has_loop),
            key=vertex_pos.__getitem__,
        )
    return LevelDecomposition(
        tuple(vertex_levels),
        tuple(edge_levels),
        tuple(v for v in g.vertices if v not in peeled),
        tuple(e.id for e in g.edges if e.id not in removed),
    )


def _classify_members(d: LevelDecomposition, members: tuple[str, ...]) -> Classification:
    levels = d._levels
    unleveled = [v for v in members if v not in levels]
    if not unleveled:
        return Classification(ClassificationKind.ALL_LEVELS)
    if len(unleveled) == 1:
        return Classification(ClassificationKind.LEVELS_PLUS_CENTER, center=unleveled[0])
    return Classification(ClassificationKind.IRREGULAR)


def component_classifications(
    g: DirectedGraph, d: LevelDecomposition
) -> list[tuple[tuple[str, ...], Classification]]:
    """(component, classification) pairs in component order."""
    return [(comp, _classify_members(d, comp)) for comp in decompose(g).components]


def _component_max_level(d: LevelDecomposition, members: Iterable[str]) -> int:
    levels = d._levels
    return max((levels[v] for v in members if v in levels), default=0)


def _joining(incident: tuple[Edge, ...], v: str, w: str) -> list[Edge]:
    """Non-loop edges among v's incident ones whose other endpoint is w."""
    return [e for e in incident if e.src != e.rng and (e.rng if e.src == v else e.src) == w]


def vertex_roles(
    g: DirectedGraph,
    d: LevelDecomposition,
    comp: Iterable[str],
    c: Classification,
) -> dict[str, VertexRole]:
    """Final / Initial / Center role for every vertex of a classified component.

    Vertices are visited, and the roles listed, by level and then document
    order, with the center last; the component is sorted once, and its top
    level is listed once. Raises when the classification is Irregular or
    when the expected uniqueness of witness edges fails, which signals
    non-P-simple input.
    """
    if c.kind is ClassificationKind.IRREGULAR:
        raise StructureError("roles are undefined for an Irregular component")
    levels, incident, position = d._levels, g._incident, g.vertex_position
    members = sorted(comp, key=lambda v: (levels.get(v, math.inf), position(v)))
    m = _component_max_level(d, members)
    top = [w for w in members if levels.get(w) == m]
    roles: dict[str, VertexRole] = {}
    for v in members:
        n = levels.get(v)
        if n is None:
            if v != c.center:
                raise StructureError(
                    f"vertex '{v}' is unleveled but is not the center; component is Irregular"
                )
            roles[v] = VertexRole(Role.CENTER, None)
            continue
        if n < m:
            # edges whose other endpoint outranks level n (residual counts as infinite)
            witnesses = [
                e
                for e in incident[v]
                if e.src != e.rng and levels.get(e.rng if e.src == v else e.src, math.inf) > n
            ]
        elif c.kind is ClassificationKind.ALL_LEVELS:
            if len(top) != 2:
                raise StructureError(
                    f"top level of an AllLevels component must hold 2 vertices, got {len(top)}"
                )
            other = top[0] if top[1] == v else top[1]
            witnesses = _joining(incident[v], v, other)
        else:
            witnesses = _joining(incident[v], v, c.center)
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


def check_structure(g: DirectedGraph, d: LevelDecomposition) -> Report:
    """Shape report with items 1, 2a, 2b, 3a, 3b, 4.

    Item 1 applies to every leveled vertex; 2a/2b to AllLevels components;
    3a/3b to LevelsPlusCenter components; 4 to P-simple components (their
    classification must not be Irregular). Residual vertices count as having
    a level above every finite one, since peeling never removes them.

    Each leveled vertex's incident edges are scanned once, for item 1, into
    its distinct neighbours at or above its level; items 2a/3a keep the
    strictly higher ones of that list. The joining edges of items 2b/3b are
    read off one top vertex's incident edges.
    """
    applicable: dict[str, bool] = {k: False for k in ("1", "2a", "2b", "3a", "3b", "4")}
    failures: dict[str, list] = {k: [] for k in applicable}
    levels, incident, inf = d._levels, g._incident, math.inf

    at_least: dict[str, list[str]] = {}  # leveled vertex -> neighbours at or above its level
    for v in g.vertices:
        n = levels.get(v)
        if n is None:
            continue
        applicable["1"] = True
        seen: dict[str, None] = {}
        for e in incident[v]:
            w = e.rng if e.src == v else e.src
            if w != v and levels.get(w, inf) >= n:  # w == v for a loop
                seen[w] = None
        at_least[v] = higher_eq = list(seen)
        if len(higher_eq) > 1:
            failures["1"].append({"vertex": v, "level": n, "neighbors": higher_eq})

    for (comp, c), forest in zip(component_classifications(g, d), component_forests(g)):
        m = _component_max_level(d, comp)
        top = [v for v in comp if levels.get(v) == m] if m else []
        if c.kind in (ClassificationKind.ALL_LEVELS, ClassificationKind.LEVELS_PLUS_CENTER):
            a_key, b_key = ("2a", "2b") if c.kind is ClassificationKind.ALL_LEVELS else ("3a", "3b")
            applicable[a_key] = True
            applicable[b_key] = True
            for v in comp:
                n = levels.get(v)
                if n is None or n >= m:
                    continue
                higher = [w for w in at_least[v] if levels.get(w, inf) > n]
                if len(higher) != 1:
                    failures[a_key].append({"vertex": v, "level": n, "neighbors": higher})
            if c.kind is ClassificationKind.ALL_LEVELS:
                edges = _joining(incident[top[0]], *top) if len(top) == 2 else []
                joining = [e.id for e in edges]
                if len(top) != 2 or len(joining) != 1:
                    failures["2b"].append(
                        {"component": list(comp), "topLevel": top, "joiningEdges": joining}
                    )
            else:
                for v in top:
                    joining = [e.id for e in _joining(incident[v], v, c.center)]
                    if len(joining) != 1:
                        failures[b_key].append(
                            {"vertex": v, "center": c.center, "joiningEdges": joining}
                        )
        if forest:
            applicable["4"] = True
            if c.kind is ClassificationKind.IRREGULAR:
                unleveled = [v for v in comp if v not in levels]
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
