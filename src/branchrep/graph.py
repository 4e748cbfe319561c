"""Directed multigraphs with ordered vertex and edge identifiers.

Graphs are finite, loops and parallel edges are allowed, and every id keeps
its document position, so all derived orderings (components, level sets,
the sink-first order) are deterministic for a given input file.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple


class GraphError(ValueError):
    """Malformed graph document or graph-level usage error."""

    def __init__(self, message: str, location: str | None = None):
        self.location = location
        if location is not None:
            message = f"{location}: {message}"
        super().__init__(message)


@dataclass(frozen=True)
class Edge:
    id: str
    src: str
    rng: str

    @property
    def is_loop(self) -> bool:
        return self.src == self.rng


class DirectedGraph:
    """Immutable directed multigraph.

    ``vertices`` and ``edges`` keep document order; all iteration in this
    package follows it. The graph keeps one table per fact: the position of
    each vertex and edge id (``_vertex_pos``, ``_edge_pos``), and each
    vertex's incident and out-edges (``_incident``, ``_out``). An edge is
    looked up through its position. Being immutable, a graph is decomposed
    into its components once, on first use, by one depth-first walk over
    ``_incident`` that every caller shares (see ``decompose``). The
    structure layer reads the tables directly, as plain dict lookups.
    """

    def __init__(self, vertices: Iterable[str], edges: Iterable[Edge]):
        self.vertices: tuple[str, ...] = tuple(vertices)
        self.edges: tuple[Edge, ...] = tuple(edges)

        self._vertex_pos: dict[str, int] = {}
        for i, v in enumerate(self.vertices):
            if not isinstance(v, str):
                raise GraphError(f"vertex id must be a string, got {v!r}", f"vertices[{i}]")
            if v in self._vertex_pos:
                raise GraphError(f"duplicate vertex id '{v}'", f"vertices[{i}]")
            self._vertex_pos[v] = i

        self._edge_pos: dict[str, int] = {}
        incident: dict[str, list[Edge]] = {v: [] for v in self.vertices}
        out_edges: dict[str, list[Edge]] = {v: [] for v in self.vertices}
        for i, e in enumerate(self.edges):
            eid, src, rng = e.id, e.src, e.rng
            if eid in self._edge_pos:
                raise GraphError(f"duplicate edge id '{eid}'", f"edges[{i}]")
            if src not in self._vertex_pos:
                raise GraphError(f"edge '{eid}' has unknown src vertex '{src}'", f"edges[{i}]")
            if rng not in self._vertex_pos:
                raise GraphError(f"edge '{eid}' has unknown rng vertex '{rng}'", f"edges[{i}]")
            self._edge_pos[eid] = i
            out_edges[src].append(e)
            incident[src].append(e)
            if src != rng:
                incident[rng].append(e)
        self._incident = {v: tuple(es) for v, es in incident.items()}
        self._out = {v: tuple(es) for v, es in out_edges.items()}

    # -- basic accessors -------------------------------------------------

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def has_vertex(self, v: str) -> bool:
        return v in self._vertex_pos

    def vertex_position(self, v: str) -> int:
        try:
            return self._vertex_pos[v]
        except KeyError:
            raise GraphError(f"unknown vertex '{v}'") from None

    def edge_position(self, eid: str) -> int:
        try:
            return self._edge_pos[eid]
        except KeyError:
            raise GraphError(f"unknown edge '{eid}'") from None

    def edge(self, eid: str) -> Edge:
        try:
            return self.edges[self._edge_pos[eid]]
        except KeyError:
            raise GraphError(f"unknown edge '{eid}'") from None

    def incident(self, v: str) -> tuple[Edge, ...]:
        """Edges having v as an endpoint, in document order. A loop appears once."""
        try:
            return self._incident[v]
        except KeyError:
            raise GraphError(f"unknown vertex '{v}'") from None

    def out_edges(self, v: str) -> tuple[Edge, ...]:
        """Edges e with src(e) = v, in document order."""
        try:
            return self._out[v]
        except KeyError:
            raise GraphError(f"unknown vertex '{v}'") from None

    def non_isolated(self) -> tuple[str, ...]:
        """Vertices that are an endpoint of at least one edge, in document order."""
        return tuple(v for v in self.vertices if self._incident[v])

    def sinks(self) -> tuple[str, ...]:
        """Non-isolated vertices with no outgoing edge, in document order."""
        return tuple(v for v in self.non_isolated() if not self._out[v])

    def subgraph(self, keep_vertices: Iterable[str], keep_edges: Iterable[str]) -> "DirectedGraph":
        kv = set(keep_vertices)
        ke = set(keep_edges)
        return DirectedGraph(
            (v for v in self.vertices if v in kv),
            (e for e in self.edges if e.id in ke),
        )

    @cached_property
    def _components(self) -> "_Components":
        return _sweep(self)

    def to_json(self) -> dict:
        return {
            "vertices": list(self.vertices),
            "edges": [{"id": e.id, "src": e.src, "rng": e.rng} for e in self.edges],
        }

    def __repr__(self) -> str:
        return f"DirectedGraph({self.vertex_count} vertices, {self.edge_count} edges)"


@dataclass(frozen=True)
class ComponentDecomposition:
    """Connected components of r(E1) ∪ s(E1) plus the isolated remainder."""

    components: tuple[tuple[str, ...], ...]
    isolated: tuple[str, ...]


class _Components(NamedTuple):
    """What ``_sweep``'s one walk of a graph finds, parallel to dec.components."""

    dec: ComponentDecomposition
    forests: tuple[bool, ...]


# -- parsing -------------------------------------------------------------

_EDGE_FIELDS = frozenset({"id", "src", "rng"})


def graph_from_json(doc: object) -> DirectedGraph:
    """Build a graph from a decoded JSON document, rejecting unknown fields."""
    if not isinstance(doc, dict):
        raise GraphError(f"graph document must be an object, got {type(doc).__name__}")
    unknown = set(doc) - {"vertices", "edges"}
    if unknown:
        raise GraphError(f"unknown top-level field(s): {sorted(unknown)}")
    for field in ("vertices", "edges"):
        if field not in doc:
            raise GraphError(f"missing required field '{field}'")
        if not isinstance(doc[field], list):
            raise GraphError(f"'{field}' must be an array", field)

    edges = []
    for i, item in enumerate(doc["edges"]):
        # fast path: a plain object with exactly the three fields, all strings
        if type(item) is dict and item.keys() == _EDGE_FIELDS:
            eid, src, rng = item["id"], item["src"], item["rng"]
            if type(eid) is str and type(src) is str and type(rng) is str:
                edges.append(Edge(eid, src, rng))
                continue
        loc = f"edges[{i}]"
        if not isinstance(item, dict):
            raise GraphError("edge entry must be an object", loc)
        extra = set(item) - _EDGE_FIELDS
        if extra:
            raise GraphError(f"unknown edge field(s): {sorted(extra)}", loc)
        missing = _EDGE_FIELDS - set(item)
        if missing:
            raise GraphError(f"missing edge field(s): {sorted(missing)}", loc)
        for f in ("id", "src", "rng"):
            if not isinstance(item[f], str):
                raise GraphError(f"'{f}' must be a string", f"{loc}.{f}")
        edges.append(Edge(item["id"], item["src"], item["rng"]))

    return DirectedGraph(doc["vertices"], edges)


def parse_graph(text: str) -> DirectedGraph:
    """Parse a graph JSON document from text."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphError(f"invalid JSON: {exc}") from exc
    return graph_from_json(doc)


# -- operations ----------------------------------------------------------


def is_p_simple(g: DirectedGraph) -> bool:
    """No loop edge and at most one path between any two distinct vertices.

    Equivalent to: no loops and no cycles, i.e. the underlying undirected
    multigraph is a simple forest, which is what is checked here: every
    component's forest bit is set (see ``component_forests``).
    """
    return all(g._components.forests)


def sink_first_order(g: DirectedGraph) -> list[str]:
    """Every vertex once, each after every vertex its out-edges reach.

    An iterative depth-first post-order (Tarjan, SIAM J. Comput. 1(2), 1972),
    so paths of any length need no recursion. Roots and out-edges are taken
    in document order, which fixes the order and the vertex a directed cycle
    (a loop included) is reported through: the first one the walk re-enters.
    """
    out = g._out
    order: list[str] = []
    done: set[str] = set()
    entered: set[str] = set()
    for root in g.vertices:
        if root in done:
            continue
        entered.add(root)
        stack = [(root, iter(out[root]))]
        while stack:
            v, pending = stack[-1]
            for e in pending:
                w = e.rng
                if w in done:
                    continue
                if not out[w]:  # a sink is settled where it is met
                    done.add(w)
                    order.append(w)
                    continue
                if w in entered:
                    raise GraphError(f"directed cycle detected through vertex '{w}'")
                entered.add(w)
                stack.append((w, iter(out[w])))
                break
            else:
                stack.pop()
                entered.discard(v)
                done.add(v)
                order.append(v)
    return order


def decompose(g: DirectedGraph) -> ComponentDecomposition:
    """Partition vertices into connected components of r(E1) ∪ s(E1) and the rest.

    Components are ordered by their earliest vertex in document order, and a
    vertex carrying only loops forms its own singleton component. The graph's
    incidence table is walked once, on the first call, and the same
    decomposition is returned on every later one.
    """
    return g._components.dec


def _sweep(g: DirectedGraph) -> _Components:
    """One depth-first walk over the incidence table, then one grouping pass.

    Each touched vertex the walk has not yet reached starts the next
    component number, so components are numbered by their first vertex in
    document order. The second pass groups the touched vertices by number in
    document order and counts each component's edges: a connected component
    with k vertices has at least k - 1 non-loop edges, and it is a forest (no
    loop, no cycle) exactly when it has no more edges than that.
    """
    incident = g._incident
    touched = g.non_isolated()
    index: dict[str, int] = {}  # vertex -> number of its component
    n = 0
    for root in touched:
        if root in index:
            continue
        index[root] = n
        stack = [root]
        while stack:
            v = stack.pop()
            for e in incident[v]:
                w = e.rng if e.src == v else e.src
                if w not in index:
                    index[w] = n
                    stack.append(w)
        n += 1
    members: list[list[str]] = [[] for _ in range(n)]
    for v in touched:
        members[index[v]].append(v)
    counts = [0] * n
    for e in g.edges:
        counts[index[e.src]] += 1
    return _Components(
        ComponentDecomposition(
            tuple(tuple(m) for m in members),
            tuple(v for v in g.vertices if not incident[v]),
        ),
        tuple(k < len(m) for m, k in zip(members, counts)),
    )


def truncate(g: DirectedGraph, n: int) -> tuple[DirectedGraph, frozenset[str]]:
    """Keep the first n vertices (document order) and the edges among them.

    Returns the truncated graph and its boundary: kept vertices that lost at
    least one edge to the cut. Level sets touching boundary vertices are
    truncation artifacts, not statements about the untruncated graph.
    """
    if n < 0:
        raise GraphError("truncation size must be nonnegative")
    kept = set(g.vertices[:n])
    kept_edges: list[Edge] = []
    boundary: set[str] = set()
    for e in g.edges:
        if e.src in kept and e.rng in kept:
            kept_edges.append(e)
        else:
            boundary.update(v for v in (e.src, e.rng) if v in kept)
    return DirectedGraph(g.vertices[:n], kept_edges), frozenset(boundary)


def component_forests(g: DirectedGraph) -> tuple[bool, ...]:
    """Whether each component of decompose(g) is a forest, in component order.

    The bits come from the walk behind ``decompose``, whose grouping pass
    counts each component's edges (see ``_sweep``).
    """
    return g._components.forests
