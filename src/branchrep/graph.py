"""Directed multigraphs with ordered vertex and edge identifiers.

Graphs are finite, loops and parallel edges are allowed, and every id keeps
its document position, so all derived orderings (components, level sets,
path enumeration) are deterministic for a given input file.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Iterator


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

    def other_endpoint(self, v: str) -> str:
        """The endpoint opposite v (v itself for a loop)."""
        if v == self.src:
            return self.rng
        if v == self.rng:
            return self.src
        raise GraphError(f"vertex '{v}' is not an endpoint of edge '{self.id}'")


class DirectedGraph:
    """Immutable directed multigraph.

    ``vertices`` and ``edges`` keep document order; all iteration in this
    package follows it.
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
        self._edge_by_id: dict[str, Edge] = {}
        incident: dict[str, list[Edge]] = {v: [] for v in self.vertices}
        out_edges: dict[str, list[Edge]] = {v: [] for v in self.vertices}
        in_edges: dict[str, list[Edge]] = {v: [] for v in self.vertices}
        for i, e in enumerate(self.edges):
            loc = f"edges[{i}]"
            if e.id in self._edge_pos:
                raise GraphError(f"duplicate edge id '{e.id}'", loc)
            if e.src not in self._vertex_pos:
                raise GraphError(f"edge '{e.id}' has unknown src vertex '{e.src}'", loc)
            if e.rng not in self._vertex_pos:
                raise GraphError(f"edge '{e.id}' has unknown rng vertex '{e.rng}'", loc)
            self._edge_pos[e.id] = i
            self._edge_by_id[e.id] = e
            out_edges[e.src].append(e)
            in_edges[e.rng].append(e)
            incident[e.src].append(e)
            if not e.is_loop:
                incident[e.rng].append(e)
        # incident lists must follow document order of edges, not insertion
        # by endpoint role; rebuild them ordered by edge position.
        self._incident = {
            v: tuple(sorted(es, key=lambda e: self._edge_pos[e.id]))
            for v, es in incident.items()
        }
        self._out = {v: tuple(es) for v, es in out_edges.items()}
        self._in = {v: tuple(es) for v, es in in_edges.items()}

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
            return self._edge_by_id[eid]
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

    def in_edges(self, v: str) -> tuple[Edge, ...]:
        """Edges e with rng(e) = v, in document order."""
        try:
            return self._in[v]
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

    def to_json(self) -> dict:
        return {
            "vertices": list(self.vertices),
            "edges": [{"id": e.id, "src": e.src, "rng": e.rng} for e in self.edges],
        }

    def __repr__(self) -> str:
        return f"DirectedGraph({self.vertex_count} vertices, {self.edge_count} edges)"


@dataclass(frozen=True)
class Path:
    """An undirected edge-distinct walk u_0 .. u_n with n >= 1.

    Consecutive vertices are joined by the corresponding edge regardless of
    its direction; vertices may repeat, edges may not. A path with equal
    endpoints is a cycle.
    """

    vertices: tuple[str, ...]
    edges: tuple[str, ...]

    @property
    def is_cycle(self) -> bool:
        return self.vertices[0] == self.vertices[-1]

    def __len__(self) -> int:
        return len(self.edges)


@dataclass(frozen=True)
class ComponentDecomposition:
    """Connected components of r(E1) ∪ s(E1) plus the isolated remainder."""

    components: tuple[tuple[str, ...], ...]
    isolated: tuple[str, ...]


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


def adjacent(g: DirectedGraph, a: str, b: str) -> bool:
    """True iff a != b and some edge has endpoint set {a, b}.

    A loop never makes a vertex adjacent to itself.
    """
    g.vertex_position(a)
    g.vertex_position(b)
    if a == b:
        return False
    return any(e.other_endpoint(a) == b for e in g.incident(a) if not e.is_loop)


def find_paths(g: DirectedGraph, u: str, v: str, limit: int) -> list[Path]:
    """Up to ``limit`` paths between u and v, lexicographic by edge-id sequence.

    Edge ids are ordered by document position. Paths may revisit vertices but
    never reuse an edge; with u == v the result enumerates cycles through u.
    """
    g.vertex_position(u)
    g.vertex_position(v)
    if limit < 1:
        raise GraphError("limit must be at least 1")

    results: list[Path] = []
    used: set[str] = set()
    vertex_trail = [u]
    edge_trail: list[str] = []

    def walk(cur: str) -> None:
        for e in g.incident(cur):
            if len(results) >= limit:
                return
            if e.id in used:
                continue
            nxt = e.other_endpoint(cur)
            used.add(e.id)
            vertex_trail.append(nxt)
            edge_trail.append(e.id)
            if nxt == v:
                results.append(Path(tuple(vertex_trail), tuple(edge_trail)))
            if len(results) < limit:
                walk(nxt)
            used.discard(e.id)
            vertex_trail.pop()
            edge_trail.pop()

    walk(u)
    return results


class _UnionFind:
    def __init__(self, items: Iterable[str]):
        self.parent = {x: x for x in items}

    def find(self, x: str) -> str:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: str, b: str) -> bool:
        """Merge the classes of a and b; False if they were already merged."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[rb] = ra
        return True


def is_forest(vertices: Iterable[str], edges: Iterable[Edge]) -> bool:
    """No loop among edges and no cycle in the undirected multigraph they span.

    Every endpoint of every edge must be among vertices.
    """
    uf = _UnionFind(vertices)
    return all(not e.is_loop and uf.union(e.src, e.rng) for e in edges)


def is_p_simple(g: DirectedGraph) -> bool:
    """No loop edge and at most one path between any two distinct vertices.

    Equivalent to: no loops and no cycles, i.e. the underlying undirected
    multigraph is a simple forest, which is what is checked here.
    """
    return is_forest(g.vertices, g.edges)


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
    vertex carrying only loops forms its own singleton component.
    """
    touched = g.non_isolated()
    uf = _UnionFind(touched)
    for e in g.edges:
        if not e.is_loop:
            uf.union(e.src, e.rng)
    groups: dict[str, list[str]] = {}
    for v in touched:
        groups.setdefault(uf.find(v), []).append(v)
    components = sorted(
        (tuple(members) for members in groups.values()),
        key=lambda comp: g.vertex_position(comp[0]),
    )
    isolated = tuple(v for v in g.vertices if not g.incident(v))
    return ComponentDecomposition(tuple(components), isolated)


def truncate(g: DirectedGraph, n: int) -> tuple[DirectedGraph, frozenset[str]]:
    """Keep the first n vertices (document order) and the edges among them.

    Returns the truncated graph and its boundary: kept vertices that lost at
    least one edge to the cut. Level sets touching boundary vertices are
    truncation artifacts, not statements about the untruncated graph.
    """
    if n < 0:
        raise GraphError("truncation size must be nonnegative")
    kept = set(g.vertices[:n])
    kept_edges = [e for e in g.edges if e.src in kept and e.rng in kept]
    kept_edge_ids = {e.id for e in kept_edges}
    boundary = {
        v
        for e in g.edges
        if e.id not in kept_edge_ids
        for v in (e.src, e.rng)
        if v in kept
    }
    return g.subgraph(kept, kept_edge_ids), frozenset(boundary)


def component_edges(g: DirectedGraph, comp: Iterable[str]) -> Iterator[Edge]:
    """Edges with both endpoints in comp, in document order."""
    members = set(comp)
    return (e for e in g.edges if e.src in members and e.rng in members)


def component_edge_lists(
    g: DirectedGraph, dec: ComponentDecomposition
) -> tuple[tuple[Edge, ...], ...]:
    """Edges of each component of dec = decompose(g), in document order.

    The result is parallel to dec.components. It takes one pass over the
    edges through a vertex→component map, so all lists together cost
    O(V + E), where component_edges costs O(E) per component.
    """
    index = {v: i for i, comp in enumerate(dec.components) for v in comp}
    lists: list[list[Edge]] = [[] for _ in dec.components]
    for e in g.edges:
        lists[index[e.src]].append(e)
    return tuple(tuple(es) for es in lists)
