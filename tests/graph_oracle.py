"""Trail enumeration on a graph, kept as a test oracle.

``find_paths`` lists edge-distinct undirected walks between two vertices by
recursing once per step, so its depth grows with the walk's length; the
definition-level P-simplicity predicate in ``test_graph.py`` counts trails
with it, against the component sweep behind ``branchrep.graph.is_p_simple``.
``_other_endpoint`` is a verbatim copy of the library's former
``Edge.other_endpoint``.
"""

from __future__ import annotations

from dataclasses import dataclass

from branchrep import DirectedGraph, Edge, GraphError


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


def _other_endpoint(e: Edge, v: str) -> str:
    """The endpoint opposite v (v itself for a loop)."""
    if v == e.src:
        return e.rng
    if v == e.rng:
        return e.src
    raise GraphError(f"vertex '{v}' is not an endpoint of edge '{e.id}'")


def adjacent(g: DirectedGraph, a: str, b: str) -> bool:
    """True iff a != b and some edge has endpoint set {a, b}.

    A loop never makes a vertex adjacent to itself.
    """
    g.vertex_position(a)
    g.vertex_position(b)
    if a == b:
        return False
    return any(_other_endpoint(e, a) == b for e in g.incident(a) if not e.is_loop)


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
            nxt = _other_endpoint(e, cur)
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
