"""The original quadratic structure routines, kept verbatim as test oracles.

``level_decomposition`` rebuilds the remaining subgraph every round,
``component_classifications`` goes through the public ``classify`` (one
``decompose`` per component), and ``check_structure`` rescans every edge per
component. The library replaced them with one-pass versions; the property
tests in ``test_structure_oracle.py`` require identical output.
"""

from __future__ import annotations

import math
from typing import Iterable

from branchrep import (
    FAIL,
    NOT_APPLICABLE,
    PASS,
    CheckItem,
    Classification,
    ClassificationKind,
    DirectedGraph,
    LevelDecomposition,
    Report,
    classify,
    decompose,
    extreme_vertices,
)
from branchrep.graph import component_edges


def level_decomposition(g: DirectedGraph) -> LevelDecomposition:
    """Peel extreme vertices until none remain.

    Every edge incident to an extreme vertex is that vertex's unique edge, so
    removing X_n and Y_n leaves a well-formed graph; the loop runs at most
    |vertices| rounds.
    """
    vertex_levels: list[tuple[str, ...]] = []
    edge_levels: list[tuple[str, ...]] = []
    current = g
    while True:
        ext = extreme_vertices(current)
        if not ext:
            break
        ext_edges: dict[str, None] = {}
        for v in ext:
            ext_edges.setdefault(current.incident(v)[0].id, None)
        vertex_levels.append(ext)
        # report Y_n in document order of the original graph
        edge_levels.append(tuple(sorted(ext_edges, key=g.edge_position)))
        remaining_v = [v for v in current.vertices if v not in set(ext)]
        remaining_e = [e.id for e in current.edges if e.id not in ext_edges]
        current = current.subgraph(remaining_v, remaining_e)
    return LevelDecomposition(
        tuple(vertex_levels),
        tuple(edge_levels),
        tuple(current.vertices),
        tuple(e.id for e in current.edges),
    )


def component_classifications(
    g: DirectedGraph, d: LevelDecomposition
) -> list[tuple[tuple[str, ...], Classification]]:
    """(component, classification) pairs in component order."""
    out = []
    for comp in decompose(g).components:
        out.append((comp, classify(g, d, comp)))
    return out


def _component_max_level(d: LevelDecomposition, members: Iterable[str]) -> int:
    levels = [d.level_of(v) for v in members]
    return max((n for n in levels if n is not None), default=0)


def component_is_p_simple(g: DirectedGraph, members: Iterable[str]) -> bool:
    seen_roots: dict[str, str] = {}

    def find(x: str) -> str:
        while seen_roots.setdefault(x, x) != x:
            seen_roots[x] = seen_roots[seen_roots[x]]
            x = seen_roots[x]
        return x

    for e in component_edges(g, members):
        if e.is_loop:
            return False
        ra, rb = find(e.src), find(e.rng)
        if ra == rb:
            return False
        seen_roots[rb] = ra
    return True


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

    for comp, c in component_classifications(g, d):
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
                joining = [
                    e.id
                    for e in component_edges(g, comp)
                    if not e.is_loop and {e.src, e.rng} == set(top)
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
        if component_is_p_simple(g, comp):
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
