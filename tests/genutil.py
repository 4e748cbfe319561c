"""Seeded random graph/operator generators shared across the test modules."""

from __future__ import annotations

import numpy as np

from branchrep import (
    ConcreteRepresentation,
    DirectedGraph,
    WeightedPartialIsometry,
    graph_from_json,
    induce,
    synthesize,
    to_matrix,
)


def tree_doc(rng: np.random.Generator, n: int, directed_path: bool = False) -> dict:
    """Attachment tree on n vertices; edge directions random unless asked.

    Vertex i >= 2 attaches to a uniformly chosen earlier vertex, which covers
    paths, stars, and caterpillars as n grows.
    """
    vertices = [f"v{i}" for i in range(1, n + 1)]
    edges = []
    for i in range(1, n):
        parent = vertices[int(rng.integers(0, i))]
        child = vertices[i]
        src, dst = parent, child
        if not directed_path and int(rng.integers(0, 2)):
            src, dst = dst, src
        edges.append({"id": f"e{i}", "src": src, "rng": dst})
    return {"vertices": vertices, "edges": edges}


def tree_graph(rng: np.random.Generator, n: int) -> DirectedGraph:
    return graph_from_json(tree_doc(rng, n))


def dag_doc(rng: np.random.Generator, n: int, extra: int = 0) -> dict:
    """Random acyclic multigraph: a spanning tree over a random topological
    order plus `extra` forward edges (parallel edges allowed)."""
    order = [int(x) for x in rng.permutation(n)]
    vertices = [f"v{i}" for i in range(1, n + 1)]
    edges = []
    eid = 0
    for i in range(1, n):
        j = int(rng.integers(0, i))
        eid += 1
        edges.append(
            {"id": f"e{eid}", "src": vertices[order[j]], "rng": vertices[order[i]]}
        )
    for _ in range(extra):
        if n < 2:
            break
        picks = rng.choice(n, size=2, replace=False)
        i, j = int(min(picks)), int(max(picks))
        eid += 1
        edges.append(
            {"id": f"e{eid}", "src": vertices[order[i]], "rng": vertices[order[j]]}
        )
    return {"vertices": vertices, "edges": edges}


def dag_graph(rng: np.random.Generator, n: int, extra: int = 0) -> DirectedGraph:
    return graph_from_json(dag_doc(rng, n, extra))


def random_sink_dims(
    rng: np.random.Generator, g: DirectedGraph, max_dim: int = 4
) -> dict[str, int]:
    return {v: int(rng.integers(1, max_dim + 1)) for v in g.sinks()}


def random_wpi(rng: np.random.Generator, size: int) -> WeightedPartialIsometry:
    """Random injective partial map on {0..size-1} with amplitudes in [0.5, 2]."""
    k = int(rng.integers(0, size + 1))
    domain = rng.choice(size, size=k, replace=False)
    image = rng.choice(size, size=k, replace=False)
    mapping = {int(x): int(j) for x, j in zip(domain, image)}
    amplitude = {x: float(rng.uniform(0.5, 2.0)) for x in mapping}
    return WeightedPartialIsometry(mapping=mapping, amplitude=amplitude)


def canonical_representation(
    g: DirectedGraph, sink_dims: dict[str, int], complement_dim: int = 0
) -> ConcreteRepresentation:
    """The exact 0/1 canonical model: the dense generators of the family
    induced by the synthesized branching system, as complex matrices."""
    fam = induce(synthesize(g, sink_dims, slack=complement_dim), g)
    return ConcreteRepresentation(
        dim=len(fam.universe),
        complement_dim=complement_dim,
        edge_matrices={
            e.id: to_matrix(fam, e.id, kind="edge").astype(complex) for e in g.edges
        },
        vertex_matrices={
            v: to_matrix(fam, v, kind="vertex").astype(complex) for v in g.vertices
        },
    )
