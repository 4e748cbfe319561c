"""The two-sweep adapted-basis construction, kept verbatim as a test oracle.

``align_bases`` here schedules its blocks the way the paper's existence
proof walks the level structure: finals upward by level, then from each
component's top vertex μ downward through the rest. ``vertex_dimensions``
is the post-order walk that settled sinks as it met them. The library now
builds both from one ``graph.sink_first_order``; the property tests in
``test_alignment_oracle.py`` require the same bases, the same dimensions
and the same errors.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

import numpy as np

from branchrep.alignment import (
    AlignmentError,
    BasisAssignment,
    ConcreteRepresentation,
    NotApplicableError,
    _leftover,
    _svd_basis,
)
from branchrep.branching import BranchingError
from branchrep.graph import DirectedGraph, decompose, is_p_simple
from branchrep.report import Tolerances
from branchrep.structure import (
    Classification,
    ClassificationKind,
    LevelDecomposition,
    Role,
    component_classifications,
    level_decomposition,
    vertex_roles,
)


def align_bases(
    rep: ConcreteRepresentation,
    g: DirectedGraph,
    d: Optional[LevelDecomposition] = None,
    classifications: Optional[Sequence[tuple[tuple[str, ...], Classification]]] = None,
    tols: Tolerances = Tolerances(),
) -> BasisAssignment:
    """Choose the adapted global basis by sweeping the level structure.

    Sweep one walks levels upward through vertices whose unique higher edge
    points into them; each such vertex's block is the concatenation of its
    outgoing edges' image blocks (or a free basis if it has none), and the
    new block is then pushed through every edge arriving at that vertex.
    Sweep two starts at the top — the source vertex of the unique top edge,
    or the unleveled center — and walks downward through the remaining
    vertices the same way. Isolated vertices and the complement get free
    bases at the end. Singular values are cut at ``tols.rank``; assembled
    blocks and the global basis must be orthonormal to within ``tols.rep``,
    and each block must lie in its projection's range to within ``tols.b2b``.
    """
    if d is None:
        d = level_decomposition(g)
    if classifications is None:
        classifications = component_classifications(g, d)

    for comp, c in classifications:
        if c.kind is ClassificationKind.IRREGULAR:
            raise NotApplicableError(
                f"component containing '{comp[0]}' has two or more unleveled "
                "vertices; the alignment construction is not applicable"
            )
    if not is_p_simple(g):
        raise NotApplicableError(
            "graph has a loop, parallel edge, or undirected cycle; the "
            "alignment construction is not applicable"
        )

    free = {v: _svd_basis(rep.vertex_matrices[v], tols.rank) for v in g.vertices}
    n_total = rep.dim
    ranks = {v: free[v].shape[1] for v in g.vertices}

    roles: dict[str, object] = {}
    for comp, c in classifications:
        roles.update(vertex_roles(g, d, comp, c))

    vertex_vecs: dict[str, np.ndarray] = {}
    edge_vecs: dict[str, np.ndarray] = {}
    edge_offsets: dict[str, int] = {}
    processed: set[str] = set()

    def assemble(v: str) -> np.ndarray:
        out = g.out_edges(v)
        if not out:
            return free[v]
        blocks = []
        offset = 0
        for e in out:
            if e.id not in edge_vecs:
                raise AlignmentError(
                    f"internal sweep-order violation: edge '{e.id}' not yet pushed "
                    f"when assembling vertex '{v}'"
                )
            edge_offsets[e.id] = offset
            blocks.append(edge_vecs[e.id])
            offset += edge_vecs[e.id].shape[1]
        b = np.hstack(blocks)
        if b.shape[1] != ranks[v]:
            raise AlignmentError(
                f"rank mismatch at vertex '{v}': outgoing edge blocks give "
                f"{b.shape[1]} vectors but the vertex projection has rank {ranks[v]}"
            )
        gram_err = float(np.abs(b.conj().T @ b - np.eye(b.shape[1])).max())
        if not gram_err <= tols.rep:
            raise AlignmentError(
                f"assembled block at vertex '{v}' is not orthonormal "
                f"(deviation {gram_err:.3e}); the input matrices likely violate "
                "the graph relations"
            )
        return b

    def settle(v: str) -> None:
        b = assemble(v)
        span_err = float(np.abs(rep.vertex_matrices[v] @ b - b).max())
        if not span_err <= tols.b2b:
            raise AlignmentError(
                f"block assembled for vertex '{v}' leaves its projection's range "
                f"(deviation {span_err:.3e})"
            )
        vertex_vecs[v] = b
        processed.add(v)
        for e in g.in_edges(v):
            edge_vecs[e.id] = rep.edge_matrices[e.id] @ b

    finals = sorted(
        (v for v in roles if roles[v].role is Role.FINAL),
        key=lambda v: (d.level_of(v), g.vertex_position(v)),
    )
    for v in finals:
        settle(v)

    for comp, c in classifications:
        if c.kind is ClassificationKind.LEVELS_PLUS_CENTER:
            mu = c.center
        else:
            top = max(lv for v in comp if (lv := d.level_of(v)) is not None)
            candidates = [
                v
                for v in comp
                if roles[v].role is Role.INITIAL and d.level_of(v) == top
            ]
            mu = candidates[0]
        settle(mu)
        rest = sorted(
            (
                v
                for v in comp
                if v not in processed and roles[v].role is Role.INITIAL
            ),
            key=lambda v: (-d.level_of(v), g.vertex_position(v)),
        )
        for v in rest:
            settle(v)

    for v in decompose(g).isolated:
        vertex_vecs[v] = free[v]
        processed.add(v)

    missing = [v for v in g.vertices if v not in processed]
    if missing:
        raise AlignmentError(f"internal sweep never reached vertices {missing}")

    complement = _svd_basis(_leftover(rep, g), tols.rank)
    if complement.shape[1] != rep.complement_dim:
        raise AlignmentError(
            f"complement has rank {complement.shape[1]} but the representation "
            f"declares {rep.complement_dim}"
        )

    columns = [vertex_vecs[v] for v in g.vertices] + [complement]
    basis = np.hstack(columns)
    if basis.shape != (n_total, n_total):
        raise AlignmentError(
            f"vertex blocks plus complement give {basis.shape[1]} vectors "
            f"in dimension {n_total}"
        )
    unitary_err = float(np.abs(basis.conj().T @ basis - np.eye(n_total)).max())
    if not unitary_err <= tols.rep:
        raise AlignmentError(
            f"global basis is not unitary (deviation {unitary_err:.3e}); "
            "vertex blocks overlap or the complement is off"
        )

    vertex_bases: dict[str, tuple[int, ...]] = {}
    cursor = 0
    for v in g.vertices:
        k = vertex_vecs[v].shape[1]
        vertex_bases[v] = tuple(range(cursor, cursor + k))
        cursor += k
    edge_bases: dict[str, tuple[int, ...]] = {}
    for e in g.edges:
        width = edge_vecs[e.id].shape[1]
        start = edge_offsets[e.id]
        edge_bases[e.id] = vertex_bases[e.src][start : start + width]
    return BasisAssignment(
        global_basis=basis, vertex_bases=vertex_bases, edge_bases=edge_bases
    )


def vertex_dimensions(g: DirectedGraph, sink_dims: Mapping[str, int]) -> dict[str, int]:
    """Propagate |D_v| from sink dimensions backwards along edges.

    Every non-isolated vertex without outgoing edges must appear in
    sink_dims with a positive integer; emitters get the sum over their
    outgoing edges of the range vertex's dimension, and isolated vertices
    get 0 (an empty domain set). Directed cycles make the propagation
    unsolvable and raise.
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

    # Iterative post-order walk, so paths of any length resolve without
    # recursion. Out-edges are followed in document order, which fixes the
    # vertex a directed cycle is reported through.
    dims: dict[str, int] = {}
    in_progress: set[str] = set()
    for root in g.vertices:
        if root in dims:
            continue
        in_progress.add(root)
        out = g.out_edges(root)
        stack = [(root, out, iter(out))]
        while stack:
            v, out, pending = stack[-1]
            for e in pending:
                w = e.rng
                if w in dims:
                    continue
                w_out = g.out_edges(w)
                if not w_out:
                    dims[w] = sink_dims[w]
                    continue
                if w in in_progress:
                    raise BranchingError(f"directed cycle detected through vertex '{w}'")
                in_progress.add(w)
                stack.append((w, w_out, iter(w_out)))
                break
            else:
                stack.pop()
                in_progress.discard(v)
                # an isolated vertex is in no sink_dims and gets no indices
                dims[v] = sum([dims[e.rng] for e in out]) if out else sink_dims.get(v, 0)
    return dims

