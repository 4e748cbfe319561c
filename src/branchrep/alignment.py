"""Aligning a concrete representation with a canonical branching-system model.

Given matrices satisfying the graph relations on C^N, this module chooses an
orthonormal basis adapted to the graph (one block per vertex plus a
complement), checks that every edge operator carries its range vertex's block
bijectively onto a sub-block of the source vertex, and extracts from that a
discrete branching system together with the change-of-basis unitary. Blocks
are built sinks first: a sink's block is a basis of its projection's range,
and any other vertex's block is its out-edges' images of their range
vertices' blocks, side by side. The paper's level structure decides only
whether the construction applies.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from itertools import combinations
from typing import Mapping, Optional, Sequence

import numpy as np

from .branching import DiscreteBranchingSystem, synthesize, validate, vertex_dimensions
from .graph import DirectedGraph, is_p_simple, sink_first_order
from .operators import induce, wpi_matrix
from .report import FAIL, PASS, CheckItem, Report, Tolerances, first_witness
from .structure import (
    Classification,
    ClassificationKind,
    LevelDecomposition,
    component_classifications,
    level_decomposition,
)

# the defaults as plain names, for callers that compare against one
RANK_TOL = Tolerances.rank
B2B_TOL = Tolerances.b2b
RESIDUAL_TOL = Tolerances.residual
REP_TOL = Tolerances.rep


class AlignmentError(ValueError):
    pass


class NotApplicableError(AlignmentError):
    """The graph's shape rules out the alignment construction entirely."""


class DegenerateRankError(AlignmentError):
    """A singular value fell between clearly-zero and clearly-nonzero."""


class RepresentationError(ValueError):
    pass


@dataclass(frozen=True, eq=False)
class ConcreteRepresentation:
    """Dense matrices on C^dim: one per edge, one projection per vertex."""

    dim: int
    complement_dim: int
    edge_matrices: dict[str, np.ndarray]
    vertex_matrices: dict[str, np.ndarray]

    def __post_init__(self):
        if self.dim <= 0:
            raise RepresentationError(f"dim must be positive, got {self.dim}")
        if self.complement_dim < 0:
            raise RepresentationError("complementDim must be nonnegative")
        for label, mats in (("edge", self.edge_matrices), ("vertex", self.vertex_matrices)):
            for key, m in mats.items():
                if m.shape != (self.dim, self.dim):
                    raise RepresentationError(
                        f"{label} matrix '{key}' has shape {m.shape}, expected {(self.dim, self.dim)}"
                    )


@dataclass(frozen=True, eq=False)
class BasisAssignment:
    """An ordered orthonormal basis of C^N plus which columns serve whom.

    ``global_basis`` holds the basis vectors as columns. ``vertex_bases``
    and ``edge_bases`` give, per vertex/edge, the tuple of column indices
    whose vectors span that vertex's block (resp. that edge's image block
    inside its source vertex).
    """

    global_basis: np.ndarray
    vertex_bases: dict[str, tuple[int, ...]]
    edge_bases: dict[str, tuple[int, ...]]


@dataclass(frozen=True, eq=False)
class EquivalenceCertificate:
    """A branching system, a unitary, and how well they reproduce the input."""

    system: DiscreteBranchingSystem
    unitary: np.ndarray
    edge_residuals: dict[str, float] = field(default_factory=dict)
    vertex_residuals: dict[str, float] = field(default_factory=dict)

    @property
    def max_residual(self) -> float:
        """The largest residual, NaN if any residual is NaN."""
        values = list(self.edge_residuals.values()) + list(self.vertex_residuals.values())
        return float(np.max(values)) if values else 0.0

    def passes(self, tols: Tolerances = Tolerances()) -> bool:
        return self.max_residual <= tols.residual


# -- representation sanity --------------------------------------------------


# an infinite or overflowing entry gives a non-finite error, which fails its
# item; numpy is kept from also warning about it
@np.errstate(invalid="ignore", over="ignore")
def check_representation(
    rep: ConcreteRepresentation,
    g: DirectedGraph,
    tols: Tolerances = Tolerances(),
) -> Report:
    """Report on the graph relations for dense matrices.

    Items: 'projections' (idempotent, self-adjoint), 'i' (orthogonal vertex
    projections), 'ii' (each edge operator is isometric from its range
    vertex's subspace), 'iii' (its image sits under the source projection),
    'iv' (distinct edges have orthogonal images), 'v' (emitters' edge images
    fill the vertex subspace), 'complement' (rank of what is left equals the
    declared complement dimension). Errors are held to ``tols.rep`` and the
    complement's rank is cut at ``tols.rank``.

    Items i and iv are pairwise. A screen first builds one orthonormal basis
    per vertex range and forms one Gram matrix of the stacked vertex bases
    and one of the stacked edge images. From these, measured residuals and
    Higham's rounding bounds it proves, pair by pair, that the largest entry
    the check would compute is within ``tols.rep`` (see ``_pair_screen``).
    Only pairs it cannot clear get their N×N product, in the same order as
    before, so the first witness and its float value are unchanged. The
    bound holds for any computed basis, so a poor basis or a dishonest input
    can only leave pairs to the exact product. The screen is skipped, and
    every pair gets its product, when an entry is non-finite, when a vertex
    trace rounds outside [0, N], or when the vertex bases or the edge images
    would stack wider than N. The bases only steer the screen; ranks in the
    report still come from ``_svd_rank``.
    """
    if set(rep.edge_matrices) != {e.id for e in g.edges}:
        raise RepresentationError("edge matrices do not match the graph's edges")
    if set(rep.vertex_matrices) != set(g.vertices):
        raise RepresentationError("vertex matrices do not match the graph's vertices")

    p = rep.vertex_matrices
    s = rep.edge_matrices
    cleared_i, cleared_iv = _pair_screen(rep, g, tols.rep) or ((), ())

    def projections():
        for v in g.vertices:
            idem = float(np.abs(p[v] @ p[v] - p[v]).max())
            herm = float(np.abs(p[v] - p[v].conj().T).max())
            if not (idem <= tols.rep and herm <= tols.rep):
                yield {"vertex": v, "idempotencyError": idem, "selfAdjointnessError": herm}

    def over_tol(cases):
        # cases: lazy (witness fields, deviation matrix) pairs
        for where, deviation in cases:
            err = float(np.abs(deviation).max())
            if not err <= tols.rep:
                yield {**where, "error": err}

    def range_deviations():
        for e in g.edges:
            q = s[e.id] @ s[e.id].conj().T
            yield {"edge": e.id}, p[e.src] @ q - q

    def sum_deviations():
        for v in g.vertices:
            out = g.out_edges(v)
            if out:
                total = sum(s[e.id] @ s[e.id].conj().T for e in out)
                yield {"vertex": v}, total - p[v]

    def complement():
        try:
            rank, _ = _svd_rank(_leftover(rep, g), tols.rank, compute_uv=False)
        except DegenerateRankError as err:
            yield {"error": str(err)}
        else:
            if rank != rep.complement_dim:
                yield {"declared": rep.complement_dim, "actual": rank}

    vertex_pairs = (
        ({"vertices": [a, b]}, p[a] @ p[b])
        for a, b in combinations(g.vertices, 2)
        if (a, b) not in cleared_i
    )
    isometries = (({"edge": e.id}, s[e.id].conj().T @ s[e.id] - p[e.rng]) for e in g.edges)
    edge_pairs = (
        ({"edges": [e.id, f.id]}, s[e.id].conj().T @ s[f.id])
        for e in g.edges
        for f in g.edges
        if e.id != f.id and (e.id, f.id) not in cleared_iv
    )
    return Report(
        (
            first_witness("projections", projections()),
            first_witness("i", over_tol(vertex_pairs)),
            first_witness("ii", over_tol(isometries)),
            first_witness("iii", over_tol(range_deviations())),
            first_witness("iv", over_tol(edge_pairs)),
            first_witness("v", over_tol(sum_deviations())),
            first_witness("complement", complement()),
        )
    )


# -- the pair screen ---------------------------------------------------------

_EPS = float(np.finfo(float).eps)
# an entry below this squares to less than the smallest normal float, so the
# square root of a sum of m squares can come out short by up to √m times this
_UNDERFLOW = float(np.sqrt(np.finfo(float).tiny))


def _gamma(m: int) -> float:
    """Higham's γ for an inner product of length m, rounded up for complex data.

    A computed product with inner dimension m is within γ(m)·|A|·|B| of the
    exact one, entry by entry, in any summation order (Higham, *Accuracy and
    Stability of Numerical Algorithms*, 2nd ed., §3.5–3.6; (m+2)·ε covers
    the √2·γ_{m+2} of complex arithmetic).
    """
    c = (m + 2) * _EPS
    return c / (1 - c)


def _gram_bounds(blocks: list[np.ndarray], n: int) -> tuple[np.ndarray, np.ndarray]:
    """Bounds read off one Gram matrix of the column blocks T_1, …, T_m of C^n.

    Returns ``h`` and ``t``: h[a, b] ≥ ‖T_a*·T_b‖₂ for a ≠ b,
    h[a, a] ≥ ‖T_a*·T_a − I‖₂, and t[a] = √(1 + h[a, a]) ≥ ‖T_a‖₂. Each is
    the Frobenius norm of a block of the computed Gram matrix plus γ(n)
    times the blocks' Frobenius norms for forming it, and the underflow
    allowance.
    """
    stacked = np.hstack(blocks)
    k = stacked.shape[1]
    widths = [b.shape[1] for b in blocks]
    owner = np.zeros((k, len(blocks)))
    owner[np.arange(k), np.repeat(np.arange(len(blocks)), widths)] = 1.0
    dev = stacked.conj().T @ stacked - np.eye(k)
    dev_fro = np.sqrt(owner.T @ (dev.real**2 + dev.imag**2) @ owner)
    t_fro = np.sqrt((stacked.real**2 + stacked.imag**2).sum(axis=0) @ owner)
    t_fro += np.sqrt(n * k) * _UNDERFLOW
    h = dev_fro + k * _UNDERFLOW + _gamma(n) * np.outer(t_fro, t_fro)
    return h, np.sqrt(1.0 + np.diag(h))


def _residual(
    m: np.ndarray, left: np.ndarray, left_norm: float, right: np.ndarray, right_norm: float
) -> float:
    """An upper bound on ‖m − left·right*‖₂, the product taken exactly.

    ``left_norm`` and ``right_norm`` bound the factors' 2-norms, and so the
    rounding of the product formed here.
    """
    k = left.shape[1]
    w = m - left @ right.conj().T
    computed = float(np.sqrt(np.vdot(w, w).real))
    return computed / (1 - _EPS) + _gamma(k) * k * left_norm * right_norm + len(m) * _UNDERFLOW


def _pair_screen(
    rep: ConcreteRepresentation, g: DirectedGraph, tol: float
) -> Optional[tuple[set[tuple[str, str]], set[tuple[str, str]]]]:
    """Vertex pairs (item i) and ordered edge pairs (item iv) that provably pass.

    A pair is in the result only when an upper bound on the largest entry
    that ``check_representation`` would compute for it is at most ``tol``.
    None means the screen is skipped: an entry is non-finite, a vertex trace
    rounds outside [0, N], or the vertex bases or the edge images stack
    wider than N.

    Each vertex gets an orthonormal B_v, the Q of P_v·Ω for a fixed-seed
    complex Gaussian Ω with k_v = round(Re tr P_v) columns (a randomized
    range finder: Halko, Martinsson & Tropp, SIAM Review 53(2), 2011), and
    each edge the image T_e = S_e·B_rng(e). Write X_a = T_a·C_a* + Q_a for the
    factor whose adjoint leads a pair's product: X_a = P_a* with T = C = B_a
    for item i, X_e = S_e with T = T_e and C = B_rng(e) for item iv. Then

        ‖X_a*·X_b‖₂ ≤ c_a·‖T_a*·T_b‖₂·c_b + c_a·t_a·q_b + q_a·x_b,

    with c ≥ ‖C‖₂ and t ≥ ‖T‖₂ read off the Gram matrices, q ≥ ‖Q‖₂
    measured, and x = t·c + q ≥ ‖X‖₂. No entry exceeds the 2-norm, and
    γ(N)·x_a·x_b covers the rounding of the product the check itself forms.
    Every term holds for whatever B_v and T_e were computed, so a wrong k_v,
    an oblique projection or a dishonest input only leaves pairs uncleared.
    """
    p = rep.vertex_matrices
    s = rep.edge_matrices
    n = rep.dim
    if not all(np.isfinite(m).all() for m in (*p.values(), *s.values())):
        return None
    traces = np.array([np.trace(p[v]).real for v in g.vertices])
    if not np.all((-0.5 < traces) & (traces < n + 0.5)):
        return None
    ranks = dict(zip(g.vertices, np.rint(traces).astype(int).tolist()))
    if sum(ranks.values()) > n or sum(ranks[e.rng] for e in g.edges) > n:
        return None
    if len(g.vertices) < 2 and len(g.edges) < 2:
        return set(), set()

    def cleared(names, h, t, c, q):
        x = t * c + q
        bound = np.outer(c, c) * h + np.outer(c * t, q) + np.outer(q, x)
        bound += _gamma(n) * np.outer(x, x)
        # every term is a sum or product of nonnegative computed values, each
        # rounded by at most γ(n²) relative to its size
        bound *= 1 + _gamma(2 * n * n + 64)
        return {(names[a], names[b]) for a, b in zip(*np.nonzero(bound <= tol)) if a != b}

    omega = np.random.default_rng(0).standard_normal((n, 2 * max(ranks.values())))
    omega = omega.view(complex)
    by_vertex = {}
    for k in set(ranks.values()):  # one batched QR per distinct rank
        group = [v for v in g.vertices if ranks[v] == k]
        qs, _ = np.linalg.qr(np.stack([p[v] @ omega[:, :k] for v in group]))
        by_vertex.update(zip(group, qs))
    bases = [by_vertex[v] for v in g.vertices]
    h_i, beta = _gram_bounds(bases, n)
    r = np.array([_residual(p[v], b, t, b, t) for v, b, t in zip(g.vertices, bases, beta)])
    cleared_i = cleared(g.vertices, h_i, beta, beta, r)
    if len(g.edges) < 2:
        return cleared_i, set()

    rng_of = [g.vertex_position(e.rng) for e in g.edges]
    images = [s[e.id] @ bases[i] for e, i in zip(g.edges, rng_of)]
    h_iv, tau = _gram_bounds(images, n)
    q = np.array([
        _residual(s[e.id], image, t, bases[i], beta[i])
        for e, image, t, i in zip(g.edges, images, tau, rng_of)
    ])
    return cleared_i, cleared([e.id for e in g.edges], h_iv, tau, beta[rng_of], q)


# -- random models -----------------------------------------------------------


def haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed n×n unitary via QR of a complex Gaussian matrix."""
    if n <= 0:
        raise AlignmentError("haar_unitary needs a positive size")
    a = rng.standard_normal((n, n))
    b = rng.standard_normal((n, n))
    q, r = np.linalg.qr((a + 1j * b) / np.sqrt(2.0))
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_representation(
    g: DirectedGraph,
    sink_dims: Mapping[str, int],
    complement_dim: int = 0,
    seed: int = 0,
    axis_aligned: bool = False,
) -> ConcreteRepresentation:
    """A representation of the graph relations, honest by construction.

    Starts from the canonical model of the synthesized branching system,
    twists each edge operator by a Haar unitary of its range vertex's block
    (one per edge, in document order, applied to that block's columns only),
    then conjugates everything by one global Haar unitary. With
    ``axis_aligned`` no randomness is used and the matrices are exactly the
    canonical 0/1 ones. The result is not checked here; callers that need a
    report run ``check_representation`` on it.
    """
    bs = synthesize(g, sink_dims, slack=complement_dim)
    fam = induce(bs, g)
    n = len(bs.universe)
    if n <= 0:
        # the same error ConcreteRepresentation raises, before any Haar draw
        raise RepresentationError(f"dim must be positive, got {n}")
    edge_mats = {
        e.id: wpi_matrix(fam.edge_ops[e.id], n).astype(complex) for e in g.edges
    }
    vertex_mats = {
        v: wpi_matrix(fam.vertex_projs[v].as_partial_isometry(), n).astype(complex)
        for v in g.vertices
    }
    if not axis_aligned:
        rng = np.random.default_rng(seed)
        for e in g.edges:
            block = sorted(bs.domain_sets[e.rng])
            m = edge_mats[e.id]
            m[:, block] = m[:, block] @ haar_unitary(len(block), rng)
        gmat = haar_unitary(n, rng)
        gstar = gmat.conj().T
        edge_mats = {k: gmat @ m @ gstar for k, m in edge_mats.items()}
        vertex_mats = {k: gmat @ m @ gstar for k, m in vertex_mats.items()}
    return ConcreteRepresentation(
        dim=n,
        complement_dim=complement_dim,
        edge_matrices=edge_mats,
        vertex_matrices=vertex_mats,
    )


# -- the one rank rule -------------------------------------------------------


def _leftover(rep: ConcreteRepresentation, g: DirectedGraph) -> np.ndarray:
    """The identity minus every vertex projection, subtracted in document order."""
    leftover = np.eye(rep.dim, dtype=complex)
    for v in g.vertices:
        leftover = leftover - rep.vertex_matrices[v]
    return leftover


def _svd_rank(
    m: np.ndarray, rank_tol: float, compute_uv: bool
) -> tuple[int, Optional[np.ndarray]]:
    """Numerical rank of m, and its left singular vectors when ``compute_uv``.

    Singular values above ``rank_tol`` count. One inside the open band
    (rank_tol·1e-2, rank_tol·1e2) is neither clearly zero nor clearly not, so
    the rank is refused with DegenerateRankError rather than guessed; so is
    the rank of a matrix with a non-finite entry or on which the SVD fails.
    """
    if not np.isfinite(m).all():
        raise DegenerateRankError("matrix has non-finite entries; rank is undefined")
    try:
        if compute_uv:
            u, sv, _ = np.linalg.svd(m)
        else:
            u, sv = None, np.linalg.svd(m, compute_uv=False)
    except np.linalg.LinAlgError as err:
        raise DegenerateRankError(f"SVD failed ({err}); rank is undefined") from None
    lo, hi = rank_tol * 1e-2, rank_tol * 1e2
    shady = [float(x) for x in sv if lo < x < hi]
    if shady:
        raise DegenerateRankError(
            f"singular value(s) {shady} fall between {lo} and {hi}; "
            "rank is numerically ambiguous"
        )
    return int((sv > rank_tol).sum()), u


def _svd_basis(m: np.ndarray, rank_tol: float) -> np.ndarray:
    """Orthonormal basis, as columns, of the range of m."""
    rank, u = _svd_rank(m, rank_tol, compute_uv=True)
    return u[:, :rank]


# -- the sink-first basis construction ---------------------------------------


def align_bases(
    rep: ConcreteRepresentation,
    g: DirectedGraph,
    d: Optional[LevelDecomposition] = None,
    classifications: Optional[Sequence[tuple[tuple[str, ...], Classification]]] = None,
    tols: Tolerances = Tolerances(),
) -> BasisAssignment:
    """Choose the adapted global basis, settling vertices sinks first.

    The level structure (``d``, ``classifications``) and P-simplicity decide
    only whether the construction applies; NotApplicableError says it does
    not. Every vertex first gets a free basis of its projection's range, in
    document order. Vertices are then settled in ``sink_first_order``: a
    sink keeps its free basis, and an emitter's block is S_e·B_rng(e) for its
    out-edges e, side by side in document order, which must have the free
    basis's rank. Isolated vertices keep their free basis unchecked, and the
    complement gets one too. Singular values are cut at ``tols.rank``;
    assembled blocks and the global basis must be orthonormal to within
    ``tols.rep``, and each block must lie in its projection's range to
    within ``tols.b2b``.
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
    vertex_vecs: dict[str, np.ndarray] = {}
    edge_offsets: dict[str, int] = {}
    for v in sink_first_order(g):
        if not g.incident(v):
            vertex_vecs[v] = free[v]  # an isolated vertex's block goes unchecked
            continue
        b = free[v]
        out = g.out_edges(v)
        if out:
            images = []
            offset = 0
            for e in out:
                edge_offsets[e.id] = offset
                images.append(rep.edge_matrices[e.id] @ vertex_vecs[e.rng])
                offset += images[-1].shape[1]
            b = np.hstack(images)
            if offset != free[v].shape[1]:
                raise AlignmentError(
                    f"rank mismatch at vertex '{v}': outgoing edge blocks give "
                    f"{offset} vectors but the vertex projection has rank {free[v].shape[1]}"
                )
            gram_err = float(np.abs(b.conj().T @ b - np.eye(offset)).max())
            if not gram_err <= tols.rep:
                raise AlignmentError(
                    f"assembled block at vertex '{v}' is not orthonormal "
                    f"(deviation {gram_err:.3e}); the input matrices likely violate "
                    "the graph relations"
                )
        span_err = float(np.abs(rep.vertex_matrices[v] @ b - b).max())
        if not span_err <= tols.b2b:
            raise AlignmentError(
                f"block assembled for vertex '{v}' leaves its projection's range "
                f"(deviation {span_err:.3e})"
            )
        vertex_vecs[v] = b

    complement = _svd_basis(_leftover(rep, g), tols.rank)
    if complement.shape[1] != rep.complement_dim:
        raise AlignmentError(
            f"complement has rank {complement.shape[1]} but the representation "
            f"declares {rep.complement_dim}"
        )

    columns = [vertex_vecs[v] for v in g.vertices] + [complement]
    basis = np.hstack(columns)
    if basis.shape != (rep.dim, rep.dim):
        raise AlignmentError(
            f"vertex blocks plus complement give {basis.shape[1]} vectors "
            f"in dimension {rep.dim}"
        )
    unitary_err = float(np.abs(basis.conj().T @ basis - np.eye(rep.dim)).max())
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
        width = vertex_vecs[e.rng].shape[1]
        start = edge_offsets[e.id]
        edge_bases[e.id] = vertex_bases[e.src][start : start + width]
    return BasisAssignment(
        global_basis=basis, vertex_bases=vertex_bases, edge_bases=edge_bases
    )


# -- the block-to-block condition and extraction ------------------------------


def _b2b_matches(
    rep: ConcreteRepresentation,
    ba: BasisAssignment,
    g: DirectedGraph,
    tol: float,
    allow_phase: bool,
) -> tuple[Report, dict[str, dict[int, int]]]:
    items: list[CheckItem] = []
    matches: dict[str, dict[int, int]] = {}
    for e in g.edges:
        dom = ba.vertex_bases[e.rng]
        tgt = ba.edge_bases[e.id]
        if len(dom) != len(tgt):
            items.append(
                CheckItem(
                    e.id,
                    FAIL,
                    {"domainSize": len(dom), "imageBlockSize": len(tgt)},
                )
            )
            continue
        images = rep.edge_matrices[e.id] @ ba.global_basis[:, list(dom)]
        targets = ba.global_basis[:, list(tgt)]
        used: set[int] = set()
        mapping: dict[int, int] = {}
        witness = None
        for k in range(len(dom)):
            img = images[:, k]
            best = None
            best_resid = np.inf
            for t in range(len(tgt)):
                if t in used:
                    continue
                tv = targets[:, t]
                if allow_phase:
                    # the unit phase that best aligns tv with img (1 if orthogonal)
                    inner = complex(np.vdot(tv, img))
                    tv = tv * (inner / abs(inner) if inner else 1.0)
                resid = float(np.linalg.norm(img - tv))
                if resid < best_resid:
                    best, best_resid = t, resid
            if not best_resid <= tol:
                witness = {
                    "edge": e.id,
                    "domainIndex": dom[k],
                    "bestResidual": None if best is None else best_resid,
                }
                break
            used.add(best)
            mapping[dom[k]] = tgt[best]
        if witness is None:
            matches[e.id] = mapping
            items.append(CheckItem(e.id, PASS, None))
        else:
            items.append(CheckItem(e.id, FAIL, witness))
    return Report(tuple(items)), matches


def check_b2b(
    rep: ConcreteRepresentation,
    ba: BasisAssignment,
    g: DirectedGraph,
    tols: Tolerances = Tolerances(),
    allow_phase: bool = False,
) -> Report:
    """Per-edge check that the edge operator maps block onto block, bijectively.

    Each item is named by its edge; a failure's witness carries the first
    domain basis vector whose image misses every unmatched target vector.
    """
    report, _ = _b2b_matches(rep, ba, g, tols.b2b, allow_phase)
    return report


def extract_branching_system(
    rep: ConcreteRepresentation,
    ba: BasisAssignment,
    g: DirectedGraph,
    tols: Tolerances = Tolerances(),
) -> EquivalenceCertificate:
    """Read a unit-weight branching system off an adapted basis assignment.

    The universe is the basis-column index set {0..N-1}; domain sets come
    from the vertex blocks, range sets from the edge blocks, and each edge's
    bijection from the block-to-block matching. The returned unitary sends
    the k-th global basis vector to the k-th standard coordinate vector.
    Residuals start empty; ``verify_equivalence`` fills them.
    """
    report, matches = _b2b_matches(rep, ba, g, tols.b2b, allow_phase=False)
    if not report.passed:
        bad = report.failures()[0]
        raise AlignmentError(
            f"block-to-block condition fails at edge '{bad.item}': {bad.witness}"
        )
    system = DiscreteBranchingSystem(
        universe=tuple(range(rep.dim)),
        range_sets={e.id: frozenset(ba.edge_bases[e.id]) for e in g.edges},
        domain_sets={v: frozenset(ba.vertex_bases[v]) for v in g.vertices},
        edge_maps=matches,
    )
    system_report = validate(system, g)
    if not system_report.passed:
        bad = system_report.failures()[0]
        raise AlignmentError(
            f"extracted system violates branching condition {bad.item}: {bad.witness}"
        )
    return EquivalenceCertificate(
        system=system, unitary=ba.global_basis.conj().T
    )


def verify_equivalence(
    rep: ConcreteRepresentation,
    cert: EquivalenceCertificate,
    g: DirectedGraph,
    tols: Tolerances = Tolerances(),
) -> EquivalenceCertificate:
    """Measure how exactly the certificate reproduces the representation.

    For every generator the canonical matrix of the extracted system is
    conjugated back through the unitary and compared against the input in
    Frobenius norm; the certificate comes back with those residuals filled.
    The unitary must be unitary to within ``tols.rep``.
    """
    n = rep.dim
    u = cert.unitary
    if u.shape != (n, n):
        raise AlignmentError(f"unitary has shape {u.shape}, expected {(n, n)}")
    unitary_err = float(np.abs(u @ u.conj().T - np.eye(n)).max())
    if not unitary_err <= tols.rep:
        raise AlignmentError(f"certificate matrix is not unitary (deviation {unitary_err:.3e})")
    if len(cert.system.universe) != n:
        raise AlignmentError(
            f"system universe has {len(cert.system.universe)} indices, expected {n}"
        )
    fam = induce(cert.system, g)
    u_star = u.conj().T
    edge_residuals = {}
    for e in g.edges:
        target = wpi_matrix(fam.edge_ops[e.id], n)
        edge_residuals[e.id] = float(
            np.linalg.norm(u_star @ target @ u - rep.edge_matrices[e.id])
        )
    vertex_residuals = {}
    for v in g.vertices:
        target = wpi_matrix(fam.vertex_projs[v].as_partial_isometry(), n)
        vertex_residuals[v] = float(
            np.linalg.norm(u_star @ target @ u - rep.vertex_matrices[v])
        )
    return dataclasses.replace(
        cert, edge_residuals=edge_residuals, vertex_residuals=vertex_residuals
    )


# -- JSON interchange ---------------------------------------------------------

_REP_FIELDS = frozenset({"dim", "complementDim", "edges", "vertices"})


def _matrix_to_pairs(m: np.ndarray) -> list[list[float]]:
    return [[float(z.real), float(z.imag)] for z in m.reshape(-1)]


def rep_to_json(rep: ConcreteRepresentation) -> dict:
    return {
        "dim": rep.dim,
        "complementDim": rep.complement_dim,
        "edges": {k: _matrix_to_pairs(m) for k, m in rep.edge_matrices.items()},
        "vertices": {k: _matrix_to_pairs(m) for k, m in rep.vertex_matrices.items()},
    }


def _pairs_to_matrix(entries: object, dim: int, where: str) -> np.ndarray:
    if not isinstance(entries, list) or len(entries) != dim * dim:
        raise RepresentationError(
            f"{where} must be a flat row-major list of {dim * dim} [re, im] pairs"
        )
    flat = np.empty(dim * dim, dtype=complex)
    for i, pair in enumerate(entries):
        if (
            not isinstance(pair, list)
            or len(pair) != 2
            or any(isinstance(x, bool) or not isinstance(x, (int, float)) for x in pair)
        ):
            raise RepresentationError(f"{where}[{i}] must be an [re, im] pair of numbers")
        flat[i] = complex(pair[0], pair[1])
    return flat.reshape(dim, dim)


def rep_from_json(doc: object) -> ConcreteRepresentation:
    if not isinstance(doc, dict):
        raise RepresentationError("representation document must be an object")
    unknown = set(doc) - _REP_FIELDS
    if unknown:
        raise RepresentationError(f"unknown top-level field(s): {sorted(unknown)}")
    for fieldname in _REP_FIELDS:
        if fieldname not in doc:
            raise RepresentationError(f"missing required field '{fieldname}'")
    dim = doc["dim"]
    comp = doc["complementDim"]
    if not isinstance(dim, int) or isinstance(dim, bool) or dim <= 0:
        raise RepresentationError("'dim' must be a positive integer")
    if not isinstance(comp, int) or isinstance(comp, bool) or comp < 0:
        raise RepresentationError("'complementDim' must be a nonnegative integer")
    if not isinstance(doc["edges"], dict) or not isinstance(doc["vertices"], dict):
        raise RepresentationError("'edges' and 'vertices' must be objects")
    edge_matrices = {
        k: _pairs_to_matrix(v, dim, f"edges[{k!r}]") for k, v in doc["edges"].items()
    }
    vertex_matrices = {
        k: _pairs_to_matrix(v, dim, f"vertices[{k!r}]") for k, v in doc["vertices"].items()
    }
    return ConcreteRepresentation(
        dim=dim,
        complement_dim=comp,
        edge_matrices=edge_matrices,
        vertex_matrices=vertex_matrices,
    )
