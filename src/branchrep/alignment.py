"""Aligning a concrete representation with a canonical branching-system model.

Given matrices satisfying the graph relations on C^N, this module chooses an
orthonormal basis adapted to the graph (one block per vertex plus a
complement), checks that every edge operator carries its range vertex's block
bijectively onto a sub-block of the source vertex, and extracts from that a
discrete branching system together with the change-of-basis unitary. Blocks
are built sinks first: a sink's block is a basis of its projection's range,
and any other vertex's block is its out-edges' images of their range
vertices' blocks, side by side. Such an order exists exactly when the graph
has no directed cycle, and that alone decides whether the construction
applies: parallel edges and undirected cycles break nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, combinations
from typing import Mapping, Optional

import numpy as np

from .branching import DiscreteBranchingSystem, synthesize, validate
from .graph import DirectedGraph, GraphError, sink_first_order
from .operators import OperatorError, induce
from .report import FAIL, PASS, CheckItem, Report, Tolerances, first_witness

# the residual default as a plain name, for callers that compare against it
RESIDUAL_TOL = Tolerances.residual


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
    inside its source vertex). The order of ``edge_bases[e]`` is the
    bijection f_e: S_e must carry column ``vertex_bases[rng(e)][k]`` onto
    column ``edge_bases[e][k]``. Every index must be an int in
    0..N-1, N being the number of columns; else AlignmentError.
    """

    global_basis: np.ndarray
    vertex_bases: dict[str, tuple[int, ...]]
    edge_bases: dict[str, tuple[int, ...]]

    def __post_init__(self):
        n = self.global_basis.shape[1]
        for label, bases in (("vertex", self.vertex_bases), ("edge", self.edge_bases)):
            for key, columns in bases.items():
                for i in columns:
                    if type(i) is not int or not 0 <= i < n:
                        raise AlignmentError(
                            f"{label} '{key}' names column {i!r}, which is not "
                            f"an int in 0..{n - 1}"
                        )


@dataclass(frozen=True, eq=False)
class EquivalenceCertificate:
    """A branching system, a unitary, and how well they reproduce the input.

    The residuals are None, so ``max_residual`` is NaN and the certificate
    does not pass, until ``verify_equivalence`` measures them. They are not
    constructor arguments: only ``verify_equivalence`` sets them, for the
    system and unitary it measured, and ``dataclasses.replace`` of either
    gives a certificate whose residuals are None again.
    """

    system: DiscreteBranchingSystem
    unitary: np.ndarray
    edge_residuals: Optional[dict[str, float]] = field(default=None, init=False)
    vertex_residuals: Optional[dict[str, float]] = field(default=None, init=False)

    @property
    def max_residual(self) -> float:
        """The largest residual; NaN if any is NaN or they are not yet measured."""
        if self.edge_residuals is None or self.vertex_residuals is None:
            return np.nan
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

    A screen first builds one orthonormal basis per vertex range and forms
    one Gram matrix of the stacked vertex bases and one of the stacked edge
    images. From these, measured residuals and Higham's rounding bounds it
    bounds, per generator for the projections item and items ii, iii and v
    and per pair for items i and iv, the largest entry the check would
    compute (see ``_pair_screen``); that costs O((V + E)·N²·k) plus about
    two N×N×N products' worth of thin ones. A name whose bound is within
    ``tols.rep`` is cleared; only the others get their N×N products, in the
    same order as before, so the first witness and its float value are
    unchanged. The projections bound covers self-adjointness as well as
    idempotency, so a cleared vertex forms neither P_v − P_v* nor P_v·P_v.
    The bounds hold for any computed basis, so a poor basis or a dishonest
    input can only leave generators to the exact products. The screen is
    skipped, and everything gets its products, when an entry is non-finite,
    when a vertex trace rounds outside [0, N], or when the vertex bases or
    the edge images would stack wider than N. The complement's rank comes
    from ``_svd_rank``, which proves it without an SVD where it can.
    """
    if set(rep.edge_matrices) != {e.id for e in g.edges}:
        raise RepresentationError("edge matrices do not match the graph's edges")
    if set(rep.vertex_matrices) != set(g.vertices):
        raise RepresentationError("vertex matrices do not match the graph's vertices")

    p = rep.vertex_matrices
    s = rep.edge_matrices
    bounds = _pair_screen(rep, g)

    def cleared(item, *at):
        # at: a generator's document position, or a pair's two
        return bounds is not None and bounds[item][at] <= tols.rep

    def projections():
        for i, v in enumerate(g.vertices):
            if cleared("projections", i):
                continue
            herm = float(np.abs(p[v] - p[v].conj().T).max())
            idem = float(np.abs(p[v] @ p[v] - p[v]).max())
            if not (idem <= tols.rep and herm <= tols.rep):
                yield {"vertex": v, "idempotencyError": idem, "selfAdjointnessError": herm}

    def over_tol(cases):
        # cases: lazy (witness fields, deviation matrix) pairs
        for where, deviation in cases:
            err = float(np.abs(deviation).max())
            if not err <= tols.rep:
                yield {**where, "error": err}

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
        for (i, a), (j, b) in combinations(enumerate(g.vertices), 2)
        if not cleared("i", i, j)
    )
    isometries = (
        ({"edge": e.id}, s[e.id].conj().T @ s[e.id] - p[e.rng])
        for i, e in enumerate(g.edges)
        if not cleared("ii", i)
    )
    edge_pairs = (
        ({"edges": [e.id, f.id]}, s[e.id].conj().T @ s[f.id])
        for i, e in enumerate(g.edges)
        for j, f in enumerate(g.edges)
        if i != j and not cleared("iv", i, j)
    )

    def ranges():
        for i, e in enumerate(g.edges):
            if not cleared("iii", i):
                q = s[e.id] @ s[e.id].conj().T
                yield {"edge": e.id}, p[e.src] @ q - q

    sums = (
        ({"vertex": v}, sum(s[e.id] @ s[e.id].conj().T for e in g.out_edges(v)) - p[v])
        for i, v in enumerate(g.vertices)
        if g.out_edges(v) and not cleared("v", i)
    )
    return Report(
        (
            first_witness("projections", projections()),
            first_witness("i", over_tol(vertex_pairs)),
            first_witness("ii", over_tol(isometries)),
            first_witness("iii", over_tol(ranges())),
            first_witness("iv", over_tol(edge_pairs)),
            first_witness("v", over_tol(sums)),
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


def _inflation(n: int) -> float:
    """The factor on every screen and rank-proof bound for N = n: each is a sum
    or product of nonnegative computed values, each rounded by at most γ(n²)
    relative to its size, as is the check's own last subtraction."""
    return 1 + _gamma(2 * n * n + 64)


def _gram_bounds(blocks: list[np.ndarray], n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Bounds read off one Gram matrix of the column blocks T_1, …, T_m of C^n.

    Returns ``h``, ``t`` and ``t_fro``: h[a, b] ≥ ‖T_a*·T_b‖₂ for a ≠ b,
    h[a, a] ≥ ‖T_a*·T_a − I‖₂, t[a] = √(1 + h[a, a]) ≥ ‖T_a‖₂ and
    t_fro[a] ≥ ‖T_a‖_F. Each h is the Frobenius norm of a block of the
    computed Gram matrix plus its rounding, γ(n)·t_fro[a]·t_fro[b] (see
    ``_residual``), and the underflow allowance.
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
    return h, np.sqrt(1.0 + np.diag(h)), t_fro


def _residual(
    m: np.ndarray, left: np.ndarray, left_fro: float, right: np.ndarray, right_fro: float
) -> float:
    """An upper bound on ‖m − left·right*‖_F ≥ ‖·‖₂, the product taken exactly.

    ``left_fro`` and ``right_fro`` bound the factors' Frobenius norms; the
    rounding of the product formed here, of inner dimension k, is charged
    γ(k)·left_fro·right_fro (Higham, §3.5), the screen's one rounding rule.
    """
    k = left.shape[1]
    w = left @ right.conj().T
    w -= m  # in place: the sign does not change the norm
    computed = float(np.sqrt(np.vdot(w, w).real))
    return computed / (1 - _EPS) + _gamma(k) * left_fro * right_fro + len(m) * _UNDERFLOW


def _gaussian(n: int, k: int) -> np.ndarray:
    """The range finders' test matrix: a fixed-seed complex Gaussian, n×k."""
    return np.random.default_rng(0).standard_normal((n, 2 * k)).view(complex)


def _pair_screen(
    rep: ConcreteRepresentation, g: DirectedGraph
) -> Optional[dict[str, np.ndarray]]:
    """Upper bounds, per relation item, on the largest entry that
    ``check_representation`` would compute for each generator or pair.

    Keyed by item, each a float array indexed by document position:
    'projections', 'ii', 'iii' and 'v' by vertex, edge, edge and vertex, 'i'
    by a pair of vertex positions and 'iv' by an ordered pair of edge
    positions. The diagonals of 'i' and 'iv' are inf, as a generator is not
    paired with itself, and so is 'v' at a vertex with no out-edge, which
    has no item v. The check clears a name whose bound is within its
    tolerance. None means the screen is skipped: the graph has no vertex,
    a matrix's entry sum is non-finite (as it is whenever an entry is), a
    vertex trace rounds outside [0, N], or the vertex bases or the edge
    images stack wider than N.

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

    The other items reuse these: per vertex, item i's t and q as
    β_v ≥ ‖B_v‖₂ and r_v ≥ ‖P_v − B_v·B_v*‖₂, with h_vv ≥ ‖B_v*·B_v − I‖₂
    and p_v = β_v² + r_v ≥ ‖P_v‖₂; per edge, item iv's t and q as
    τ_e ≥ ‖T_e‖₂ and q_e ≥ ‖S_e − T_e·B_rng*‖₂, with h_ee ≥ ‖T_e*·T_e − I‖₂
    and x_e ≥ ‖S_e‖₂. Writing β for β_rng(e),

        projections  ‖P_v² − P_v‖₂ ≤ β_v²·h_vv + 2β_v²·r_v + r_v² + r_v
        ii   ‖S_e*·S_e − P_rng‖₂ ≤ β²·h_ee + r_rng + 2β·τ_e·q_e + q_e²
        iii  ‖(P_src − I)·S_e·S_e*‖₂ ≤ (‖P_src·T_e − T_e‖₂·β + ‖P_src − I‖₂·q_e)·x_e
        v    ‖Σ S_e·S_e* − P_v‖₂ ≤ ‖W_v·W_v* − P_v‖₂ + Σ (τ_e²·h_rng + 2τ_e·β·q_e + q_e²)

    with ‖P_v − I‖₂ ≤ max(1, h_vv) + r_v and W_v = [T_e] over v's out-edges.
    The projections bound also covers self-adjointness: ‖P_v − P_v*‖₂ ≤
    2‖P_v − B_v·B_v*‖₂ ≤ 2r_v ≤ β_v²·2r_v, since β_v = √(1 + h_vv) ≥ 1,
    and the inflation covers the one rounding of each entry of P_v − P_v*.
    ‖P_src·T_e − T_e‖₂ (an N×N×k product per edge) and ‖W_v·W_v* − P_v‖₂
    (an N×K×N one per emitter) are measured as q is, their rounding charged
    to ‖P_v‖_F ≤ ‖B_v‖_F·β_v + r_v, ‖T_e‖_F and ‖W_v‖_F = √(Σ ‖T_e‖_F²):
    about γ(N)·√(k_src·k_e) for P_src·T_e, not a 2-norm rule's γ(N)·N.
    Each bound also covers the rounding of what the check forms: γ(N)·p_v²
    for P_v·P_v, γ(N)·x_e² for S_e*·S_e, γ(N + out-degree)·Σ x_e² for the
    summed S_e·S_e*, and γ(N)·x_e²·(√N·‖P_src − I‖₂ + p_src·(1 + √N·γ(N)))
    for P_src·(S_e·S_e*). Every term holds for whatever B_v and T_e were
    computed, so a wrong k_v, an oblique projection or a dishonest input
    only leaves generators and pairs uncleared.
    """
    p = rep.vertex_matrices
    s = rep.edge_matrices
    n = rep.dim
    if not g.vertices:
        return None
    # a sum is non-finite whenever an entry is; one that overflows only skips
    with np.errstate(over="ignore", invalid="ignore"):
        if not all(np.isfinite(m.sum()) for m in (*p.values(), *s.values())):
            return None
    traces = np.array([np.trace(p[v]).real for v in g.vertices])
    if not np.all((-0.5 < traces) & (traces < n + 0.5)):
        return None
    ranks = dict(zip(g.vertices, np.rint(traces).astype(int).tolist()))
    if sum(ranks.values()) > n or sum(ranks[e.rng] for e in g.edges) > n:
        return None

    gamma = _gamma(n)
    inflate = _inflation(n)

    def pairs(h, t, c, q):
        x = t * c + q
        bound = np.outer(c, c) * h + np.outer(c * t, q) + np.outer(q, x)
        bound += gamma * np.outer(x, x)
        bound *= inflate
        np.fill_diagonal(bound, np.inf)
        return bound

    omega = _gaussian(n, max(ranks.values()))
    by_vertex = {}
    for k in set(ranks.values()):  # one batched QR per distinct rank
        group = [v for v in g.vertices if ranks[v] == k]
        qs, _ = np.linalg.qr(np.stack([p[v] @ omega[:, :k] for v in group]))
        by_vertex.update(zip(group, qs))
    bases = [by_vertex[v] for v in g.vertices]
    h_i, beta, beta_fro = _gram_bounds(bases, n)
    r = np.array([_residual(p[v], b, f, b, f) for v, b, f in zip(g.vertices, bases, beta_fro)])
    h_vv = np.diag(h_i)
    p_norm = beta**2 + r
    p_fro = beta_fro * beta + r
    bounds = {
        "projections": (beta**2 * (h_vv + 2 * r) + r**2 + r + gamma * p_norm**2) * inflate,
        "i": pairs(h_i, beta, beta, r),
    }
    bound_v = np.full(len(g.vertices), np.inf)
    if not g.edges:
        empty = {"ii": np.empty(0), "iii": np.empty(0), "iv": np.empty((0, 0))}
        return {**bounds, **empty, "v": bound_v}

    rng_of = [g.vertex_position(e.rng) for e in g.edges]
    src_of = [g.vertex_position(e.src) for e in g.edges]
    images = [s[e.id] @ bases[i] for e, i in zip(g.edges, rng_of)]
    h_iv, tau, tau_fro = _gram_bounds(images, n)
    c = beta[rng_of]
    q = np.array([
        _residual(s[e.id], image, f, bases[i], beta_fro[i])
        for e, image, f, i in zip(g.edges, images, tau_fro, rng_of)
    ])
    x = tau * c + q
    bounds["iv"] = pairs(h_iv, tau, c, q)
    bounds["ii"] = (
        c**2 * np.diag(h_iv) + r[rng_of] + 2 * c * tau * q + q**2 + gamma * x**2
    ) * inflate

    # ‖P_src·T_e − T_e‖₂, as the residual of T_e against the product P_src·T_e
    to_src = np.array([
        _residual(image, p[e.src], p_fro[i], image.conj().T, f)
        for e, image, f, i in zip(g.edges, images, tau_fro, src_of)
    ])
    off = (np.maximum(1.0, h_vv) + r)[src_of]
    rounding = gamma * x**2 * (np.sqrt(n) * off + p_norm[src_of] * (1 + np.sqrt(n) * gamma))
    bounds["iii"] = ((to_src * c + off * q) * x + rounding) * inflate

    spread = tau**2 * h_vv[rng_of] + 2 * tau * c * q + q**2
    for i, v in enumerate(g.vertices):
        out = [g.edge_position(e.id) for e in g.out_edges(v)]
        if out:
            w = np.hstack([images[j] for j in out])
            w_fro = float(np.sqrt(np.sum(tau_fro[out] ** 2)))
            bound_v[i] = (
                _residual(p[v], w, w_fro, w, w_fro)
                + spread[out].sum()
                + _gamma(n + len(out)) * np.sum(x[out] ** 2)
            ) * inflate
    bounds["v"] = bound_v
    return bounds


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
) -> ConcreteRepresentation:
    """A representation of the graph relations, honest by construction.

    Starts from the canonical model of the synthesized branching system,
    twists each edge operator S_e by a Haar unitary H_e of its range
    vertex's block (one per edge, drawn in document order), then conjugates
    everything by one global Haar unitary G, drawn last. The exact 0/1
    canonical matrices are ``to_matrix`` of ``induce(synthesize(...))``. The
    result is not checked here; callers that need a report run
    ``check_representation`` on it.

    The canonical model is read off the system's index maps (``synthesize``
    builds it valid, with unit weights); no operator is formed. A vertex
    projection's conjugate is one gathered product G[:, d]·G*[d, :], d the
    sorted D_v (``_conjugate``), and a twisted edge's is
    (G[:, js]·H_e)·G*[block, :], block the sorted D_rng(e) and js[x] = f_e(x):
    O(N²·k) per generator instead of two N×N×N products.
    """
    bs = synthesize(g, sink_dims, slack=complement_dim)
    n = len(bs.universe)
    if n <= 0:
        # the same error ConcreteRepresentation raises, before any Haar draw
        raise RepresentationError(f"dim must be positive, got {n}")
    domains = {v: sorted(bs.domain_sets[v]) for v in g.vertices}
    rng = np.random.default_rng(seed)
    twists = {e.id: haar_unitary(len(domains[e.rng]), rng) for e in g.edges}
    gmat = haar_unitary(n, rng)
    gstar = gmat.conj().T
    edge_mats = {}
    for e in g.edges:
        block = domains[e.rng]
        js = [bs.edge_maps[e.id][x] for x in block]
        edge_mats[e.id] = (gmat[:, js] @ twists[e.id]) @ gstar[block, :]
    vertex_mats = {v: _conjugate(gstar, gmat, d, d) for v, d in domains.items()}
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
        leftover -= rep.vertex_matrices[v]
    return leftover


# a product that overflows leaves a non-finite bound, which proves nothing;
# the SVD then decides, so numpy is kept from warning about it
@np.errstate(invalid="ignore", over="ignore")
def _proved_rank(m: np.ndarray, lo: float, hi: float) -> Optional[tuple[int, np.ndarray]]:
    """The rank of m and an orthonormal basis of its range, when no singular
    value can lie in (lo, hi); else None.

    With k = round(Re tr m) and Q the Q factor of m·Ω (Ω the range finders'
    fixed-seed Gaussian with k columns), bounds h ≥ ‖Q*Q − I‖₂ and
    r ≥ ‖m − QQ*‖₂, formed as ``_pair_screen`` forms them, put k singular
    values of m at or above 1 − h − r and the other N − k at or below r
    (Weyl's inequality). So r < lo and, for k > 0, 1 − h − r > hi prove
    that the rank is k and that no singular value lies in the band; then Q
    is returned with k. Its columns are orthonormal to within h, and its
    range is m's to within r: a randomized range finder (Halko, Martinsson
    & Tropp, SIAM Review 53(2), 2011) with a certificate. None when the
    bounds do not prove the rank, or when the trace lies outside
    (−0.5, N + 0.5) or is not finite.
    """
    n = len(m)
    trace = np.trace(m).real
    if not -0.5 < trace < n + 0.5:
        return None
    k = int(np.rint(trace))
    q, _ = np.linalg.qr(m @ _gaussian(n, k))
    # _gram_bounds' allowances for the one block q, inline: at small N its
    # multi-block bookkeeping costs about what the SVD this replaces does
    dev = q.conj().T @ q - np.eye(k)
    q_fro = float(np.sqrt(np.vdot(q, q).real)) + np.sqrt(n * k) * _UNDERFLOW
    h = float(np.sqrt(np.vdot(dev, dev).real)) + k * _UNDERFLOW + _gamma(n) * q_fro**2
    r = _residual(m, q, q_fro, q, q_fro)
    h, r = h * _inflation(n), r * _inflation(n)
    return (k, q) if r < lo and (k == 0 or 1 - h - r > hi) else None


def _svd_rank(
    m: np.ndarray, rank_tol: float, compute_uv: bool
) -> tuple[int, Optional[np.ndarray]]:
    """Numerical rank of m, and an orthonormal basis of its range when
    ``compute_uv``.

    Singular values above ``rank_tol`` count. One inside the open band
    (lo, hi) = (rank_tol·1e-2, rank_tol·1e2) is neither clearly zero nor
    clearly not, so the rank is refused with DegenerateRankError rather than
    guessed; so is the rank of a matrix with a non-finite entry or on which
    the SVD fails. The rank, and the basis, come from ``_proved_rank`` where
    it proves them (it proves nothing on a non-finite entry). Only where it
    does not is an SVD taken, once: values only, or with the left singular
    vectors of the counted singular values when ``compute_uv``. That SVD
    decides as it would have without the proof, and a refusal quotes its
    digits.
    """
    lo, hi = rank_tol * 1e-2, rank_tol * 1e2
    proved = _proved_rank(m, lo, hi)
    if proved is not None:
        rank, q = proved
        return rank, q if compute_uv else None
    if not np.isfinite(m).all():
        raise DegenerateRankError("matrix has non-finite entries; rank is undefined")
    try:
        if compute_uv:
            u, sv, _ = np.linalg.svd(m)
        else:
            u, sv = None, np.linalg.svd(m, compute_uv=False)
    except np.linalg.LinAlgError as err:
        raise DegenerateRankError(f"SVD failed ({err}); rank is undefined") from None
    shady = [float(x) for x in sv if lo < x < hi]
    if shady:
        raise DegenerateRankError(
            f"singular value(s) {shady} fall between {lo} and {hi}; "
            "rank is numerically ambiguous"
        )
    rank = int((sv > rank_tol).sum())
    # a copy, so that the basis does not keep the whole N×N factor alive
    return rank, None if u is None else u[:, :rank].copy()


def _svd_basis(m: np.ndarray, rank_tol: float) -> np.ndarray:
    """Orthonormal basis, as columns, of the range of m (see ``_svd_rank``)."""
    return _svd_rank(m, rank_tol, compute_uv=True)[1]


# -- the sink-first basis construction ---------------------------------------


def _construction_order(g: DirectedGraph) -> list[str]:
    """The sink-first order ``align_bases`` settles vertices in.

    NotApplicableError when the graph has a directed cycle, so the
    construction does not apply; it costs O(V + E), so callers can refuse
    such a graph before any dense work.
    """
    try:
        return sink_first_order(g)
    except GraphError as err:
        raise NotApplicableError(f"{err}; the alignment construction is not applicable") from None


def align_bases(
    rep: ConcreteRepresentation,
    g: DirectedGraph,
    tols: Tolerances = Tolerances(),
) -> BasisAssignment:
    """Choose the adapted global basis, settling vertices sinks first.

    The construction applies exactly to graphs with no directed cycle, the
    graphs ``sink_first_order`` can order; NotApplicableError says a graph
    has one, before any rank is read. Every vertex's projection is then
    read, in document order, through ``_svd_basis``: its rank and a free
    basis of its range come from the rank proof's thin QR where
    ``_proved_rank`` proves them, as it does on honest input of moderate
    rank, and from one full SVD where it fails, whose digits word any
    refusal. A sink or an isolated vertex keeps the basis, an emitter only
    its width, the rank. Vertices are settled in the construction order:
    an emitter's block is S_e·B_rng(e) for its out-edges e, side by side in
    document order, which must have that rank. Isolated vertices keep their
    free basis unchecked, and the complement gets one the same way as a
    sink. Singular values are cut at ``tols.rank``; assembled blocks and the
    global basis must be orthonormal to within ``tols.rep``, and each block
    must lie in its projection's range to within ``tols.b2b``.
    """
    order = _construction_order(g)

    free = {}  # a sink's or isolated vertex's free basis, an emitter's rank
    for v in g.vertices:
        basis = _svd_basis(rep.vertex_matrices[v], tols.rank)
        free[v] = basis.shape[1] if g.out_edges(v) else basis
    vertex_vecs: dict[str, np.ndarray] = {}
    edge_offsets: dict[str, int] = {}
    for v in order:
        if not g.incident(v):
            vertex_vecs[v] = free[v]  # an isolated vertex's block goes unchecked
            continue
        out = g.out_edges(v)
        if not out:
            b = free[v]
        else:
            images = []
            offset = 0
            for e in out:
                edge_offsets[e.id] = offset
                images.append(rep.edge_matrices[e.id] @ vertex_vecs[e.rng])
                offset += images[-1].shape[1]
            if offset != free[v]:
                raise AlignmentError(
                    f"rank mismatch at vertex '{v}': outgoing edge blocks give "
                    f"{offset} vectors but the vertex projection has rank {free[v]}"
                )
            b = np.hstack(images)
            gram_err = float(np.abs(b.conj().T @ b - np.eye(offset)).max(initial=0.0))
            if not gram_err <= tols.rep:
                raise AlignmentError(
                    f"assembled block at vertex '{v}' is not orthonormal "
                    f"(deviation {gram_err:.3e}); the input matrices likely violate "
                    "the graph relations"
                )
        span_err = float(np.abs(rep.vertex_matrices[v] @ b - b).max(initial=0.0))
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


# a non-finite entry gives a NaN residual, which fails its item; numpy is
# kept from also warning about it
@np.errstate(invalid="ignore", over="ignore")
def check_b2b(
    rep: ConcreteRepresentation,
    ba: BasisAssignment,
    g: DirectedGraph,
    tols: Tolerances = Tolerances(),
) -> Report:
    """Per-edge check that S_e carries its range vertex's block onto its own
    block along the bijection the assignment names.

    Basis vector ``vertex_bases[rng(e)][k]`` must go to basis vector
    ``edge_bases[e][k]`` itself, within ``tols.b2b`` in norm: the match is
    strict and positional, as in a branching system, so neither a phase
    multiple nor another vector of the block will do. Each item is named by
    its edge; a failure's witness carries the first domain basis vector
    whose residual is not within the tolerance (a NaN fails), and that
    residual.
    """
    items: list[CheckItem] = []
    for e in g.edges:
        dom = list(ba.vertex_bases[e.rng])
        tgt = list(ba.edge_bases[e.id])
        if len(dom) != len(tgt):
            items.append(
                CheckItem(
                    e.id,
                    FAIL,
                    {"domainSize": len(dom), "imageBlockSize": len(tgt)},
                )
            )
            continue
        images = rep.edge_matrices[e.id] @ ba.global_basis[:, dom]
        residuals = np.linalg.norm(images - ba.global_basis[:, tgt], axis=0)
        misses = ~(residuals <= tols.b2b)
        if misses.any():
            k = int(misses.argmax())
            witness = {"edge": e.id, "domainIndex": dom[k], "residual": float(residuals[k])}
            items.append(CheckItem(e.id, FAIL, witness))
        else:
            items.append(CheckItem(e.id, PASS, None))
    return Report(tuple(items))


def extract_branching_system(
    rep: ConcreteRepresentation,
    ba: BasisAssignment,
    g: DirectedGraph,
    tols: Tolerances = Tolerances(),
) -> EquivalenceCertificate:
    """Read a unit-weight branching system off an adapted basis assignment.

    The universe is the basis-column index set {0..N-1}; domain sets come
    from the vertex blocks, range sets from the edge blocks, and each edge's
    bijection f_e pairs ``vertex_bases[rng(e)]`` with ``edge_bases[e]``
    position by position, once ``check_b2b`` passes (else AlignmentError).
    The returned unitary sends the k-th global basis vector to the k-th
    standard coordinate vector. The residuals are None, and the
    certificate cannot pass, until ``verify_equivalence`` fills them.
    """
    report = check_b2b(rep, ba, g, tols)
    if not report.passed:
        bad = report.failures()[0]
        raise AlignmentError(
            f"block-to-block condition fails at edge '{bad.item}': {bad.witness}"
        )
    return _certificate(rep, ba, g)


def _certificate(
    rep: ConcreteRepresentation,
    ba: BasisAssignment,
    g: DirectedGraph,
) -> EquivalenceCertificate:
    """The certificate ``extract_branching_system`` builds once ``check_b2b``
    has passed on the same assignment."""
    system = DiscreteBranchingSystem(
        universe=tuple(range(rep.dim)),
        range_sets={e.id: frozenset(ba.edge_bases[e.id]) for e in g.edges},
        domain_sets={v: frozenset(ba.vertex_bases[v]) for v in g.vertices},
        edge_maps={
            e.id: dict(zip(ba.vertex_bases[e.rng], ba.edge_bases[e.id]))
            for e in g.edges
        },
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


def _conjugate(u: np.ndarray, u_star: np.ndarray, xs: list, js: list, amps=None) -> np.ndarray:
    """U*·T·U for T sending xs[i] to js[i] with amplitude amps[i], as one gathered product.

    T has one nonzero per pair, so the product is (U*[:, js]·diag(amps))·U[xs, :]:
    an N×k by k×N product instead of two N×N×N ones. ``amps`` of None means
    a projection (all ones). A pair outside 0..N-1 raises OperatorError.
    """
    n = len(u)
    indices = (*xs, *js)
    if indices and not (0 <= min(indices) and max(indices) < n):
        x, j = next((x, j) for x, j in zip(xs, js) if not (0 <= x < n and 0 <= j < n))
        raise OperatorError(f"index pair ({x}, {j}) outside matrix size {n}")
    left = u_star[:, js] if amps is None else u_star[:, js] * amps
    return left @ u[xs, :]


def verify_equivalence(
    rep: ConcreteRepresentation,
    cert: EquivalenceCertificate,
    g: DirectedGraph,
    tols: Tolerances = Tolerances(),
) -> EquivalenceCertificate:
    """Measure how exactly the certificate reproduces the representation.

    For every generator the canonical operator of the extracted system is
    conjugated back through the unitary and compared against the input in
    Frobenius norm; the certificate comes back with those residuals filled.
    Each conjugate is one O(N²·k) gathered product (see ``_conjugate``)
    rather than two dense N×N×N ones: a vertex projection's from its sorted
    support, an edge's from the induced family, whose amplitudes are not 1
    on a weighted system. The unitary must be unitary to within ``tols.rep``.
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
        m, a = fam.edge_ops[e.id].mapping, fam.edge_ops[e.id].amplitude
        conjugate = _conjugate(u, u_star, list(m), list(m.values()), [a[x] for x in m])
        edge_residuals[e.id] = float(np.linalg.norm(conjugate - rep.edge_matrices[e.id]))
    vertex_residuals = {}
    for v in g.vertices:
        d = sorted(cert.system.domain_sets[v])
        conjugate = _conjugate(u, u_star, d, d)
        vertex_residuals[v] = float(np.linalg.norm(conjugate - rep.vertex_matrices[v]))
    return _measured(cert, edge_residuals, vertex_residuals)


def _measured(
    cert: EquivalenceCertificate,
    edge_residuals: dict[str, float],
    vertex_residuals: dict[str, float],
) -> EquivalenceCertificate:
    """A copy of cert carrying the residuals measured for its system and unitary."""
    out = EquivalenceCertificate(cert.system, cert.unitary)
    object.__setattr__(out, "edge_residuals", edge_residuals)
    object.__setattr__(out, "vertex_residuals", vertex_residuals)
    return out


# -- JSON interchange ---------------------------------------------------------

_REP_FIELDS = ("dim", "complementDim", "edges", "vertices")  # document order


def _matrix_to_pairs(m: np.ndarray) -> list[list[float]]:
    """Row-major ``[re, im]`` pairs of ``m``'s entries, as Python floats."""
    return np.ascontiguousarray(m, dtype=complex).view(np.float64).reshape(-1, 2).tolist()


def rep_to_json(rep: ConcreteRepresentation) -> dict:
    """The representation as a JSON-ready document.

    Each matrix is converted as one array: its complex entries are viewed as
    float pairs and listed once, so ``json.dumps`` of the document gives the
    same bytes as formatting every entry with ``float(z.real), float(z.imag)``.
    """
    return {
        "dim": rep.dim,
        "complementDim": rep.complement_dim,
        "edges": {k: _matrix_to_pairs(m) for k, m in rep.edge_matrices.items()},
        "vertices": {k: _matrix_to_pairs(m) for k, m in rep.vertex_matrices.items()},
    }


def _is_number_type(t: type) -> bool:
    return issubclass(t, (int, float)) and not issubclass(t, bool)


def _first_bad_pair(entries: list, where: str) -> RepresentationError:
    """The error naming the first pair that is not two numbers a float holds."""
    for i, pair in enumerate(entries):
        if not (
            isinstance(pair, list)
            and len(pair) == 2
            and all(_is_number_type(type(x)) for x in pair)
        ):
            return RepresentationError(f"{where}[{i}] must be an [re, im] pair of numbers")
        try:
            float(pair[0]), float(pair[1])
        except OverflowError:
            return RepresentationError(f"{where}[{i}] has an entry too large for a float")
    raise AssertionError(f"{where}: no bad pair found")


def _pairs_to_matrix(entries: object, dim: int, where: str) -> np.ndarray:
    if not isinstance(entries, list) or len(entries) != dim * dim:
        raise RepresentationError(
            f"{where} must be a flat row-major list of {dim * dim} [re, im] pairs"
        )
    # whole-list passes over the pairs' types, their lengths and their
    # elements' types decide well-formedness; only a failure is located
    if (
        all(issubclass(t, list) for t in set(map(type, entries)))
        and set(map(len, entries)) == {2}
        and all(map(_is_number_type, set(map(type, chain.from_iterable(entries)))))
    ):
        try:
            flat = np.fromiter(chain.from_iterable(entries), np.float64, 2 * dim * dim)
            return flat.view(complex).reshape(dim, dim)
        except OverflowError:
            pass  # an integer past the float range, named below
    raise _first_bad_pair(entries, where)


def rep_from_json(doc: object) -> ConcreteRepresentation:
    """The representation a JSON document describes, or a RepresentationError.

    Each matrix's pairs are checked in whole-list passes over their types,
    lengths and element types, then converted as one float64 array, giving
    the bits ``complex(re, im)`` gives per entry. Only when a check fails is
    the list scanned for the first bad pair, which the error names; an
    integer too large for a float is named the same way.
    """
    if not isinstance(doc, dict):
        raise RepresentationError("representation document must be an object")
    unknown = set(doc).difference(_REP_FIELDS)
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
