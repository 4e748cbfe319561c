"""Aligning a concrete representation with a canonical branching-system model.

Given matrices satisfying the graph relations on C^N, this module chooses an
orthonormal basis adapted to the graph (one block per vertex plus a
complement), checks that every edge operator carries its range vertex's block
bijectively onto a sub-block of the source vertex, and extracts from that a
discrete branching system together with the change-of-basis unitary. The
construction walks the level structure of the graph in two sweeps: upward
through vertices whose single higher edge points into them, then downward
from the top through the rest.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from itertools import combinations
from typing import Mapping, Optional, Sequence

import numpy as np

from .branching import DiscreteBranchingSystem, synthesize, validate, vertex_dimensions
from .graph import DirectedGraph, decompose, is_p_simple
from .operators import induce, wpi_matrix
from .report import FAIL, PASS, CheckItem, Report, Tolerances, first_witness
from .structure import (
    Classification,
    ClassificationKind,
    LevelDecomposition,
    Role,
    component_classifications,
    level_decomposition,
    vertex_roles,
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
    """
    if set(rep.edge_matrices) != {e.id for e in g.edges}:
        raise RepresentationError("edge matrices do not match the graph's edges")
    if set(rep.vertex_matrices) != set(g.vertices):
        raise RepresentationError("vertex matrices do not match the graph's vertices")

    p = rep.vertex_matrices
    s = rep.edge_matrices

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
        ({"vertices": [a, b]}, p[a] @ p[b]) for a, b in combinations(g.vertices, 2)
    )
    isometries = (({"edge": e.id}, s[e.id].conj().T @ s[e.id] - p[e.rng]) for e in g.edges)
    edge_pairs = (
        ({"edges": [e.id, f.id]}, s[e.id].conj().T @ s[f.id])
        for e in g.edges
        for f in g.edges
        if e.id != f.id
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


# -- the two-sweep basis construction ----------------------------------------


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
