"""The original relation checkers, kept verbatim as test oracles.

``validate``, ``verify_ck`` and ``check_representation`` here are the
hand-rolled "scan, keep the first witness, break" loops, with their helpers
and the fixed refuse band. One helper is ``adjoint_weighted``, which forms
the weighted adjoints the original ``verify_ck`` composes; an exact adjoint
is built from its exact squares alone, as an operator's float amplitudes
must be the roots of those. The library now
builds each report item from a witness generator; the property tests in
``test_check_oracle.py`` require identical reports.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

import numpy as np

from branchrep.alignment import (
    ConcreteRepresentation,
    DegenerateRankError,
    RepresentationError,
)
from branchrep.branching import DiscreteBranchingSystem, _check_keys
from branchrep.graph import DirectedGraph
from branchrep.operators import (
    CKReport,
    GeneratorFamily,
    OperatorError,
    WeightedPartialIsometry,
    _float_at,
    _normal_float,
    compose,
)
from branchrep.report import FAIL, PASS, CheckItem, Report, Tolerances

DEGENERATE_BAND = (1e-12, 1e-8)


def validate(bs: DiscreteBranchingSystem, g: DirectedGraph) -> Report:
    """Check the six branching-system conditions; key mismatches raise.

    1. range sets pairwise disjoint
    2. domain sets pairwise disjoint
    3. R_e inside D_src(e)
    4. D_v equals the union of R_e over src(e) = v, for emitters
    5. f_e defined on exactly D_rng(e) and onto R_e
    6. f_e injective (so the inverse and its derivative exist)
    """
    _check_keys(bs, g)
    items: list[CheckItem] = []

    owner: dict[int, str] = {}
    witness = None
    for e in g.edges:
        for x in sorted(bs.range_sets[e.id]):
            if x in owner and witness is None:
                witness = {"edges": [owner[x], e.id], "index": x}
            owner.setdefault(x, e.id)
    items.append(CheckItem("1", FAIL if witness else PASS, witness))

    owner_v: dict[int, str] = {}
    witness = None
    for v in g.vertices:
        for x in sorted(bs.domain_sets[v]):
            if x in owner_v and witness is None:
                witness = {"vertices": [owner_v[x], v], "index": x}
            owner_v.setdefault(x, v)
    items.append(CheckItem("2", FAIL if witness else PASS, witness))

    witness = None
    for e in g.edges:
        stray = bs.range_sets[e.id] - bs.domain_sets[e.src]
        if stray:
            witness = {"edge": e.id, "src": e.src, "index": min(stray)}
            break
    items.append(CheckItem("3", FAIL if witness else PASS, witness))

    witness = None
    for v in g.vertices:
        out = g.out_edges(v)
        if not out:
            continue
        union: set[int] = set()
        for e in out:
            union |= bs.range_sets[e.id]
        missing = bs.domain_sets[v] - union
        extra = union - bs.domain_sets[v]
        if missing or extra:
            witness = {
                "vertex": v,
                "missingFromUnion": sorted(missing),
                "outsideDomain": sorted(extra),
            }
            break
    items.append(CheckItem("4", FAIL if witness else PASS, witness))

    witness = None
    for e in g.edges:
        f = bs.edge_maps[e.id]
        dom = bs.domain_sets[e.rng]
        if set(f) != dom:
            witness = {
                "edge": e.id,
                "missingDomain": sorted(dom - set(f)),
                "extraDomain": sorted(set(f) - dom),
            }
            break
        image = set(f.values())
        if image != bs.range_sets[e.id]:
            witness = {
                "edge": e.id,
                "imageMissing": sorted(bs.range_sets[e.id] - image),
                "imageExtra": sorted(image - bs.range_sets[e.id]),
            }
            break
    items.append(CheckItem("5", FAIL if witness else PASS, witness))

    witness = None
    for e in g.edges:
        f = bs.edge_maps[e.id]
        hit: dict[int, int] = {}
        for a in sorted(f):
            b = f[a]
            if b in hit:
                witness = {"edge": e.id, "collidingDomain": [hit[b], a], "image": b}
                break
            hit[b] = a
        if witness:
            break
    items.append(CheckItem("6", FAIL if witness else PASS, witness))

    return Report(tuple(items))


def adjoint_weighted(t: WeightedPartialIsometry, weights: dict[int, float]) -> WeightedPartialIsometry:
    """Adjoint in the weighted inner product <φ,ψ> = Σ w(x)·φ(x)·conj(ψ(x)).

    If t carries x to j with amplitude a, the adjoint carries j back to x
    with amplitude a·w(j)/w(x) — the weight ratio re-balances the pairing.
    """
    mapping: dict[int, int] = {}
    amplitude: dict[int, float] = {}
    amplitude_sq: Optional[dict[int, Fraction]] = (
        {} if t.amplitude_sq is not None else None
    )
    for x, j in t.mapping.items():
        mapping[j] = x
        ratio = Fraction(weights[j]) / Fraction(weights[x])
        value = _normal_float(ratio)
        if value is not None:
            amplitude[j] = t.amplitude[x] * value
        else:
            amplitude[j] = _float_at(Fraction(t.amplitude[x]) * ratio, j)
        if amplitude_sq is not None:
            amplitude_sq[j] = t.amplitude_sq[x] * ratio * ratio
    if amplitude_sq is not None:
        # an exact operator's amplitude is the float root of its exact square
        return WeightedPartialIsometry(mapping=mapping, amplitude_sq=amplitude_sq)
    return WeightedPartialIsometry(mapping=mapping, amplitude=amplitude)


def _as_exact(t: WeightedPartialIsometry, float_tol: float):
    """Return (mapping, value dict) with Fractions when available, else floats."""
    if t.amplitude_sq is not None:
        return t.mapping, t.amplitude_sq, True
    return t.mapping, {x: a * a for x, a in t.amplitude.items()}, False


def _is_identity_on(
    t: WeightedPartialIsometry,
    support: frozenset[int],
    float_tol: float,
) -> tuple[Optional[dict], bool]:
    """Witness (or None) that t acts as the identity on exactly ``support``."""
    mapping, sq, exact = _as_exact(t, float_tol)
    if set(mapping) != support:
        missing = sorted(support - set(mapping))
        extra = sorted(set(mapping) - support)
        return {"missing": missing, "extra": extra}, exact
    for x in sorted(mapping):
        if mapping[x] != x:
            return {"index": x, "mapsTo": mapping[x]}, exact
        value = sq[x]
        ok = value == 1 if exact else abs(value - 1.0) <= float_tol
        if not ok:
            return {"index": x, "amplitudeSquared": float(value)}, exact
    return None, exact


def verify_ck(fam: GeneratorFamily, g: DirectedGraph, float_tol: float = 1e-12) -> CKReport:
    """Check the five generator relations for the graph, exactly when possible.

    i.   distinct vertex projections have disjoint support
    ii.  adjoint(S_e)·S_e is the projection onto D_rng(e)
    iii. S_e·adjoint(S_e) is dominated by the projection onto D_src(e)
    iv.  adjoint(S_e)·S_f vanishes for distinct edges e, f
    v.   at each vertex emitting finitely many (and at least one) edges, the
         range projections of its edges sum to the vertex projection

    Adjoints are taken in the weighted inner product carried by the family,
    which is what makes the edge operators genuine partial isometries when
    the weights are not all 1.
    """
    ids = {e.id for e in g.edges}
    if set(fam.edge_ops) != ids:
        raise OperatorError("edge operators do not match the graph's edges")
    if set(fam.vertex_projs) != set(g.vertices):
        raise OperatorError("vertex projections do not match the graph's vertices")

    items: list[CheckItem] = []
    all_exact = True

    witness = None
    owner: dict[int, str] = {}
    for v in g.vertices:
        for x in sorted(fam.vertex_projs[v].support):
            if x in owner:
                witness = {"vertices": [owner[x], v], "index": x}
                break
            owner[x] = v
        if witness:
            break
    items.append(CheckItem("i", FAIL if witness else PASS, witness))

    adjoints = {
        e.id: adjoint_weighted(fam.edge_ops[e.id], fam.weights) for e in g.edges
    }

    witness = None
    for e in g.edges:
        product = compose(adjoints[e.id], fam.edge_ops[e.id])
        w, exact = _is_identity_on(product, fam.vertex_projs[e.rng].support, float_tol)
        all_exact = all_exact and exact
        if w is not None:
            witness = {"edge": e.id, **w}
            break
    items.append(CheckItem("ii", FAIL if witness else PASS, witness))

    witness = None
    for e in g.edges:
        product = compose(fam.edge_ops[e.id], adjoints[e.id])
        mapping, sq, exact = _as_exact(product, float_tol)
        all_exact = all_exact and exact
        support = fam.vertex_projs[e.src].support
        for x in sorted(mapping):
            if mapping[x] != x:
                witness = {"edge": e.id, "index": x, "mapsTo": mapping[x]}
                break
            if x not in support:
                witness = {"edge": e.id, "index": x, "outsideSource": e.src}
                break
            value = sq[x]
            ok = value <= 1 if exact else value <= 1.0 + float_tol
            if not ok:
                witness = {"edge": e.id, "index": x, "amplitudeSquared": float(value)}
                break
        if witness:
            break
    items.append(CheckItem("iii", FAIL if witness else PASS, witness))

    witness = None
    for e in g.edges:
        if witness:
            break
        for f in g.edges:
            if e.id == f.id:
                continue
            product = compose(adjoints[e.id], fam.edge_ops[f.id])
            if product.mapping:
                x = min(product.mapping)
                witness = {"edges": [e.id, f.id], "index": x}
                break
    items.append(CheckItem("iv", FAIL if witness else PASS, witness))

    witness = None
    for v in g.vertices:
        out = g.out_edges(v)
        if not out:
            continue
        diag: dict[int, object] = {}
        exact_here = True
        for e in out:
            product = compose(fam.edge_ops[e.id], adjoints[e.id])
            mapping, sq, exact = _as_exact(product, float_tol)
            exact_here = exact_here and exact
            for x in mapping:
                if mapping[x] != x:
                    witness = {"vertex": v, "edge": e.id, "index": x, "mapsTo": mapping[x]}
                    break
                diag[x] = diag.get(x, 0) + sq[x]
            if witness:
                break
        if witness:
            break
        all_exact = all_exact and exact_here
        support = fam.vertex_projs[v].support
        if set(diag) != support:
            missing = sorted(support - set(diag))
            extra = sorted(set(diag) - support)
            witness = {"vertex": v, "missing": missing, "extra": extra}
            break
        for x in sorted(diag):
            value = diag[x]
            ok = value == 1 if exact_here else abs(float(value) - 1.0) <= float_tol
            if not ok:
                witness = {"vertex": v, "index": x, "diagonal": float(value)}
                break
        if witness:
            break
    items.append(CheckItem("v", FAIL if witness else PASS, witness))

    return CKReport(tuple(items), exact=all_exact)


def _stable_rank(m: np.ndarray, rank_tol: float) -> int:
    lo, hi = DEGENERATE_BAND
    sv = np.linalg.svd(m, compute_uv=False)
    shady = [float(s) for s in sv if lo < s < hi]
    if shady:
        raise DegenerateRankError(
            f"singular value(s) {shady} fall between {lo} and {hi}; "
            "rank is numerically ambiguous"
        )
    return int((sv > rank_tol).sum())


def check_representation(
    rep: ConcreteRepresentation,
    g: DirectedGraph,
    tol: float = Tolerances().rep,
    rank_tol: float = Tolerances().rank,
) -> Report:
    """Report on the graph relations for dense matrices.

    Items: 'projections' (idempotent, self-adjoint), 'i' (orthogonal vertex
    projections), 'ii' (each edge operator is isometric from its range
    vertex's subspace), 'iii' (its image sits under the source projection),
    'iv' (distinct edges have orthogonal images), 'v' (emitters' edge images
    fill the vertex subspace), 'complement' (rank of what is left equals the
    declared complement dimension).
    """
    if set(rep.edge_matrices) != {e.id for e in g.edges}:
        raise RepresentationError("edge matrices do not match the graph's edges")
    if set(rep.vertex_matrices) != set(g.vertices):
        raise RepresentationError("vertex matrices do not match the graph's vertices")

    items: list[CheckItem] = []
    n = rep.dim
    eye = np.eye(n)

    witness = None
    for v in g.vertices:
        p = rep.vertex_matrices[v]
        idem = float(np.abs(p @ p - p).max())
        herm = float(np.abs(p - p.conj().T).max())
        if idem > tol or herm > tol:
            witness = {"vertex": v, "idempotencyError": idem, "selfAdjointnessError": herm}
            break
    items.append(CheckItem("projections", FAIL if witness else PASS, witness))

    witness = None
    vs = list(g.vertices)
    for a in range(len(vs)):
        for b in range(a + 1, len(vs)):
            err = float(np.abs(rep.vertex_matrices[vs[a]] @ rep.vertex_matrices[vs[b]]).max())
            if err > tol:
                witness = {"vertices": [vs[a], vs[b]], "error": err}
                break
        if witness:
            break
    items.append(CheckItem("i", FAIL if witness else PASS, witness))

    witness = None
    for e in g.edges:
        s = rep.edge_matrices[e.id]
        err = float(np.abs(s.conj().T @ s - rep.vertex_matrices[e.rng]).max())
        if err > tol:
            witness = {"edge": e.id, "error": err}
            break
    items.append(CheckItem("ii", FAIL if witness else PASS, witness))

    witness = None
    for e in g.edges:
        s = rep.edge_matrices[e.id]
        q = s @ s.conj().T
        err = float(np.abs(rep.vertex_matrices[e.src] @ q - q).max())
        if err > tol:
            witness = {"edge": e.id, "error": err}
            break
    items.append(CheckItem("iii", FAIL if witness else PASS, witness))

    witness = None
    for e in g.edges:
        if witness:
            break
        for f in g.edges:
            if e.id == f.id:
                continue
            err = float(
                np.abs(rep.edge_matrices[e.id].conj().T @ rep.edge_matrices[f.id]).max()
            )
            if err > tol:
                witness = {"edges": [e.id, f.id], "error": err}
                break
    items.append(CheckItem("iv", FAIL if witness else PASS, witness))

    witness = None
    for v in g.vertices:
        out = g.out_edges(v)
        if not out:
            continue
        total = np.zeros((n, n), dtype=complex)
        for e in out:
            s = rep.edge_matrices[e.id]
            total = total + s @ s.conj().T
        err = float(np.abs(total - rep.vertex_matrices[v]).max())
        if err > tol:
            witness = {"vertex": v, "error": err}
            break
    items.append(CheckItem("v", FAIL if witness else PASS, witness))

    witness = None
    leftover = eye.astype(complex)
    for v in g.vertices:
        leftover = leftover - rep.vertex_matrices[v]
    try:
        rank = _stable_rank(leftover, rank_tol)
    except DegenerateRankError as err:
        rank = None
        witness = {"error": str(err)}
    if rank is not None and rank != rep.complement_dim:
        witness = {"declared": rep.complement_dim, "actual": rank}
    items.append(CheckItem("complement", FAIL if witness else PASS, witness))

    return Report(tuple(items))
