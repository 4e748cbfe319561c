"""Weighted partial isometries on finite index sets and the induced generators.

An operator here moves basis vectors along an injective partial map of the
universe and scales them; edge generators built from a branching system get
amplitude sqrt(w(x)/w(f_e(x))) on R_e and vertex projections are indicator
diagonals. Each relation reduces to the edge maps plus amplitude_sq[x]·w(f_e(x))
= w(x) per index, decided over exact integers whenever the operators came out
of a branching system, with a float path as fallback for hand-built operators.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

import numpy as np

from .branching import DiscreteBranchingSystem, validate
from .graph import DirectedGraph
from .report import Report, Tolerances, first_witness, shared_indices


class OperatorError(ValueError):
    pass


@dataclass(frozen=True)
class WeightedPartialIsometry:
    """Partial map j = mapping[x] with scalar amplitude[x] on basis vector x.

    Acting on a function φ, the result at index j is amplitude[x]·φ(x) for
    the unique x with mapping[x] = j. ``amplitude_sq``, when present, carries
    the exact squares of the amplitudes and is preserved through composition
    so relation checks can avoid floats entirely. With ``amplitude_sq`` the
    amplitudes are its float roots (``_sqrt_ratio``): left out, they are
    derived; given, they must equal them, so an exact check vouches for the
    floats that are exported.
    """

    mapping: dict[int, int]
    amplitude: Optional[dict[int, float]] = None
    amplitude_sq: Optional[dict[int, Fraction]] = None

    def __post_init__(self):
        if self.amplitude_sq is not None:
            if set(self.amplitude_sq) != set(self.mapping):
                raise OperatorError("amplitude_sq must share the mapping's domain")
            for x, q in self.amplitude_sq.items():
                if not q > 0:
                    raise OperatorError(f"amplitude_sq at {x} must be positive, got {q}")
            roots = {x: _sqrt_ratio(q, x) for x, q in self.amplitude_sq.items()}
            if self.amplitude is None:
                object.__setattr__(self, "amplitude", roots)
        if self.amplitude is None:
            raise OperatorError("an operator needs amplitude or amplitude_sq")
        if set(self.mapping) != set(self.amplitude):
            raise OperatorError("mapping and amplitude must share the same domain")
        seen: dict[int, int] = {}
        for x in self.mapping:
            j = self.mapping[x]
            if j in seen:
                raise OperatorError(f"mapping is not injective: {seen[j]} and {x} both land on {j}")
            seen[j] = x
        for x, a in self.amplitude.items():
            if not a > 0:
                raise OperatorError(f"amplitude at {x} must be positive, got {a}")
        if self.amplitude_sq is not None and self.amplitude != roots:
            x = next(x for x, a in self.amplitude.items() if a != roots[x])
            raise OperatorError(
                f"amplitude at {x} is {self.amplitude[x]!r}, not the root of amplitude_sq "
                f"{self.amplitude_sq[x]}"
            )

    @property
    def domain(self) -> frozenset[int]:
        return frozenset(self.mapping)

    @property
    def range(self) -> frozenset[int]:
        return frozenset(self.mapping.values())


def identity_on(support: Iterable[int]) -> WeightedPartialIsometry:
    s = sorted(set(support))
    return WeightedPartialIsometry({x: x for x in s}, amplitude_sq={x: Fraction(1) for x in s})


@dataclass(frozen=True)
class DiagonalProjection:
    support: frozenset[int]

    def as_partial_isometry(self) -> WeightedPartialIsometry:
        return identity_on(self.support)


@dataclass(frozen=True)
class GeneratorFamily:
    """The edge operators and vertex projections induced by one system."""

    universe: tuple[int, ...]
    edge_ops: dict[str, WeightedPartialIsometry]
    vertex_projs: dict[str, DiagonalProjection]
    weights: dict[int, float]

    def __post_init__(self):
        if set(self.weights) != set(self.universe):
            raise OperatorError("weights must be defined on exactly the universe")
        for x, w in self.weights.items():
            if not (w > 0 and math.isfinite(w)):
                raise OperatorError(f"weight at index {x} must be positive and finite, got {w}")


def induce(bs: DiscreteBranchingSystem, g: DirectedGraph) -> GeneratorFamily:
    """Turn a valid branching system into its generator family.

    The edge operator for e sends x in R_e to f_e^{-1}(x) with amplitude
    sqrt(w(x)/w(f_e(x))) — equivalently it carries a function supported on
    D_rng(e) onto R_e with the inverse derivative's square root. Vertex
    projections are the indicators of the domain sets.
    """
    report = validate(bs, g)
    if not report.passed:
        bad = ", ".join(item.item for item in report.failures())
        raise OperatorError(f"branching system fails condition(s) {bad}; cannot induce")
    return _family(bs, g)


def _family(bs: DiscreteBranchingSystem, g: DirectedGraph) -> GeneratorFamily:
    """``induce`` without its validation: called only right after a passing
    ``validate(bs, g)``."""
    parts = {x: w.as_integer_ratio() for x, w in bs.weights.items()}
    edge_ops: dict[str, WeightedPartialIsometry] = {}
    for e in g.edges:
        f = bs.edge_maps[e.id]
        mapping = {x: f[x] for x in sorted(f)}
        ratios = {
            x: Fraction(parts[x][0] * parts[j][1], parts[x][1] * parts[j][0])
            for x, j in mapping.items()
        }
        edge_ops[e.id] = WeightedPartialIsometry(mapping=mapping, amplitude_sq=ratios)
    # the weighted adjoint's amplitude, about sqrt(w(j)/w(x)), can overflow only
    # where the float w(j)/w(x) does; refused after every forward amplitude
    for op in edge_ops.values():
        for x, j in op.mapping.items():
            if bs.weight(j) / bs.weight(x) > sys.float_info.max:
                _float_at(Fraction(op.amplitude[x]) / op.amplitude_sq[x], j)

    vertex_projs = {v: DiagonalProjection(bs.domain_sets[v]) for v in g.vertices}
    return GeneratorFamily(
        universe=bs.universe,
        edge_ops=edge_ops,
        vertex_projs=vertex_projs,
        weights=dict(bs.weights),
    )


def _normal_float(value: Fraction) -> Optional[float]:
    """float(value) when that is a normal float, else None."""
    try:
        f = float(value)
    except OverflowError:
        return None
    return f if f >= sys.float_info.min else None


def _float_at(value: Fraction, index: int) -> float:
    try:
        return float(value)
    except OverflowError:
        raise OperatorError(f"amplitude at {index} is too large for a float") from None


def _sqrt_ratio(ratio: Fraction, index: int) -> float:
    """Square root of a positive exact ratio as a float.

    When float(ratio) leaves the normal floats, the ratio is first divided by
    an even power of two 4**half, so only the root itself must fit a float.
    """
    value = _normal_float(ratio)
    if value is not None:
        return math.sqrt(value)
    half = (ratio.numerator.bit_length() - ratio.denominator.bit_length()) // 2
    try:
        return math.ldexp(math.sqrt(ratio / Fraction(4) ** half), half)
    except OverflowError:
        raise OperatorError(f"amplitude at {index} is too large for a float") from None


def adjoint(t: WeightedPartialIsometry) -> WeightedPartialIsometry:
    """Adjoint for the counting measure: reverse the map, keep the scalars."""
    mapping = {j: x for x, j in t.mapping.items()}
    if t.amplitude_sq is not None:
        squares = {j: t.amplitude_sq[x] for j, x in mapping.items()}
        return WeightedPartialIsometry(mapping, amplitude_sq=squares)
    return WeightedPartialIsometry(mapping, {j: t.amplitude[x] for j, x in mapping.items()})


def compose(a: WeightedPartialIsometry, b: WeightedPartialIsometry) -> WeightedPartialIsometry:
    """Operator product a∘b: apply b first, then a; amplitudes (or exact squares) multiply."""
    mapping = {x: a.mapping[mid] for x, mid in b.mapping.items() if mid in a.mapping}
    if a.amplitude_sq is not None and b.amplitude_sq is not None:
        amplitude_sq = {x: b.amplitude_sq[x] * a.amplitude_sq[b.mapping[x]] for x in mapping}
        return WeightedPartialIsometry(mapping=mapping, amplitude_sq=amplitude_sq)
    amplitude = {x: b.amplitude[x] * a.amplitude[b.mapping[x]] for x in mapping}
    return WeightedPartialIsometry(mapping=mapping, amplitude=amplitude)


def wpi_matrix(t: WeightedPartialIsometry, size: int) -> np.ndarray:
    """Dense size×size matrix of t over the universe {0..size-1}."""
    m = np.zeros((size, size))
    for x, j in t.mapping.items():
        if not (0 <= x < size and 0 <= j < size):
            raise OperatorError(f"index pair ({x}, {j}) outside matrix size {size}")
        m[j, x] = t.amplitude[x]
    return m


def to_matrix(
    fam: GeneratorFamily,
    generator_id: str,
    *,
    kind: Optional[str] = None,
) -> np.ndarray:
    """Dense matrix of one generator.

    ``kind`` ("edge" or "vertex") says which generator the id names; it may
    be left out unless an edge and a vertex share the id. The universe must
    be 0-based contiguous for a dense layout to make sense.
    """
    if kind not in (None, "edge", "vertex"):
        raise OperatorError(f"kind must be 'edge' or 'vertex', got {kind!r}")
    if kind is None and generator_id in fam.edge_ops and generator_id in fam.vertex_projs:
        raise OperatorError(
            f"'{generator_id}' names both an edge and a vertex; "
            "pass kind='edge' or kind='vertex'"
        )
    if fam.universe != tuple(range(len(fam.universe))):
        raise OperatorError("dense export needs a contiguous 0-based universe")
    size = len(fam.universe)
    if kind != "vertex" and generator_id in fam.edge_ops:
        return wpi_matrix(fam.edge_ops[generator_id], size)
    if kind != "edge" and generator_id in fam.vertex_projs:
        return wpi_matrix(fam.vertex_projs[generator_id].as_partial_isometry(), size)
    raise OperatorError(f"unknown {kind or 'generator'} '{generator_id}'")


def coordinate_export(matrix: np.ndarray) -> str:
    """Sparse coordinate text: 'rows cols nnz' then one 'row col value' per entry.

    Indices are 0-based; entries appear in row-major order. Complex matrices
    print 'row col re im' per entry instead.
    """
    if matrix.ndim != 2:
        raise OperatorError("coordinate export needs a 2-d matrix")
    rows, cols = matrix.shape
    nz_rows, nz_cols = np.nonzero(matrix)
    entries = zip(nz_rows.tolist(), nz_cols.tolist(), matrix[nz_rows, nz_cols].tolist())
    if np.iscomplexobj(matrix):
        lines = [f"{i} {j} {v.real:.17g} {v.imag:.17g}" for i, j, v in entries]
    else:
        lines = [f"{i} {j} {v:.17g}" for i, j, v in entries]
    return "\n".join([f"{rows} {cols} {len(lines)}"] + lines) + "\n"


# -- relation verification --------------------------------------------------


@dataclass(frozen=True)
class CKReport(Report):
    """Relation report; ``exact`` says every edge operator carries
    ``amplitude_sq``, so every comparison ran over Fractions."""

    exact: bool = True


def _as_float(value: object) -> float:
    """float(value), or inf for an exact value too large for a float."""
    try:
        return float(value)
    except OverflowError:
        return math.inf


def _is_one(value: object, exact: bool, tol: float) -> bool:
    return value == 1 if exact else abs(_as_float(value) - 1.0) <= tol


def verify_ck(fam: GeneratorFamily, g: DirectedGraph, tols: Tolerances = Tolerances()) -> CKReport:
    """Check the five generator relations for the graph, exactly when possible.

    i.   distinct vertex projections have disjoint support
    ii.  adjoint(S_e)·S_e is the projection onto D_rng(e)
    iii. S_e·adjoint(S_e) is dominated by the projection onto D_src(e)
    iv.  adjoint(S_e)·S_f vanishes for distinct edges e, f
    v.   at each vertex emitting finitely many (and at least one) edges, the
         range projections of its edges sum to the vertex projection

    Adjoints are taken in the weighted inner product carried by the family,
    which is what makes the edge operators genuine partial isometries when
    the weights are not all 1. Both adjoint(S_e)·S_e and S_e·adjoint(S_e) are
    diagonal, with the same squared entry ρ_e(x) at x and at f_e(x), so one
    table x ↦ ρ_e(x) per edge serves items ii, iii and v. With ``amplitude_sq``
    q, ρ_e(x) = 1 is q·w(f_e(x)) = w(x) over cross-multiplied integers (a
    Fraction only for a failing witness); other edges fall back to ``tols.ck``.

    Item iv is decided by range overlap: adjoint(S_e)·S_f is nonzero exactly
    when the images of S_e and S_f share an index, so one pass over the
    images finds the first overlapping pair.
    """
    ids = {e.id for e in g.edges}
    if set(fam.edge_ops) != ids:
        raise OperatorError("edge operators do not match the graph's edges")
    if set(fam.vertex_projs) != set(g.vertices):
        raise OperatorError("vertex projections do not match the graph's vertices")

    weight_ratios = {x: w.as_integer_ratio() for x, w in fam.weights.items()}

    def squared_products(t: WeightedPartialIsometry) -> dict[int, object]:
        rho: dict[int, object] = {}
        for x, j in t.mapping.items():
            if t.amplitude_sq is not None:
                qn, qd = t.amplitude_sq[x].as_integer_ratio()
                jn, jd = weight_ratios[j]
                xn, xd = weight_ratios[x]
                if qn * jn * xd == qd * jd * xn:
                    rho[x] = 1
                else:
                    rho[x] = (Fraction(qn, qd) * Fraction(jn * xd, jd * xn)) ** 2
            else:
                a = t.amplitude[x]
                ratio = Fraction(fam.weights[j]) / Fraction(fam.weights[x])
                value = _normal_float(ratio)
                if value is not None:
                    back = a * value
                else:
                    back = _float_at(Fraction(a) * ratio, j)
                product = a * back
                rho[x] = product * product
        return rho

    rho = {e.id: squared_products(fam.edge_ops[e.id]) for e in g.edges}

    def isometries():
        for e in g.edges:
            sq = rho[e.id]
            exact = fam.edge_ops[e.id].amplitude_sq is not None
            support = fam.vertex_projs[e.rng].support
            if set(sq) != support:
                missing = sorted(support - set(sq))
                extra = sorted(set(sq) - support)
                yield {"edge": e.id, "missing": missing, "extra": extra}
            for x in sorted(sq):
                if not _is_one(sq[x], exact, tols.ck):
                    yield {"edge": e.id, "index": x, "amplitudeSquared": _as_float(sq[x])}

    def range_projections():
        for e in g.edges:
            t = fam.edge_ops[e.id]
            bound = 1 if t.amplitude_sq is not None else 1.0 + tols.ck
            support = fam.vertex_projs[e.src].support
            for j, x in sorted((j, x) for x, j in t.mapping.items()):
                if j not in support:
                    yield {"edge": e.id, "index": j, "outsideSource": e.src}
                if not rho[e.id][x] <= bound:
                    yield {"edge": e.id, "index": j, "amplitudeSquared": _as_float(rho[e.id][x])}

    def overlapping_images():
        # the first pair (e, f) in edge order whose images meet is the least
        # (first owner, later owner) over the indices of every image
        first_owner: dict[int, int] = {}
        pair = None
        for b, f in enumerate(g.edges):
            for j in fam.edge_ops[f.id].mapping.values():
                a = first_owner.setdefault(j, b)
                if a != b and (pair is None or (a, b) < pair):
                    pair = (a, b)
        if pair is not None:
            e, f = g.edges[pair[0]], g.edges[pair[1]]
            image = fam.edge_ops[e.id].range
            index = min(x for x, j in fam.edge_ops[f.id].mapping.items() if j in image)
            yield {"edges": [e.id, f.id], "index": index}

    def vertex_sums():
        for v in g.vertices:
            out = g.out_edges(v)
            if not out:
                continue
            diag: dict[int, object] = {}
            for e in out:
                sq = rho[e.id]
                for x, j in fam.edge_ops[e.id].mapping.items():
                    try:
                        diag[j] = diag.get(j, 0) + sq[x]
                    except OverflowError:  # an exact term too large to join a float one
                        diag[j] = math.inf
            support = fam.vertex_projs[v].support
            if set(diag) != support:
                missing = sorted(support - set(diag))
                extra = sorted(set(diag) - support)
                yield {"vertex": v, "missing": missing, "extra": extra}
            exact = all(fam.edge_ops[e.id].amplitude_sq is not None for e in out)
            for x in sorted(diag):
                if not _is_one(diag[x], exact, tols.ck):
                    yield {"vertex": v, "index": x, "diagonal": _as_float(diag[x])}

    supports = ((v, fam.vertex_projs[v].support) for v in g.vertices)
    items = (
        first_witness("i", shared_indices("vertices", supports)),
        first_witness("ii", isometries()),
        first_witness("iii", range_projections()),
        first_witness("iv", overlapping_images()),
        first_witness("v", vertex_sums()),
    )
    exact = all(t.amplitude_sq is not None for t in fam.edge_ops.values())
    return CKReport(items, exact=exact)
