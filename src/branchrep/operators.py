"""Weighted partial isometries on finite index sets and the induced generators.

An operator here moves basis vectors along an injective partial map of the
universe and scales them; edge generators built from a branching system get
amplitude sqrt(w(x)/w(f_e(x))) on R_e and vertex projections are indicator
diagonals. Because the squared amplitudes are ratios of weights, the relation
checks can run over exact rationals whenever the operators came out of a
branching system, with a float path as fallback for hand-built operators.
"""

from __future__ import annotations

import functools
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
    so relation checks can avoid floats entirely.
    """

    mapping: dict[int, int]
    amplitude: dict[int, float]
    amplitude_sq: Optional[dict[int, Fraction]] = None

    def __post_init__(self):
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
        if self.amplitude_sq is not None:
            if set(self.amplitude_sq) != set(self.mapping):
                raise OperatorError("amplitude_sq must share the mapping's domain")
            for x, q in self.amplitude_sq.items():
                if not q > 0:
                    raise OperatorError(f"amplitude_sq at {x} must be positive, got {q}")

    @property
    def domain(self) -> frozenset[int]:
        return frozenset(self.mapping)

    @property
    def range(self) -> frozenset[int]:
        return frozenset(self.mapping.values())

    def inverse_mapping(self) -> dict[int, int]:
        return {j: x for x, j in self.mapping.items()}


def zero_operator() -> WeightedPartialIsometry:
    return WeightedPartialIsometry(mapping={}, amplitude={})


def identity_on(support: Iterable[int]) -> WeightedPartialIsometry:
    s = sorted(set(support))
    return WeightedPartialIsometry(
        mapping={x: x for x in s},
        amplitude={x: 1.0 for x in s},
        amplitude_sq={x: Fraction(1) for x in s},
    )


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

    edge_ops: dict[str, WeightedPartialIsometry] = {}
    for e in g.edges:
        f = bs.edge_maps[e.id]
        mapping: dict[int, int] = {}
        amplitude: dict[int, float] = {}
        amplitude_sq: dict[int, Fraction] = {}
        for x in sorted(f):
            j = f[x]
            mapping[x] = j
            ratio = Fraction(bs.weight(x)) / Fraction(bs.weight(j))
            amplitude_sq[x] = ratio
            amplitude[x] = _sqrt_ratio(ratio, x)
        edge_ops[e.id] = WeightedPartialIsometry(
            mapping=mapping, amplitude=amplitude, amplitude_sq=amplitude_sq
        )

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
    amplitude = {j: t.amplitude[x] for x, j in t.mapping.items()}
    amplitude_sq = None
    if t.amplitude_sq is not None:
        amplitude_sq = {j: t.amplitude_sq[x] for x, j in t.mapping.items()}
    return WeightedPartialIsometry(mapping=mapping, amplitude=amplitude, amplitude_sq=amplitude_sq)


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
    return WeightedPartialIsometry(mapping=mapping, amplitude=amplitude, amplitude_sq=amplitude_sq)


def compose(a: WeightedPartialIsometry, b: WeightedPartialIsometry) -> WeightedPartialIsometry:
    """Operator product a∘b: apply b first, then a; amplitudes multiply."""
    mapping: dict[int, int] = {}
    amplitude: dict[int, float] = {}
    exact = a.amplitude_sq is not None and b.amplitude_sq is not None
    amplitude_sq: Optional[dict[int, Fraction]] = {} if exact else None
    for x, mid in b.mapping.items():
        if mid not in a.mapping:
            continue
        mapping[x] = a.mapping[mid]
        amplitude[x] = b.amplitude[x] * a.amplitude[mid]
        if exact:
            amplitude_sq[x] = b.amplitude_sq[x] * a.amplitude_sq[mid]
    return WeightedPartialIsometry(mapping=mapping, amplitude=amplitude, amplitude_sq=amplitude_sq)


def wpi_matrix(t: WeightedPartialIsometry, size: int) -> np.ndarray:
    """Dense size×size matrix of t over the universe {0..size-1}."""
    m = np.zeros((size, size))
    for x, j in t.mapping.items():
        if not (0 <= x < size and 0 <= j < size):
            raise OperatorError(f"index pair ({x}, {j}) outside matrix size {size}")
        m[j, x] = t.amplitude[x]
    return m


def to_matrix(fam: GeneratorFamily, generator_id: str, max_size: Optional[int] = None) -> np.ndarray:
    """Dense matrix of one generator, edges taking priority over vertices.

    The universe must be 0-based contiguous for a dense layout to make sense.
    """
    if generator_id in fam.edge_ops and generator_id in fam.vertex_projs:
        raise OperatorError(f"'{generator_id}' names both an edge and a vertex; rename one")
    if fam.universe != tuple(range(len(fam.universe))):
        raise OperatorError("dense export needs a contiguous 0-based universe")
    size = len(fam.universe)
    if max_size is not None and size > max_size:
        raise OperatorError(f"universe size {size} exceeds max_size {max_size}")
    if generator_id in fam.edge_ops:
        return wpi_matrix(fam.edge_ops[generator_id], size)
    if generator_id in fam.vertex_projs:
        return wpi_matrix(fam.vertex_projs[generator_id].as_partial_isometry(), size)
    raise OperatorError(f"unknown generator '{generator_id}'")


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


def _as_exact(t: WeightedPartialIsometry) -> tuple[dict[int, object], bool]:
    """Squared amplitudes as Fractions when t carries them, else as floats."""
    if t.amplitude_sq is not None:
        return t.amplitude_sq, True
    return {x: a * a for x, a in t.amplitude.items()}, False


def _is_one(value: object, exact: bool, tol: float) -> bool:
    return value == 1 if exact else abs(float(value) - 1.0) <= tol


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
    the weights are not all 1. A comparison is exact when every operator in
    it carries ``amplitude_sq`` and falls back to ``tols.ck`` otherwise.

    Item iv is decided by range overlap: adjoint(S_e)·S_f is nonzero exactly
    when the images of S_e and S_f share an index, so one pass over the
    images finds the first overlapping pair without forming any product.
    Each range product S_e·adjoint(S_e) is formed once, for items iii and v.
    """
    ids = {e.id for e in g.edges}
    if set(fam.edge_ops) != ids:
        raise OperatorError("edge operators do not match the graph's edges")
    if set(fam.vertex_projs) != set(g.vertices):
        raise OperatorError("vertex projections do not match the graph's vertices")

    # adjoint_weighted inverts an injective mapping, so adjoint(S)·S and
    # S·adjoint(S) send each index to itself: only supports and amplitudes
    # can fail items ii, iii and v
    adjoints = {
        e.id: adjoint_weighted(fam.edge_ops[e.id], fam.weights) for e in g.edges
    }

    @functools.cache
    def range_product(edge_id: str) -> tuple[dict[int, object], bool]:
        return _as_exact(compose(fam.edge_ops[edge_id], adjoints[edge_id]))

    def isometries():
        for e in g.edges:
            sq, exact = _as_exact(compose(adjoints[e.id], fam.edge_ops[e.id]))
            support = fam.vertex_projs[e.rng].support
            if set(sq) != support:
                missing = sorted(support - set(sq))
                extra = sorted(set(sq) - support)
                yield {"edge": e.id, "missing": missing, "extra": extra}
            for x in sorted(sq):
                if not _is_one(sq[x], exact, tols.ck):
                    yield {"edge": e.id, "index": x, "amplitudeSquared": float(sq[x])}

    def range_projections():
        for e in g.edges:
            sq, exact = range_product(e.id)
            bound = 1 if exact else 1.0 + tols.ck
            support = fam.vertex_projs[e.src].support
            for x in sorted(sq):
                if x not in support:
                    yield {"edge": e.id, "index": x, "outsideSource": e.src}
                if not sq[x] <= bound:
                    yield {"edge": e.id, "index": x, "amplitudeSquared": float(sq[x])}

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
                sq, _ = range_product(e.id)
                for x in sq:
                    diag[x] = diag.get(x, 0) + sq[x]
            support = fam.vertex_projs[v].support
            if set(diag) != support:
                missing = sorted(support - set(diag))
                extra = sorted(set(diag) - support)
                yield {"vertex": v, "missing": missing, "extra": extra}
            exact = all(fam.edge_ops[e.id].amplitude_sq is not None for e in out)
            for x in sorted(diag):
                if not _is_one(diag[x], exact, tols.ck):
                    yield {"vertex": v, "index": x, "diagonal": float(diag[x])}

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
