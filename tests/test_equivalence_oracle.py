"""Gathered residuals against the dense original.

``equivalence_oracle`` holds the dense ``verify_equivalence`` verbatim. Both
conjugate the same canonical operators through the same unitary, so their
residuals differ only by rounding, and each generator's pair must lie within
a Higham bound (*Accuracy and Stability of Numerical Algorithms*, 2nd ed.,
§3.5–3.6) of each other. Write S = ‖|U*|·|T|·|U|‖_F. The dense conjugate is
within (2γ(N) + γ(N)²)·|U*|·|T|·|U| of the exact one, entry by entry, and
the gathered one within (ε + (1 + ε)·γ(k))·|U*|·|T|·|U|, k being the
operator's nonzero count, so the two residuals differ by at most that sum
times S before their own rounding. Each residual's subtraction and norm
then cost a relative ε + γ(2N² + 4), and entries below the underflow
threshold an absolute N·√tiny.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import equivalence_oracle as oracle
from branchrep import (
    DiscreteBranchingSystem,
    OperatorError,
    Tolerances,
    align_bases,
    extract_branching_system,
    random_representation,
    verify_equivalence,
)
from branchrep.alignment import _EPS, _UNDERFLOW, _gamma
from branchrep.operators import induce
from conftest import oracle_examples, single_edge_graph
from test_alignment_oracle import _corrupt, acyclic_multigraph_cases


def _within_rounding(op, u, mine, theirs):
    """Whether the gathered residual ``mine`` of operator ``op`` is within the
    bound above of the dense ``theirs``."""
    n = len(u)
    xs = list(op.mapping)
    js = list(op.mapping.values())
    amps = np.array([op.amplitude[x] for x in xs])
    # a sum of nonnegative terms, computed short by at most a relative 2γ
    k = len(xs)
    s = np.linalg.norm((np.abs(u.conj().T[:, js]) * amps) @ np.abs(u[xs, :]))
    s *= 1 + 2 * _gamma(2 * n * n + k)
    products = 2 * _gamma(n) + _gamma(n) ** 2 + _EPS + (1 + _EPS) * _gamma(k)
    c = _EPS + _gamma(2 * n * n + 4)
    bound = products * s + c / (1 - c) * (mine + theirs) + 2 * n * _UNDERFLOW
    return abs(mine - theirs) <= bound


@settings(max_examples=oracle_examples(100), deadline=None)
@given(
    acyclic_multigraph_cases(),
    st.integers(0, 3),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
def test_gathered_residuals_are_within_rounding_of_the_dense_ones(case, faults, weighted, seed):
    """Honest representations, and the same certificate checked against
    ``faults`` corrupted matrices; ``weighted`` gives the extracted system
    random weights, so the canonical operators carry amplitudes other than 1."""
    g, _, _, rep = case
    tols = Tolerances()
    cert = extract_branching_system(rep, align_bases(rep, g, tols), g, tols)
    rng = np.random.default_rng(seed)
    if weighted:
        weights = {x: float(rng.uniform(0.25, 4.0)) for x in cert.system.universe}
        cert = dataclasses.replace(cert, system=dataclasses.replace(cert.system, weights=weights))
    if faults:
        rep = _corrupt(rep, g, rng, faults)
    mine = verify_equivalence(rep, cert, g, tols)
    theirs = oracle.verify_equivalence(rep, cert, g, tols)
    assert list(mine.edge_residuals) == list(theirs.edge_residuals)
    assert list(mine.vertex_residuals) == list(theirs.vertex_residuals)
    fam = induce(cert.system, g)
    u = cert.unitary
    for e in g.edges:
        op = fam.edge_ops[e.id]
        assert _within_rounding(op, u, mine.edge_residuals[e.id], theirs.edge_residuals[e.id])
    for v in g.vertices:
        op = fam.vertex_projs[v].as_partial_isometry()
        assert _within_rounding(op, u, mine.vertex_residuals[v], theirs.vertex_residuals[v])


@pytest.mark.parametrize("moved", [{0: 0, 1: 5}, {0: -1, 1: 0}], ids=["past-the-end", "negative"])
def test_an_index_outside_the_unitary_raises_as_the_original_does(moved):
    """A certificate whose universe is not 0..N-1 names a column the unitary
    does not have; a gather must not wrap a negative index around."""
    g = single_edge_graph()
    rep = random_representation(g, {"v": 1}, seed=3)
    cert = extract_branching_system(rep, align_bases(rep, g), g)
    s = cert.system
    system = DiscreteBranchingSystem(
        universe=tuple(moved[x] for x in s.universe),
        range_sets={k: frozenset(map(moved.get, r)) for k, r in s.range_sets.items()},
        domain_sets={k: frozenset(map(moved.get, d)) for k, d in s.domain_sets.items()},
        edge_maps={k: {moved[a]: moved[b] for a, b in f.items()} for k, f in s.edge_maps.items()},
    )
    cert = dataclasses.replace(cert, system=system)
    messages = []
    for verify in (verify_equivalence, oracle.verify_equivalence):
        with pytest.raises(OperatorError, match="outside matrix size 2") as err:
            verify(rep, cert, g)
        messages.append(str(err.value))
    assert messages[0] == messages[1]
