"""The dense ``verify_equivalence``, kept verbatim as a test oracle.

It conjugates each generator's canonical matrix back through the unitary
with two N×N×N products. The library now forms each conjugate as one
gathered product; ``test_equivalence_oracle.py`` holds its residuals to
within a rounding bound of these. Like the library, it attaches the
residuals through ``_measured``, since a certificate takes none from its
constructor or from ``dataclasses.replace``.
"""

from __future__ import annotations

import numpy as np

from branchrep.alignment import (
    AlignmentError,
    ConcreteRepresentation,
    EquivalenceCertificate,
    _measured,
)
from branchrep.graph import DirectedGraph
from branchrep.operators import induce, wpi_matrix
from branchrep.report import Tolerances


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
    return _measured(cert, edge_residuals, vertex_residuals)
