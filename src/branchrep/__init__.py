"""Branching systems and basis alignment for directed-graph operator families."""

from .alignment import (
    RESIDUAL_TOL,
    AlignmentError,
    BasisAssignment,
    ConcreteRepresentation,
    DegenerateRankError,
    EquivalenceCertificate,
    NotApplicableError,
    RepresentationError,
    align_bases,
    check_b2b,
    check_representation,
    extract_branching_system,
    haar_unitary,
    random_representation,
    rep_from_json,
    rep_to_json,
    verify_equivalence,
)
from .branching import (
    BranchingError,
    DiscreteBranchingSystem,
    branching_from_json,
    branching_to_json,
    radon_nikodym,
    synthesize,
    validate,
    vertex_dimensions,
)
from .graph import (
    ComponentDecomposition,
    DirectedGraph,
    Edge,
    GraphError,
    decompose,
    graph_from_json,
    is_p_simple,
    parse_graph,
    truncate,
)
from .operators import (
    CKReport,
    DiagonalProjection,
    GeneratorFamily,
    OperatorError,
    WeightedPartialIsometry,
    adjoint,
    compose,
    coordinate_export,
    identity_on,
    induce,
    to_matrix,
    verify_ck,
    wpi_matrix,
)
from .report import FAIL, NOT_APPLICABLE, PASS, CheckItem, Report, Tolerances
from .structure import (
    Classification,
    ClassificationKind,
    LevelDecomposition,
    Role,
    StructureError,
    VertexRole,
    check_structure,
    component_classifications,
    level_decomposition,
    level_report,
    vertex_roles,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
