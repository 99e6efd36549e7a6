"""Folner-type invariants on finite truncations of l2(G).

Exact word arithmetic and boundary ratios for the group invariant, and
frame-based evaluation of the Connes-Folner condition for group von Neumann
algebras, with certified witness constructions and a paradoxical-set audit.
"""

__version__ = "0.1.0"

from .boundary import (
    BoundaryReport,
    ElementSet,
    GeneratingSet,
    GroupSearchConfig,
    ball_family_ratios,
    boundary_ratio,
    exhaustive_min_ratio,
    interior_boundary,
    local_search_min_ratio,
)
from .connes import (
    ProjectionSearchConfig,
    QReport,
    UpperBoundCertificate,
    WitnessConfig,
    anneal_projection,
    build_witness_frame,
    certificate_formula,
    evaluate_Q,
    foelner_upper_estimate,
    limit_formula,
    witness_certificate,
)
from .errors import (
    ConvergenceError,
    DescriptorMismatch,
    FoelnerError,
    HeadroomViolation,
    InvariantViolation,
    PreconditionError,
    RankDeficiency,
    SeedRequired,
    UnitaryRequired,
)
from .l2ops import (
    Frame,
    GroupAlgebraElement,
    commutator_ratio,
    compress,
    gram_schmidt,
    nearest_unitary,
    svd_small,
    trace_defect,
)
from .paradox import (
    PrefixSet,
    c_value,
    chain_audit,
    contradiction_threshold,
    displacement_bound,
    prefix_set,
    verify_set_identities,
)
from .words import (
    Ball,
    GroupDescriptor,
    Word,
    ball,
    begins_with,
    format_word,
    free_abelian,
    free_group,
    multiply,
    parse_word,
    standard_generators,
    translation_indices,
)
