"""Numerical certificates of optimality and exposedness for positive maps.

The package measures the product-vector zero structure of a linear positive
map between matrix algebras and turns span dimensions of that structure into
one-sided certificates.  See README.md for the command-line surface.
"""

__version__ = "0.1.0"

from .errors import (
    CrossCheckError,
    DimensionMismatch,
    EmptyZeroSet,
    KernelInclusionViolated,
    MapcertError,
    OracleUnstable,
    ParseError,
    RankDeficient,
    RankInfeasible,
    SchemaError,
    ZeroMap,
    ZeroOperator,
)
from .linalg import (
    DEFAULT_TOL,
    ToleranceConfig,
    as_matrix,
    generalized_inverse,
    image_projector,
    kernel_basis,
    kernel_inclusion_factor,
    numerical_rank,
    span_dimension,
)
from .maps import (
    MapOperator,
    NormalForm,
    PositivityReport,
    SearchOutcome,
    ZeroPair,
    adjoint_map,
    apply,
    choi_spectral_scale,
    cp_map_from_kraus,
    dephasing_map,
    from_apply_table,
    from_conjugation,
    identity_map,
    is_completely_positive,
    is_positive_heuristic,
    trace_map,
    transpose_map,
    unital_normalization,
)
from .zeros import (
    ZeroSet,
    analytic_zeros_conjugation,
    harvest_zeros,
    local_zero_search,
    strong_span_dim,
    weak_span_dim,
)
from .certify import (
    CERTIFIED,
    EXPOSED,
    INCONCLUSIVE,
    OPTIMAL,
    Certificate,
    FunctionalWitness,
    IntertwinerSpace,
    certify_exposed,
    certify_optimal,
    commutant_basis,
    exposedness_functional,
    intertwiner_space,
    is_irreducible,
    is_irreducible_on_image,
)
from .experiments import (
    ImageInclusionReport,
    SweepReport,
    brute_force_strong_dim_oracle,
    build_decomposable_witness,
    candidate_dims,
    check_image_inclusion,
    random_cp_map,
    random_kraus_operators,
    random_rank_operator,
    run_dimension_sweep,
    run_rank2_count_check,
    sweep_cells,
    sweep_default_cells,
)
from .documents import (
    CertificateDocument,
    MapDocument,
    SweepDocument,
    content_digest,
    matrix_to_payload,
    parse_certificate_document,
    parse_map_file,
    payload_to_matrix,
    render_certificate_document,
    render_map_document,
    to_map_operator,
)
