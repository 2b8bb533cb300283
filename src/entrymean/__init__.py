"""Mean estimation for linearly structured data under cell-level corruption."""

from .corruption import (
    AdversaryKind,
    Budget,
    CorruptionPlan,
    apply_plan,
    can_simulate,
    make_plan,
    plan_budget,
    plan_concentrated_hiding,
    plan_sample_shift,
    plan_tail_hiding,
    plan_unrecoverable_hiding,
)
from .data import Dataset, load_dataset_csv, save_dataset_csv
from .datagen import (
    LatentSpec,
    StructureSpec,
    draw_latents,
    make_structure,
    population_covariance,
    population_mean,
    synthesize,
)
from .estimators import (
    EstimatorSpec,
    RecoverySpec,
    complete_case_mean,
    coordinate_median,
    empirical_mean,
    estimate,
    two_step_estimate,
)
from .metrics import (
    Coupling,
    DiscreteDistribution,
    cov_to_corr,
    entrywise_distance_avg,
    entrywise_distance_max,
    l2_error,
    mahalanobis_error,
    max_sign_quadratic,
    optimal_entrywise_coupling,
    tv_distance,
)
from .recovery import (
    CompletionReport,
    RecoveryOutcome,
    RecoveryStatus,
    iterative_svd_complete,
    recover_by_sparse_decoding,
    recover_replacement_exhaustive,
    recover_replacement_randomized,
    recover_table,
)
from .structure import (
    StructureMatrix,
    is_general_position,
    min_rows_to_drop_rank,
    null_space_basis,
    numerical_rank,
    sample_independent_rows,
)

__version__ = "0.1.0"
