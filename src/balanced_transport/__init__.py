"""Discrete optimal transport with a balanced-allocation interpretation.

A transport plan maximizing sum(a * x) under prescribed row and column
sums corresponds one-to-one with a "balanced" allocation of the
multi-objective problem whose coefficients are b = exp(a): Pareto
efficient against the column constraints, and meeting the row
constraints.  This package computes such plans with a norm-stable
isoelastic-regularized scaling iteration (with optional temperature
annealing), certifies them with complementary-slackness reports, and
cross-checks everything against an exact desk-scale LP oracle.
"""

from .errors import (
    BalancedTransportError,
    DimensionMismatch,
    DivisionDegeneracy,
    GlobalFeasibilityViolation,
    InconsistentSupport,
    LengthMismatch,
    MaxItersExceeded,
    NonFiniteEntry,
    NonPositiveCoefficient,
    NonPositiveEntry,
    NonPositiveMarginal,
    NonPositiveScale,
    NonPositiveWeight,
    NumericalDegeneracy,
    Overflow,
    RootBracketFailure,
    SizeGuardExceeded,
    ValidationError,
    ZeroLine,
    ZeroMarginal,
)
from .model import (
    FEASIBILITY_RTOL,
    MAXIMIZE,
    MINIMIZE,
    DualPotentials,
    MOMAProblem,
    MongeCheckResult,
    OTProblem,
    Scalings,
    TransformSpec,
    TransportPlan,
    additive_weights,
    conjugate_linear,
    map_plan_from_unweighted,
    moma_to_ot,
    monge_check,
    ot_to_moma,
    rescale,
    require_valid,
    unweight,
)
from .regularized import (
    ETA_FLOOR,
    AnnealingSchedule,
    ConvergenceTrace,
    SolveResult,
    column_multipliers,
    criterion,
    isoelastic_utility,
    make_schedule,
    phi_eta_step,
    power_norm,
    row_equilibrate,
    solve,
    z_step,
)
from .classic import (
    ConcaveFamily,
    ConcaveIterationParams,
    ConcaveIterationResult,
    FixedPointReport,
    IPFPMatrixResult,
    concave_iteration,
    entropic_family,
    fixed_point_report,
    ipfp_matrix,
    ipfp_vector,
    isoelastic_family,
    nonreg_step,
)
from .verify import (
    KKTReport,
    OracleResult,
    greedy_northwest,
    hilbert_distance,
    lp_oracle,
    recover_duals,
    support_mask,
    verify_balanced,
)
from .experiments import (
    GridSpec,
    TrajectoryVisit,
    generate_grid,
    run_single_stage,
    small_example,
    small_example_solution,
    small_example_stagnation_matrices,
    trajectory_study,
)

__version__ = "0.1.0"
