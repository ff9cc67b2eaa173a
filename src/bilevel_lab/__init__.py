"""A laboratory for bilevel optimization at desk scale.

Structured quadratic bilevel instances with certified hardness properties,
accelerated solvers with exact oracle-complexity metering, implicit and
unrolled hypergradient estimators, and a verification harness for support
caps, suboptimality floors, and gradient-norm floors.
"""

from .errors import (
    BilevelLabError,
    BracketError,
    CapabilityError,
    ConfigError,
    ConstraintError,
    DimensionMismatchError,
    DivergenceError,
    DomainError,
    InfeasibleDimensionError,
    InvariantViolationError,
    SingularOperatorError,
)
from .hard_instances import (
    CscInstance,
    ScscInstance,
    build_csc,
    build_scsc,
    build_scsc_benchmark,
    csc_grad_floor_verify,
    csc_rstar,
    instance_from_json,
    instance_to_json,
    scsc_feasible_dimension,
    scsc_gap_floor,
)
from .hypergrad import (
    AgdConfig,
    HeavyBallConfig,
    HypergradientEstimate,
    agd_inner,
    aid_estimate,
    heavy_ball_solve,
    hypergradient_error_bound,
    itd_estimate,
    tail_log_slope,
)
from .linalg import (
    StructuredOperator,
    anti_banded_z,
    bisect_root,
    solve_dense,
    symmetric_eig_extremes,
    z_power_sum,
)
from .oracles import (
    OracleCounters,
    QuadraticBilevelOracle,
    QuadraticOuter,
    SmoothnessConstants,
    counted,
    exact_hypergradient,
    finite_difference_check,
)
from .solvers import (
    AccBiOBGConfig,
    AccBiOConfig,
    RunTrace,
    SolverConfig,
    TraceRecord,
    accbio,
    accbio_bg,
    baseline_aid_gd,
    default_inner_budgets,
    l_phi_estimate,
    regularize_convex,
    trace_to_csv,
)
from .span_lab import (
    LowerBoundReport,
    SupportProfile,
    simulate_on_instance,
    span_projection_residual,
    support_cap,
    verify_gap_floor,
    verify_grad_floor,
    verify_support_cap,
)

__version__ = "0.1.0"
