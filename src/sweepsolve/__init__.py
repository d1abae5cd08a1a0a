"""sweepsolve: penalized dynamics for sweeping processes with a degenerate operator.

The package integrates the penalized motion
-dx/dt = (A(x) - proj_{C(t,x)}(A(x)))/lambda with an RK4 loop compiled once
per (dimension, operator kind, set kind), looking the moving set C(t, x) up
and querying it inline, on floats, at each stage.  It cross-checks
against the catching-up recursion where that oracle is valid, and certifies
the quantitative tracking bounds (tube bound, trajectory Lipschitz constant,
truncated-Hausdorff moduli, far parameter alpha) on the results.  Only the
sampled estimators and parse-time checks freeze a set.
"""

from .analysis import (
    DiagnosticsReport,
    LambdaDiagnostics,
    SamplerConfig,
    check_phi_bound,
    estimate_alpha,
    estimate_kappa,
    kappa_tilde,
    lambda_sweep,
    lipschitz_estimate,
    sup_diff,
    truncated_hausdorff,
)
from .dynamics import (
    IntegratorConfig,
    Scenario,
    Trajectory,
    catching_up,
    integrate,
    penalized_rhs,
)
from .errors import (
    DimensionMismatch,
    EmptyCandidates,
    EmptyInstance,
    GridMismatch,
    InvalidVector,
    ParseError,
    ProjectionNotConverged,
    StepFailure,
    SweepSolveError,
    TubeSamplingFailed,
    UnsupportedScenario,
    UsageError,
    ValidationError,
)
from .hulls import min_norm_point
from .operators import (
    IdentityOperator,
    LinearSPDOperator,
    Operator,
    ScaledIdentityOperator,
)
from .scenario_io import (
    OutputConfig,
    load_scenario,
    parse_scenario,
    read_trajectory_csv,
    validate_scenario,
    write_trajectory_csv,
)
from .set_zoo import (
    BallSpec,
    BoxSpec,
    HalfSpaceIntersectionSpec,
    HalfSpaceSpec,
    SetInstance,
    UnionSpec,
    WedgeSpec,
    dykstra_project,
    instantiate,
)

__version__ = "0.1.0"

__all__ = [
    "BallSpec", "BoxSpec", "DiagnosticsReport", "DimensionMismatch",
    "EmptyCandidates", "EmptyInstance", "GridMismatch",
    "HalfSpaceIntersectionSpec", "HalfSpaceSpec", "IdentityOperator",
    "IntegratorConfig", "InvalidVector", "LambdaDiagnostics",
    "LinearSPDOperator", "Operator", "OutputConfig", "ParseError",
    "ProjectionNotConverged", "SamplerConfig", "ScaledIdentityOperator",
    "Scenario", "SetInstance", "StepFailure", "SweepSolveError", "Trajectory",
    "TubeSamplingFailed", "UnionSpec", "UnsupportedScenario", "UsageError",
    "ValidationError", "WedgeSpec", "catching_up", "check_phi_bound",
    "dykstra_project", "estimate_alpha", "estimate_kappa", "instantiate",
    "integrate", "kappa_tilde", "lambda_sweep", "lipschitz_estimate",
    "load_scenario", "min_norm_point", "parse_scenario", "penalized_rhs",
    "read_trajectory_csv", "sup_diff", "truncated_hausdorff",
    "validate_scenario", "write_trajectory_csv",
]
