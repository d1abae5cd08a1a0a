"""Exception types shared across the package."""


class SweepSolveError(Exception):
    """Base class for every error raised by sweepsolve."""


class DimensionMismatch(SweepSolveError):
    """A vector or matrix has the wrong shape for the operation."""


class InvalidVector(SweepSolveError):
    """A vector contains NaN/Inf or violates a normalization requirement."""


class EmptyInstance(SweepSolveError):
    """A moving set evaluates to the empty set at the requested (t, x)."""


class ProjectionNotConverged(SweepSolveError):
    """Dykstra's scheme exceeded its iteration budget at the requested tolerance."""


class EmptyCandidates(SweepSolveError):
    """A projection selection was requested from an empty candidate list."""


class UnsupportedScenario(SweepSolveError):
    """The catching-up oracle was asked to run outside its validity domain."""


class StepFailure(SweepSolveError):
    """An integration step left a non-finite state."""


class GridMismatch(SweepSolveError):
    """Two trajectories do not cover the same time horizon."""


class TubeSamplingFailed(SweepSolveError):
    """No sample landed in the requested tube around the set."""


class UsageError(SweepSolveError):
    """A command-line argument is malformed or out of range."""


class ParseError(SweepSolveError):
    """A scenario document is syntactically or structurally invalid."""


class ValidationError(SweepSolveError):
    """A scenario violates one of the solvability hypotheses.

    ``hypothesis`` carries the short name of the violated condition
    ("H_A1", "H_A2", "H1", "H2", "feasibility", "penalty-gate") so callers
    can react programmatically.
    """

    def __init__(self, hypothesis, message):
        super().__init__(f"{hypothesis}: {message}")
        self.hypothesis = hypothesis
