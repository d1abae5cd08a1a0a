"""Penalized dynamics: right-hand side construction, time stepping, catching-up oracle.

The penalized motion follows -dx/dt = (A(x) - p)/lambda with p the selected
nearest point of A(x) on the instantaneous set.  The explicit fixed-step
Euler and RK4 must resolve the 1/lambda decay, hence their step is capped by
the stiffness guard h <= SAFETY*lambda/(1 + M).

Inputs are validated once, at the boundary: x0, the set and operator
dimensions, the horizon T, the lambdas, the far parameters and the hypotheses
H1 (L < m) and H2 in ``Scenario``, whose ``margin`` m*alpha^2 - L is the one
source every bound divides by; lambda and (t, x) in ``penalized_rhs``, lambda
in ``integrate``, and each new state's finiteness.  Each right-hand-side stage
makes one set query, the spec's ``nearest(t, x, A(x))``, and builds no set
instance but a probed intersection's; a member A(x) is its own nearest point,
so the velocity vanishes exactly there.  A node's image and phi come from its
k1 query (phi is taken at nodes only); only the node at T needs its own query.

States, images and velocities are lists of floats, so a stage on a 1-d or 2-d
point costs a few float operations, not a NumPy call each: ``Operator.image``
and the spec's ``nearest`` take lists, and every set kind computes its
parameters at (t, x) and answers the query in closed form on floats (Dykstra
on lists for an intersection).  Stages combine in the order of the array
expressions in the comments and dot products run left to right
(``set_zoo._dot``): one bit pattern per input on every BLAS kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidVector,
    StepFailure,
    UnsupportedScenario,
    ValidationError,
)
from .operators import IdentityOperator, Operator, ScaledIdentityOperator
from .set_zoo import as_vector, checked_point

SAFETY = 0.2        # c in the stiffness guard h <= c*lambda/(1 + M)


@dataclass(frozen=True)
class IntegratorConfig:
    method: str = "rk4"          # euler | rk4
    h_max: float = math.inf

    def __post_init__(self):
        if self.method not in ("euler", "rk4"):
            raise ValueError(f"unknown integrator method {self.method!r}")
        if not self.h_max > 0.0:
            raise ValueError("h_max must be positive")


@dataclass(frozen=True, eq=False)
class Scenario:
    """A complete problem description; immutable and shareable across workers.

    Building one checks 0 < T < inf, nonempty strictly descending lambdas in
    (0, inf), alpha in (0, 1], rho > 0, H1 (L < m) and H2
    (margin = m*alpha^2 - L > 0), so no bound divides by a margin <= 0.
    """

    n: int
    T: float
    x0: np.ndarray
    operator: Operator
    moving_set: object
    lambdas: tuple
    integrator: IntegratorConfig = IntegratorConfig()
    alpha_assumed: float = 1.0
    rho_assumed: float = math.inf
    allow_infeasible_start: bool = False
    output: object = None   # optional OutputConfig from a scenario file
    margin: float = field(init=False)   # m*alpha^2 - L, positive by H2

    def __post_init__(self):
        x0 = as_vector(self.x0, self.n, "x0")
        if self.moving_set.n != self.n:
            raise DimensionMismatch(f"set has dimension {self.moving_set.n}, state {self.n}")
        self.operator.check_dim(self.n)
        if not 0.0 < self.T < math.inf:     # also false on NaN
            raise ValueError(f"horizon T must be positive and finite, got {self.T!r}")
        lambdas = tuple(float(lam) for lam in self.lambdas)
        # descending, so its ends bound every entry; NaN fails every comparison
        if not (lambdas and all(a > b for a, b in zip(lambdas, lambdas[1:]))
                and 0.0 < lambdas[-1] <= lambdas[0] < math.inf):
            raise ValueError("lambdas must be nonempty, strictly descending, positive and "
                             f"finite, got {lambdas!r}")
        if not 0.0 < self.alpha_assumed <= 1.0:
            raise ValueError(f"alpha must lie in (0, 1], got {self.alpha_assumed!r}")
        if not self.rho_assumed > 0.0:
            raise ValueError(f"rho must be positive, got {self.rho_assumed!r}")
        m, L = self.operator.m, self.moving_set.state_lipschitz
        if not L < m:
            raise ValidationError("H1", f"L < m required (L = {L:g}, m = {m:g})")
        margin = m * self.alpha_assumed ** 2 - L
        if not margin > 0:
            raise ValidationError(
                "H2", f"stability margin m*alpha^2 - L = {margin:g} must be positive "
                      f"(alpha = {self.alpha_assumed:g})")
        object.__setattr__(self, "x0", x0)
        object.__setattr__(self, "lambdas", lambdas)
        object.__setattr__(self, "margin", margin)


@dataclass(frozen=True)
class StepStats:
    n_accepted: int
    n_rejected: int     # 0 for fixed steps; kept for the report's steps_rejected
    rhs_evals: int
    h: float


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Grid solution with operator images and the set-tracking gap phi."""

    times: np.ndarray
    states: np.ndarray
    images: np.ndarray
    phis: np.ndarray
    lam: float | None
    stats: StepStats = field(default=StepStats(0, 0, 0, 0.0))

    @property
    def horizon(self) -> float:
        return float(self.times[-1])

    def __len__(self):
        return len(self.times)


def _stage(op, spec, lam):
    """The stage (t, x) -> (A(x), phi, velocity) at a list state x from one query
    ``spec.nearest(t, x, A(x))``, whose first point is p; a non-finite A(x) raises first."""
    image, nearest = op.image, spec.nearest

    def stage(t, x):
        z = image(x)
        if not all(map(math.isfinite, z)):      # also false on NaN and +-inf
            raise InvalidVector("operator image A(x) contains non-finite entries")
        points, phi = nearest(t, x, z)
        return z, phi, [(pi - zi) / lam for pi, zi in zip(points[0], z)]     # (p - z)/lam
    return stage


def penalized_rhs(scenario: Scenario, lam: float, t: float, x) -> np.ndarray:
    """Velocity of the penalized dynamics at (t, x), with t, x and lambda validated.

    Returns (p - A(x))/lambda with p the lexicographic selection among the
    nearest points of A(x), the first of the sorted points ``nearest`` returns;
    exactly +0.0 whenever A(x) is a member, because the projection of a
    member is the point itself.
    """
    if not lam > 0:
        raise ValueError("lambda must be positive")
    t, x = checked_point(scenario.moving_set, t, x)
    return np.array(_stage(scenario.operator, scenario.moving_set, lam)(t, x.tolist())[2])


def integrate(scenario: Scenario, lam: float) -> Trajectory:
    """Integrate the penalized dynamics over [0, T] with fixed steps of the
    configured method, h = T/n the largest such step under the guard and h_max.

    The tracking gap phi is recomputed from the geometry at every node, never
    propagated from its differential inequality.
    """
    if not lam > 0:
        raise ValueError("lambda must be positive")
    cfg = scenario.integrator
    f = _stage(scenario.operator, scenario.moving_set, lam)
    T = float(scenario.T)
    guard = SAFETY * lam / (1.0 + scenario.operator.M)
    n_steps = max(1, math.ceil(T / min(guard, cfg.h_max, T) - 1e-12))
    h = T / n_steps
    euler = cfg.method == "euler"

    nodes = []
    t, x = 0.0, scenario.x0.tolist()
    for k in range(n_steps + 1):
        z, phi, k1 = f(t, x)
        nodes.append((t, x, z, phi))
        if k == n_steps:
            break
        if euler:
            x = [xi + h * ki for xi, ki in zip(x, k1)]
        else:       # x + (h/6)*(k1 + 2*k2 + 2*k3 + k4), stages at x + 0.5*h*k
            k2 = f(t + 0.5 * h, [xi + 0.5 * h * ki for xi, ki in zip(x, k1)])[2]
            k3 = f(t + 0.5 * h, [xi + 0.5 * h * ki for xi, ki in zip(x, k2)])[2]
            k4 = f(t + h, [xi + h * ki for xi, ki in zip(x, k3)])[2]
            x = [xi + h / 6.0 * (a + 2.0 * b + 2.0 * c + d) for xi, a, b, c, d in zip(x, k1, k2, k3, k4)]
        if not all(map(math.isfinite, x)):
            raise StepFailure(
                f"state became non-finite at t = {t + h:g} (h = {h:g}); "
                "tighten the stiffness guard")
        t = (k + 1) * h if k + 1 < n_steps else T
    stats = StepStats(n_steps, 0, n_steps * (1 if euler else 4), h)
    return Trajectory(*map(np.array, zip(*nodes)), lam, stats)


def catching_up(scenario: Scenario, h: float) -> Trajectory:
    """Independent projection-recursion oracle for the unpenalized dynamics.

    Valid only when A = gamma*I and the set is convex and state-independent:
    there the normal-cone inclusion is invariant under the positive rescaling
    z = gamma*x, so the classical recursion z_{k+1} = proj_{C(t_{k+1})}(z_k)
    applies and x = z/gamma.
    """
    op = scenario.operator
    if isinstance(op, IdentityOperator):
        gamma = 1.0
    elif isinstance(op, ScaledIdentityOperator):
        gamma = op.gamma
    else:
        raise UnsupportedScenario("catching-up requires A = gamma*identity")
    spec = scenario.moving_set
    if not spec.convex:
        raise UnsupportedScenario("catching-up requires a convex moving set")
    if spec.state_lipschitz != 0.0:
        raise UnsupportedScenario("catching-up requires a state-independent moving set")
    if not h > 0:
        raise ValueError("h must be positive")

    T = float(scenario.T)
    n_steps = max(1, math.ceil(T / h - 1e-12))
    h_eff = T / n_steps

    x0 = scenario.x0.tolist()       # the set is state-independent: query it at x0
    z = op.image(x0)
    nodes = [(0.0, x0, z, spec.nearest(0.0, x0, z)[1])]
    for k in range(n_steps):
        t = (k + 1) * h_eff if k + 1 < n_steps else T
        z = spec.nearest(t, x0, z)[0][0]
        nodes.append((t, [zi / gamma for zi in z], z, spec.nearest(t, x0, z)[1]))
    return Trajectory(*map(np.array, zip(*nodes)), None, StepStats(n_steps, 0, 0, h_eff))
