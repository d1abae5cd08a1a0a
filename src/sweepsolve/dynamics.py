"""Penalized dynamics: right-hand side construction, time stepping, catching-up oracle.

The penalized motion follows -dx/dt = (A(x) - p)/lambda with p the selected
nearest point of A(x) on the instantaneous set.  The explicit fixed-step RK4
must resolve the 1/lambda decay, hence its step is capped by the stiffness
guard h <= SAFETY*lambda/(1 + M).

Inputs are validated once, at the boundary: x0, the set and operator
dimensions, the horizon T, the lambdas, the far parameters and the hypotheses
H1 (L < m) and H2 in ``Scenario``, whose ``margin`` m*alpha^2 - L is the one
source every bound divides by; lambda and (t, x) in ``penalized_rhs``, lambda
in ``integrate``, and each new state's finiteness.  Each right-hand-side stage
makes one query q(A(x)) of the set looked up as q = ``spec.at(t, x)``, building
no set instance but a probed intersection's; a member A(x) is its own nearest
point, so the velocity vanishes exactly there.  A set moving with x is looked up
at every stage, a state-independent one once per stage time (k2 and k3 share
t + h/2; k4's lookup serves the next k1 at t + h).  A node's image and phi come
from its k1 query; only the node at T needs its own.

States and images are lists of floats and every set kind answers on floats, so
a stage costs a few float operations, and the RK4 update reads
k = (p - A(x))/lambda inline.  Stages combine in the order of the array
expressions in the comments and dot products run left to right
(``set_zoo._fdot``): one bit pattern per input on every BLAS kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain

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
    h_max: float = math.inf     # RK4's step is the largest T/n under the guard and h_max

    def __post_init__(self):
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

    @classmethod
    def of(cls, nodes, lam, stats):     # nodes (t, x, A(x), phi), x and A(x) lists of floats
        ts, xs, zs, phis = zip(*nodes)
        rows = lambda vs: np.fromiter(chain.from_iterable(vs), float).reshape(len(ts), -1)
        return cls(np.fromiter(ts, float), rows(xs), rows(zs), np.fromiter(phis, float), lam, stats)

    @property
    def horizon(self) -> float:
        return float(self.times[-1])

    def __len__(self):
        return len(self.times)


def _stage(op, spec):
    """The stage (t, x, q) -> (A(x), p, phi, q) at a list state x: p is A(x)'s first nearest
    point by q, or by ``spec.at(t, x)`` if q is None, and the q returned serves any stage at t
    unless the set moves with x (then it is None); a non-finite A(x) raises first."""
    image, at = op.image, spec.at
    fixed = spec.state_lipschitz == 0.0

    def stage(t, x, q=None):
        z = image(x)
        if not all(map(math.isfinite, z)):      # also false on NaN and +-inf
            raise InvalidVector("operator image A(x) contains non-finite entries")
        q = q or at(t, x)
        points, phi = q(z)
        return z, points[0], phi, q if fixed else None
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
    z, p, _, _ = _stage(scenario.operator, scenario.moving_set)(t, x.tolist())
    return np.array([(pi - zi) / lam for pi, zi in zip(p, z)])


def integrate(scenario: Scenario, lam: float) -> Trajectory:
    """Integrate the penalized dynamics over [0, T] with fixed RK4 steps,
    h = T/n the largest such step under the guard and h_max.

    The tracking gap phi is recomputed from the geometry at every node, never
    propagated from its differential inequality.
    """
    if not lam > 0:
        raise ValueError("lambda must be positive")
    f = _stage(scenario.operator, scenario.moving_set)
    T = float(scenario.T)
    guard = SAFETY * lam / (1.0 + scenario.operator.M)
    n_steps = max(1, math.ceil(T / min(guard, scenario.integrator.h_max, T) - 1e-12))
    h = T / n_steps
    half, sixth = 0.5 * h, h / 6.0

    nodes, q = [], None
    t, x = 0.0, scenario.x0.tolist()
    for k in range(n_steps + 1):
        z1, p1, phi, _ = f(t, x, q)
        nodes.append((t, x, z1, phi))
        if k == n_steps:
            break
        # x + (h/6)*(k1 + 2*k2 + 2*k3 + k4), stages at x + 0.5*h*k, k_i = (p_i - z_i)/lam
        z2, p2, _, q = f(t + half, [xi + half * ((pi - zi) / lam) for xi, pi, zi in zip(x, p1, z1)])
        z3, p3, _, _ = f(t + half, [xi + half * ((pi - zi) / lam) for xi, pi, zi in zip(x, p2, z2)], q)
        z4, p4, _, q = f(t + h, [xi + h * ((pi - zi) / lam) for xi, pi, zi in zip(x, p3, z3)])
        x = [xi + sixth * ((a1 - b1) / lam + 2.0 * ((a2 - b2) / lam) + 2.0 * ((a3 - b3) / lam) + (a4 - b4) / lam)
             for xi, a1, b1, a2, b2, a3, b3, a4, b4 in zip(x, p1, z1, p2, z2, p3, z3, p4, z4)]
        if not all(map(math.isfinite, x)):
            raise StepFailure(
                f"state became non-finite at t = {t + h:g} (h = {h:g}); "
                "tighten the stiffness guard")
        t_next = (k + 1) * h if k + 1 < n_steps else T
        t, q = t_next, (q if t_next == t + h else None)        # k4's lookup serves the next k1
    stats = StepStats(n_steps, 0, 4 * n_steps, h)
    return Trajectory.of(nodes, lam, stats)


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

    x0 = scenario.x0.tolist()       # the set is state-independent: look it up at x0
    z = op.image(x0)
    nodes = [(0.0, x0, z, spec.at(0.0, x0)(z)[1])]
    for k in range(n_steps):
        t = (k + 1) * h_eff if k + 1 < n_steps else T
        q = spec.at(t, x0)          # queried for the projection, then for its phi
        z = q(z)[0][0]
        nodes.append((t, [zi / gamma for zi in z], z, q(z)[1]))
    return Trajectory.of(nodes, None, StepStats(n_steps, 0, 0, h_eff))
