"""Penalized dynamics: right-hand side construction, time stepping, catching-up oracle.

The penalized motion follows -dx/dt = (A(x) - p)/lambda with p the selected
nearest point of A(x) on the instantaneous set.  Explicit steppers must
resolve the 1/lambda decay, hence every method is capped by the stiffness
guard h <= c*lambda/(1 + M).

Inputs are validated once, at the boundary: x0 and the set and operator
dimensions in ``Scenario``, lambda and (t, x) in ``penalized_rhs``, lambda in
``integrate``, and each new state's finiteness.  Each right-hand-side stage
makes one set query, ``nearest`` at its (t, x); a member A(x) is its own
nearest point, so the velocity vanishes exactly there.  A node's image and phi
come from its k1 query (phi is taken at nodes only); only the node at T needs
a query of its own.  A state-independent set is frozen once per stage time.

States, images and velocities are lists of floats, so a stage on a 1-d or 2-d
point costs a few float operations, not a NumPy call each; ``Operator.image``
and ``SetInstance.nearest`` take lists.  Stages combine in the order of the
array expressions in the comments and dot products run left to right
(``set_zoo._dot``): one bit pattern per input on every BLAS kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache, partial

import numpy as np

from .errors import DimensionMismatch, InvalidVector, StepFailure, UnsupportedScenario
from .operators import IdentityOperator, Operator, ScaledIdentityOperator
from .set_zoo import _dot, as_vector, instantiate

H_MIN_FACTOR = 1e-12  # adaptive step underflow threshold, relative to T


@dataclass(frozen=True)
class IntegratorConfig:
    method: str = "rk4"          # euler | rk4 | adaptive
    safety: float = 0.2          # c in the guard h <= c*lambda/(1+M)
    h_max: float = math.inf
    tol_adapt: float = 1e-7

    def __post_init__(self):
        if self.method not in ("euler", "rk4", "adaptive"):
            raise ValueError(f"unknown integrator method {self.method!r}")
        if not 0.0 < self.safety <= 1.0:
            raise ValueError("safety must lie in (0, 1]")
        if not self.h_max > 0.0:
            raise ValueError("h_max must be positive")
        if not self.tol_adapt > 0.0:
            raise ValueError("tol_adapt must be positive")


@dataclass(frozen=True, eq=False)
class Scenario:
    """A complete problem description; immutable and shareable across workers."""

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

    def __post_init__(self):
        x0 = as_vector(self.x0, self.n, "x0")
        if self.moving_set.n != self.n:
            raise DimensionMismatch(f"set has dimension {self.moving_set.n}, state {self.n}")
        self.operator.check_dim(self.n)
        object.__setattr__(self, "x0", x0)
        object.__setattr__(self, "lambdas", tuple(float(l) for l in self.lambdas))

    @property
    def state_lipschitz(self) -> float:
        return self.moving_set.state_lipschitz


@dataclass(frozen=True)
class StepStats:
    n_accepted: int
    n_rejected: int
    rhs_evals: int
    h_min_used: float
    h_max_used: float


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Grid solution with operator images and the set-tracking gap phi."""

    times: np.ndarray
    states: np.ndarray
    images: np.ndarray
    phis: np.ndarray
    lam: float | None
    stats: StepStats = field(default=StepStats(0, 0, 0, 0.0, 0.0))

    @property
    def horizon(self) -> float:
        return float(self.times[-1])

    def __len__(self):
        return len(self.times)


def _stage(op, freeze, lam, t, x):
    """(A(x), phi, velocity) at the list state (t, x) from one ``nearest`` query
    of ``freeze(t, x)``; a non-finite A(x) raises before the query."""
    z = op.image(x)
    if not all(map(math.isfinite, z)):      # also false on NaN and +-inf
        raise InvalidVector("operator image A(x) contains non-finite entries")
    p, phi = freeze(t, x).nearest(z)
    return z, phi, [(pi - zi) / lam for pi, zi in zip(p, z)]     # (p - z)/lam


def penalized_rhs(scenario: Scenario, lam: float, t: float, x) -> np.ndarray:
    """Velocity of the penalized dynamics at (t, x), with t, x and lambda validated.

    Returns (p - A(x))/lambda with p the lexicographic selection among the
    nearest points of A(x), the first entry of the sorted ``project`` list;
    exactly +0.0 whenever A(x) is a member, because the projection of a
    member is the point itself.
    """
    if not lam > 0:
        raise ValueError("lambda must be positive")
    inst = instantiate(scenario.moving_set, t, x)     # validates t and x
    x = np.array(x, dtype=float, ndmin=1).tolist()
    return np.array(_stage(scenario.operator, lambda t, x: inst, lam, t, x)[2])


def _rk4_step(f, t, x, h, k1):
    """One classical RK4 step from (t, x) whose first stage k1 is already known."""
    k2 = f(t + 0.5 * h, [xi + 0.5 * h * ki for xi, ki in zip(x, k1)])[2]
    k3 = f(t + 0.5 * h, [xi + 0.5 * h * ki for xi, ki in zip(x, k2)])[2]
    k4 = f(t + h, [xi + h * ki for xi, ki in zip(x, k3)])[2]
    c = h / 6.0      # x + (h/6)*(k1 + 2*k2 + 2*k3 + k4)
    return [xi + c * (a + 2.0 * b + 2.0 * d + e) for xi, a, b, d, e in zip(x, k1, k2, k3, k4)]


def integrate(scenario: Scenario, lam: float) -> Trajectory:
    """Integrate the penalized dynamics over [0, T] with the configured method.

    The tracking gap phi is recomputed from the geometry at every accepted
    node, never propagated from its differential inequality.
    """
    if not lam > 0:
        raise ValueError("lambda must be positive")
    guard = scenario.integrator.safety * lam / (1.0 + scenario.operator.M)
    spec = scenario.moving_set
    if spec.state_dependent:
        freeze = lambda t, x: spec.freeze(t, np.array(x))     # specs read x as an array
    else:
        # x is not read: k2 and k3 share t + h/2, k4 and the next k1 t + h when equal
        at = lru_cache(maxsize=1)(partial(spec.freeze, x=scenario.x0))
        freeze = lambda t, x: at(t)
    f = partial(_stage, scenario.operator, freeze, lam)
    if scenario.integrator.method in ("euler", "rk4"):
        nodes, stats = _integrate_fixed(scenario, f, guard)
    else:
        nodes, stats = _integrate_adaptive(scenario, f, guard)
    return Trajectory(*map(np.array, zip(*nodes)), lam, stats)


def _integrate_fixed(scenario, f, guard):
    """(t, x, A(x), phi) of each node, and the step counts."""
    cfg = scenario.integrator
    T = float(scenario.T)
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
        x = [xi + h * ki for xi, ki in zip(x, k1)] if euler else _rk4_step(f, t, x, h, k1)
        if not all(map(math.isfinite, x)):
            raise StepFailure(
                f"state became non-finite at t = {t + h:g} (h = {h:g}); "
                "tighten the stiffness guard")
        t = (k + 1) * h if k + 1 < n_steps else T
    return nodes, StepStats(n_steps, 0, n_steps * (1 if euler else 4), h, h)


def _integrate_adaptive(scenario, f, guard):
    """Step doubling: one RK4 step of h against two of h/2, both from the node's
    k1, so a node's first attempt costs 11 velocity evaluations and a retry 10."""
    cfg = scenario.integrator
    T = float(scenario.T)
    h_min = H_MIN_FACTOR * T
    h = min(guard, cfg.h_max, T)

    t, x = 0.0, scenario.x0.tolist()
    z, phi, k1 = f(t, x)
    nodes = [(t, x, z, phi)]
    rejected = 0
    h_lo, h_hi = math.inf, 0.0

    while t < T * (1.0 - 1e-14):
        h = min(h, cfg.h_max, guard, T - t)
        big = _rk4_step(f, t, x, h, k1)
        half = _rk4_step(f, t, x, 0.5 * h, k1)
        fine = _rk4_step(f, t + 0.5 * h, half, 0.5 * h, f(t + 0.5 * h, half)[2])
        if all(map(math.isfinite, fine + big)):
            gap = [b - c for b, c in zip(big, fine)]
            err = math.sqrt(_dot(gap, gap)) / 15.0
        else:
            err = math.inf
        if err <= cfg.tol_adapt:
            t, x = t + h, fine
            z, phi, k1 = f(t, x)
            nodes.append((t, x, z, phi))
            h_lo = min(h_lo, h)
            h_hi = max(h_hi, h)
            growth = 5.0 if err == 0.0 else min(5.0, 0.9 * (cfg.tol_adapt / err) ** 0.2)
            h = max(h * max(growth, 0.2), h_min)
        else:
            rejected += 1
            shrink = 0.2 if not math.isfinite(err) else max(0.2, 0.9 * (cfg.tol_adapt / err) ** 0.2)
            h = h * shrink
            if h < h_min:
                raise StepFailure(
                    f"adaptive step underflow at t = {t:g} (h = {h:g} < {h_min:g})")

    accepted = len(nodes) - 1
    stats = StepStats(accepted, rejected, 11 * accepted + 10 * rejected,
                      0.0 if accepted == 0 else h_lo, h_hi)
    return nodes, stats


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
    if spec.state_lipschitz != 0.0 or spec.state_dependent:
        raise UnsupportedScenario("catching-up requires a state-independent moving set")
    if not h > 0:
        raise ValueError("h must be positive")

    T = float(scenario.T)
    n_steps = max(1, math.ceil(T / h - 1e-12))
    h_eff = T / n_steps

    z = op.image(scenario.x0.tolist())
    nodes = [(0.0, scenario.x0, z, instantiate(spec, 0.0, scenario.x0).nearest(z)[1])]
    for k in range(n_steps):
        t = (k + 1) * h_eff if k + 1 < n_steps else T
        inst = instantiate(spec, t, scenario.x0)      # state-independent
        z = inst.nearest(z)[0]
        x = [zi / gamma for zi in z]
        nodes.append((t, x, z, inst.nearest(z)[1]))
    return Trajectory(*map(np.array, zip(*nodes)), None, StepStats(n_steps, 0, 0, h_eff, h_eff))
