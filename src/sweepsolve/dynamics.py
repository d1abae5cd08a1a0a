"""Penalized dynamics: right-hand side construction, time stepping, catching-up oracle.

The penalized motion follows -dx/dt = (A(x) - p)/lambda with p the selected
nearest point of A(x) on the instantaneous set.  Each right-hand-side
evaluation makes one set query, the projection: for a member A(x) every set
kind returns A(x) itself, so the velocity vanishes exactly there.  Explicit
steppers must resolve the 1/lambda decay, hence every method is capped by the
stiffness guard h <= c*lambda/(1 + M).  Once the grid is fixed, each node's
operator image is computed once and feeds both the stored images and phi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import StepFailure, UnsupportedScenario
from .operators import IdentityOperator, Operator, ScaledIdentityOperator
from .set_zoo import as_vector, instantiate, select_projection

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


def penalized_rhs(scenario: Scenario, lam: float, t: float, x) -> np.ndarray:
    """Velocity of the penalized dynamics at (t, x).

    Returns (p - A(x))/lambda with p the lexicographic selection among the
    nearest points of A(x), the first entry of the sorted ``project`` list;
    exactly +0.0 whenever A(x) is a member, because the projection of a
    member is the point itself.
    """
    if not lam > 0:
        raise ValueError("lambda must be positive")
    inst = instantiate(scenario.moving_set, t, x)  # validates x against the scenario
    z = scenario.operator.apply(x)
    return (inst.project(z)[0] - z) / lam


def _phi(scenario, t, x, z):
    """Distance of the image z = A(x) to C(t, x)."""
    return float(instantiate(scenario.moving_set, t, x).distance(z))


def _rk4_step(f, t, x, h):
    k1 = f(t, x)
    k2 = f(t + 0.5 * h, x + 0.5 * h * k1)
    k3 = f(t + 0.5 * h, x + 0.5 * h * k2)
    k4 = f(t + h, x + h * k3)
    return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def integrate(scenario: Scenario, lam: float) -> Trajectory:
    """Integrate the penalized dynamics over [0, T] with the configured method.

    The tracking gap phi is recomputed from the geometry at every accepted
    node, never propagated from its differential inequality.
    """
    cfg = scenario.integrator
    op = scenario.operator
    if not lam > 0:
        raise ValueError("lambda must be positive")
    guard = cfg.safety * lam / (1.0 + op.M)

    evals = [0]

    def f(t, x):
        evals[0] += 1
        return penalized_rhs(scenario, lam, t, x)

    if cfg.method in ("euler", "rk4"):
        traj = _integrate_fixed(scenario, lam, f, guard)
    else:
        traj = _integrate_adaptive(scenario, lam, f, guard)
    stats = traj.stats
    return Trajectory(traj.times, traj.states, traj.images, traj.phis, lam,
                      StepStats(stats.n_accepted, stats.n_rejected, evals[0],
                                stats.h_min_used, stats.h_max_used))


def _integrate_fixed(scenario, lam, f, guard):
    cfg = scenario.integrator
    T = float(scenario.T)
    h_target = min(guard, cfg.h_max, T)
    n_steps = max(1, math.ceil(T / h_target - 1e-12))
    h = T / n_steps

    times = np.empty(n_steps + 1)
    states = np.empty((n_steps + 1, scenario.n))
    x = scenario.x0.copy()
    times[0] = 0.0
    states[0] = x
    for k in range(n_steps):
        t = k * h
        if cfg.method == "euler":
            x = x + h * f(t, x)
        else:
            x = _rk4_step(f, t, x, h)
        if not np.all(np.isfinite(x)):
            raise StepFailure(
                f"state became non-finite at t = {t + h:g} (h = {h:g}); "
                "tighten the stiffness guard")
        times[k + 1] = (k + 1) * h
        states[k + 1] = x
    times[-1] = T
    return _assemble(scenario, lam, times, states,
                     StepStats(n_steps, 0, 0, h, h))


def _integrate_adaptive(scenario, lam, f, guard):
    cfg = scenario.integrator
    T = float(scenario.T)
    h_min = H_MIN_FACTOR * T
    h = min(guard, cfg.h_max, T)

    times = [0.0]
    states = [scenario.x0.copy()]
    t = 0.0
    x = scenario.x0.copy()
    accepted = 0
    rejected = 0
    h_lo, h_hi = math.inf, 0.0

    while t < T * (1.0 - 1e-14):
        h = min(h, cfg.h_max, guard, T - t)
        big = _rk4_step(f, t, x, h)
        half = _rk4_step(f, t, x, 0.5 * h)
        fine = _rk4_step(f, t + 0.5 * h, half, 0.5 * h)
        if np.all(np.isfinite(fine)) and np.all(np.isfinite(big)):
            err = float(np.linalg.norm(big - fine)) / 15.0
        else:
            err = math.inf
        if err <= cfg.tol_adapt:
            t += h
            x = fine
            times.append(t)
            states.append(x.copy())
            accepted += 1
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

    return _assemble(scenario, lam, np.array(times), np.array(states),
                     StepStats(accepted, rejected, 0,
                               0.0 if accepted == 0 else h_lo, h_hi))


def _assemble(scenario, lam, times, states, stats):
    op = scenario.operator
    images = np.array([op.apply(x) for x in states])
    phis = np.array([_phi(scenario, t, x, z) for t, x, z in zip(times, states, images)])
    return Trajectory(times, states, images, phis, lam, stats)


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

    x = scenario.x0.copy()
    z = op.apply(x)
    times = np.empty(n_steps + 1)
    states = np.empty((n_steps + 1, scenario.n))
    images = np.empty((n_steps + 1, scenario.n))
    phis = np.empty(n_steps + 1)
    times[0] = 0.0
    states[0] = x
    images[0] = z
    phis[0] = _phi(scenario, 0.0, x, z)
    for k in range(n_steps):
        t = (k + 1) * h_eff
        inst = instantiate(spec, t, x)
        z = select_projection(inst.project(z))
        x = z / gamma
        times[k] = k * h_eff
        times[k + 1] = t
        states[k + 1] = x
        images[k + 1] = z
        phis[k + 1] = float(inst.distance(z))
    times[-1] = T
    return Trajectory(times, states, images, phis, None,
                      StepStats(n_steps, 0, 0, h_eff, h_eff))
