"""Penalized dynamics: right-hand side construction, time stepping, catching-up oracle.

The penalized motion follows -dx/dt = (A(x) - p)/lambda with p the selected
nearest point of A(x) on the instantaneous set.  The explicit fixed-step RK4
must resolve the 1/lambda decay, hence its step is capped by the stiffness
guard h <= SAFETY*lambda/(1 + M).

Inputs are validated once, at the boundary: x0, the set and operator
dimensions, the horizon T, the lambdas, the far parameters and the hypotheses
H1 (L < m) and H2 in ``Scenario``, whose ``margin`` m*alpha^2 - L is the one
source every bound divides by; lambda and (t, x) in ``penalized_rhs``, lambda
in ``integrate``, h in ``catching_up``, and each new state's finiteness.

``integrate`` runs one RK4 loop and ``catching_up`` one projection loop, each
generated as Python source per (dimension n, operator kind, set kind) and built
by ``set_zoo.compiled`` on first use, once per process; each vector is n float
locals and the parameters are arguments.  Both compile from one ``_stage``: at
(t, s) it runs the operator's ``image_source``, checks A(s), looks the set up
and queries it inline, from the spec's ``lookup_source`` and its kind's
``query_source``, building no instance; ``set_zoo._feasible`` decides exactly,
by enumerating the active sets of its faces, whether an intersection whose
normals may fail to span is empty.  A set moving with x is
looked up at every stage, a state-independent one once per stage time (k2 and
k3 share t + h/2; k4's lookup serves the next k1 at t + h).  A node's image
and phi come from its k1 query.  A member A(x) is its own nearest point: the
velocity is exactly 0.  ``catching_up``'s node 0 is one stage; each step then
looks the set up once and queries it twice, for the new point and for its phi.

The generated statements run one fixed order of float operations: dot
products left to right from 0.0 (``set_zoo._fdot``), the box's clip rule,
stages x + (h/2)*k with k = (p - A(x))/lambda, the update
x + (h/6)*(k1 + 2*k2 + 2*k3 + k4), node times (k + 1)*h and T, and the checks
with their messages: a trajectory is bitwise the stage-by-stage one, with one
bit pattern per input on every BLAS kernel.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidVector,
    UnsupportedScenario,
    ValidationError,
)
from .operators import IdentityOperator, Operator, ScaledIdentityOperator
from .set_zoo import _each, _query, as_vector, checked_point, compiled

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
    """Grid solution with operator images and the set-tracking gap phi.  Built by ``of``,
    times, states, images and phis are column views of one (N, 2n + 2) float64 table laid
    out like the CSV: a row t, x, A(x), phi per node, 8*(2n + 2) bytes."""

    times: np.ndarray
    states: np.ndarray
    images: np.ndarray
    phis: np.ndarray
    lam: float | None
    stats: StepStats = field(default=StepStats(0, 0, 0, 0.0))

    @classmethod
    def of(cls, table, n, lam, stats):      # table: the rows in an array("d") or C-order ndarray, not copied
        rows = np.frombuffer(table, float).reshape(-1, 2 * n + 2)
        return cls(rows[:, 0], rows[:, 1:n + 1], rows[:, n + 1:-1], rows[:, -1], lam, stats)

    @property
    def horizon(self) -> float:
        return float(self.times[-1])

    def __len__(self):
        return len(self.times)


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
    z = scenario.operator.image(x.tolist())
    if not all(map(math.isfinite, z)):      # also false on NaN and +-inf
        raise InvalidVector("operator image A(x) contains non-finite entries")
    spec = scenario.moving_set      # its lookup and its kind's query, as a stage runs them
    p = _query(spec.kind, spec.n)(*spec._params(t, x.tolist()), z)[0][0]
    return np.array([(pi - zi) / lam for pi, zi in zip(p, z)])


def _stage(n, image, query, time, state, look, slope=""):
    """Source of one stage: ``time`` sets ts, s_# = ``state``, ``image`` sets z_# = A(s) and is
    checked, ``look`` looks the set up and ``query`` sets p_# and phi; then its slope k_#."""
    return [time, _each(f"s_# = {state}", n), image, f"if not ({_each('isfinite(z_#)', n, ' and ')}):",
            "    raise InvalidVector('operator image A(x) contains non-finite entries')", *look, *query,
            slope and _each(f"{slope}_# = (p_# - z_#) / lam", n)]


def _rk4_source(n, image, lookup, query, fixed):
    """Body of ``rk4(table, T, n_steps, h, half, sixth, lam, *params)``, each list parameter
    unpacked to name_#.  A ``_stage`` at (ts, s_#) looks the set up with ``lookup`` (once per stage
    time if the set is ``fixed`` in x, k4's serving the next k1 at t4) and queries it for p_#, phi."""
    stage = partial(_stage, n, image, query)
    body = [*stage("ts = t", "x_#", ["if t != t4:", *("    " + ln for ln in lookup)] if fixed else lookup),
            f"fromlist([t, {_each('x_#', n, ', ')}, {_each('z_#', n, ', ')}, phi])",
            "if k == n_steps:", "    break", _each("k1_# = (p_# - z_#) / lam", n),
            *stage("ts = t + half", "x_# + half * k1_#", lookup, "k2"),
            *stage("", "x_# + half * k2_#", [] if fixed else lookup, "k3"),
            *stage("ts = t4 = t + h", "x_# + h * k3_#", lookup),
            # x + (h/6)*(k1 + 2*k2 + 2*k3 + k4), k4 read inline
            _each("x_# = x_# + sixth * (k1_# + 2.0 * k2_# + 2.0 * k3_# + (p_# - z_#) / lam)", n),
            f"if not ({_each('isfinite(x_#)', n, ' and ')}):",
            "    raise StepFailure(f'state became non-finite at t = {t + h:g} (h = {h:g}); tighten the stiffness guard')",
            "t = (k + 1) * h if k + 1 < n_steps else T"]
    return ("fromlist, t, t4 = table.fromlist, 0.0, None", "for k in range(n_steps + 1):",
            *("    " + ln for ln in body if ln))


def _catching_up_source(n, image, lookup, query):
    """Body of ``catch(table, T, n_steps, h, x, gamma, *params)``: node 0 is the ``_stage`` at (0, x_#);
    each step looks the set up at its node time, moves z_# to its nearest point p_#, queries that
    point again for its phi and writes x = z/gamma."""
    row = "fromlist([t, {}, " + _each("z_#", n, ", ") + ", phi])"
    return ("fromlist, t = table.fromlist, 0.0", *_stage(n, image, query, "ts = t", "x_#", lookup),
            row.format(_each("x_#", n, ", ")), "for k in range(n_steps):",
            *("    " + ln for ln in ("ts = t = (k + 1) * h if k + 1 < n_steps else T", *lookup, *query,
                                     _each("z_# = p_#", n), *query, row.format(_each("z_# / gamma", n, ", ")))))


def _compiled(name, params, source, scenario, **extra):
    """``source(n, image, lookup, query)`` on the scenario's operator and set, compiled by
    ``set_zoo.compiled`` and called with ``params``, then x0, ``extra`` and the arguments it reads."""
    n, spec = scenario.n, scenario.moving_set
    op_args, image = scenario.operator.image_source(n)
    (set_args, lookup), query = spec.lookup_source(), spec.kind.query_source(n)
    args = {"x": scenario.x0.tolist(), **extra, **op_args, **set_args}
    loop = compiled(name, (*params, *args), source(n, image, lookup, query), n,
                    tuple(k for k, v in args.items() if isinstance(v, list)))
    return lambda *values: loop(*values, *args.values())


def integrate(scenario: Scenario, lam: float) -> Trajectory:
    """Integrate the penalized dynamics over [0, T] with fixed RK4 steps,
    h = T/n the largest such step under the guard and h_max.

    The tracking gap phi is recomputed from the geometry at every node, never
    propagated from its differential inequality.  Each node appends its row to
    one float64 ``array``, the table the Trajectory's columns view.
    """
    if not lam > 0:
        raise ValueError("lambda must be positive")
    T = float(scenario.T)
    guard = SAFETY * lam / (1.0 + scenario.operator.M)
    n_steps = max(1, math.ceil(T / min(guard, scenario.integrator.h_max, T) - 1e-12))
    h = T / n_steps
    table, fixed = array("d"), scenario.moving_set.state_lipschitz == 0.0
    rk4 = _compiled("rk4", ("table", "T", "n_steps", "h", "half", "sixth", "lam"),
                    partial(_rk4_source, fixed=fixed), scenario)
    rk4(table, T, n_steps, h, 0.5 * h, h / 6.0, lam)
    return Trajectory.of(table, scenario.n, lam, StepStats(n_steps, 0, 4 * n_steps, h))


def catching_up(scenario: Scenario, h: float) -> Trajectory:
    """Independent projection-recursion oracle for the unpenalized dynamics.

    Valid only when A = gamma*I and the set is convex and state-independent:
    there the normal-cone inclusion is invariant under the positive rescaling
    z = gamma*x, so the classical recursion z_{k+1} = proj_{C(t_{k+1})}(z_k)
    applies and x = z/gamma.
    """
    op, spec = scenario.operator, scenario.moving_set
    if not isinstance(op, (IdentityOperator, ScaledIdentityOperator)):
        raise UnsupportedScenario("catching-up requires A = gamma*identity")
    if not spec.convex:
        raise UnsupportedScenario("catching-up requires a convex moving set")
    if spec.state_lipschitz != 0.0:
        raise UnsupportedScenario("catching-up requires a state-independent moving set")
    if not h > 0:
        raise ValueError("h must be positive")
    T = float(scenario.T)
    n_steps = max(1, math.ceil(T / h - 1e-12))
    table = array("d")
    _compiled("catch", ("table", "T", "n_steps", "h"), _catching_up_source, scenario,
              gamma=getattr(op, "gamma", 1.0))(table, T, n_steps, T / n_steps)
    return Trajectory.of(table, scenario.n, None, StepStats(n_steps, 0, 0, T / n_steps))
