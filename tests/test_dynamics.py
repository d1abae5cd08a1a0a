import math

import numpy as np
import pytest

import sweepsolve as sw
from sweepsolve import dynamics, set_zoo
from conftest import (
    decay_scenario,
    drift_halfspace_scenario,
    moving_ball_scenario,
    static_interior_scenario,
)


# ---------------------------------------------------------------------------
# penalized_rhs
# ---------------------------------------------------------------------------

def test_rhs_pulls_toward_projection():
    sc = decay_scenario(gamma=1.0)
    v = sw.penalized_rhs(sc, 1.0, 0.0, np.array([2.0]))
    assert v == pytest.approx(np.array([-2.0]))


def test_rhs_zero_inside_set():
    sc = static_interior_scenario()
    v = sw.penalized_rhs(sc, 0.1, 0.3, np.array([0.2, 0.1]))
    assert np.array_equal(v, np.zeros(2))


def test_rhs_scales_with_operator_and_lambda():
    sc = decay_scenario(gamma=2.0)
    v = sw.penalized_rhs(sc, 0.5, 0.0, np.array([1.0]))
    assert v == pytest.approx(np.array([-4.0]))  # (0 - 2)/0.5


class _QueryLog:
    """Proxy of a set instance that records which attributes are used."""

    def __init__(self, inst, log):
        self._inst, self._log = inst, log

    def __getattr__(self, name):
        self._log.append(name)
        return getattr(self._inst, name)


_CORNER = (sw.HalfSpaceSpec(normal=[1.0, 0.0]), sw.HalfSpaceSpec(normal=[0.0, 1.0]))


@pytest.mark.parametrize("spec, member, outside", [
    (sw.HalfSpaceSpec(normal=[0.6, 0.8], beta0=0.4), [-1.0, 0.5], [2.0, 2.0]),
    (sw.BallSpec(center=[1.0, -1.0], radius=0.7), [1.2, -0.8], [3.0, 0.0]),
    (sw.BoxSpec(lower=[-1.0, 0.0], upper=[1.0, 2.0]), [0.3, 1.0], [2.0, -3.0]),
    (sw.WedgeSpec(apex=[0.5, -0.5]), [0.5, 1.0], [0.5, -2.0]),   # tie on the axis
    (sw.HalfSpaceIntersectionSpec(_CORNER), [-1.0, -0.5], [1.0, 0.5]),
    (sw.UnionSpec((sw.BallSpec(center=[-2.0, 0.0], radius=0.5),
                   sw.BallSpec(center=[2.0, 0.0], radius=0.5))), [2.0, 0.2], [0.0, 1.0]),
], ids=["half_space", "ball", "box", "wedge", "intersection", "union"])
def test_rhs_is_one_projection_query(monkeypatch, spec, member, outside):
    lam = 0.25
    sc = sw.Scenario(n=2, T=1.0, x0=np.array(member), operator=sw.IdentityOperator(),
                     moving_set=spec, lambdas=(lam,))
    log = []
    real = dynamics.instantiate
    monkeypatch.setattr(dynamics, "instantiate",
                        lambda *args: _QueryLog(real(*args), log))

    v = sw.penalized_rhs(sc, lam, 0.0, np.array(member))
    assert np.array_equal(v, np.zeros(2)) and not np.any(np.signbit(v))
    assert log == ["candidates"]

    log.clear()
    z = np.array(outside)
    v = sw.penalized_rhs(sc, lam, 0.0, z)
    expected = (sw.select_projection(real(spec, 0.0, z).project(z)) - z) / lam
    assert np.array_equal(v, expected) and np.any(v != 0.0)
    assert log == ["candidates"]


def test_rhs_requires_positive_lambda():
    sc = decay_scenario()
    with pytest.raises(ValueError):
        sw.penalized_rhs(sc, 0.0, 0.0, np.array([1.0]))


@pytest.mark.parametrize("spec, op", [
    (sw.BoxSpec(lower=[-1.0], upper=[1.0]), None),       # would broadcast over both axes
    (sw.BallSpec(center=[0.0], radius=1.0), None),
    (sw.HalfSpaceSpec(normal=[1.0, 0.0, 0.0]), None),
    (sw.BallSpec(center=[0.0, 0.0], radius=1.0), sw.LinearSPDOperator(np.eye(3))),
], ids=["box_1d", "ball_1d", "half_space_3d", "linear_spd_3x3"])
def test_mismatched_dimensions_never_integrate(spec, op):
    with pytest.raises(sw.DimensionMismatch):
        sc = sw.Scenario(n=2, T=1.0, x0=np.zeros(2), operator=op or sw.IdentityOperator(),
                         moving_set=spec, lambdas=(0.1,))
        sw.integrate(sc, 0.1)


@pytest.mark.parametrize("x, error", [
    ([0.0, 0.0], sw.DimensionMismatch), ([math.nan], sw.InvalidVector)])
def test_rhs_validates_state(x, error):
    with pytest.raises(error):
        sw.penalized_rhs(decay_scenario(), 0.1, 0.0, x)
    with pytest.raises(sw.InvalidVector):
        sw.penalized_rhs(decay_scenario(), 0.1, math.inf, [1.0])


# ---------------------------------------------------------------------------
# integrate: closed forms
# ---------------------------------------------------------------------------

def test_exponential_decay_identity():
    lam = 0.1
    sc = decay_scenario(gamma=1.0, T=0.1, lambdas=(lam,))
    traj = sw.integrate(sc, lam)
    assert traj.states[-1, 0] == pytest.approx(math.exp(-1.0), abs=1e-5)


def test_exponential_decay_scaled_operator():
    lam = 0.1
    sc = decay_scenario(gamma=2.0, T=0.1, lambdas=(lam,), h_max=lam / 100)
    traj = sw.integrate(sc, lam)
    assert traj.states[-1, 0] == pytest.approx(math.exp(-2.0), abs=1e-4)


def test_drifting_halfspace_tracking():
    lam = 0.05
    sc = drift_halfspace_scenario(lambdas=(lam,))
    traj = sw.integrate(sc, lam)
    exact = 1.0 - lam * (1.0 - math.exp(-1.0 / lam))
    assert traj.states[-1, 0] == pytest.approx(exact, abs=1e-6)
    assert traj.phis[-1] == pytest.approx(lam, abs=1e-3)


def test_static_interior_stays_constant():
    sc = static_interior_scenario()
    traj = sw.integrate(sc, 0.1)
    assert np.array_equal(traj.states[0], traj.states[-1])
    assert np.all(traj.phis == 0.0)


def test_adaptive_matches_closed_form():
    lam = 0.05
    sc = drift_halfspace_scenario(lambdas=(lam,), method="adaptive", tol_adapt=1e-9)
    traj = sw.integrate(sc, lam)
    exact = 1.0 - lam * (1.0 - math.exp(-1.0 / lam))
    assert traj.states[-1, 0] == pytest.approx(exact, abs=1e-7)
    assert traj.stats.n_accepted > 0


def test_grid_lands_exactly_on_horizon():
    sc = drift_halfspace_scenario(lambdas=(0.07,), T=0.9)
    traj = sw.integrate(sc, 0.07)
    assert traj.times[0] == 0.0
    assert traj.times[-1] == 0.9
    assert np.all(np.diff(traj.times) > 0)


def test_stiffness_guard_caps_step():
    lam = 0.05
    sc = drift_halfspace_scenario(lambdas=(lam,), safety=0.2)
    traj = sw.integrate(sc, lam)
    guard = 0.2 * lam / (1.0 + sc.operator.M)
    assert np.max(np.diff(traj.times)) <= guard + 1e-15


# ---------------------------------------------------------------------------
# integrate: invariants
# ---------------------------------------------------------------------------

def test_zero_inside_set_means_zero_displacement():
    sc = static_interior_scenario()
    traj = sw.integrate(sc, 0.1)
    steps = np.linalg.norm(np.diff(traj.states, axis=0), axis=1)
    assert np.all(steps[traj.phis[:-1] == 0.0] == 0.0)


@pytest.mark.parametrize("make", [
    lambda: (drift_halfspace_scenario(lambdas=(0.05,)), 0.05),
    lambda: (decay_scenario(gamma=2.0, T=0.1), 0.1),
    lambda: (moving_ball_scenario(lambdas=(0.05,)), 0.05),
])
def test_speed_bounded_by_phi_over_lambda(make):
    sc, lam = make()
    traj = sw.integrate(sc, lam)
    dt = np.diff(traj.times)
    speeds = np.linalg.norm(np.diff(traj.states, axis=0), axis=1) / dt
    assert np.max(speeds) <= 1.05 * np.max(traj.phis) / lam + 1e-12


def test_observed_order_euler():
    lam, T = 0.1, 0.2
    exact = math.exp(-2.0 * T / lam)
    errs = []
    for h in (lam / 16, lam / 32):
        sc = decay_scenario(gamma=2.0, T=T, lambdas=(lam,), method="euler",
                            h_max=h, safety=1.0)
        errs.append(abs(sw.integrate(sc, lam).states[-1, 0] - exact))
    order = math.log2(errs[0] / errs[1])
    assert abs(order - 1.0) <= 0.3


def test_observed_order_rk4():
    lam, T = 0.1, 0.2
    exact = math.exp(-2.0 * T / lam)
    errs = []
    for h in (lam / 16, lam / 32):
        sc = decay_scenario(gamma=2.0, T=T, lambdas=(lam,), method="rk4",
                            h_max=h, safety=1.0)
        errs.append(abs(sw.integrate(sc, lam).states[-1, 0] - exact))
    order = math.log2(errs[0] / errs[1])
    assert abs(order - 4.0) <= 0.3


def test_phi_recomputed_from_geometry():
    lam = 0.05
    sc = drift_halfspace_scenario(lambdas=(lam,))
    traj = sw.integrate(sc, lam)
    for i in (0, len(traj) // 2, len(traj) - 1):
        inst = sw.instantiate(sc.moving_set, traj.times[i], traj.states[i])
        assert traj.phis[i] == inst.distance(traj.images[i])


# ---------------------------------------------------------------------------
# integrate: one set query per stage
# ---------------------------------------------------------------------------

def _reference_integrate(sc, lam):
    """The integrator loop before stages shared a node's query.

    Every stage calls the public ``penalized_rhs``, every adaptive attempt
    recomputes k1, and each node's image and phi come from a fresh
    ``apply`` and ``distance`` once the grid is fixed.
    """
    cfg, T = sc.integrator, float(sc.T)
    guard = cfg.safety * lam / (1.0 + sc.operator.M)

    def f(t, x):
        return sw.penalized_rhs(sc, lam, t, x)

    def rk4(t, x, h):
        k1 = f(t, x)
        k2 = f(t + 0.5 * h, x + 0.5 * h * k1)
        k3 = f(t + 0.5 * h, x + 0.5 * h * k2)
        k4 = f(t + h, x + h * k3)
        return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    x = sc.x0.copy()
    times, states = [0.0], [x.copy()]
    if cfg.method in ("euler", "rk4"):
        n_steps = max(1, math.ceil(T / min(guard, cfg.h_max, T) - 1e-12))
        h = T / n_steps
        for k in range(n_steps):
            t = k * h
            x = x + h * f(t, x) if cfg.method == "euler" else rk4(t, x, h)
            times.append((k + 1) * h)
            states.append(x)
        times[-1] = T
    else:
        t, h = 0.0, min(guard, cfg.h_max, T)
        while t < T * (1.0 - 1e-14):
            h = min(h, cfg.h_max, guard, T - t)
            big = rk4(t, x, h)
            fine = rk4(t + 0.5 * h, rk4(t, x, 0.5 * h), 0.5 * h)
            if np.all(np.isfinite(fine)) and np.all(np.isfinite(big)):
                err = float(np.linalg.norm(big - fine)) / 15.0
            else:
                err = math.inf
            if err <= cfg.tol_adapt:
                t += h
                x = fine
                times.append(t)
                states.append(x.copy())
                growth = 5.0 if err == 0.0 else min(5.0, 0.9 * (cfg.tol_adapt / err) ** 0.2)
                h = max(h * max(growth, 0.2), dynamics.H_MIN_FACTOR * T)
            else:
                shrink = 0.2 if not math.isfinite(err) else max(0.2, 0.9 * (cfg.tol_adapt / err) ** 0.2)
                h = h * shrink
    images = [sc.operator.apply(x) for x in states]
    phis = [sw.instantiate(sc.moving_set, t, x).distance(z)
            for t, x, z in zip(times, states, images)]
    return tuple(np.array(a) for a in (times, states, images, phis))


_CORNER_DRIFT = (sw.HalfSpaceSpec(normal=[-1.0, 0.0], drift=-1.0),
                 sw.HalfSpaceSpec(normal=[0.0, -1.0], drift=-0.5))

ORACLE_CASES = {
    "half_space": (sw.HalfSpaceSpec(normal=[0.6, -0.8], beta0=-0.1, drift=-1.0), None),
    "ball": (sw.BallSpec(center=[0.0, 0.0], radius=0.3, velocity=[1.5, 0.5]), None),
    "box": (sw.BoxSpec(lower=[-1.0, -1.0], upper=[1.0, 1.0], lower_velocity=[4.0, 0.0],
                       upper_velocity=[4.0, 0.0]), None),
    "wedge": (sw.WedgeSpec(apex=[0.0, 0.0], apex_velocity=[0.0, 1.0]), None),  # ties on the axis
    "intersection": (sw.HalfSpaceIntersectionSpec(_CORNER_DRIFT), None),
    "union": (sw.UnionSpec((sw.BallSpec(center=[-2.0, 0.0], radius=0.5, velocity=[2.0, 1.0]),
                            sw.HalfSpaceIntersectionSpec(_CORNER_DRIFT))), None),
    "linear_spd": (sw.BallSpec(center=[0.0, 0.0], radius=0.3, velocity=[1.0, -1.0]),
                   sw.LinearSPDOperator([[2.0, 0.5], [0.5, 1.0]])),
    "state_half_space": (sw.HalfSpaceSpec(normal=[-1.0, 0.0], drift=-1.0, state_gain=-0.5,
                                          state_direction=[0.6, 0.8]), None),
    "state_ball": (sw.BallSpec(center=[0.0, 0.0], radius=0.3, velocity=[1.5, 0.0],
                               state_gain=0.3), None),
}


def _oracle_scenario(kind, method, lam):
    # T = 0.47 is not n*(T/n) in floating point, so the last node must sit at T
    spec, op = ORACLE_CASES[kind]
    return sw.Scenario(n=2, T=0.47, x0=np.zeros(2), operator=op or sw.IdentityOperator(),
                       moving_set=spec, lambdas=(lam,),
                       integrator=sw.IntegratorConfig(method=method))


@pytest.mark.parametrize("method", ["euler", "rk4", "adaptive"])
@pytest.mark.parametrize("kind", list(ORACLE_CASES))
def test_integrate_bit_identical_to_per_node_reassembly(kind, method):
    lam = 0.1
    sc = _oracle_scenario(kind, method, lam)
    traj = sw.integrate(sc, lam)
    ref = _reference_integrate(sc, lam)
    got = (traj.times, traj.states, traj.images, traj.phis)
    for name, a, b in zip(("times", "states", "images", "phis"), got, ref):
        assert a.shape == b.shape and np.array_equal(a, b), name
    assert traj.phis.max() > 0.0  # the set pushes: the velocity is not trivially zero
    if method != "adaptive":
        n = traj.stats.n_accepted
        assert traj.stats.rhs_evals == (n if method == "euler" else 4 * n)


def _count_queries(monkeypatch, spec_cls):
    """Log every attribute the integrator uses on the instances ``freeze`` returns."""
    log = []
    real = spec_cls.freeze
    monkeypatch.setattr(spec_cls, "freeze",
                        lambda self, t, x: _QueryLog(real(self, t, x), log))
    return log


@pytest.mark.parametrize("method, per_step", [("euler", 1), ("rk4", 4)])
def test_fixed_step_makes_one_query_per_stage(monkeypatch, method, per_step):
    lam = 0.05
    sc = drift_halfspace_scenario(lambdas=(lam,), method=method)
    log = _count_queries(monkeypatch, sw.HalfSpaceSpec)
    traj = sw.integrate(sc, lam)
    n_steps = traj.stats.n_accepted
    assert set(log) == {"candidates"}
    assert len(log) == per_step * n_steps + 1       # the node at T adds one query
    assert traj.stats.rhs_evals == per_step * n_steps


def test_adaptive_shares_each_nodes_k1(monkeypatch):
    # the kink at t = 0 (the start sits on the moving boundary) forces rejections
    lam = 0.05
    sc = drift_halfspace_scenario(lambdas=(lam,), method="adaptive", tol_adapt=1e-12)
    log = _count_queries(monkeypatch, sw.HalfSpaceSpec)
    stats = sw.integrate(sc, lam).stats
    assert stats.n_accepted > 0 and stats.n_rejected > 0
    # a node's first attempt: k1 + 3 (step h) + 3 (first h/2) + 4 (second h/2);
    # each retry from the same node reuses k1
    assert stats.rhs_evals == 11 * stats.n_accepted + 10 * stats.n_rejected
    assert set(log) == {"candidates"} and len(log) == stats.rhs_evals + 1


_OVERFLOW_SETS = {
    "half_space": sw.HalfSpaceSpec(normal=[1.0]),
    "intersection": sw.HalfSpaceIntersectionSpec((sw.HalfSpaceSpec(normal=[1.0]),)),
}


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("kind", list(_OVERFLOW_SETS))
def test_overflowing_image_is_a_named_error(monkeypatch, kind):
    # x0 is finite, but A(x0) = 4*x0 overflows to +-inf
    calls = []
    real = set_zoo.dykstra_project
    monkeypatch.setattr(set_zoo, "dykstra_project",
                        lambda *args, **kw: calls.append(1) or real(*args, **kw))
    for x0 in (1e308, -1e308):     # A(x0) = +inf, then -inf
        sc = sw.Scenario(n=1, T=1.0, x0=np.array([x0]), operator=sw.ScaledIdentityOperator(4.0),
                         moving_set=_OVERFLOW_SETS[kind], lambdas=(0.1,),
                         allow_infeasible_start=True)
        with pytest.raises(sw.InvalidVector):
            sw.integrate(sc, 0.1)
        with pytest.raises(sw.InvalidVector):
            sw.penalized_rhs(sc, 0.1, 0.0, sc.x0)
    assert calls == []


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_overflowing_state_is_a_step_failure():
    # A(x0) = x0 is finite, but the pull toward {z >= 0} overflows the first
    # Euler step; the check on the new state must catch it before A(x1)
    sc = sw.Scenario(n=1, T=1.0, x0=np.array([-1e308]), operator=sw.IdentityOperator(),
                     moving_set=sw.HalfSpaceSpec(normal=[-1.0]), lambdas=(0.1,),
                     integrator=sw.IntegratorConfig(method="euler"),
                     allow_infeasible_start=True)
    assert np.isinf(sw.penalized_rhs(sc, 0.1, 0.0, sc.x0)).all()
    with pytest.raises(sw.StepFailure):
        sw.integrate(sc, 0.1)


# ---------------------------------------------------------------------------
# integrate: a state-independent set is frozen once per stage time
# ---------------------------------------------------------------------------

def _count_freezes(monkeypatch, spec_cls):
    calls = []
    real = spec_cls.freeze
    monkeypatch.setattr(spec_cls, "freeze",
                        lambda self, t, x: calls.append(t) or real(self, t, x))
    return calls


@pytest.mark.parametrize("kind", ["half_space", "ball", "box", "wedge", "intersection", "union"])
def test_state_independent_set_freezes_at_most_three_times_per_step(monkeypatch, kind):
    sc = _oracle_scenario(kind, "rk4", 0.1)
    calls = _count_freezes(monkeypatch, type(sc.moving_set))
    n = sw.integrate(sc, 0.1).stats.n_accepted
    # k2 and k3 share t + h/2; k4 shares t + h with the next node's k1
    assert len(calls) <= 3 * n + 1
    assert len(set(calls)) == len(calls)   # no time is frozen twice


def test_state_dependent_set_freezes_at_every_stage(monkeypatch):
    sc = _oracle_scenario("state_half_space", "rk4", 0.1)
    calls = _count_freezes(monkeypatch, sw.HalfSpaceSpec)
    n = sw.integrate(sc, 0.1).stats.n_accepted
    assert len(calls) == 4 * n + 1


def test_threaded_sweep_matches_serial_sweep():
    sc = drift_halfspace_scenario(lambdas=(0.1, 0.05, 0.02, 0.01))
    serial = sw.lambda_sweep(sc, jobs=1, alpha_samples=0).trajectories
    threaded = sw.lambda_sweep(sc, jobs=2, alpha_samples=0).trajectories
    assert list(serial) == list(threaded) == list(sc.lambdas)
    for lam, a in serial.items():
        b = threaded[lam]
        for name in ("times", "states", "images", "phis"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), (lam, name)


def test_full_rank_intersection_is_never_probed(monkeypatch, scenario_dir):
    sc = sw.load_scenario(scenario_dir / "corner_push_dykstra.json")
    calls = []
    real = set_zoo.HalfSpaceIntersectionInstance.ensure_nonempty
    monkeypatch.setattr(set_zoo.HalfSpaceIntersectionInstance, "ensure_nonempty",
                        lambda self: calls.append(1) or real(self))
    traj = sw.integrate(sc, sc.lambdas[0])
    assert traj.phis.max() > 0.0 and calls == []


# z <= 1 - t and z >= 0 cross at t = 1: parallel normals, so every freeze probes
_CROSSING = sw.HalfSpaceIntersectionSpec((sw.HalfSpaceSpec(normal=[1.0], beta0=1.0, drift=-1.0),
                                          sw.HalfSpaceSpec(normal=[-1.0])))


def test_crossing_intersection_raises_when_empty():
    assert _CROSSING.freeze(0.5, np.zeros(1)).distance([2.0]) == pytest.approx(1.5)
    with pytest.raises(sw.EmptyInstance):
        _CROSSING.freeze(1.5, np.zeros(1))


def test_union_skips_an_empty_intersection_member():
    union = sw.UnionSpec((_CROSSING, sw.BallSpec(center=[5.0], radius=1.0)))
    assert len(union.freeze(0.5, np.zeros(1)).members) == 2
    inst = union.freeze(1.5, np.zeros(1))
    assert len(inst.members) == 1 and inst.distance([0.0]) == 4.0


# ---------------------------------------------------------------------------
# catching-up oracle
# ---------------------------------------------------------------------------

def test_catching_up_drift_clamps_to_boundary():
    sc = drift_halfspace_scenario(lambdas=(0.05,))
    cu = sw.catching_up(sc, 0.01)
    assert 1.0 - 2 * 0.01 <= cu.states[-1, 0] <= 1.0


def test_catching_up_static_set_constant():
    sc = static_interior_scenario()
    cu = sw.catching_up(sc, 0.05)
    assert np.array_equal(cu.states[0], cu.states[-1])


def test_catching_up_moving_ball_stays_feasible_until_contact():
    sc = moving_ball_scenario(T=1.0)
    cu = sw.catching_up(sc, 0.01)
    assert np.linalg.norm(cu.states[-1]) <= 0.01
    assert np.all(cu.phis <= 1e-12)


def test_catching_up_rejects_general_operator():
    sc = moving_ball_scenario(T=1.0)
    bad = sw.Scenario(n=2, T=1.0, x0=np.zeros(2),
                      operator=sw.LinearSPDOperator([[1.0, 0.0], [0.0, 4.0]]),
                      moving_set=sc.moving_set, lambdas=(0.1,))
    with pytest.raises(sw.UnsupportedScenario):
        sw.catching_up(bad, 0.01)


def test_catching_up_rejects_state_dependent_set():
    spec = sw.HalfSpaceSpec(normal=[-1.0], drift=-1.0,
                            state_gain=-0.5, state_direction=[1.0])
    sc = sw.Scenario(n=1, T=1.0, x0=np.zeros(1), operator=sw.IdentityOperator(),
                     moving_set=spec, lambdas=(0.1,))
    with pytest.raises(sw.UnsupportedScenario):
        sw.catching_up(sc, 0.01)


def test_catching_up_rejects_nonconvex_set():
    sc = sw.Scenario(n=2, T=1.0, x0=np.zeros(2), operator=sw.IdentityOperator(),
                     moving_set=sw.WedgeSpec(apex=[0.0, 0.0], apex_velocity=[0.0, 1.0]),
                     lambdas=(0.1,))
    with pytest.raises(sw.UnsupportedScenario):
        sw.catching_up(sc, 0.01)


@pytest.mark.parametrize("gamma", [1.0, 2.0])
def test_catching_up_agrees_with_penalization(gamma):
    lam, h = 0.02, 0.01
    sc = drift_halfspace_scenario(lambdas=(lam,), gamma=gamma)
    my = sw.integrate(sc, lam)
    cu = sw.catching_up(sc, h)
    assert sw.sup_diff(my, cu) <= 5.0 * (lam + h)
