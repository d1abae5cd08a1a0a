import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

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


def _no_instances(monkeypatch):
    """Make building any set instance fail: a stage runs the spec's lookup instead."""
    def refuse(self, *args):
        raise AssertionError("a set instance was built")
    monkeypatch.setattr(set_zoo.SetInstance, "__init__", refuse)


def _log_lookups(monkeypatch, spec_cls):
    """The times of every ``at`` lookup on a ``spec_cls`` spec, and the times of
    the lookups behind every query made through the callables they return."""
    lookups, queries = [], []
    real = spec_cls.at

    def at(self, t, x):
        lookups.append(t)
        q = real(self, t, x)
        return lambda z: queries.append(t) or q(z)
    monkeypatch.setattr(spec_cls, "at", at)
    return lookups, queries


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
    z = np.array(outside)
    expected = (sw.instantiate(spec, 0.0, z).project(z)[0] - z) / lam
    _no_instances(monkeypatch)
    lookups, queries = _log_lookups(monkeypatch, type(spec))

    v = sw.penalized_rhs(sc, lam, 0.0, np.array(member))
    assert np.array_equal(v, np.zeros(2)) and not np.any(np.signbit(v))
    assert lookups == queries == [0.0]

    lookups.clear(), queries.clear()
    v = sw.penalized_rhs(sc, lam, 0.0, z)
    assert np.array_equal(v, expected) and np.any(v != 0.0)
    assert lookups == queries == [0.0]


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


def test_rk4_at_half_the_guard_step_is_the_accuracy_setting():
    # h_max = guard/2 halves the step the guard allows: fourth order, so the
    # sup error over the grid falls by about 16 and every step still costs 4
    lam = 0.05
    guard = 0.2 * lam / 2.0
    errors = []
    for h_max in (math.inf, guard / 2):
        traj = sw.integrate(drift_halfspace_scenario(lambdas=(lam,), h_max=h_max), lam)
        t = traj.times
        errors.append(np.abs(traj.states[:, 0] - (t - lam * (1.0 - np.exp(-t / lam)))).max())
        assert traj.stats.h == pytest.approx(min(guard, h_max)) and traj.stats.n_rejected == 0
        assert traj.stats.rhs_evals == 4 * traj.stats.n_accepted == 4 * round(1.0 / traj.stats.h)
    assert errors[1] < 1e-9 and 12.0 < errors[0] / errors[1] < 20.0


def test_grid_lands_exactly_on_horizon():
    sc = drift_halfspace_scenario(lambdas=(0.07,), T=0.9)
    traj = sw.integrate(sc, 0.07)
    assert traj.times[0] == 0.0
    assert traj.times[-1] == 0.9
    assert np.all(np.diff(traj.times) > 0)


def test_stiffness_guard_caps_step():
    lam = 0.05
    sc = drift_halfspace_scenario(lambdas=(lam,))
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


def test_observed_order_rk4():
    lam, T = 0.1, 0.2
    exact = math.exp(-2.0 * T / lam)
    errs = []
    for h in (lam / 16, lam / 32):
        sc = decay_scenario(gamma=2.0, T=T, lambdas=(lam,), h_max=h)
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

def _batched_nearest(inst, z):
    """(nearest points, distance) of z from a one-row ``candidates`` and ``_ties``:
    the NumPy path, which shares no code with the generated kernels."""
    P, D = inst.candidates(np.array([z]))
    return set_zoo._ties(P[:, 0].tolist(), D[:, 0].tolist())


def _reference_integrate(sc, lam):
    """The integrator loop on arrays and frozen instances, independent of the stage.

    Every stage freezes the set through ``instantiate`` and asks the instance's
    batched ``candidates``, and each node's image and phi come from a fresh
    ``apply`` and ``candidates`` once the grid is fixed.
    """
    T = float(sc.T)
    guard = dynamics.SAFETY * lam / (1.0 + sc.operator.M)

    def f(t, x):
        z = sc.operator.apply(x)
        p = _batched_nearest(sw.instantiate(sc.moving_set, t, x), z)[0][0]
        return (np.array(p) - z) / lam

    x = sc.x0.copy()
    times, states = [0.0], [x.copy()]
    n_steps = max(1, math.ceil(T / min(guard, sc.integrator.h_max, T) - 1e-12))
    h = T / n_steps
    for k in range(n_steps):
        t = k * h
        k1 = f(t, x)
        k2 = f(t + 0.5 * h, x + 0.5 * h * k1)
        k3 = f(t + 0.5 * h, x + 0.5 * h * k2)
        k4 = f(t + h, x + h * k3)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        times.append((k + 1) * h)
        states.append(x)
    times[-1] = T
    images = [sc.operator.apply(x) for x in states]
    phis = [_batched_nearest(sw.instantiate(sc.moving_set, t, x), z)[1]
            for t, x, z in zip(times, states, images)]
    return tuple(np.array(a) for a in (times, states, images, phis))


_CORNER_DRIFT = (sw.HalfSpaceSpec(normal=[-1.0, 0.0], drift=-1.0),
                 sw.HalfSpaceSpec(normal=[0.0, -1.0], drift=-0.5))

ORACLE_CASES = {
    "half_space": (sw.HalfSpaceSpec(normal=[0.6, -0.8], beta0=-0.1, drift=-1.0), None),
    "rotating_half_space": (sw.HalfSpaceSpec(normal=[1.0, 0.0], beta0=-0.1, drift=-1.0,
                                             rotation_rate=2.0, rotation_partner=[0.0, 1.0]),
                            None),
    "ball": (sw.BallSpec(center=[0.0, 0.0], radius=0.3, velocity=[1.5, 0.5]), None),
    "box": (sw.BoxSpec(lower=[-1.0, -1.0], upper=[1.0, 1.0], lower_velocity=[4.0, 0.0],
                       upper_velocity=[4.0, 0.0]), None),
    "wedge": (sw.WedgeSpec(apex=[0.0, 0.0], apex_velocity=[0.0, 1.0]), None),  # ties on the axis
    "intersection": (sw.HalfSpaceIntersectionSpec(_CORNER_DRIFT), None),
    # three normals in the plane: probed for emptiness at every lookup
    "probed_intersection": (sw.HalfSpaceIntersectionSpec((
        sw.HalfSpaceSpec(normal=[1.0, 0.0], beta0=-0.1, drift=-1.0), sw.HalfSpaceSpec(normal=[-1.0, 0.0], beta0=1.0),
        sw.HalfSpaceSpec(normal=[0.6, 0.8], beta0=-0.2, drift=-0.5))), None),
    "union": (sw.UnionSpec((sw.BallSpec(center=[-2.0, 0.0], radius=0.5, velocity=[2.0, 1.0]),
                            sw.HalfSpaceIntersectionSpec(_CORNER_DRIFT))), None),
    "linear_spd": (sw.BallSpec(center=[0.0, 0.0], radius=0.3, velocity=[1.0, -1.0]),
                   sw.LinearSPDOperator([[2.0, 0.5], [0.5, 1.0]])),
    "state_half_space": (sw.HalfSpaceSpec(normal=[-1.0, 0.0], drift=-1.0, state_gain=-0.5,
                                          state_direction=[0.6, 0.8]), None),
    "state_ball": (sw.BallSpec(center=[0.0, 0.0], radius=0.3, velocity=[1.5, 0.0],
                               state_gain=0.3), None),
}


def _oracle_scenario(kind, lam):
    # T = 0.47 is not n*(T/n) in floating point, so the last node must sit at T
    spec, op = ORACLE_CASES[kind]
    return sw.Scenario(n=2, T=0.47, x0=np.zeros(2), operator=op or sw.IdentityOperator(),
                       moving_set=spec, lambdas=(lam,))


@pytest.mark.parametrize("kind", list(ORACLE_CASES), ids=lambda kind: f"{kind}-rk4")
def test_integrate_bit_identical_to_per_node_reassembly(kind):
    lam = 0.1
    sc = _oracle_scenario(kind, lam)
    traj = sw.integrate(sc, lam)
    ref = _reference_integrate(sc, lam)
    got = (traj.times, traj.states, traj.images, traj.phis)
    for name, a, b in zip(("times", "states", "images", "phis"), got, ref):
        assert a.shape == b.shape and np.array_equal(a, b), name
    assert traj.phis.max() > 0.0  # the set pushes: the velocity is not trivially zero
    assert traj.stats.rhs_evals == 4 * traj.stats.n_accepted


_coord = st.floats(-1.0, 1.0, allow_nan=False)


@st.composite
def _inlined_scenarios(draw):
    """A scenario whose operator and set the compiled loop runs inline, at n = 1, 2 or 3:
    the identity, gamma*I or an SPD matrix, and a half-space (its normal turning when
    n > 1) or a ball, moving in t and optionally in x, a box with moving bounds, at n = 2
    a translating wedge, an intersection of 1-3 such half-spaces, parallel normals among
    them so that it is probed, or a union of a ball, a box whose bounds cross mid-horizon
    and such an intersection, in any order."""
    n = draw(st.integers(1, 3))

    def vec():
        return np.array(draw(st.lists(_coord, min_size=n, max_size=n)))

    def unit(v):
        return v / np.linalg.norm(v)
    op = draw(st.sampled_from(["identity", "scaled_identity", "linear_spd"]))
    if op == "identity":
        op = sw.IdentityOperator()
    elif op == "scaled_identity":
        op = sw.ScaledIdentityOperator(draw(st.floats(0.5, 2.0)))
    else:
        B = np.array([vec() for _ in range(n)])
        op = sw.LinearSPDOperator(B @ B.T + 0.5 * np.eye(n))
    gain = draw(st.sampled_from([0.0, 0.5, -0.5])) * op.m      # H1: L = |gain| < m

    def half_space(normal, gain, beta0):
        direction, partner = vec(), vec()
        rate = draw(st.sampled_from([0.0, 2.5, -1.5])) if n > 1 else 0.0
        assume(min(np.linalg.norm(normal), np.linalg.norm(direction)) > 0.1)
        partner = partner - np.dot(partner, unit(normal)) * unit(normal)
        assume(rate == 0.0 or np.linalg.norm(partner) > 0.1)
        return sw.HalfSpaceSpec(normal=unit(normal), beta0=beta0, drift=draw(_coord),
                                state_gain=gain, state_direction=unit(direction),
                                rotation_rate=rate, rotation_partner=unit(partner) if rate else None)

    def intersection():
        faces = []
        for _ in range(draw(st.integers(1, 3))):
            if faces and (n == 1 or draw(st.booleans())):     # parallel to the first, turning with it
                first, sign = faces[0], draw(st.sampled_from([1.0, -1.0]))
                partner = first.rotation_partner
                faces.append(dataclasses.replace(
                    first, normal=sign * first.normal, beta0=draw(st.floats(0.0, 1.0)), drift=draw(_coord),
                    rotation_partner=None if partner is None else sign * partner))
                continue
            normal = vec()      # else 25 degrees or more from the others, so Dykstra converges fast
            assume(np.linalg.norm(normal) > 0.1 and all(abs(np.dot(unit(normal), f.normal)) < 0.9 for f in faces))
            faces.append(half_space(normal, draw(st.sampled_from([0.0, gain])), draw(st.floats(0.0, 1.0))))
        return sw.HalfSpaceIntersectionSpec(tuple(faces))

    def ball():
        return sw.BallSpec(center=vec(), radius=draw(st.floats(0.1, 1.0)), velocity=vec(), state_gain=gain)
    kind = draw(st.sampled_from(["half_space", "ball", "box", "intersection", "union"] + ["wedge"] * (n == 2)))
    if kind == "half_space":
        spec = half_space(vec(), gain, draw(_coord))
    elif kind == "wedge":
        spec = sw.WedgeSpec(apex=vec(), apex_velocity=vec())
    elif kind == "ball":
        spec = ball()
    elif kind == "box":
        lower, lower_velocity = vec(), vec()
        spec = sw.BoxSpec(lower=lower, upper=lower + np.abs(vec()), lower_velocity=lower_velocity,
                          upper_velocity=lower_velocity + np.abs(vec()))
    elif kind == "intersection":
        spec = intersection()
    else:   # the box's bounds close at the rate ``closing`` and cross at t_cross
        lower, lower_velocity, closing = vec(), vec(), 0.1 + np.abs(vec())
        t_cross = draw(st.floats(0.005, 0.045))
        box = sw.BoxSpec(lower=lower, upper=lower + closing * t_cross, lower_velocity=lower_velocity,
                         upper_velocity=lower_velocity - closing)
        spec = sw.UnionSpec(tuple(draw(st.permutations([ball(), box, intersection()]))))
    return sw.Scenario(n=n, T=0.05, x0=2.0 * vec(), operator=op, moving_set=spec, lambdas=(0.1,),
                       allow_infeasible_start=True)


def _result_or_error(run):
    """run()'s result, or the name and message of the named error it raises."""
    try:
        return run()
    except sw.SweepSolveError as exc:
        return f"{type(exc).__name__}: {exc}"


@settings(max_examples=100, deadline=None)
@given(sc=_inlined_scenarios())
def test_inlined_kinds_match_the_reference_bit_for_bit(sc):
    # an intersection may empty: both then raise the same error, from the same stage
    traj = _result_or_error(lambda: sw.integrate(sc, 0.1))
    ref = _result_or_error(lambda: _reference_integrate(sc, 0.1))
    if isinstance(ref, str) or isinstance(traj, str):
        assert traj == ref
        return
    got = (traj.times, traj.states, traj.images, traj.phis)
    for name, a, b in zip(("times", "states", "images", "phis"), got, ref):
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name     # signs of zero too


def _stage_times(traj, fixed):
    """(lookup times, query times) that ``integrate`` should make on ``traj``'s grid:
    a query per stage, at t, t + h/2, t + h/2 and t + h for RK4, and one at T.
    A state-dependent set is looked up once per query; a state-independent one
    once per stage time, its k4 lookup serving the next node's k1 when that
    node sits at t + h bit for bit."""
    h, nodes = traj.stats.h, traj.times.tolist()
    lookups, queries, reuse = [], [], False
    for t, t_next in zip(nodes, nodes[1:]):
        stages = [t, t + 0.5 * h, t + 0.5 * h, t + h]
        queries += stages
        lookups += stages[(1 if reuse else 0):2] + stages[3:] if fixed else stages
        reuse = fixed and t_next == t + h
    return lookups + nodes[-1:][(1 if reuse else 0):], queries + nodes[-1:]


def _assert_reference(traj, sc, lam):
    """``traj`` is ``_reference_integrate(sc, lam)`` byte for byte, signs of zero included."""
    for name, a, b in zip(("times", "states", "images", "phis"),
                          (traj.times, traj.states, traj.images, traj.phis), _reference_integrate(sc, lam)):
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name


def _count_probes(monkeypatch):
    """The faces of every feasibility probe, as its intersection instance's ``_args``: a probed
    lookup builds that instance from the faces it has just set and asks its ``ensure_nonempty``."""
    probes = []
    real = set_zoo.HalfSpaceIntersectionInstance.ensure_nonempty
    monkeypatch.setattr(set_zoo.HalfSpaceIntersectionInstance, "ensure_nonempty",
                        lambda self: probes.append(self._args) or real(self))
    return probes


def _faces_at(spec, t, x):
    """The faces of the intersection ``spec`` at (t, x), from its members' own lookups."""
    return tuple(a for m in spec.members for a in m.freeze(t, np.asarray(x))._args)


@pytest.mark.parametrize("per_step", [4], ids=["rk4-4"])
def test_fixed_step_makes_one_query_per_stage(monkeypatch, per_step):
    # every stage queries the set inline; a probed intersection's lookup probes its faces once,
    # so its probes are the lookups, and the reference pins each stage's query
    lam = 0.05
    sc = _oracle_scenario("probed_intersection", lam)
    probes = _count_probes(monkeypatch)
    traj = sw.integrate(sc, lam)
    n_steps, h = traj.stats.n_accepted, traj.stats.h
    assert traj.stats.rhs_evals == per_step * n_steps
    # the set is state-independent: k2 and k3 share the lookup at h/2
    assert probes[:3] == [_faces_at(sc.moving_set, t, sc.x0) for t in (0.0, 0.5 * h, h)]
    assert len(probes) <= 3 * n_steps + 1
    assert probes == [_faces_at(sc.moving_set, t, sc.x0) for t in _stage_times(traj, fixed=True)[0]]
    monkeypatch.undo()
    _assert_reference(traj, sc, lam)


_OVERFLOW_SETS = {
    "half_space": sw.HalfSpaceSpec(normal=[1.0]),
    "intersection": sw.HalfSpaceIntersectionSpec((sw.HalfSpaceSpec(normal=[1.0]),)),
    "ball": sw.BallSpec(center=[0.0], radius=1.0),
    "box": sw.BoxSpec(lower=[-1.0], upper=[1.0]),
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
    # A(x0) = x0 and the velocity 1e308 toward {z >= 0} are finite, but the first
    # step's 2*k2 overflows; the check on the new state must catch it before A(x1)
    sc = sw.Scenario(n=1, T=1.0, x0=np.array([-1e308]), operator=sw.IdentityOperator(),
                     moving_set=sw.HalfSpaceSpec(normal=[-1.0]), lambdas=(1.0,),
                     allow_infeasible_start=True)
    assert sw.penalized_rhs(sc, 1.0, 0.0, sc.x0).tolist() == [1e308]
    with pytest.raises(sw.StepFailure, match=r"at t = 0\.1 "):
        sw.integrate(sc, 1.0)


def test_box_crossing_mid_horizon_is_named_at_its_stage_time():
    # the bounds of the second axis cross at t = 2/1.7; the first stage past it is the
    # midpoint t + h/2 of the step from 176*h, with h = 1.5/225
    spec = sw.BoxSpec(lower=[-1.0, -1.0], upper=[1.0, 1.0], lower_velocity=[0.0, 1.0],
                      upper_velocity=[0.0, -0.7])
    sc = sw.Scenario(n=2, T=1.5, x0=np.array([0.0, 0.25]), operator=sw.ScaledIdentityOperator(2.0),
                     moving_set=spec, lambdas=(0.1,))
    with pytest.raises(sw.EmptyInstance) as raised:
        sw.integrate(sc, 0.1)
    assert str(raised.value) == "box has crossed bounds at t = 1.1766666666666667"


# ---------------------------------------------------------------------------
# integrate and catching_up: the spec answers every query, no instance is built
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind", list(ORACLE_CASES))
def test_integrate_builds_no_instance(monkeypatch, kind):
    # every kind's lookup and query run inline, and no spec's ``at`` is asked; only
    # probed_intersection builds an instance, its probe's, once per lookup
    sc = _oracle_scenario(kind, 0.1)
    if kind != "probed_intersection":
        _no_instances(monkeypatch)
    lookups, queries = _log_lookups(monkeypatch, set_zoo._Moving)    # every spec's ``at``
    traj = sw.integrate(sc, 0.1)
    assert hasattr(sc.moving_set, "lookup_source") and hasattr(sc.moving_set.kind, "query_source")
    assert lookups == queries == [] and traj.phis.max() > 0.0


def test_state_dependent_fallback_kind_is_looked_up_at_every_stage(monkeypatch):
    # a probed intersection moving with x is looked up, and its faces probed, once per query
    spec = sw.HalfSpaceIntersectionSpec((
        sw.HalfSpaceSpec(normal=[-1.0, 0.0], drift=-1.0),
        sw.HalfSpaceSpec(normal=[1.0, 0.0], beta0=1.0, state_gain=0.25, state_direction=[0.0, 1.0])))
    sc = sw.Scenario(n=2, T=0.47, x0=np.zeros(2), operator=sw.IdentityOperator(),
                     moving_set=spec, lambdas=(0.1,))
    probes = _count_probes(monkeypatch)
    traj = sw.integrate(sc, 0.1)
    lookups, queries = _stage_times(traj, fixed=False)
    assert traj.phis.max() > 0.0 and lookups == queries
    # the first face does not move with x: its offset -t names the stage time of each probe
    assert [faces[1] for faces in probes] == [spec.members[0].freeze(t, sc.x0).beta for t in lookups]
    monkeypatch.undo()
    _assert_reference(traj, sc, 0.1)


@pytest.mark.parametrize("kind", list(ORACLE_CASES))
def test_a_spec_of_a_compiled_structure_compiles_nothing(kind):
    spec, op = ORACLE_CASES[kind]
    x, z = [0.3, -0.2], [2.0, 1.0]

    def run(spec):
        spec.freeze(0.1, np.array(x)).nearest(z)
        spec.at(0.1, x)(z)
        sw.integrate(sw.Scenario(n=2, T=0.47, x0=np.zeros(2), operator=op or sw.IdentityOperator(),
                                 moving_set=spec, lambdas=(0.1,)), 0.1)
    run(spec)
    twin = dataclasses.replace(spec)        # a new spec of the same structure
    before = set_zoo.compiled.cache_info()
    run(twin)
    assert set_zoo.compiled.cache_info().misses == before.misses
    # queries reuse the kind's kernel and the spec's lookup without asking the cache
    before = set_zoo.compiled.cache_info()
    inst = twin.freeze(0.2, np.array(x))
    inst.nearest(z), inst.distance(z), inst.project(z), twin.at(0.2, x)(z), twin.at(0.3, z)(x)
    assert set_zoo.compiled.cache_info() == before


class _SourcelessOperator(sw.Operator):
    """An operator kind with only ``image``: the compiled loop calls it on a list."""

    m = M = 1.5

    def image(self, x):
        return [1.5 * xi for xi in x]


def test_an_operator_kind_without_source_calls_its_image():
    sc = sw.Scenario(n=2, T=0.47, x0=np.zeros(2), operator=_SourcelessOperator(),
                     moving_set=ORACLE_CASES["ball"][0], lambdas=(0.1,))
    traj = sw.integrate(sc, 0.1)
    for a, b in zip((traj.times, traj.states, traj.images, traj.phis), _reference_integrate(sc, 0.1)):
        assert a.shape == b.shape and np.array_equal(a, b)
    assert traj.phis.max() > 0.0


@pytest.mark.parametrize("kind", ["half_space", "rotating_half_space", "ball", "box",
                                  "intersection"])
def test_catching_up_builds_no_instance(monkeypatch, kind):
    sc = _oracle_scenario(kind, 0.1)
    _no_instances(monkeypatch)
    lookups, queries = _log_lookups(monkeypatch, type(sc.moving_set))
    traj = sw.catching_up(sc, 0.01)
    n = traj.stats.n_accepted
    # one lookup per node, queried for the projection and its phi at every step
    assert lookups == traj.times.tolist() and len(lookups) == n + 1
    assert len(queries) == 2 * n + 1 and queries[1:] == [t for t in lookups[1:] for _ in (0, 1)]


def _log_lookup_blocks(monkeypatch, spec_cls):
    """The stage time of every lookup block that ``integrate``'s compiled loop runs for a
    ``spec_cls`` set, its inline freeze: the block starts with a call that logs ts."""
    times, real = [], spec_cls.lookup_source

    def lookup_source(self):
        args, lookup = real(self)
        return {**args, "lookup_log": times.append}, ["lookup_log(ts)", *lookup]
    monkeypatch.setattr(spec_cls, "lookup_source", lookup_source)
    return times


@pytest.mark.parametrize("kind", ["half_space", "ball", "box", "wedge", "intersection", "union"])
def test_state_independent_set_freezes_at_most_three_times_per_step(monkeypatch, kind):
    sc = _oracle_scenario(kind, 0.1)
    lookups = _log_lookup_blocks(monkeypatch, type(sc.moving_set))
    traj = sw.integrate(sc, 0.1)
    n = traj.stats.n_accepted
    # k2 and k3 share t + h/2; k4 shares t + h with the next node's k1
    assert n > 0 and len(lookups) <= 3 * n + 1
    assert len(set(lookups)) == len(lookups)   # no time is looked up twice
    assert lookups == _stage_times(traj, fixed=True)[0]
    monkeypatch.undo()
    _assert_reference(traj, sc, 0.1)


def test_threaded_sweep_matches_serial_sweep():
    sc = drift_halfspace_scenario(lambdas=(0.1, 0.05, 0.02, 0.01))
    serial = sw.lambda_sweep(sc, jobs=1).trajectories
    threaded = sw.lambda_sweep(sc, jobs=2).trajectories
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


def test_probed_intersection_freezes_once_per_query(monkeypatch):
    # the probe for emptiness builds an instance from the faces of each lookup; the
    # set is state-independent, so there is one lookup per stage time
    sc = sw.Scenario(n=1, T=0.5, x0=np.array([2.0]), operator=sw.IdentityOperator(),
                     moving_set=_CROSSING, lambdas=(0.1,), allow_infeasible_start=True)
    probes = _count_probes(monkeypatch)
    traj = sw.integrate(sc, 0.1)
    assert traj.phis.max() > 0.0 and len(probes) <= 3 * traj.stats.n_accepted + 1
    assert probes == [_faces_at(_CROSSING, t, sc.x0) for t in _stage_times(traj, fixed=True)[0]]


def test_crossing_intersection_raises_when_empty():
    assert _CROSSING.freeze(0.5, np.zeros(1)).distance([2.0]) == pytest.approx(1.5)
    with pytest.raises(sw.EmptyInstance):
        _CROSSING.freeze(1.5, np.zeros(1))


def test_union_skips_an_empty_intersection_member():
    union = sw.UnionSpec((_CROSSING, sw.BallSpec(center=[5.0], radius=1.0)))
    assert len(union.freeze(0.5, np.zeros(1)).members) == 2
    inst = union.freeze(1.5, np.zeros(1))
    assert len(inst.members) == 1 and inst.distance([0.0]) == 4.0


def test_a_union_member_that_empties_and_refills_is_queried_again(monkeypatch):
    # 0 <= z_1 <= 0.5 x_1 - 0.3 is empty until the ball pulls x_1 past 0.6; while the member
    # is dead its lookup must leave the fixed normal of z_1 >= 0, a loop argument, in place
    gap = sw.HalfSpaceIntersectionSpec((
        sw.HalfSpaceSpec(normal=[1.0, 0.0], beta0=-0.3, state_gain=0.5, state_direction=[1.0, 0.0]),
        sw.HalfSpaceSpec(normal=[-1.0, 0.0])))
    sc = sw.Scenario(n=2, T=0.1, x0=np.zeros(2), operator=sw.IdentityOperator(),
                     moving_set=sw.UnionSpec((sw.BallSpec(center=[2.0, 0.0], radius=0.5), gap)), lambdas=(0.05,))
    probes = _count_probes(monkeypatch)
    traj = sw.integrate(sc, 0.05)
    # the offset 0.5 x_1 - 0.3 of the first face is negative while x_1 < 0.6, the member empty
    assert probes[0][1] < 0.0 and probes[-1][1] > 0.0 and traj.states[-1, 0] > 0.6
    monkeypatch.undo()
    _assert_reference(traj, sc, 0.05)


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
