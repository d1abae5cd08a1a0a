import math

import numpy as np
import pytest

import sweepsolve as sw
from sweepsolve import dynamics
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
    assert log == ["project"]

    log.clear()
    z = np.array(outside)
    v = sw.penalized_rhs(sc, lam, 0.0, z)
    expected = (sw.select_projection(real(spec, 0.0, z).project(z)) - z) / lam
    assert np.array_equal(v, expected) and np.any(v != 0.0)
    assert log == ["project"]


def test_rhs_requires_positive_lambda():
    sc = decay_scenario()
    with pytest.raises(ValueError):
        sw.penalized_rhs(sc, 0.0, 0.0, np.array([1.0]))


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
