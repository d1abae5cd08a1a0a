import math

import numpy as np
import pytest

import sweepsolve as sw
from sweepsolve import analysis
from sweepsolve.analysis import SamplerConfig, diagnose_trajectory, kappa_tilde
from conftest import (
    decay_scenario,
    drift_halfspace_scenario,
    state_feedback_scenario,
    static_interior_scenario,
    wedge_scenario,
)

SQRT2_HALF = math.sqrt(2.0) / 2.0


# ---------------------------------------------------------------------------
# check_phi_bound / lipschitz_estimate
# ---------------------------------------------------------------------------

def test_phi_bound_drifting_halfspace():
    lam = 0.05
    sc = drift_halfspace_scenario(lambdas=(lam,))
    traj = sw.integrate(sc, lam)
    ok, ratio = sw.check_phi_bound(traj, sc, 1.0)
    assert ok
    assert 0.9 <= ratio <= 1.02


def test_phi_bound_static_interior_ratio_zero():
    sc = static_interior_scenario()
    traj = sw.integrate(sc, 0.1)
    ok, ratio = sw.check_phi_bound(traj, sc, 0.0)
    assert ok and ratio == 0.0


def test_phi_bound_state_feedback_tight():
    lam = 0.04
    sc = state_feedback_scenario(lambdas=(lam,))
    traj = sw.integrate(sc, lam)
    ok, ratio = sw.check_phi_bound(traj, sc, 1.0)
    # margin = 1 - 0.5, bound = 2*lam = 0.08 and phi approaches it from below
    assert ok and ratio <= 1.02
    assert np.max(traj.phis) == pytest.approx(2 * lam, rel=0.01)


def test_phi_bound_wedge_divides_by_scenario_margin():
    lam = 0.05
    sc = wedge_scenario(lambdas=(lam,))
    traj = sw.integrate(sc, lam)
    ok, ratio = sw.check_phi_bound(traj, sc, SQRT2_HALF)
    # margin = alpha^2 = 1/2 and phi -> kappa*lam, so the ratio is 1/2, not 1
    assert sc.margin == pytest.approx(0.5, abs=1e-12)
    assert ratio == float(np.max(traj.phis)) / (SQRT2_HALF * lam / sc.margin)
    assert ok and ratio == pytest.approx(0.5, rel=1e-3)


def test_phi_bound_flags_violation():
    lam = 0.05
    sc = drift_halfspace_scenario(lambdas=(lam,))
    traj = sw.integrate(sc, lam)
    ok, ratio = sw.check_phi_bound(traj, sc, 0.5)
    assert not ok and ratio > 1.02


def test_lipschitz_estimate_tracks_terminal_speed():
    lam = 0.05
    sc = drift_halfspace_scenario(lambdas=(lam,))
    traj = sw.integrate(sc, lam)
    assert sw.lipschitz_estimate(traj) <= 1.05 * 1.0


def test_lipschitz_estimate_constant_trajectory():
    sc = static_interior_scenario()
    traj = sw.integrate(sc, 0.1)
    assert sw.lipschitz_estimate(traj) == 0.0


def test_lipschitz_estimate_decay_initial_slope():
    lam = 0.1
    sc = decay_scenario(gamma=1.0, T=0.1, lambdas=(lam,), h_max=lam / 100)
    traj = sw.integrate(sc, lam)
    # analytic max speed |x'(0)| = x0/lam = 10
    assert sw.lipschitz_estimate(traj) == pytest.approx(10.0, abs=0.1)


# ---------------------------------------------------------------------------
# truncated_hausdorff
# ---------------------------------------------------------------------------

def test_hausdorff_offset_halfspaces():
    a = sw.instantiate(sw.HalfSpaceSpec(normal=[1.0, 0.0], beta0=0.0), 0.0, np.zeros(2))
    b = sw.instantiate(sw.HalfSpaceSpec(normal=[1.0, 0.0], beta0=1.0), 0.0, np.zeros(2))
    assert sw.truncated_hausdorff(a, b, 2.0) == pytest.approx(1.0, abs=1e-9)


def test_hausdorff_identical_instances_zero():
    a = sw.instantiate(sw.BallSpec(center=[0.0, 0.0], radius=1.0), 0.0, np.zeros(2))
    assert sw.truncated_hausdorff(a, a, 3.0) == 0.0


def test_hausdorff_rotation_rate_bound():
    spec = sw.HalfSpaceSpec(normal=[1.0, 0.0], rotation_rate=1.0,
                            rotation_partner=[0.0, 1.0])
    a = sw.instantiate(spec, 0.0, np.zeros(2))
    b = sw.instantiate(spec, 0.01, np.zeros(2))
    h = sw.truncated_hausdorff(a, b, 1.0)
    assert 0.5 * 0.01 <= h <= 1.0 * 0.01 * (1.0 + 1.0) + 1e-3


def test_hausdorff_symmetric_exactly():
    a = sw.instantiate(sw.HalfSpaceSpec(normal=[0.6, 0.8], beta0=0.2), 0.0, np.zeros(2))
    b = sw.instantiate(sw.BallSpec(center=[1.0, 1.0], radius=0.5), 0.0, np.zeros(2))
    assert sw.truncated_hausdorff(a, b, 2.0) == sw.truncated_hausdorff(b, a, 2.0)


def test_hausdorff_triangle_inequality_in_time():
    spec = sw.HalfSpaceSpec(normal=[-1.0], drift=-1.0)
    x = np.zeros(1)
    i0 = sw.instantiate(spec, 0.0, x)
    i1 = sw.instantiate(spec, 0.3, x)
    i2 = sw.instantiate(spec, 0.7, x)
    d02 = sw.truncated_hausdorff(i0, i2, 2.0)
    d01 = sw.truncated_hausdorff(i0, i1, 2.0)
    d12 = sw.truncated_hausdorff(i1, i2, 2.0)
    assert d02 <= d01 + d12 + 1e-12


def test_hausdorff_dimension_mismatch():
    a = sw.instantiate(sw.HalfSpaceSpec(normal=[1.0]), 0.0, np.zeros(1))
    b = sw.instantiate(sw.HalfSpaceSpec(normal=[1.0, 0.0]), 0.0, np.zeros(2))
    with pytest.raises(sw.DimensionMismatch):
        sw.truncated_hausdorff(a, b, 1.0)


# ---------------------------------------------------------------------------
# estimate_kappa
# ---------------------------------------------------------------------------

def test_kappa_drifting_halfspace_unit_rate():
    spec = sw.HalfSpaceSpec(normal=[-1.0], drift=-1.0)
    for r in (1.0, 10.0):
        k, L = sw.estimate_kappa(spec, r, [(0.0, 0.25), (0.25, 0.5), (0.0, 1.0)], [])
        assert k == pytest.approx(1.0, rel=0.05)
        assert L == 0.0


def test_kappa_static_set_is_zero():
    spec = sw.BallSpec(center=[0.0, 0.0], radius=1.0)
    k, L = sw.estimate_kappa(spec, 2.0, [(0.0, 0.5), (0.5, 1.0)], [])
    assert (k, L) == (0.0, 0.0)


def test_kappa_state_slot_gain():
    spec = sw.HalfSpaceSpec(normal=[-1.0], drift=-1.0,
                            state_gain=-0.5, state_direction=[1.0])
    k, L = sw.estimate_kappa(spec, 1.0, [(0.0, 0.5)],
                             [(np.zeros(1), np.ones(1)), (np.zeros(1), -np.ones(1))])
    assert k == pytest.approx(1.0, rel=0.05)
    assert L == pytest.approx(0.5, rel=0.05)


def test_kappa_degenerate_pairs_skipped():
    spec = sw.HalfSpaceSpec(normal=[-1.0], drift=-1.0)
    k, L = sw.estimate_kappa(spec, 1.0, [(0.3, 0.3), (0.0, 0.5)],
                             [(np.zeros(1), np.zeros(1))])
    assert k == pytest.approx(1.0, rel=0.05)
    assert L == 0.0


def test_kappa_freezes_each_set_once_and_matches_truncated_hausdorff(monkeypatch):
    sc = state_feedback_scenario()
    spec, x0, sampler = sc.moving_set, sc.x0, SamplerConfig(count=256)
    t_pairs = analysis.default_time_pairs(sc.T)
    x_pairs = analysis.default_state_pairs(x0)
    frozen = []
    real = analysis.instantiate
    monkeypatch.setattr(analysis, "instantiate", lambda *a: frozen.append(a) or real(*a))
    k, L = sw.estimate_kappa(spec, 2.0, t_pairs, x_pairs, sampler, x_ref=x0)
    assert len(frozen) == 5 + 2 * sc.n      # 5 times at x0, then x0 -+ 0.5*e_i at t = 0
    monkeypatch.undo()
    pairs = [((s, x0), (t, x0), abs(t - s)) for s, t in t_pairs] \
        + [((0.0, x), (0.0, y), 0.5) for x, y in x_pairs]
    quotients = [sw.truncated_hausdorff(sw.instantiate(spec, *a), sw.instantiate(spec, *b),
                                        2.0, sampler) / gap for a, b, gap in pairs]
    assert (k, L) == (max(quotients[:len(t_pairs)]), max(quotients[len(t_pairs):]))


# ---------------------------------------------------------------------------
# estimate_alpha
# ---------------------------------------------------------------------------

def test_alpha_convex_instance_is_one():
    inst = sw.instantiate(sw.BallSpec(center=[0.0, 0.0], radius=1.0), 0.0, np.zeros(2))
    a = sw.estimate_alpha(inst, rho=1.0, sample_count=2000, seed=0)
    assert a == pytest.approx(1.0, abs=1e-9)


def test_alpha_wedge_reaches_sqrt2_over_2():
    inst = sw.instantiate(sw.WedgeSpec(apex=[0.0, 0.0]), 0.0, np.zeros(2))
    a = sw.estimate_alpha(inst, rho=1.0, sample_count=10000, seed=0)
    assert a == pytest.approx(SQRT2_HALF, abs=0.01)


def test_alpha_far_apart_union_is_one():
    u = sw.UnionSpec((sw.BallSpec(center=[-2.0, 0.0], radius=0.5),
                      sw.BallSpec(center=[2.0, 0.0], radius=0.5)))
    inst = sw.instantiate(u, 0.0, np.zeros(2))
    a = sw.estimate_alpha(inst, rho=0.5, sample_count=2000, seed=1)
    assert a == pytest.approx(1.0, abs=0.01)


def test_alpha_monotone_under_sample_doubling():
    inst = sw.instantiate(sw.WedgeSpec(apex=[0.0, 0.0]), 0.0, np.zeros(2))
    a1 = sw.estimate_alpha(inst, rho=1.0, sample_count=2000, seed=3)
    a2 = sw.estimate_alpha(inst, rho=1.0, sample_count=4000, seed=3)
    assert a2 <= a1 + 0.01


_CORNER = sw.HalfSpaceIntersectionSpec((sw.HalfSpaceSpec(normal=[1.0, 0.0]),
                                        sw.HalfSpaceSpec(normal=[0.0, 1.0])))
_BALL = sw.BallSpec(center=[-2.5, 0.0], radius=1.0)
_ALPHA_KINDS = {
    "wedge": sw.WedgeSpec(apex=[0.5, -0.5]),
    "corner": _CORNER,
    "ball_or_corner": sw.UnionSpec((_BALL, _CORNER)),
    # a repeated member makes three candidates tie, taking the hull branch
    "ball_or_corner_or_ball": sw.UnionSpec((_BALL, _CORNER, _BALL)),
}


@pytest.mark.parametrize("kind, seed, expected", [
    # per-sample values of the scalar implementation this one replaced
    ("wedge", 3, 0.7072998409305422),
    ("wedge", 11, 0.7098465583532223),
    ("corner", 3, 0.9999999999999998),
    ("corner", 11, 0.9999999999999999),
    ("ball_or_corner", 3, 0.8159162292909535),
    ("ball_or_corner", 11, 0.784713705453816),
    ("ball_or_corner_or_ball", 3, 0.8159162292909535),
    ("ball_or_corner_or_ball", 11, 0.784713705453816),
])
def test_alpha_matches_pinned_values(kind, seed, expected):
    inst = sw.instantiate(_ALPHA_KINDS[kind], 0.0, np.zeros(2))
    a = sw.estimate_alpha(inst, rho=1.0, sample_count=400, seed=seed)
    assert a == pytest.approx(expected, rel=1e-12, abs=0.0)


def test_alpha_tube_sampling_failure():
    # rho so small that no random point lands strictly inside the tube
    inst = sw.instantiate(sw.BallSpec(center=[0.0, 0.0], radius=1.0), 0.0, np.zeros(2))
    with pytest.raises(sw.TubeSamplingFailed):
        sw.estimate_alpha(inst, rho=1e-12, sample_count=10, seed=0)


# ---------------------------------------------------------------------------
# sup_diff / lambda_sweep
# ---------------------------------------------------------------------------

def test_sup_diff_identical_trajectories():
    sc = drift_halfspace_scenario(lambdas=(0.1,))
    t1 = sw.integrate(sc, 0.1)
    assert sw.sup_diff(t1, t1) == 0.0


def test_sup_diff_constant_offset():
    times = np.linspace(0, 1, 11)
    a = sw.Trajectory(times, np.zeros((11, 2)), np.zeros((11, 2)), np.zeros(11), 0.1)
    states_b = np.column_stack([np.ones(11), np.zeros(11)])
    b = sw.Trajectory(times, states_b, states_b, np.zeros(11), 0.1)
    assert sw.sup_diff(a, b) == pytest.approx(1.0)


def test_sup_diff_uniform_drift_offset():
    times = np.linspace(0, 1, 101)
    a = sw.Trajectory(times, times[:, None], times[:, None], np.zeros(101), 0.1)
    b = sw.Trajectory(times, times[:, None] - 0.05, times[:, None] - 0.05,
                      np.zeros(101), 0.05)
    assert sw.sup_diff(a, b) == pytest.approx(0.05)


def test_sup_diff_grid_mismatch():
    times_a = np.linspace(0, 1, 11)
    times_b = np.linspace(0, 2, 11)
    a = sw.Trajectory(times_a, np.zeros((11, 1)), np.zeros((11, 1)), np.zeros(11), 0.1)
    b = sw.Trajectory(times_b, np.zeros((11, 1)), np.zeros((11, 1)), np.zeros(11), 0.1)
    with pytest.raises(sw.GridMismatch):
        sw.sup_diff(a, b)


def test_lambda_sweep_drift_halving():
    sc = drift_halfspace_scenario(lambdas=(0.2, 0.1, 0.05, 0.025))
    report = sw.lambda_sweep(sc)
    diffs = [row[2] for row in report.convergence_table]
    assert len(diffs) == 3
    assert all(b < a for a, b in zip(diffs, diffs[1:]))
    for expected, got in zip((0.1, 0.05, 0.025), diffs):
        assert got == pytest.approx(expected, rel=0.05)
    assert report.sup_diff_monotone
    assert report.bound_satisfied


def test_lambda_sweep_static_all_zero():
    sc = static_interior_scenario(lambdas=(0.1, 0.05))
    report = sw.lambda_sweep(sc)
    assert all(row[2] == 0.0 for row in report.convergence_table)
    assert report.bound_satisfied


def test_lambda_sweep_wedge_uses_far_parameter():
    sc = wedge_scenario()
    report = sw.lambda_sweep(sc)
    diffs = [row[2] for row in report.convergence_table]
    assert all(b < a for a, b in zip(diffs, diffs[1:]))
    assert report.bound_satisfied
    # margin = alpha^2 = 1/2, so the tube bound is 2*kappa_tilde*lambda
    assert report.margin == pytest.approx(0.5, abs=1e-12)


def test_lambda_sweep_records_failed_lambda(monkeypatch):
    sc = drift_halfspace_scenario(lambdas=(0.1, 0.05))
    real = analysis.integrate

    def integrate(scenario, lam):
        if lam == 0.05:
            raise sw.StepFailure("state became non-finite")
        return real(scenario, lam)

    monkeypatch.setattr(analysis, "integrate", integrate)
    report = sw.lambda_sweep(sc, kt=kappa_tilde(sc))
    statuses = {d.lam: d.status for d in report.per_lambda}
    assert statuses[0.1] == "ok"
    assert statuses[0.05] == "StepFailure: state became non-finite"
    assert not report.bound_satisfied


def test_kappa_tilde_pipeline_drift():
    sc = drift_halfspace_scenario(lambdas=(0.05,))
    kt = kappa_tilde(sc)
    assert kt.value == pytest.approx(1.0, rel=0.02)
    assert len(kt.estimates) == 2


def test_kappa_tilde_freezes_the_set_only_at_x0(monkeypatch):
    # the state modulus L is exact from state_gain: kappa_tilde samples no state pairs
    sc = state_feedback_scenario()
    frozen = []
    real = analysis.instantiate
    monkeypatch.setattr(analysis, "instantiate", lambda *a: frozen.append(a) or real(*a))
    kappa_tilde(sc, sampler=SamplerConfig(count=64))
    assert len(frozen) == 2 * 5      # the five times of default_time_pairs, at each radius
    assert all(np.array_equal(x, sc.x0) for _, _, x in frozen)


def test_kappa_tilde_radius_sums_left_to_right_unfused():
    # |A(x0)| for an x0 whose squared norm differs by one ulp when the
    # multiply-add is fused; the first radius is |A(x0)| + M*1
    x0 = [-0.56, -0.42]
    sc = sw.Scenario(n=2, T=1.0, x0=np.array(x0), operator=sw.IdentityOperator(),
                     moving_set=sw.HalfSpaceSpec(normal=[0.0, 1.0], drift=1.0), lambdas=(0.1,))
    kt = kappa_tilde(sc, sampler=SamplerConfig(count=64))
    assert min(kt.estimates) == math.sqrt(x0[0] * x0[0] + x0[1] * x0[1]) + 1.0


def test_diagnose_trajectory_fields():
    lam = 0.05
    sc = drift_halfspace_scenario(lambdas=(lam,))
    traj = sw.integrate(sc, lam)
    d = diagnose_trajectory(traj, sc, 1.0)
    assert d.status == "ok"
    assert d.phi_bound == pytest.approx(lam)
    assert d.bound_satisfied and d.lipschitz_ok


@pytest.mark.parametrize("d", [2, 3, 4])
def test_halton_matches_scipy_bit_for_bit(d):
    from scipy.stats import qmc

    from sweepsolve.analysis import halton

    for count in (1, 5, 4097):
        want = qmc.Halton(d=d, scramble=False).random(count)
        got = halton(d, count)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def _ndtri_inputs():
    """Clipped Halton inputs of every cached ball sample size, seeded uniforms,
    deep tails past x = 8, and the clip ends and branch points."""
    halton_u = [np.clip(analysis.halton(n + 1, count + 1)[1:, :n], 1e-12, 1.0 - 1e-12).ravel()
                for n in (1, 2, 3, 4) for count in (64, 256, 1000, 2000, 4096)]
    rng = np.random.default_rng(20211)
    e2 = math.exp(-2.0)
    edges = [1e-12, 1.0 - 1e-12, e2, 1.0 - e2, math.exp(-32.0), 1e-20, 1e-300, 0.5]
    edges += [np.nextafter(v, w) for v in (e2, 1.0 - e2, math.exp(-32.0)) for w in (0.0, 1.0)]
    return np.concatenate(halton_u + [rng.uniform(size=200_000),
                                      rng.uniform(size=100_000) ** 30, np.array(edges)])


def test_ndtri_matches_scipy_bit_for_bit():
    from scipy.special import ndtri

    u = _ndtri_inputs()
    want, got = ndtri(u), analysis.ndtri(u)
    bad = np.flatnonzero(want.view(np.int64) != got.view(np.int64))
    assert bad.size == 0, (
        f"analysis.ndtri differs from scipy.special.ndtri on {bad.size} of {u.size} inputs, "
        f"e.g. y = {u[bad[:3]].tolist()}: math.log may not be the libm log SciPy calls")


# ---------------------------------------------------------------------------
# ball_points: one cached unit-ball sample per (n, count)
# ---------------------------------------------------------------------------

def _uncached_ball_points(n, r, count):
    from scipy.special import ndtri

    u = np.clip(analysis.halton(n + 1, count + 1)[1:], 1e-12, 1.0 - 1e-12)
    g = ndtri(u[:, :n])
    nrm = np.linalg.norm(g, axis=1, keepdims=True)
    nrm[nrm == 0.0] = 1.0
    radii = r * u[:, n] ** (1.0 / n)
    return radii[:, None] * (g / nrm)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_ball_points_match_the_uncached_formula_bit_for_bit(n):
    for count in (7, 4096):
        for r in (0.37, 2.5):
            want = _uncached_ball_points(n, r, count)
            for _ in range(2):      # the first call may fill the cache, the second reads it
                got = analysis.ball_points(n, r, SamplerConfig(count))
                assert got.shape == want.shape == (count, n)
                assert got.tobytes() == want.tobytes()


def test_cached_unit_ball_arrays_are_read_only():
    roots, dirs = analysis._unit_ball(2, 64)
    for arr in (roots, dirs):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.5
    pts = analysis.ball_points(2, 1.0, SamplerConfig(64))
    assert pts.flags.writeable and not np.shares_memory(pts, dirs)


def test_truncated_hausdorff_repeats_exactly():
    spec = sw.WedgeSpec(apex=[0.0, 0.0], apex_velocity=[1.0, 0.5])
    a, b = (sw.instantiate(spec, t, np.zeros(2)) for t in (0.0, 0.3))
    first, second = (sw.truncated_hausdorff(a, b, 1.7) for _ in range(2))
    assert first.hex() == second.hex() and first > 0.0
