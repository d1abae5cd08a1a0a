import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sweepsolve as sw
from sweepsolve import set_zoo
from sweepsolve.set_zoo import HalfSpaceInstance

SQRT2 = math.sqrt(2.0)

finite_coord = st.floats(min_value=-10.0, max_value=10.0,
                         allow_nan=False, allow_infinity=False)


def plane_point(draw):
    return np.array([draw, 0.0])


# ---------------------------------------------------------------------------
# instantiate
# ---------------------------------------------------------------------------

def test_instantiate_halfspace_evaluates_offset():
    spec = sw.HalfSpaceSpec(normal=[1.0, 0.0], drift=1.0)
    inst = sw.instantiate(spec, 0.5, np.zeros(2))
    # {z : z_1 <= 0.5}
    assert inst.distance([0.5, 3.0]) == 0.0
    assert inst.distance([1.5, 0.0]) == pytest.approx(1.0, abs=1e-15)


def test_instantiate_wedge_at_origin_matches_reference_wedge():
    spec = sw.WedgeSpec(apex=[0.0, 0.0], apex_velocity=[1.0, 0.0])
    inst = sw.instantiate(spec, 0.0, np.zeros(2))
    for a in (-2.0, -0.3, 0.0, 0.7, 3.0):
        assert inst.member([a, -abs(a)])
        assert not inst.member([a, -abs(a) - 1e-6])


def test_instantiate_ball_translates_center():
    spec = sw.BallSpec(center=[0.0, 0.0], velocity=[1.0, 0.0], radius=1.0)
    inst = sw.instantiate(spec, 2.0, np.zeros(2))
    assert inst.distance([2.0, 0.0]) == 0.0
    assert inst.distance([4.0, 0.0]) == pytest.approx(1.0, abs=1e-15)


def test_instantiate_is_deterministic():
    spec = sw.HalfSpaceSpec(normal=[-1.0], drift=-1.0)
    a = sw.instantiate(spec, 0.3, np.array([0.7]))
    b = sw.instantiate(spec, 0.3, np.array([0.7]))
    assert np.array_equal(a.zeta, b.zeta) and a.beta == b.beta


@pytest.mark.parametrize("spec, arrays", [
    (sw.HalfSpaceSpec(normal=[0.6, 0.8]), ("zeta",)),
    (sw.HalfSpaceSpec(normal=[1.0, 0.0], rotation_rate=1.0, rotation_partner=[0.0, 1.0]),
     ("zeta",)),
    (sw.BallSpec(center=[1.0, 2.0], radius=0.5, velocity=[1.0, 0.0]), ("center",)),
    (sw.BoxSpec(lower=[0.0, 0.0], upper=[1.0, 1.0], upper_velocity=[1.0, 1.0]),
     ("lower", "upper")),
    (sw.WedgeSpec(apex=[0.0, 0.0], apex_velocity=[0.0, 1.0]), ("apex",)),
], ids=["half_space", "rotating_half_space", "ball", "box", "wedge"])
def test_frozen_instances_are_read_only(spec, arrays):
    inst = spec.freeze(0.5, np.zeros(2))
    for name in arrays:
        with pytest.raises(ValueError):
            getattr(inst, name)[0] = 9.0


def test_frozen_keeps_read_only_arrays_and_copies_the_rest():
    spec = sw.HalfSpaceSpec(normal=[0.6, 0.8])
    assert spec.freeze(0.0, np.zeros(2)).zeta is spec.normal    # no copy per freeze
    center = np.array([1.0, 2.0])
    inst = set_zoo.BallInstance(center, 0.5)
    center[0] = 9.0                                             # the caller's array
    assert inst.center.tolist() == [1.0, 2.0] and not inst.center.flags.writeable


def test_instantiate_rejects_dimension_mismatch():
    spec = sw.HalfSpaceSpec(normal=[1.0, 0.0])
    with pytest.raises(sw.DimensionMismatch):
        sw.instantiate(spec, 0.0, np.zeros(3))


def test_instantiate_rejects_nonfinite_state():
    spec = sw.HalfSpaceSpec(normal=[1.0])
    with pytest.raises(sw.InvalidVector):
        sw.instantiate(spec, 0.0, np.array([np.nan]))


def test_empty_intersection_reported():
    members = (sw.HalfSpaceSpec(normal=[1.0, 0.0], beta0=-1.0),
               sw.HalfSpaceSpec(normal=[-1.0, 0.0], beta0=-1.0))
    spec = sw.HalfSpaceIntersectionSpec(members)
    with pytest.raises(sw.EmptyInstance):
        sw.instantiate(spec, 0.0, np.zeros(2))


def test_empty_box_reported():
    spec = sw.BoxSpec(lower=[0.0], upper=[1.0], lower_velocity=[2.0])
    with pytest.raises(sw.EmptyInstance):
        sw.instantiate(spec, 1.0, np.zeros(1))


# ---------------------------------------------------------------------------
# distance
# ---------------------------------------------------------------------------

def test_halfspace_distance_closed_form():
    inst = sw.instantiate(sw.HalfSpaceSpec(normal=[1.0, 0.0]), 0.0, np.zeros(2))
    assert inst.distance([2.0, 0.0]) == 2.0


def test_member_point_has_zero_distance():
    inst = sw.instantiate(sw.BallSpec(center=[1.0, 1.0], radius=2.0), 0.0, np.zeros(2))
    assert inst.distance([1.5, 0.5]) == 0.0


def test_wedge_distance_analytic_and_bruteforce():
    inst = sw.instantiate(sw.WedgeSpec(apex=[0.0, 0.0]), 0.0, np.zeros(2))
    assert inst.distance([0.0, -1.0]) == pytest.approx(SQRT2 / 2.0, abs=1e-12)
    # dense sampling of both boundary rays as an independent oracle
    s = np.linspace(0.0, 6.0, 20001)
    boundary = np.concatenate([np.column_stack([s, -s]), np.column_stack([-s, -s])])
    rng = np.random.default_rng(7)
    for _ in range(25):
        z = rng.uniform(-3, 3, size=2)
        brute = np.min(np.linalg.norm(boundary - z, axis=1))
        d = inst.distance(z)
        if d > 0.0:
            assert d == pytest.approx(brute, abs=2 * 6.0 / 20000)


def test_union_distance_is_member_minimum():
    u = sw.UnionSpec((sw.BallSpec(center=[-2.0, 0.0], radius=0.5),
                      sw.BallSpec(center=[2.0, 0.0], radius=0.5)))
    inst = sw.instantiate(u, 0.0, np.zeros(2))
    mem = [sw.instantiate(m, 0.0, np.zeros(2)) for m in u.members]
    rng = np.random.default_rng(0)
    for _ in range(50):
        z = rng.uniform(-4, 4, size=2)
        assert inst.distance(z) == min(m.distance(z) for m in mem)


def test_halfspace_closed_form_on_random_instances():
    rng = np.random.default_rng(11)
    for _ in range(10):
        zeta = rng.standard_normal(3)
        zeta /= np.linalg.norm(zeta)
        beta = rng.uniform(-2, 2)
        inst = HalfSpaceInstance(zeta, beta)
        Z = rng.uniform(-5, 5, size=(1000, 3))
        expected = np.maximum(Z @ zeta - beta, 0.0)
        assert np.max(np.abs(inst.distance_many(Z) - expected)) <= 1e-12


# ---------------------------------------------------------------------------
# project
# ---------------------------------------------------------------------------

def test_halfspace_projection_is_orthogonal():
    inst = sw.instantiate(sw.HalfSpaceSpec(normal=[1.0, 0.0]), 0.0, np.zeros(2))
    (p,) = inst.project([2.0, 3.0])
    assert np.allclose(p, [0.0, 3.0], atol=1e-15)


def test_wedge_projection_returns_both_rays_on_axis():
    inst = sw.instantiate(sw.WedgeSpec(apex=[0.0, 0.0]), 0.0, np.zeros(2))
    pts = inst.project([0.0, -1.0])
    assert len(pts) == 2
    assert np.allclose(sorted(map(tuple, pts)), [(-0.5, -0.5), (0.5, -0.5)])


def test_wedge_projection_unique_off_axis():
    inst = sw.instantiate(sw.WedgeSpec(apex=[0.0, 0.0]), 0.0, np.zeros(2))
    pts = inst.project([0.1, -1.0])
    assert len(pts) == 1
    assert np.allclose(pts[0], [0.55, -0.55], atol=1e-12)


def test_ball_projection_radial():
    inst = sw.instantiate(sw.BallSpec(center=[0.0, 0.0], radius=1.0), 0.0, np.zeros(2))
    (p,) = inst.project([3.0, 0.0])
    assert np.allclose(p, [1.0, 0.0], atol=1e-15)


# one instance of every set kind; the intersection has an oblique corner, so
# Dykstra needs several cycles, and the union mixes a ball with it
_OBLIQUE = sw.HalfSpaceIntersectionSpec((sw.HalfSpaceSpec(normal=[1.0, 0.0], beta0=0.5),
                                         sw.HalfSpaceSpec(normal=[SQRT2 / 2, SQRT2 / 2])))
ZOO = {
    "half_space": sw.HalfSpaceSpec(normal=[0.6, 0.8]),
    "ball": sw.BallSpec(center=[1.0, -1.0], radius=0.7),
    "box": sw.BoxSpec(lower=[-1.0, 0.0], upper=[1.0, 2.0]),
    "wedge": sw.WedgeSpec(apex=[0.5, -0.5]),
    "intersection": _OBLIQUE,
    "union": sw.UnionSpec((sw.BallSpec(center=[-2.0, 0.0], radius=0.5), _OBLIQUE)),
}


def test_projected_points_are_members_and_consistent():
    rng = np.random.default_rng(3)
    for spec in ZOO.values():
        inst = sw.instantiate(spec, 0.0, np.zeros(2))
        for _ in range(40):
            z = rng.uniform(-4, 4, size=2)
            d = inst.distance(z)
            for p in inst.project(z):
                assert abs(np.linalg.norm(z - p) - d) <= 1e-10
                assert inst.member(p)


# ---------------------------------------------------------------------------
# select_projection
# ---------------------------------------------------------------------------

def test_select_projection_lexicographic():
    got = sw.select_projection([np.array([0.5, -0.5]), np.array([-0.5, -0.5])])
    assert np.allclose(got, [-0.5, -0.5])


def test_select_projection_singleton():
    got = sw.select_projection([np.array([1.0, 0.0])])
    assert np.allclose(got, [1.0, 0.0])


def test_select_projection_second_coordinate_breaks_tie():
    got = sw.select_projection([np.array([1.0, 2.0]), np.array([1.0, 1.0])])
    assert np.allclose(got, [1.0, 1.0])


def test_select_projection_empty_raises():
    with pytest.raises(sw.EmptyCandidates):
        sw.select_projection([])


# ---------------------------------------------------------------------------
# dykstra
# ---------------------------------------------------------------------------

def _hs(normal, beta=0.0):
    return HalfSpaceInstance(np.asarray(normal, float) / np.linalg.norm(normal), beta)


def test_dykstra_negative_orthant():
    p, _ = sw.dykstra_project([_hs([1.0, 0.0]), _hs([0.0, 1.0])],
                              np.array([1.0, 1.0]), tol=1e-10)
    assert np.allclose(p, [0.0, 0.0], atol=1e-10)


def test_dykstra_single_member_reduces_to_halfspace():
    p, _ = sw.dykstra_project([_hs([1.0, 0.0])], np.array([2.0, 3.0]))
    assert np.allclose(p, [0.0, 3.0], atol=1e-12)


def test_dykstra_slab_clamps():
    members = [_hs([1.0, 0.0], 0.0), _hs([-1.0, 0.0], 1.0)]  # -1 <= z1 <= 0
    p, _ = sw.dykstra_project(members, np.array([-3.0, 0.0]))
    assert np.allclose(p, [-1.0, 0.0], atol=1e-10)


def test_dykstra_oblique_pair_matches_kkt():
    # 45-degree pair; optimum has both constraints active
    members = [_hs([1.0, 0.0], 0.0), _hs([1.0, 1.0], 0.0)]
    z = np.array([2.0, 1.0])
    p, cycles = sw.dykstra_project(members, z)
    # KKT solution: projection onto the intersection of both hyperplanes
    assert np.allclose(p, [0.0, 0.0], atol=1e-8)
    assert cycles >= 1


def test_dykstra_budget_exhaustion_raises():
    members = [_hs([1.0, 0.0], 0.0), _hs([1.0, 1.0], 0.0)]
    with pytest.raises(sw.ProjectionNotConverged):
        sw.dykstra_project(members, np.array([5.0, 4.0]), tol=1e-14, max_iter=2)


def test_union_asks_each_member_once(monkeypatch):
    calls = []
    real = set_zoo.dykstra_project
    monkeypatch.setattr(set_zoo, "dykstra_project",
                        lambda *args: calls.append(args) or real(*args))
    corner = sw.HalfSpaceIntersectionSpec((sw.HalfSpaceSpec(normal=[1.0, 0.0]),
                                           sw.HalfSpaceSpec(normal=[0.0, 1.0])))
    spec = sw.UnionSpec((sw.BallSpec(center=[-2.5, 0.0], radius=1.0), corner))
    inst = sw.instantiate(spec, 0.0, np.zeros(2))
    calls.clear()
    (p,) = inst.project([1.0, 0.5])
    assert np.array_equal(p, [0.0, 0.0])
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# property tests
# ---------------------------------------------------------------------------

points = st.lists(st.tuples(finite_coord, finite_coord), min_size=1, max_size=8)


@pytest.mark.parametrize("kind", list(ZOO))
@settings(max_examples=40, deadline=None)
@given(Z=points)
def test_batched_and_single_point_geometry_agree(kind, Z):
    inst = sw.instantiate(ZOO[kind], 0.0, np.zeros(2))
    Z = np.array(Z)
    many = inst.distance_many(Z)
    for i, z in enumerate(Z):
        d = inst.distance(z)
        assert many[i] == d
        for p in inst.project(z):
            assert abs(np.linalg.norm(z - p) - d) <= 1e-10
            assert inst.member(p)
        for m in (z, inst.anchor()):
            if inst.distance(m) == 0.0:
                (p,) = inst.project(m)
                assert p.tobytes() == m.tobytes()


@settings(max_examples=40, deadline=None)
@given(Z=points)
def test_batched_dykstra_rows_match_single_calls(Z):
    members = sw.instantiate(_OBLIQUE, 0.0, np.zeros(2)).members
    Z = np.array(Z)
    P, cycles = sw.dykstra_project(members, Z)
    singles = [sw.dykstra_project(members, z) for z in Z]
    assert cycles == max(c for _, c in singles)
    for p, (q, _) in zip(P, singles):
        assert np.max(np.abs(p - q)) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(z1=st.tuples(finite_coord, finite_coord), z2=st.tuples(finite_coord, finite_coord))
def test_convex_projection_nonexpansive(z1, z2):
    inst = sw.instantiate(sw.BallSpec(center=[0.3, -0.2], radius=1.2), 0.0, np.zeros(2))
    p1 = sw.select_projection(inst.project(np.array(z1)))
    p2 = sw.select_projection(inst.project(np.array(z2)))
    assert np.linalg.norm(p1 - p2) <= np.linalg.norm(np.array(z1) - np.array(z2)) + 1e-12


@settings(max_examples=60, deadline=None)
@given(z=st.tuples(finite_coord, finite_coord))
def test_projection_idempotent(z):
    for spec in (sw.HalfSpaceSpec(normal=[0.6, 0.8], beta0=0.4),
                 sw.WedgeSpec(apex=[0.0, 0.0])):
        inst = sw.instantiate(spec, 0.0, np.zeros(2))
        for p in inst.project(np.array(z)):
            again = inst.project(p)
            assert any(np.linalg.norm(p - q) <= 1e-10 for q in again)


@settings(max_examples=60, deadline=None)
@given(z=st.tuples(finite_coord, finite_coord), t=st.floats(0.0, 1.0))
def test_halfspace_distance_matches_positive_part(z, t):
    spec = sw.HalfSpaceSpec(normal=[1.0, 0.0], rotation_rate=0.7,
                            rotation_partner=[0.0, 1.0], beta0=0.3, drift=-0.2)
    inst = sw.instantiate(spec, t, np.zeros(2))
    z = np.array(z)
    expected = max(float(inst.zeta @ z) - inst.beta, 0.0)
    assert inst.distance(z) == pytest.approx(expected, abs=1e-12)
    assert abs(np.linalg.norm(inst.zeta) - 1.0) <= 1e-12
