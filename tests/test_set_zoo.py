import functools
import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, seed, settings
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
    (sw.WedgeSpec(apex=[0.0, 0.0], apex_velocity=[0.0, 1.0]), ("zeta",)),     # each face's
], ids=["half_space", "rotating_half_space", "ball", "box", "wedge"])
def test_frozen_instances_are_read_only(spec, arrays):
    inst = spec.freeze(0.5, np.zeros(2))
    for part in getattr(inst, "members", (inst,)):
        for name in arrays:
            with pytest.raises(ValueError):
                getattr(part, name)[0] = 9.0


def test_frozen_keeps_read_only_arrays_and_copies_the_rest():
    # each closed-form kind is built from its params in order: a list as a read-only float64
    # copy, a scalar as a float, ``_args`` their floats in params order, n the first list's length
    for kind, args in [(set_zoo.HalfSpaceInstance, (np.array([0.6, 0.8]), np.float64(-0.5))),
                       (set_zoo.BallInstance, (np.array([1.0, 2.0]), 0.5)),
                       (set_zoo.BoxInstance, (np.array([-1.0, 0.0]), np.array([1, 2])))]:     # ints
        want = [a.astype(float).tolist() if p in kind.lists else float(a) for p, a in zip(kind.params, args)]
        inst = kind(*args)
        for p, a in zip(kind.params, args):
            v = getattr(inst, p)
            if p in kind.lists:
                a[0] = 9                                        # the caller's array
                assert v.dtype == np.float64 and not v.flags.writeable and not np.shares_memory(v, a)
            else:
                assert type(v) is float
        assert inst._args == tuple(want) and inst.n == 2 and inst.kind is kind
        with pytest.raises(TypeError):
            kind(*args[:-1])                                    # a param missing
        with pytest.raises(TypeError):
            kind(*args, 1.0)


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
    with pytest.raises(sw.EmptyInstance, match=r"^half-space intersection is empty at t = 0\.25$"):
        sw.instantiate(spec, 0.25, np.zeros(2))


def test_thin_far_cone_is_found_without_an_lp(monkeypatch):
    # {<(sin th, -+cos th), z> <= -1}: a cone of half-angle th = 0.01 whose apex, its least-norm
    # point, lies 1/sin th from the origin; the enumeration of supports reaches it with SciPy blocked
    th = 0.01
    normals = ([math.sin(th), -math.cos(th)], [math.sin(th), math.cos(th)])
    spec = sw.HalfSpaceIntersectionSpec(tuple(sw.HalfSpaceSpec(normal=nv, beta0=-1.0)
                                              for nv in normals))
    inst = sw.instantiate(spec, 0.0, np.zeros(2))
    monkeypatch.setitem(sys.modules, "scipy", None)
    monkeypatch.setitem(sys.modules, "scipy.optimize", None)
    point = inst.anchor()
    for m in inst.members:
        assert float(m.zeta @ point) - m.beta <= 1e-12
    assert point.tolist() == pytest.approx([-1.0 / math.sin(th), 0.0], abs=1e-9)
    assert inst.anchor().tobytes() == point.tobytes()


def _unit_rows(rows):
    N = np.array(rows, dtype=float)
    nrm = np.linalg.norm(N, axis=1)
    assume((nrm > 0.1).all())
    return N / nrm[:, None]


@st.composite
def _face_sets(draw):
    """(normals, offsets) of 1-4 faces in 2-D or 3-D: random faces, a cone of half-angle down to
    1e-3 rad with its apex anywhere in [-2, 2]^n, or a slab, empty or not, with random faces added."""
    n = draw(st.sampled_from([2, 3]))
    coord = st.floats(-1.0, 1.0)
    kind = draw(st.sampled_from(["random", "cone", "slab"]))
    if kind == "cone":
        k = draw(st.integers(2, 4))
        u = _unit_rows([draw(st.lists(coord, min_size=n, max_size=n))])[0]
        W = np.array([draw(st.lists(coord, min_size=n, max_size=n)) for _ in range(k)])
        W = _unit_rows(W - np.outer(W @ u, u))      # face directions across the axis u
        th = draw(st.floats(1e-3, 0.5))
        N = math.sin(th) * -u + math.cos(th) * W
        apex = np.array(draw(st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n)))
        return N, N @ apex
    k = draw(st.integers(1, 4 if kind == "random" else 2))
    N = _unit_rows([draw(st.lists(coord, min_size=n, max_size=n)) for _ in range(k)])
    b = np.array(draw(st.lists(st.floats(-2.0, 2.0), min_size=k, max_size=k)))
    if kind == "slab":      # <zeta, z> <= b0 and <zeta, z> >= b0 + gap, empty for gap > 0
        gap = draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(1e-3, 2.0))
        N, b = np.vstack([N[:1], -N[:1], N[1:]]), np.concatenate([b[:1], [-b[0] - gap], b[1:]])
    return N, b


@seed(35)
@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(faces=_face_sets())
def test_the_exact_probe_agrees_with_an_lp(faces):
    from scipy.optimize import linprog

    N, b = faces
    n = N.shape[1]
    res = linprog(np.zeros(n), A_ub=N, b_ub=b, bounds=[(None, None)] * n, method="highs")
    assert res.status in (0, 2)
    try:
        x = set_zoo._feasible(zip(N.tolist(), b.tolist()))
    except sw.EmptyInstance:
        assert res.status == 2, f"read as empty, the LP found {res.x}"
        return
    assert res.status == 0, f"the LP reads as empty, the probe found {x}"
    assert (N @ x - b).max() <= 1e-9
    assert np.linalg.norm(x) <= np.linalg.norm(res.x) + 1e-9       # the least-norm point


def test_empty_box_reported():
    spec = sw.BoxSpec(lower=[0.0], upper=[1.0], lower_velocity=[2.0])
    with pytest.raises(sw.EmptyInstance):
        sw.instantiate(spec, 1.0, np.zeros(1))


_PLANE = sw.instantiate(sw.HalfSpaceSpec(normal=[1.0, 0.0]), 0.0, np.zeros(2))


@pytest.mark.parametrize("call, error, message", [
    (lambda: sw.instantiate(sw.HalfSpaceSpec(normal=[1.0, 0.0]), 0.0, [[0.0, 0.0]]),
     sw.DimensionMismatch, "x must be 1-d, got shape (1, 2)"),
    (lambda: _PLANE.distance_many(np.zeros((3, 3))), sw.DimensionMismatch, "Z must have shape (N, 2), got (3, 3)"),
    (lambda: _PLANE.distance_many(np.array([[0.0, 0.0], [math.nan, 1.0]])), sw.InvalidVector,
     "Z contains non-finite entries"),
    (lambda: sw.UnionSpec((sw.BallSpec(center=[0.0], radius=1.0), sw.BallSpec(center=[0.0, 0.0], radius=1.0))),
     sw.DimensionMismatch, "members have mixed dimensions [1, 2]"),
    # what keeps every composite instance nonempty: its spec refuses an empty member tuple
    (lambda: sw.UnionSpec(()), sw.EmptyCandidates, "UnionSpec needs at least one member"),
    (lambda: sw.HalfSpaceIntersectionSpec(()), sw.EmptyCandidates, "HalfSpaceIntersectionSpec needs at least one member"),
    (lambda: sw.dykstra_project([], np.zeros(2)), sw.EmptyCandidates, "need at least one half-space"),
], ids=["x_not_1d", "Z_wrong_width", "Z_nan_row", "union_mixed_dimensions", "union_no_member", "intersection_no_member",
        "dykstra_no_member"])
def test_public_entries_name_a_malformed_argument(call, error, message):
    with pytest.raises(error) as err:
        call()
    assert type(err.value) is error and str(err.value) == message


@pytest.mark.parametrize("spec, kind", [
    (sw.BallSpec(center=[0.0], radius=1.0), "ball"), (sw.BoxSpec(lower=[0.0], upper=[1.0]), "box"),
    (sw.HalfSpaceIntersectionSpec((sw.HalfSpaceSpec(normal=[1.0], beta0=1.0), sw.HalfSpaceSpec(normal=[-1.0]))),
     "half-space intersection")])
def test_a_squared_gap_that_overflows_is_a_named_error(spec, kind):
    # |z - p|**2 overflows beyond about 1.3e154: the distance would read inf, and the ball's
    # nearest point collapse to its centre; every path raises instead, and leaks no RuntimeWarning
    inst = sw.instantiate(spec, 0.0, [0.0])
    sc = sw.Scenario(n=1, T=1.0, x0=np.array([1e308]), operator=sw.IdentityOperator(), moving_set=spec,
                     lambdas=(0.1,), allow_infeasible_start=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for query in (lambda: inst.distance([1e200]), lambda: inst.distance_many(np.array([[0.5], [1e200]])),
                      lambda: inst.distance_many(np.array([[-1e308]])), lambda: sw.catching_up(sc, 0.25),
                      lambda: sw.integrate(sc, 0.1)):
            with pytest.raises(sw.InvalidVector) as err:
                query()
            assert str(err.value) == f"squared gap to the {kind} overflows"
        assert inst.distance([1e150]) == inst.distance_many(np.array([[1e150]]))[0] == 1e150 - 1.0


@pytest.mark.parametrize("spec", [
    sw.HalfSpaceSpec(normal=[0.6, 0.8]),
    sw.UnionSpec((sw.HalfSpaceSpec(normal=[0.6, 0.8]), sw.BallSpec(center=[-5.0, 0.0], radius=1.0)))],
    ids=["alone", "union_member"])
def test_a_half_space_gap_that_overflows_is_a_named_error(spec):
    # <zeta, z> - beta overflows near the largest float: the nearest point would read [-inf, -inf]
    # at distance inf; every path raises instead, and leaks no RuntimeWarning
    inst = sw.instantiate(spec, 0.0, [0.0, 0.0])
    huge = [1.7e308, 1.7e308]
    sc = sw.Scenario(n=2, T=1.0, x0=np.array(huge), operator=sw.IdentityOperator(), moving_set=spec,
                     lambdas=(0.1,), allow_infeasible_start=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for query in (lambda: inst.nearest(huge), lambda: inst.distance(huge),
                      lambda: inst.distance_many(np.array([[0.5, 0.5], huge])),
                      lambda: inst.candidates(np.array([huge])), lambda: sw.integrate(sc, 0.1)):
            with pytest.raises(sw.InvalidVector) as err:
                query()
            assert str(err.value) == "gap to the half-space overflows"
        z = [1e150, -1e150 * 0.5]
        assert inst.distance(z) == inst.distance_many(np.array([z]))[0] == 0.0 + 1e150 * 0.6 + -5e149 * 0.8


def test_numpy_scalar_fields_are_stored_as_floats():
    # a NumPy scalar reaching the compiled loop's arguments would run it in NumPy scalar
    # arithmetic, 2.3x slower on the drift half-line; the spec stores floats, so no bit moves
    f64 = np.float64
    pairs = [(sw.HalfSpaceSpec(normal=[-1.0], beta0=f64(0.5), drift=f64(-1.0), state_gain=f64(-0.25),
                               state_direction=[1.0]),
              sw.HalfSpaceSpec(normal=[-1.0], beta0=0.5, drift=-1.0, state_gain=-0.25, state_direction=[1.0])),
             (sw.HalfSpaceSpec(normal=[1.0, 0.0], beta0=f64(0.5), rotation_rate=f64(2.0), rotation_partner=[0.0, 1.0]),
              sw.HalfSpaceSpec(normal=[1.0, 0.0], beta0=0.5, rotation_rate=2.0, rotation_partner=[0.0, 1.0])),
             (sw.BallSpec(center=[0.5], radius=f64(0.5), velocity=[1.0], state_gain=f64(0.25)),
              sw.BallSpec(center=[0.5], radius=0.5, velocity=[1.0], state_gain=0.25))]
    for spec, plain in pairs:
        params = spec._params(0.0, [0.0] * spec.n)
        assert all(type(v) is float for p in params for v in (p if isinstance(p, list) else [p]))
        sc, plain_sc = (sw.Scenario(n=s.n, T=0.5, x0=np.zeros(s.n), operator=sw.IdentityOperator(), moving_set=s,
                                    lambdas=(0.05,), allow_infeasible_start=True) for s in (spec, plain))
        got, want = sw.integrate(sc, 0.05), sw.integrate(plain_sc, 0.05)
        assert _bits(got.states) == _bits(want.states) and _bits(got.phis) == _bits(want.phis)


def test_intersection_rejects_non_half_space_member():
    with pytest.raises(sw.InvalidVector, match="intersection members must be half-spaces"):
        sw.HalfSpaceIntersectionSpec((sw.BallSpec(center=[0.0], radius=1.0),))


def test_intersection_caps_the_supports_its_probe_enumerates():
    # k faces in the plane have k + k(k-1)/2 supports of size <= 2: 55 for 10, 66 for 11
    def faces(k):
        return tuple(sw.HalfSpaceSpec(normal=[math.cos(j), math.sin(j)], beta0=1.0) for j in range(k))
    assert sw.HalfSpaceIntersectionSpec(faces(10)).n == 2
    with pytest.raises(ValueError, match="^11 half-spaces in dimension 2 have 66 supports, more than 64$"):
        sw.HalfSpaceIntersectionSpec(faces(11))


def test_halfspace_state_direction_is_normalized_and_required_by_a_gain():
    for gain in (0.0, 0.5):
        spec = sw.HalfSpaceSpec(normal=[0.0, 1.0], state_gain=gain,
                                state_direction=[0.6, 0.8 + 1e-12])
        assert np.linalg.norm(spec.state_direction) == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(sw.InvalidVector, match="state_direction required"):
        sw.HalfSpaceSpec(normal=[0.0, 1.0], state_gain=0.5)


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
# Dykstra needs several cycles, and the union mixes it with a ball outside it
_OBLIQUE = sw.HalfSpaceIntersectionSpec((sw.HalfSpaceSpec(normal=[1.0, 0.0], beta0=0.5),
                                         sw.HalfSpaceSpec(normal=[SQRT2 / 2, SQRT2 / 2])))
ZOO = {
    "half_space": sw.HalfSpaceSpec(normal=[0.6, 0.8]),
    "ball": sw.BallSpec(center=[1.0, -1.0], radius=0.7),
    "box": sw.BoxSpec(lower=[-1.0, 0.0], upper=[1.0, 2.0]),
    "wedge": sw.WedgeSpec(apex=[0.5, -0.5]),
    "intersection": _OBLIQUE,
    "union": sw.UnionSpec((sw.BallSpec(center=[2.0, 1.0], radius=0.5), _OBLIQUE)),
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
# the selection: project(z)[0], the lexicographically smallest nearest point
# ---------------------------------------------------------------------------

def test_select_projection_second_coordinate_breaks_tie():
    # balls at (0, +-1): the two feet of z = (-3, 0) share x and differ in y
    union = sw.UnionSpec((sw.BallSpec(center=[0.0, 1.0], radius=0.5),
                          sw.BallSpec(center=[0.0, -1.0], radius=0.5)))
    feet = sw.instantiate(union, 0.0, np.zeros(2)).project(np.array([-3.0, 0.0]))
    assert len(feet) == 2 and feet[0][0] == feet[1][0]
    assert feet[0][1] < 0.0 < feet[1][1]


def test_member_is_its_own_projection_despite_a_near_tie():
    # z lies on the right ball; the left ball's foot, 5e-10 away and
    # lexicographically smaller, is within TIE_TOL but must not be selected
    union = sw.UnionSpec((sw.BallSpec(center=[0.0, 0.0], radius=1.0),
                          sw.BallSpec(center=[-2.0 - 5e-10, 0.0], radius=1.0)))
    inst = sw.instantiate(union, 0.0, np.zeros(2))
    z = [-1.0, 0.0]
    assert 0.0 < inst.members[1].distance(z) <= set_zoo.TIE_TOL
    assert [q.tolist() for q in inst.project(z)] == [z]
    assert inst.nearest(z) == ([z], 0.0)


# ---------------------------------------------------------------------------
# dykstra
# ---------------------------------------------------------------------------

def _hs(normal, beta=0.0):
    return HalfSpaceInstance(np.asarray(normal, float) / np.linalg.norm(normal), beta)


def test_dykstra_negative_orthant():
    p, _ = sw.dykstra_project([_hs([1.0, 0.0]), _hs([0.0, 1.0])], np.array([1.0, 1.0]))
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


def test_dykstra_budget_exhaustion_raises(monkeypatch):
    monkeypatch.setattr(set_zoo, "DYKSTRA_TOL", 1e-14)
    monkeypatch.setattr(set_zoo, "DYKSTRA_MAX_ITER", 2)
    members = [_hs([1.0, 0.0], 0.0), _hs([1.0, 1.0], 0.0)]
    with pytest.raises(sw.ProjectionNotConverged, match="exceeded 2 cycles at tol 1e-14"):
        sw.dykstra_project(members, np.array([5.0, 4.0]))
    # on an empty intersection the exhausted budget names the cause
    with pytest.raises(sw.EmptyInstance) as err:
        sw.dykstra_project([_hs([1.0, 0.0], -1.0), _hs([-1.0, 0.0], -1.0)], np.zeros(2))
    assert str(err.value) == "half-space intersection is empty"


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
    P, _ = inst.candidates(np.array([[1.0, 0.5]]))      # the batched path
    assert np.array_equal(P[1, 0], [0.0, 0.0])
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
    p1 = inst.project(np.array(z1))[0]
    p2 = inst.project(np.array(z2))[0]
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


# ---------------------------------------------------------------------------
# one-point queries: nearest(z) on lists
# ---------------------------------------------------------------------------

def _bits(values):
    return np.array(values, dtype=float).tobytes()


def _batched(inst, point):
    """The batched oracle of ``nearest``: a one-row ``candidates`` and ``_ties``."""
    P, D = inst.candidates(np.array([point]))
    return set_zoo._ties(P[:, 0].tolist(), D[:, 0].tolist())


def _check_nearest(inst, z):
    """nearest(z) against the batched oracle bit for bit, and project(z) and
    distance(z) against nearest(z), for z, its projection and the anchor
    (members too)."""
    z = np.array(z)
    for point in (z, np.array(_batched(inst, z)[0][0]), inst.anchor()):
        points, d = inst.nearest(point.tolist())
        want, want_d = _batched(inst, point)
        assert all(type(p) is list and all(type(c) is float for c in p) for p in points)
        assert type(d) is float
        assert _bits(points) == _bits(want) and _bits(d) == _bits(want_d)
        assert _bits(inst.project(point)) == _bits(points)
        assert _bits(inst.distance(point)) == _bits(d)
        if d == 0.0:
            assert _bits(points) == _bits([point])


@pytest.mark.parametrize("kind", list(ZOO))
@settings(max_examples=60, deadline=None)
@given(z=st.tuples(finite_coord, finite_coord))
@example(z=(-0.0, 0.0))
@example(z=(0.0, -0.0))
@example(z=(-0.0, -0.0))
@example(z=(2.0, -0.0))       # box: the clipped point keeps the bound's +0.0
@example(z=(-0.0, 3.0))
@example(z=(0.5, -2.0))       # wedge: on the axis
@example(z=(0.5, -0.5))       # the wedge apex and the intersection vertex
@example(z=(2.5, 0.5))        # intersection: onto the vertex, 38 Dykstra cycles
@example(z=(0.5000000000005, -3.0))     # within MEMBER_TOL of the face x = 0.5
@example(z=(0.500000000002, -3.0))      # just beyond it
@example(z=(0.46446609396726224, 1.0))  # union: corner 1.7e-10 nearer than the ball
@example(z=(0.4644660940672623, 1.0))   # union: equal distances, two feet
def test_nearest_matches_project_and_distance_bit_for_bit(kind, z):
    _check_nearest(sw.instantiate(ZOO[kind], 0.0, np.zeros(2)), z)


@pytest.mark.parametrize("kind", list(ZOO))
def test_single_point_queries_never_run_the_batched_kernels(kind, monkeypatch):
    def batched(*args):
        raise AssertionError("a single point reached a batched kernel")

    inst = sw.instantiate(ZOO[kind], 0.0, np.zeros(2))
    for target in (inst, *getattr(inst, "members", ())):
        monkeypatch.setattr(target, "candidates", batched)
    monkeypatch.setattr(set_zoo, "dykstra_project", batched)
    for z in ([2.5, 0.5], [0.5, -2.0], [-1.0, -3.0], inst.anchor()):
        (p, *_), d = inst.nearest(list(z))
        assert _bits(inst.project(z)[0]) == _bits(p) and inst.distance(z) == d
        assert inst.member(z) == (d <= inst.member_tol)


def test_union_tie_within_tie_tol_selects_the_lexicographically_smaller_foot():
    inst = sw.instantiate(ZOO["union"], 0.0, np.zeros(2))
    z = [0.46446609396726224, 1.0]
    ([ball], _), ([corner], _) = (m.nearest(z) for m in inst.members)
    gap = inst.members[0].distance(z) - inst.members[1].distance(z)
    assert 0.0 < gap <= set_zoo.TIE_TOL
    assert [q.tolist() for q in inst.project(z)] == [corner, ball]
    assert inst.nearest(z) == ([corner, ball], inst.members[1].distance(z))


_SIGNED = (-0.0, 0.0, -1.0, 1.0, 5e-324)


@pytest.mark.parametrize("inst", [
    sw.instantiate(sw.WedgeSpec(apex=[-0.0, -0.0]), 0.0, np.zeros(2)),
    sw.instantiate(sw.WedgeSpec(apex=[0.0, -0.0]), 0.0, np.zeros(2)),
    set_zoo.HalfSpaceIntersectionInstance([_hs([1.0, 0.0], -0.0), _hs([0.0, -1.0], 0.0)]),
    set_zoo.HalfSpaceIntersectionInstance([_hs([1.0, 1.0], -0.0), _hs([1.0, -1.0], -0.0)]),
    set_zoo.UnionInstance([set_zoo.BallInstance(np.array([-0.0, 2.0]), 1.0),
                           set_zoo.HalfSpaceIntersectionInstance([_hs([1.0, 1.0], -0.0),
                                                                  _hs([1.0, -1.0], 0.0)])]),
], ids=["wedge_apex_-0-0", "wedge_apex_0-0", "quadrant", "cone", "union"])
def test_nearest_bit_for_bit_on_signed_zeros(inst):
    for a in _SIGNED:
        for b in _SIGNED:
            _check_nearest(inst, (a, b))


# ---------------------------------------------------------------------------
# named errors on the one-point path
# ---------------------------------------------------------------------------

def test_nearest_on_an_empty_intersection_raises_empty_instance(monkeypatch):
    # a short budget: the float loop and the batched path read the module constant
    monkeypatch.setattr(set_zoo, "DYKSTRA_MAX_ITER", 50)
    inst = set_zoo.HalfSpaceIntersectionInstance([_hs([1.0, 0.0], -1.0), _hs([-1.0, 0.0], -1.0)])
    for z in ([0.0, 0.0], [3.0, -2.0], [-1.0, 0.5]):
        with pytest.raises(sw.EmptyInstance):
            inst.nearest(z)
        with pytest.raises(sw.EmptyInstance):
            inst.distance_many(np.array([z]))


def test_nearest_raises_projection_not_converged_on_an_exhausted_budget(monkeypatch):
    inst = sw.instantiate(_OBLIQUE, 0.0, np.zeros(2))
    union = sw.instantiate(ZOO["union"], 0.0, np.zeros(2))
    face = [1.5, -3.0]                     # onto the face x = 0.5 in 2 cycles
    want = inst.nearest(face)
    monkeypatch.setattr(set_zoo, "DYKSTRA_MAX_ITER", 2)
    assert inst.nearest(face) == want
    for target in (inst, union):
        with pytest.raises(sw.ProjectionNotConverged, match="exceeded 2 cycles"):
            target.nearest([2.5, 0.5])     # onto the vertex in 38 cycles
    with pytest.raises(sw.ProjectionNotConverged, match="exceeded 2 cycles"):
        inst.distance_many(np.array([[2.5, 0.5]]))      # the batched path's budget


@pytest.mark.parametrize("kind", list(ZOO))
@settings(max_examples=40, deadline=None)
@given(z=st.tuples(finite_coord, finite_coord), seed=st.integers(0, 2**32 - 1))
def test_nearest_is_no_farther_than_any_sampled_member(kind, z, seed):
    inst = sw.instantiate(ZOO[kind], 0.0, np.zeros(2))
    W = np.random.default_rng(seed).uniform(-6.0, 6.0, size=(200, 2))
    members = np.vstack([W[inst.distance_many(W) == 0.0], inst.anchor()])
    points, d = inst.nearest(list(z))
    gap = float(np.linalg.norm(np.array(z) - points[0]))
    assert abs(gap - d) <= 1e-9
    assert gap <= np.linalg.norm(members - np.array(z), axis=1).min() + 1e-9


def test_nearest_on_the_wedge_axis_takes_the_lexicographically_smaller_foot():
    inst = sw.instantiate(ZOO["wedge"], 0.0, np.zeros(2))     # apex (0.5, -0.5)
    z = [0.5, -2.0]
    feet = inst.project(z)
    assert len(feet) == 2
    (p, _), d = inst.nearest(z)
    assert np.allclose(p, [-0.25, -1.25]) and _bits(p) == _bits(feet[0])
    assert d == pytest.approx(1.5 / SQRT2)


signed_coord = finite_coord | st.sampled_from([-0.0, 0.0, 5e-324])


@settings(max_examples=200, deadline=None)
@given(apex=st.tuples(signed_coord, signed_coord), z=st.tuples(signed_coord, signed_coord))
@example(apex=(-0.0, -0.0), z=(0.0, -0.0))
@example(apex=(0.0, -0.0), z=(-0.0, -1.0))      # on the axis: both faces tie
@example(apex=(0.5, -0.5), z=(5e-324, -0.0))
def test_union_built_wedge_distance_is_the_closed_form(apex, z):
    # the closed form of the wedge kind the union of two faces replaced:
    # max(0, (-(b - apex_b) - |a - apex_a|)/sqrt(2)), a +0.0 on the set
    inst = sw.instantiate(sw.WedgeSpec(apex=list(apex)), 0.0, np.zeros(2))
    closed = max(0.0, (-(z[1] - apex[1]) - abs(z[0] - apex[0])) / SQRT2)
    scale = max(1.0, *map(abs, apex + z))       # the rounding of the faces' offsets
    for d in (inst.distance(list(z)), float(inst.distance_many(np.array([z]))[0])):
        assert d == pytest.approx(closed, rel=1e-12, abs=1e-12 * scale)
        assert math.copysign(1.0, d) == 1.0


def test_ball_distance_sums_left_to_right_unfused():
    # a gap whose squared norm differs by one ulp when the multiply-add is fused
    g0, g1 = -0.56, -0.42
    inst = sw.instantiate(sw.BallSpec(center=[0.0, 0.0], radius=0.5), 0.0, np.zeros(2))
    want = math.sqrt(g0 * g0 + g1 * g1) - 0.5
    assert inst.distance_many(np.array([[g0, g1]]))[0] == want
    assert inst.distance([g0, g1]) == want and inst.nearest([g0, g1])[1] == want


# ---------------------------------------------------------------------------
# the kind's query on the params a spec looks up: the frozen instance's answer,
# with no instance built
# ---------------------------------------------------------------------------

# empty for t > 0.25 and for t > 0.5; the intersection has parallel normals, so it is probed
_CROSSED_BOX = sw.BoxSpec(lower=[-1.0, -1.0], upper=[1.0, 1.0], lower_velocity=[4.0, 0.0],
                          upper_velocity=[-4.0, 0.0])
_CROSSING = sw.HalfSpaceIntersectionSpec((sw.HalfSpaceSpec(normal=[1.0, 0.0], beta0=1.0, drift=-2.0),
                                          sw.HalfSpaceSpec(normal=[-1.0, 0.0])))

MOVING = {
    "half_space": sw.HalfSpaceSpec(normal=[0.6, -0.8], beta0=-0.1, drift=-1.0),
    "rotating_half_space": sw.HalfSpaceSpec(normal=[1.0, 0.0], beta0=0.3, drift=-0.2,
                                            rotation_rate=2.5, rotation_partner=[0.0, 1.0]),
    "state_half_space": sw.HalfSpaceSpec(normal=[-1.0, 0.0], drift=-1.0, state_gain=-0.5,
                                         state_direction=[0.6, 0.8]),
    "ball": sw.BallSpec(center=[0.5, -0.5], radius=0.7, velocity=[1.5, 0.5]),
    "state_ball": sw.BallSpec(center=[-0.0, 0.0], radius=0.3, velocity=[1.5, -0.0], state_gain=0.3),
    "box": _CROSSED_BOX,
    "wedge": sw.WedgeSpec(apex=[0.5, -0.5], apex_velocity=[0.0, 1.0]),
    "intersection": sw.HalfSpaceIntersectionSpec((
        sw.HalfSpaceSpec(normal=[1.0, 0.0], beta0=0.5, drift=-1.0),
        sw.HalfSpaceSpec(normal=[0.6, 0.8], beta0=0.2, state_gain=0.25, state_direction=[0.0, 1.0]))),
    "probed_intersection": _CROSSING,
    "union": sw.UnionSpec((_CROSSED_BOX, _CROSSING,
                           sw.BallSpec(center=[2.0, 0.0], radius=0.5, velocity=[-1.0, 0.0]))),
}


_ORTHANT = sw.HalfSpaceIntersectionSpec((sw.HalfSpaceSpec(normal=[1.0, 0.0]), sw.HalfSpaceSpec(normal=[0.0, 1.0])))
_BATCHED = {    # (spec, t): t turns the rotating half-space
    "half_space": (ZOO["half_space"], 0.0),
    "rotating_half_space": (MOVING["rotating_half_space"], 0.3),
    "ball": (ZOO["ball"], 0.0),
    "box": (ZOO["box"], 0.0),
    "corner": (_ORTHANT, 0.0),
    "wedge": (ZOO["wedge"], 0.0),
    "ball_or_corner": (sw.UnionSpec((sw.BallSpec(center=[-2.5, 0.0], radius=1.0), _ORTHANT)), 0.0),
}
big_coord = st.floats(-1e150, 1e150) | st.sampled_from([-0.0, 0.0, 5e-324])


@pytest.mark.parametrize("kind", list(_BATCHED))
@settings(max_examples=60, deadline=None)
@given(Z=st.lists(st.tuples(big_coord, big_coord), min_size=1, max_size=8))
@example(Z=[(-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0), (0.5, -2.0), (1e150, -1e150)])
def test_distance_many_is_the_least_candidate_distance_bit_for_bit(kind, Z):
    # the distance-only kernels stop before the nearest points: they must not move a bit
    spec, t = _BATCHED[kind]
    inst = sw.instantiate(spec, t, np.zeros(2))
    Z = np.array(Z)
    assert _bits(inst.distance_many(Z)) == _bits(inst.candidates(Z)[1].min(0))


def _looked_up(spec, t, x):
    """The query ``penalized_rhs`` runs: the spec's lookup at (t, x), raising as ``freeze`` does,
    then z -> its kind's query on the params it set."""
    return functools.partial(set_zoo._query(spec.kind, spec.n), *spec._params(t, x))


def _answer(query):
    """repr of query()'s result, or the name and message of its error: floats
    repr to the shortest string that reads back to the same bits, sign of zero
    included, and a NumPy scalar reprs differently from a float."""
    try:
        return repr(query())
    except sw.SweepSolveError as exc:
        return f"{type(exc).__name__}: {exc}"


def _raised(call):
    """The name and message of the error call() raises, or None."""
    try:
        call()
    except sw.SweepSolveError as exc:
        return f"{type(exc).__name__}: {exc}"
    return None


@pytest.mark.parametrize("kind", list(MOVING))
@settings(max_examples=60, deadline=None)
@given(t=st.floats(0.0, 1.0) | st.sampled_from([-0.0, 0.0, 0.25, 0.5]),
       x=st.tuples(signed_coord, signed_coord), z=st.tuples(signed_coord, signed_coord))
@example(t=0.0, x=(0.0, 0.0), z=(0.5, -2.0))        # wedge: on the axis, two feet
@example(t=-0.0, x=(-0.0, -0.0), z=(-0.0, 0.0))
@example(t=0.9, x=(0.0, 0.0), z=(1.0, 1.0))         # the box and the crossing intersection are empty
def test_spec_nearest_is_the_frozen_instances_nearest(kind, t, x, z):
    spec = MOVING[kind]
    x, z = list(x), list(z)
    want = _answer(lambda: spec.freeze(t, np.array(x)).nearest(z))
    assert _answer(lambda: _looked_up(spec, t, x)(z)) == want
    # the lookup raises exactly what freeze raises (an empty set); once it
    # succeeds, its query answers every point, as the RK4 stages k2 and k3 share it
    looked_up = _raised(lambda: _looked_up(spec, t, x))
    assert looked_up == _raised(lambda: spec.freeze(t, np.array(x)))
    if looked_up is None:
        query = _looked_up(spec, t, x)
        for point in (z, x):
            assert _answer(lambda: query(point)) == _answer(
                lambda: spec.freeze(t, np.array(x)).nearest(point))
    else:
        assert looked_up == want


_TURNING_STATE_HALF_SPACE = sw.HalfSpaceSpec(normal=[0.6, 0.8], beta0=-0.1, drift=0.7, rotation_rate=-1.3,
                                             rotation_partner=[-0.8, 0.6], state_gain=-0.4,
                                             state_direction=[0.0, -1.0])
_STILL_BOX = sw.BoxSpec(lower=[-1.0, -1.0], upper=[1.0, 1.0], lower_velocity=[0.5, -0.0],
                        upper_velocity=[1.0, -0.0])       # nonempty for t > -4


@settings(max_examples=60, deadline=None)
@given(t=st.floats(-2.0, 2.0) | st.sampled_from([-0.0, 0.0]),
       x=st.tuples(signed_coord, signed_coord))
def test_parameters_are_the_numpy_expressions_they_replace(t, x):
    x = np.array(x)
    for hs in (MOVING["rotating_half_space"], _TURNING_STATE_HALF_SPACE):
        ang = hs.rotation_rate * t
        assert _bits(hs.freeze(t, x).zeta) == _bits(np.cos(ang) * hs.normal
                                                    + np.sin(ang) * hs.rotation_partner)
    for hs in (MOVING["state_half_space"], _TURNING_STATE_HALF_SPACE):
        beta = hs.beta0 + hs.drift * t + hs.state_gain * set_zoo._dot(hs.state_direction, x)
        assert _bits(hs.freeze(t, x).beta) == _bits(beta)
    ball = sw.BallSpec(center=[0.7, -0.3], radius=0.3, velocity=[1.5, 0.1], state_gain=0.3)
    want = ball.center + t * ball.velocity + ball.state_gain * x
    assert _bits(ball.freeze(t, x).center) == _bits(want)
    box = _STILL_BOX.freeze(t, x)
    assert _bits(box.lower) == _bits(_STILL_BOX.lower + t * _STILL_BOX.lower_velocity)
    assert _bits(box.upper) == _bits(_STILL_BOX.upper + t * _STILL_BOX.upper_velocity)
    for face, frozen in zip(MOVING["wedge"].members, MOVING["wedge"].freeze(t, x).members):
        assert _bits(frozen.zeta) == _bits(face.normal)
        assert _bits(frozen.beta) == _bits(face.beta0 + face.drift * t)


def test_spec_nearest_raises_what_freeze_raises(monkeypatch):
    x, z = [0.0, 0.0], [1.0, 1.0]
    # an empty set raises from the lookup, before any point is queried: a
    # crossed box, an empty probed intersection and an all-empty union
    for spec in (_CROSSED_BOX, _CROSSING, sw.UnionSpec((_CROSSED_BOX, _CROSSING))):
        with pytest.raises(sw.EmptyInstance) as frozen:
            spec.freeze(0.9, np.array(x))
        with pytest.raises(sw.EmptyInstance) as looked_up:
            _looked_up(spec, 0.9, x)
        with pytest.raises(sw.EmptyInstance) as queried:
            _looked_up(spec, 0.9, x)(z)
        assert str(queried.value) == str(looked_up.value) == str(frozen.value) != ""
    assert str(queried.value) == "all 2 union members are empty at t = 0.9"
    # an exhausted Dykstra budget probes for emptiness, then gives up
    probes = []
    real = set_zoo._feasible
    monkeypatch.setattr(set_zoo, "_feasible", lambda faces, t=None: probes.append(t) or real(faces, t))
    monkeypatch.setattr(set_zoo, "DYKSTRA_MAX_ITER", 2)
    for spec in (_OBLIQUE, sw.UnionSpec((_OBLIQUE, ZOO["ball"]))):
        with pytest.raises(sw.ProjectionNotConverged, match="exceeded 2 cycles"):
            _looked_up(spec, 0.0, x)([2.5, 0.5])      # onto the vertex in 38 cycles
        query = _looked_up(spec, 0.0, x)          # the lookup succeeds: the query raises
        with pytest.raises(sw.ProjectionNotConverged, match="exceeded 2 cycles"):
            query([2.5, 0.5])
    assert probes == [None] * 4


def test_a_probed_intersections_anchor_is_the_probe_of_its_faces():
    # 1 <= z_1 <= 2 - t: freezing it probes the faces its lookup sets, and its anchor
    # probes the faces of the instance built from them, to the same point
    members = (sw.HalfSpaceSpec(normal=[1.0, 0.0], beta0=2.0, drift=-1.0), sw.HalfSpaceSpec(normal=[-1.0, 0.0], beta0=-1.0))
    spec = sw.HalfSpaceIntersectionSpec(members)
    inst = sw.instantiate(spec, 0.5, np.zeros(2))
    assert not spec._always_nonempty
    by_hand = [(m.normal, m.beta0 + m.drift * 0.5) for m in members]
    anchor = inst.anchor()
    assert inst.member(anchor) and anchor.tolist() == [1.0, 0.0]
    assert anchor.tobytes() == set_zoo._feasible(by_hand).tobytes()


@pytest.mark.parametrize("normals, offsets, anchor", [
    ([[1.0, 0.0], [0.0, 1.0]], [0.0, 0.0], [0.0, 0.0]),        # z_0 <= 0 or z_1 <= 0: the re-entrant corner
    ([[0.6, 0.8], [0.0, -1.0]], [1.0, 2.0], [13 / 3, -2.0]),    # faces 0.6 z_0 + 0.8 z_1 = 1 and z_1 = -2
    ([[1.0, 0.0], [-1.0, 0.0]], [-1.0, -2.0], [-1.0, 0.0]),     # parallel faces: the first member's foot
    ([[1.0, 0.0], [1.0, 0.0]], [0.0, 1.0], [0.0, 0.0]),
])
def test_a_union_of_two_half_spaces_anchors_where_their_faces_meet(normals, offsets, anchor):
    union = sw.UnionSpec(tuple(sw.HalfSpaceSpec(normal=v, beta0=b) for v, b in zip(normals, offsets)))
    inst = sw.instantiate(union, 0.0, np.zeros(2))
    assert inst.anchor() == pytest.approx(anchor, rel=1e-15, abs=1e-15)
    assert inst.distance(inst.anchor()) <= 1e-15


def test_spec_nearest_builds_no_instance(monkeypatch):
    def refuse(self, *args):
        raise AssertionError("a set instance was built")
    monkeypatch.setattr(set_zoo.SetInstance, "__init__", refuse)
    union = sw.UnionSpec((MOVING["ball"], MOVING["intersection"]))   # members never probed
    for spec in (*(MOVING[kind] for kind in ("half_space", "rotating_half_space", "state_ball", "box", "wedge",
                                             "intersection")), union):
        _looked_up(spec, 0.1, [0.3, -0.2])([2.0, 1.0])
