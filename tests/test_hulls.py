import math

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import sweepsolve as sw
from sweepsolve import set_zoo
from sweepsolve.hulls import min_norm_point


def test_single_point():
    p, d = min_norm_point([[3.0, 4.0]])
    assert np.allclose(p, [3.0, 4.0])
    assert d == pytest.approx(5.0)


def test_segment_through_origin():
    _, d = min_norm_point([[-1.0, 0.0], [1.0, 0.0]])
    assert d == pytest.approx(0.0, abs=1e-14)


def test_segment_offset():
    # hull of the two normalized wedge gradients passes at height sqrt(2)/2
    s = np.sqrt(2.0) / 2.0
    p, d = min_norm_point([[-s, -s], [s, -s]])
    assert d == pytest.approx(s, abs=1e-14)
    assert np.allclose(p, [0.0, -s])


def test_clamps_to_nearest_vertex():
    p, d = min_norm_point([[1.0, 1.0], [2.0, 1.0]])
    assert np.allclose(p, [1.0, 1.0])
    assert d == pytest.approx(np.sqrt(2.0))


def test_triangle_containing_origin():
    _, d = min_norm_point([[1.0, 0.0], [-1.0, 1.0], [-1.0, -1.0]])
    assert d == pytest.approx(0.0, abs=1e-12)


def test_matches_dense_convex_combinations():
    rng = np.random.default_rng(2)
    for _ in range(20):
        pts = rng.uniform(-1, 2, size=(4, 3))
        _, d = min_norm_point(pts)
        w = rng.dirichlet(np.ones(4), size=20000)
        sampled = np.min(np.linalg.norm(w @ pts, axis=1))
        assert d <= sampled + 1e-12
        assert d >= sampled - 0.05  # dense sampling approaches the optimum


def test_distances_sum_left_to_right_unfused():
    # a point whose squared norm differs by one ulp when the multiply-add is fused
    a = [-0.56, -0.42]
    want = math.sqrt(a[0] * a[0] + a[1] * a[1])
    assert min_norm_point([a])[1] == want
    # the segment's nearest point to the origin is its vertex a
    assert min_norm_point([a, [-1.56, -1.42]])[1] == want


@pytest.mark.parametrize("points, message", [
    ([], "need at least one point"),
    ([[float(i), float(i * i)] for i in range(17)], "hull enumeration capped at 16 points, got 17"),
], ids=["none", "seventeen"])
def test_rejects_a_point_set_it_cannot_enumerate(points, message):
    with pytest.raises(ValueError) as err:
        min_norm_point(points)
    assert type(err.value) is ValueError and str(err.value) == message


def test_rejects_a_non_finite_point():
    with pytest.raises(sw.InvalidVector, match="^points contains non-finite entries$"):
        min_norm_point([[1.0, 0.0], [math.nan, 1.0]])


@pytest.mark.parametrize("points, want", [
    # exact integer Gram matrix: the bordered system of the whole set is singular
    ([[0.0, 1.0], [1.0, 1.0], [2.0, 1.0]], ([0.0, 1.0], 1.0)),
    # its least eigenvalue rounds to about 1e-16 instead, where a solve returns weights of order 1e15
    ([[1.0, 3.0], [1.0, -1.0], [1.0, 2.0]], ([1.0, 0.0], 1.0)),
], ids=["singular", "rounded_singular"])
def test_collinear_points_skip_their_degenerate_face(points, want):
    assert set_zoo._inverse(tuple(map(tuple, points)), True) is None
    p, d = min_norm_point(points)
    assert p.tolist() == pytest.approx(want[0], abs=1e-12) and d == pytest.approx(want[1], abs=1e-12)


def _all_subsets_min_norm(P):
    """The least norm over the affine minimizers of every nonempty subset of the rows of P whose
    weights are >= 0: the face enumeration that ``min_norm_point`` replaced."""
    best = math.inf
    for mask in range(1, 1 << len(P)):
        S = P[[i for i in range(len(P)) if mask >> i & 1]]
        ones = np.ones((len(S), 1))
        try:
            w = np.linalg.solve(np.block([[S @ S.T, ones], [ones.T, 0.0]]), np.append(np.zeros(len(S)), 1.0))[:-1]
        except np.linalg.LinAlgError:
            continue
        if abs(w.sum() - 1.0) <= 1e-9 and w.min() >= -1e-12:
            best = min(best, float(np.linalg.norm(w @ S)))
    return best


@seed(35)
@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(n=st.sampled_from([2, 3]), k=st.integers(3, 8), data=st.data())
def test_matches_the_all_subsets_enumeration(n, k, data):
    coords = st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n)
    P = np.array(data.draw(st.lists(coords, min_size=k, max_size=k)))
    p, d = min_norm_point(P)
    assert d == pytest.approx(_all_subsets_min_norm(P), abs=1e-9)
    assert (P @ p).min() >= d * d - 1e-9        # p is optimal: the hull lies beyond its tangent plane
