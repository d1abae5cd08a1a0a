import math

import numpy as np
import pytest

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
