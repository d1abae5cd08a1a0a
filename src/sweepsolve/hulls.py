"""Minimum-norm point in the convex hull of a small point set.

Used to evaluate how far the origin stays from the hull of normalized projection
gradients around a nonconvex set.  The optimum p is the point of the first support
of ``set_zoo._supports``, the enumeration ``set_zoo._feasible`` runs on a face set,
whose bordered Gram system has weights >= 0 and whose point meets the optimality
condition <p, v> >= |p|^2 at every input point v (Wolfe, 1976).  Sums run left to
right (``set_zoo._fdot``), as in the set kernels; the weights use a LAPACK inverse.
"""

from __future__ import annotations

import math

import numpy as np

from .set_zoo import _dot, _fdot, _supports, as_rows, dedupe

_MAX_POINTS = 16


def min_norm_point(points):
    """Return (point, distance) minimizing |p| over the convex hull of ``points``."""
    P = np.atleast_2d(np.asarray(points, dtype=float))
    if P.size == 0:
        raise ValueError("need at least one point")
    rows = tuple(map(tuple, dedupe(as_rows(P, P.shape[1]).tolist())))
    if len(rows) > _MAX_POINTS:
        raise ValueError(f"hull enumeration capped at {_MAX_POINTS} points, got {len(rows)}")
    tol = 1e-12 * max(1.0, *(_fdot(v, v) for v in rows))      # the rounding of <p, v>
    p = next(p for w, p in _supports(rows, [0.0] * len(rows), bordered=True)
             if min(w) >= 0.0 and min(_fdot(p, v) for v in rows) >= _fdot(p, p) - tol)
    return np.array(p), math.sqrt(_fdot(p, p))


def _segment_min_norm(a, b):
    """Closed-form projection of the origin onto segment [a, b], row-wise over the last axis."""
    d = b - a
    dd = _dot(d, d)
    t = np.clip(-_dot(a, d) / np.where(dd == 0.0, 1.0, dd), 0.0, 1.0)
    return a + t[..., None] * d
