"""Minimum-norm point in the convex hull of a small point set.

Used to evaluate how far the origin stays from the hull of normalized
projection gradients around a nonconvex set.  The optimum lies on a face of
the hull, so for the handful of points produced by the set zoo an exact
face enumeration beats iterative schemes.  Norms and the one- and two-point
closed forms sum left to right (``set_zoo._dot``), as the set kernels do; the
face weights come from a LAPACK solve, so their Gram matrix and weighted sum
keep BLAS.
"""

from __future__ import annotations

import numpy as np

from .set_zoo import _dot, dedupe, row_norms

_MAX_POINTS = 16


def min_norm_point(points):
    """Return (point, distance) minimizing |p| over the convex hull of ``points``."""
    P = np.atleast_2d(np.asarray(points, dtype=float))
    if P.size == 0:
        raise ValueError("need at least one point")
    P = np.array(dedupe(P.tolist()))
    k = P.shape[0]
    if k == 1:
        return P[0].copy(), float(row_norms(P[0]))
    if k == 2:
        p = _segment_min_norm(P[0], P[1])
        return p, float(row_norms(p))
    if k > _MAX_POINTS:
        raise ValueError(f"hull enumeration capped at {_MAX_POINTS} points, got {k}")

    best_p = None
    best_d = np.inf
    for mask in range(1, 1 << k):
        idx = [i for i in range(k) if mask >> i & 1]
        S = P[idx]
        w = _face_weights(S)
        if w is None or np.any(w < -1e-12):
            continue
        p = w @ S
        d = float(row_norms(p))
        if d < best_d:
            best_d = d
            best_p = p
    return best_p, best_d


def _segment_min_norm(a, b):
    """Closed-form projection of the origin onto segment [a, b], row-wise over the last axis."""
    d = b - a
    dd = _dot(d, d)
    t = np.clip(-_dot(a, d) / np.where(dd == 0.0, 1.0, dd), 0.0, 1.0)
    return a + t[..., None] * d


def _face_weights(S):
    """Affine weights minimizing |w @ S| with sum(w) = 1, or None if singular."""
    j = S.shape[0]
    G = S @ S.T
    kkt = np.zeros((j + 1, j + 1))
    kkt[:j, :j] = G
    kkt[:j, j] = 1.0
    kkt[j, :j] = 1.0
    rhs = np.zeros(j + 1)
    rhs[j] = 1.0
    try:
        sol = np.linalg.solve(kkt, rhs)
    except np.linalg.LinAlgError:
        return None
    w = sol[:j]
    if abs(float(np.sum(w)) - 1.0) > 1e-9:
        return None
    return w
