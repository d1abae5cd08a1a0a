"""Strongly monotone Lipschitz operators with exact (m, M) constants.

Each kind defines one unvalidated kernel, ``image(x)``, from a finite list of
floats to a list, x itself for the identity (no caller mutates either); ``apply``
validates x and wraps it in arrays.  Matrix rows and the sums of
``verify_constants`` run through ``set_zoo._fdot`` and ``_dot``, left to right:
one bit pattern on every BLAS kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSample, DimensionMismatch, ValidationError
from .set_zoo import _dot, _fdot, as_vector


class Operator:
    """Base operator A with strong-monotonicity constant m and Lipschitz constant M."""

    m = 1.0
    M = 1.0
    n = None    # dimension the operator acts on; None for any dimension

    def image(self, x) -> list:
        raise NotImplementedError

    def apply(self, x) -> np.ndarray:
        return np.array(self.image(as_vector(x, self.n, "x").tolist()))

    def check_dim(self, n):
        """Raise unless the operator acts on dimension n."""
        if self.n not in (None, n):
            raise DimensionMismatch(f"operator is {self.n}x{self.n}, state has dimension {n}")


class IdentityOperator(Operator):
    def image(self, x):
        return x


class ScaledIdentityOperator(Operator):
    def __init__(self, gamma):
        gamma = float(gamma)
        if not gamma > 0:
            raise ValidationError("H_A1", f"scale must be positive, got {gamma!r}")
        self.gamma = gamma
        self.m = gamma
        self.M = gamma

    def image(self, x):
        return [self.gamma * xi for xi in x]


class LinearSPDOperator(Operator):
    """A(x) = Kx for symmetric positive definite K; m, M are the eigenvalue extremes.

    The constants are computed at load and override any declared values.
    """

    def __init__(self, matrix):
        K = np.asarray(matrix, dtype=float)
        if K.ndim != 2 or K.shape[0] != K.shape[1]:
            raise DimensionMismatch(f"matrix must be square, got shape {K.shape}")
        if not np.all(np.isfinite(K)):
            raise ValidationError("H_A2", "matrix contains non-finite entries")
        scale = max(1.0, float(np.abs(K).max()))
        if float(np.abs(K - K.T).max()) > 1e-12 * scale:
            raise ValidationError("H_A1", "matrix must be symmetric")
        K = 0.5 * (K + K.T)
        eigs = np.linalg.eigvalsh(K)
        if eigs[0] <= 0:
            raise ValidationError(
                "H_A1", f"matrix is not positive definite (min eigenvalue {eigs[0]:g})")
        self.matrix = K
        self._rows = K.tolist()
        self.n = K.shape[0]
        self.m = float(eigs[0])
        self.M = float(eigs[-1])

    def image(self, x):
        return [_fdot(row, x) for row in self._rows]


@dataclass(frozen=True)
class ConstantsCheck:
    m_hat: float
    M_hat: float
    ok: bool
    pairs_used: int


def verify_constants(op: Operator, n: int, sample_count: int, radius: float,
                     seed: int) -> ConstantsCheck:
    """Empirically validate the declared (m, M) on sampled point pairs.

    m_hat is the minimum monotonicity quotient <A(x)-A(y), x-y>/|x-y|^2 and
    M_hat the maximum Lipschitz quotient over ``sample_count`` pairs drawn
    uniformly from the radius ball.  ``ok`` is cleared when the samples fall
    outside the declared range (beyond a 1e-9 relative slack).
    """
    if sample_count < 2:
        raise DegenerateSample("need at least two sampled pairs")
    rng = np.random.default_rng(seed)
    m_hat = np.inf
    M_hat = 0.0
    used = 0
    for _ in range(sample_count):
        x = _ball_point(rng, n, radius)
        y = _ball_point(rng, n, radius)
        gap = x - y
        nrm2 = _dot(gap, gap)
        if nrm2 <= (1e-14 * max(radius, 1.0)) ** 2:
            continue  # coincident pair, no quotient
        img = op.apply(x) - op.apply(y)
        m_hat = min(m_hat, _dot(img, gap) / nrm2)
        M_hat = max(M_hat, math.sqrt(_dot(img, img)) / math.sqrt(nrm2))
        used += 1
    if used == 0:
        raise DegenerateSample("all sampled pairs were coincident")
    ok = (m_hat >= op.m * (1.0 - 1e-9)) and (M_hat <= op.M * (1.0 + 1e-9))
    return ConstantsCheck(m_hat=float(m_hat), M_hat=float(M_hat), ok=ok, pairs_used=used)


def _ball_point(rng, n, radius):
    g = rng.standard_normal(n)
    nrm = math.sqrt(_dot(g, g))
    if nrm == 0.0:
        return np.zeros(n)
    r = radius * rng.uniform() ** (1.0 / n)
    return (r / nrm) * g
