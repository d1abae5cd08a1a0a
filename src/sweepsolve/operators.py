"""Strongly monotone Lipschitz operators with exact (m, M) constants.

Each kind defines one unvalidated kernel, ``image(x)``, from a finite list of
floats to a list, x itself for the identity (no caller mutates either); ``apply``
validates x and wraps it in arrays.  Matrix rows run through ``set_zoo._fdot``,
left to right: one bit pattern on every BLAS kernel.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, ValidationError
from .set_zoo import _fdot, as_vector


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
