import numpy as np
import pytest

import sweepsolve as sw


def test_identity_apply():
    op = sw.IdentityOperator()
    assert np.allclose(op.apply([1.0, 2.0]), [1.0, 2.0])
    assert op.m == op.M == 1.0


def test_scaled_identity_apply():
    op = sw.ScaledIdentityOperator(2.0)
    assert np.allclose(op.apply([1.0, 0.0]), [2.0, 0.0])
    assert op.m == op.M == 2.0


def test_linear_spd_apply_and_constants():
    op = sw.LinearSPDOperator([[1.0, 0.0], [0.0, 4.0]])
    assert np.allclose(op.apply([1.0, 1.0]), [1.0, 4.0])
    assert op.m == pytest.approx(1.0)
    assert op.M == pytest.approx(4.0)


def test_linear_spd_constants_override_any_declaration():
    # eigenvalues are computed at load; a skewed diagonal still yields exact extremes
    op = sw.LinearSPDOperator([[2.0, 1.0], [1.0, 2.0]])
    assert op.m == pytest.approx(1.0)
    assert op.M == pytest.approx(3.0)


def test_linear_spd_rejects_asymmetric():
    with pytest.raises(sw.ValidationError) as err:
        sw.LinearSPDOperator([[1.0, 0.5], [0.0, 1.0]])
    assert err.value.hypothesis == "H_A1"


def test_linear_spd_rejects_indefinite():
    with pytest.raises(sw.ValidationError) as err:
        sw.LinearSPDOperator([[1.0, 2.0], [2.0, 1.0]])
    assert err.value.hypothesis == "H_A1"


def test_scaled_identity_rejects_nonpositive():
    with pytest.raises(sw.ValidationError):
        sw.ScaledIdentityOperator(0.0)


def test_scaled_identity_homogeneity():
    op = sw.ScaledIdentityOperator(3.0)
    x = np.array([0.5, -2.0])
    assert np.allclose(op.apply(2.0 * x), 2.0 * op.apply(x))
