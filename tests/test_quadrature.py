import math

import numpy as np
import pytest

from salbound import quadrature
from salbound.quadrature import semi_infinite_rule, unit_rule


def test_unit_rule_integrates_polynomials_exactly():
    u, w = unit_rule(8)
    for k in range(0, 15):  # exact through degree 2*8-1
        assert w @ u**k == pytest.approx(1.0 / (k + 1), rel=1e-14)
    for order in (400, 800):
        u, w = unit_rule(order)
        k = np.arange(2 * order)  # exact through degree 2*order-1
        moments = w @ u[:, None] ** k
        np.testing.assert_allclose(moments, 1.0 / (k + 1), rtol=1e-13, atol=0.0)


def test_unit_rule_matches_scipy():
    from scipy.special import roots_legendre

    for order in (16, 400, 800):
        u, w = unit_rule(order)
        x, wx = roots_legendre(order)
        # scipy's endpoint weights carry the larger error, hence the loose rtol
        np.testing.assert_allclose(u, 0.5 * (x + 1.0), rtol=0.0, atol=1e-15)
        np.testing.assert_allclose(w, 0.5 * wx, rtol=1e-8, atol=0.0)


def test_unit_rule_is_cached_ascending_and_read_only():
    u, w = unit_rule(33)
    assert unit_rule(33)[0] is u
    assert np.all(np.diff(u) > 0.0) and np.all(w > 0.0)
    assert u[16] == 0.5  # odd order: the middle node is the interval midpoint
    with pytest.raises(ValueError):
        u[0] = 0.0


def test_semi_infinite_gaussian_moments():
    y, wy = semi_infinite_rule(200, scale=2.0)
    assert wy @ np.exp(-y) == pytest.approx(1.0, rel=1e-12)
    assert wy @ (y * y * np.exp(-y * y)) == pytest.approx(math.sqrt(math.pi) / 4, rel=1e-12)


def test_scale_shifts_node_median():
    y1, _ = semi_infinite_rule(64, scale=1.0)
    y5, _ = semi_infinite_rule(64, scale=5.0)
    np.testing.assert_allclose(y5, 5.0 * y1, rtol=1e-14)


def test_validation():
    with pytest.raises(ValueError):
        unit_rule(1)
    with pytest.raises(ValueError):
        semi_infinite_rule(32, scale=0.0)


def test_newton_cap_raises(monkeypatch):
    monkeypatch.setattr(quadrature, "_NEWTON_MAX_STEPS", 1)
    with pytest.raises(ArithmeticError, match="did not converge"):
        quadrature._gauss_legendre(50)
