import math
import os

import numpy as np
import pytest

from salbound import quadrature
from salbound.quadrature import SHIPPED_ORDERS, semi_infinite_rule, unit_rule
from salbound.reductions import SolverConfig


def test_unit_rule_integrates_polynomials_exactly():
    u, w = unit_rule(8)
    for k in range(0, 15):  # exact through degree 2*8-1
        assert w @ u**k == pytest.approx(1.0 / (k + 1), rel=1e-14)
    for order in (*SHIPPED_ORDERS, 400, 800):
        u, w = unit_rule(order)
        k = np.arange(2 * order)  # exact through degree 2*order-1
        moments = w @ u[:, None] ** k
        np.testing.assert_allclose(moments, 1.0 / (k + 1), rtol=1e-13, atol=0.0)


def test_unit_rule_matches_scipy():
    from scipy.special import roots_legendre

    for order in (16, *SHIPPED_ORDERS, 400, 800):
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


@pytest.mark.parametrize("order", SHIPPED_ORDERS)
def test_shipped_rule_is_the_newton_rule_and_read_only(order):
    """Regenerate the shipped rules with

    PYTHONPATH=src python -c "import numpy as np; from salbound import quadrature as q; [np.save(q._rule_path(n), np.stack(q._gauss_legendre(n))) for n in q.SHIPPED_ORDERS]"

    Newton's method lands on bits that depend on the last bit of numpy's cos
    at its starting values; test_unit_rule_matches_scipy checks the shipped
    rules independently of it.
    """
    shipped = np.load(quadrature._rule_path(order))
    built = np.stack(quadrature._gauss_legendre(order))
    assert shipped.dtype == built.dtype and shipped.shape == built.shape == (2, order)
    assert shipped.tobytes() == built.tobytes()
    for array in unit_rule(order):
        assert not array.flags.writeable


def test_shipped_orders_are_the_default_and_its_self_check():
    # the CLI takes its default from SolverConfig, so all three agree
    default = SolverConfig().quadrature_order
    assert set(SHIPPED_ORDERS) == {default, 2 * default}
    rules = os.path.dirname(quadrature._rule_path(default))
    assert sorted(os.listdir(rules)) == sorted(
        os.path.basename(quadrature._rule_path(order)) for order in SHIPPED_ORDERS
    )


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
