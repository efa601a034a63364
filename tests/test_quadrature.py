import math
import os

import numpy as np
import pytest

from salbound import quadrature, solver
from salbound.quadrature import SHIPPED_ORDERS, unit_rule

import legendre_reference


def test_unit_rule_integrates_polynomials_exactly():
    # the shipped rules, and the tests' own rules of other orders
    u, w = legendre_reference.unit_rule(8)
    for k in range(0, 15):  # exact through degree 2*8-1
        assert w @ u**k == pytest.approx(1.0 / (k + 1), rel=1e-14)
    for rule in (*map(unit_rule, SHIPPED_ORDERS), *map(legendre_reference.unit_rule, (200, 400, 800))):
        u, w = rule
        order = u.size
        k = np.arange(2 * order)  # exact through degree 2*order-1
        moments = w @ u[:, None] ** k
        np.testing.assert_allclose(moments, 1.0 / (k + 1), rtol=1e-13, atol=0.0)


def test_unit_rule_matches_scipy():
    from scipy.special import roots_legendre

    # order 200 is the reference of the kinetic rule's domain test
    for order in (16, *SHIPPED_ORDERS, 200, 400, 800):
        u, w = (unit_rule if order in SHIPPED_ORDERS else legendre_reference.unit_rule)(order)
        x, wx = roots_legendre(order)
        # scipy's endpoint weights carry the larger error, hence the loose rtol
        np.testing.assert_allclose(u, 0.5 * (x + 1.0), rtol=0.0, atol=1e-15)
        np.testing.assert_allclose(w, 0.5 * wx, rtol=1e-8, atol=0.0)


def test_unit_rule_is_cached_ascending_and_read_only():
    for order in SHIPPED_ORDERS:
        u, w = unit_rule(order)
        assert unit_rule(order)[0] is u
        assert np.all(np.diff(u) > 0.0) and np.all(w > 0.0)
        np.testing.assert_allclose(u + u[::-1], 1.0, rtol=0.0, atol=1e-15)  # symmetric about 1/2
        with pytest.raises(ValueError):
            u[0] = 0.0
    u, _ = legendre_reference.unit_rule(33)
    assert u[16] == 0.5  # odd order: the middle node is the interval midpoint


@pytest.mark.parametrize("order", SHIPPED_ORDERS)
def test_shipped_rule_is_the_newton_rule_and_read_only(order):
    # the generator and how to regenerate the rules: tests/legendre_reference.py;
    # test_unit_rule_matches_scipy checks them independently of its bits
    shipped = np.load(quadrature._rule_path(order))
    built = np.stack(legendre_reference.gauss_legendre(order))
    assert shipped.dtype == built.dtype and shipped.shape == built.shape == (2, order)
    assert shipped.tobytes() == built.tobytes()
    for array in unit_rule(order):
        assert not array.flags.writeable


def test_rule_reader_is_np_load_and_refuses_any_other_file(tmp_path, monkeypatch):
    # the pure-Python solve reads the shipped rule without numpy: the bits of
    # np.load, and anything but a version 1.0 file of a C-ordered
    # little-endian float64 (2, order) array raises
    order = solver.KINETIC_ORDER
    shipped = np.load(quadrature._rule_path(order))
    assert [np.array(a).tobytes() for a in quadrature.read_rule(order)] == [row.tobytes() for row in shipped]
    path = tmp_path / "rule.npy"
    monkeypatch.setattr(quadrature, "_rule_path", lambda _: str(path))
    for wrong in (shipped.astype(">f8"), shipped.astype("<f4"), np.asfortranarray(shipped),
                  shipped.T.copy(), shipped[:, :-1]):
        np.save(path, wrong)
        with pytest.raises(ValueError, match="is not a .npy file of a little-endian float64"):
            quadrature.read_rule(order)
    np.save(path, shipped)
    data = path.read_bytes()
    for wrong in (data[:-8], data + bytes(8), data[:6] + b"\x02" + data[7:]):
        path.write_bytes(wrong)
        with pytest.raises(ValueError, match="is not a .npy file of a little-endian float64"):
            quadrature.read_rule(order)
    path.write_bytes(data)
    assert [np.array(a).tobytes() for a in quadrature.read_rule(order)] == [row.tobytes() for row in shipped]


def test_shipped_order_is_the_kinetic_order():
    # the kinetic pair integral's fixed order is the one rule in rules/
    order = solver.KINETIC_ORDER
    assert SHIPPED_ORDERS == (order,)
    rules = os.path.dirname(quadrature._rule_path(order))
    assert os.listdir(rules) == [os.path.basename(quadrature._rule_path(order))]


def test_mapped_rules_give_the_massless_kinetic_moment(monkeypatch):
    # the solver maps the shipped rule to [0, inf) by y = u/(1 - u); at
    # nu = 0 its kinetic integral is (4/sqrt(pi)) ∫ y^3 e^(-y^2) dy = 2/sqrt(pi).
    # So does the order-200 reference of the domain test, patched in.
    moment = 2.0 / math.sqrt(math.pi)
    (value,) = solver._kinetic_excess(np.zeros(1))
    assert value == pytest.approx(moment, rel=1e-14)
    monkeypatch.setattr(quadrature, "unit_rule", lambda _: legendre_reference.unit_rule(200))
    (value,) = solver._kinetic_excess(np.zeros(1))
    assert value == pytest.approx(moment, rel=1e-14)


def test_validation():
    # only the shipped orders exist; no order is built at run time
    for order in (1, 16, 64, 120, 200, 400):
        with pytest.raises(ValueError, match=f"no Gauss-Legendre rule of order {order} ships"):
            unit_rule(order)
    with pytest.raises(ValueError):
        legendre_reference.unit_rule(1)


def test_newton_cap_raises(monkeypatch):
    monkeypatch.setattr(legendre_reference, "NEWTON_MAX_STEPS", 1)
    with pytest.raises(ArithmeticError, match="did not converge"):
        legendre_reference.gauss_legendre(50)
