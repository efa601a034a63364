import math

import numpy as np
import pytest

from salbound import quadrature, solver

import legendre_reference


def test_unit_rule_integrates_polynomials_exactly():
    # the Newton builder's rules, among them the order-200 reference of the
    # momentum rule's domain test
    u, w = legendre_reference.unit_rule(8)
    for k in range(0, 15):  # exact through degree 2*8-1
        assert w @ u**k == pytest.approx(1.0 / (k + 1), rel=1e-14)
    for rule in map(legendre_reference.unit_rule, (100, 200, 400, 800)):
        u, w = rule
        order = u.size
        k = np.arange(2 * order)  # exact through degree 2*order-1
        moments = w @ u[:, None] ** k
        np.testing.assert_allclose(moments, 1.0 / (k + 1), rtol=1e-13, atol=0.0)


def test_unit_rule_matches_scipy():
    from scipy.special import roots_legendre

    # order 200 is the reference of the momentum rule's domain test
    for order in (16, 100, 200, 400, 800):
        u, w = legendre_reference.unit_rule(order)
        x, wx = roots_legendre(order)
        # scipy's endpoint weights carry the larger error, hence the loose rtol
        np.testing.assert_allclose(u, 0.5 * (x + 1.0), rtol=0.0, atol=1e-15)
        np.testing.assert_allclose(w, 0.5 * wx, rtol=1e-8, atol=0.0)


def test_unit_rule_is_cached_ascending_and_read_only():
    for order in (100, 200):
        u, w = legendre_reference.unit_rule(order)
        assert legendre_reference.unit_rule(order)[0] is u
        assert np.all(np.diff(u) > 0.0) and np.all(w > 0.0)
        np.testing.assert_allclose(u + u[::-1], 1.0, rtol=0.0, atol=1e-15)  # symmetric about 1/2
        with pytest.raises(ValueError):
            u[0] = 0.0
    u, _ = legendre_reference.unit_rule(33)
    assert u[16] == 0.5  # odd order: the middle node is the interval midpoint


def test_momentum_nodes_are_one_integer_lattice():
    # every window holds the nodes exp(n STEP) of integers n, so the windows
    # of two bases, or of a basis and the upper bound's zoom, share their
    # nodes bit for bit
    wide = quadrature.unit_rule(*quadrature.window(1e-3, 1e3))
    narrow = quadrature.unit_rule(*quadrature.window(0.5, 2.0))
    lo = round(math.log(wide[0]) / quadrature.STEP)
    assert wide == tuple(math.exp(n * quadrature.STEP) for n in range(lo, lo + len(wide)))
    start = wide.index(narrow[0])
    assert wide[start : start + len(narrow)] == narrow
    # the window covers p from 1e-4/sqrt(c_max) to 6.5/sqrt(c_min)
    assert narrow[0] <= 1e-4 / math.sqrt(2.0) < narrow[1]
    assert narrow[-2] < 6.5 / math.sqrt(0.5) <= narrow[-1]
    assert quadrature.unit_rule(*quadrature.window(0.5, 2.0)) is narrow


def test_momentum_rule_gives_the_massless_kinetic_moment():
    # as mu -> 0 the kinetic term of the unit pair density is
    # <|p|> = (4/sqrt(pi)) ∫ p^3 e^(-p^2) dp = 2/sqrt(pi), on the upper
    # bound's path and on a basis's Phi^T diag(g) Phi
    moment = 2.0 / math.sqrt(math.pi)
    for mu in (0.0, 5e-324, 1e-300):
        (value,) = solver._kinetic(mu, np.ones(1))
        assert value == pytest.approx(moment, rel=1e-14)
        (value,) = solver._Basis((math.sqrt(2.0),)).kinetic(mu)
        assert value == pytest.approx(moment, rel=1e-14)


def test_validation():
    # the Newton builder has no rule below order 2
    with pytest.raises(ValueError):
        legendre_reference.unit_rule(1)


def test_newton_cap_raises(monkeypatch):
    monkeypatch.setattr(legendre_reference, "NEWTON_MAX_STEPS", 1)
    with pytest.raises(ArithmeticError, match="did not converge"):
        legendre_reference.gauss_legendre(50)
