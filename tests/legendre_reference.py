"""Gauss-Legendre rules of any order by Newton's method, for the tests.

The package ships no Gauss-Legendre rule: its kinetic elements at m > 0 use
the trapezoid rule in ln p of ``salbound.quadrature``.  The rules here are
the tests' references.  The oscillator-basis oracle (``oscillator_reference``)
takes its rules on the half line from :func:`semi_infinite_rule`, and the
domain test of the momentum rule takes the order-200 rule of its per-pair
reference from :func:`unit_rule`.  Newton's method lands on bits that depend
on the last bit of numpy's cos at its starting values, so scipy's
``roots_legendre`` checks the rules independently of it.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

NEWTON_TOL = 1e-14
NEWTON_MAX_STEPS = 12


def _legendre(order: int, x: np.ndarray):
    """P_order(x) and its derivative by the three-term recurrence (|x| < 1)."""
    p_prev = np.ones_like(x)
    p = x.copy()
    for k in range(1, order):
        p_prev, p = p, ((2.0 * k + 1.0) / (k + 1.0)) * x * p - (k / (k + 1.0)) * p_prev
    return p, order * (x * p - p_prev) / (x * x - 1.0)


def gauss_legendre(order: int):
    """Nodes (ascending) and weights of the Gauss-Legendre rule on [-1, 1].

    Newton's method on P_order from Tricomi's estimates of the nonnegative
    roots; the other half follows by symmetry. Weights are
    2 / ((1 - x^2) P'(x)^2) at the converged nodes.
    """
    half = (order + 1) // 2
    k = np.arange(1, half + 1)
    x = (1.0 - (order - 1) / (8.0 * order**3)) * np.cos(np.pi * (4 * k - 1) / (4 * order + 2))
    for _ in range(NEWTON_MAX_STEPS):
        p, dp = _legendre(order, x)
        step = p / dp
        x = x - step
        if np.max(np.abs(step)) <= NEWTON_TOL:
            break
    else:
        raise ArithmeticError(f"Gauss-Legendre nodes of order {order} did not converge")
    _, dp = _legendre(order, x)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    # x is descending and nonnegative; an odd order's middle root is x = 0
    mirrored = order // 2
    nodes = np.concatenate((-x[:mirrored], x[::-1]))
    weights = np.concatenate((w[:mirrored], w[::-1]))
    return nodes, weights


@lru_cache(maxsize=None)
def unit_rule(order: int):
    """Gauss-Legendre nodes and weights on [0, 1], read-only."""
    if order < 2:
        raise ValueError("quadrature order must be at least 2")
    x, w = gauss_legendre(order)
    u = 0.5 * (x + 1.0)
    w = 0.5 * w
    u.setflags(write=False)
    w.setflags(write=False)
    return u, w


def semi_infinite_rule(order: int, scale: float = 1.0):
    """Rule of any order for integrals over [0, inf) via the map
    y = scale * u / (1 - u); half of the nodes land below y = scale."""
    u, w = unit_rule(order)
    return scale * u / (1.0 - u), scale * w / (1.0 - u) ** 2
