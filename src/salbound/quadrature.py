"""Gauss-Legendre rules for radial integrals on the half line.

The rules of ``SHIPPED_ORDERS`` ship with the package as ``.npy`` files
written by :func:`_gauss_legendre` itself; every other order is computed.
"""

from __future__ import annotations

import os
from functools import lru_cache

import numpy as np

_NEWTON_TOL = 1e-14
_NEWTON_MAX_STEPS = 12

# SolverConfig's default quadrature order and the doubled order of the solver's
# self-check, which every cold solve at m > 0 needs.
SHIPPED_ORDERS = (100, 200)


def _legendre(order: int, x: np.ndarray):
    """P_order(x) and its derivative by the three-term recurrence (|x| < 1)."""
    p_prev = np.ones_like(x)
    p = x.copy()
    for k in range(1, order):
        p_prev, p = p, ((2.0 * k + 1.0) / (k + 1.0)) * x * p - (k / (k + 1.0)) * p_prev
    return p, order * (x * p - p_prev) / (x * x - 1.0)


def _gauss_legendre(order: int):
    """Nodes (ascending) and weights of the Gauss-Legendre rule on [-1, 1].

    Newton's method on P_order from Tricomi's estimates of the nonnegative
    roots; the other half follows by symmetry. Weights are
    2 / ((1 - x^2) P'(x)^2) at the converged nodes.
    """
    half = (order + 1) // 2
    k = np.arange(1, half + 1)
    x = (1.0 - (order - 1) / (8.0 * order**3)) * np.cos(np.pi * (4 * k - 1) / (4 * order + 2))
    for _ in range(_NEWTON_MAX_STEPS):
        p, dp = _legendre(order, x)
        step = p / dp
        x = x - step
        if np.max(np.abs(step)) <= _NEWTON_TOL:
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


def _rule_path(order: int) -> str:
    """Path of the shipped (2, order) array of ``_gauss_legendre(order)``'s
    nodes and weights."""
    return os.path.join(os.path.dirname(__file__), "rules", f"gauss_legendre_{order}.npy")


@lru_cache(maxsize=None)
def unit_rule(order: int):
    """Gauss-Legendre nodes and weights on [0, 1]: the shipped rule at a
    shipped order, else Newton's method.  A missing shipped file raises."""
    if order < 2:
        raise ValueError("quadrature order must be at least 2")
    x, w = np.load(_rule_path(order)) if order in SHIPPED_ORDERS else _gauss_legendre(order)
    u = 0.5 * (x + 1.0)
    w = 0.5 * w
    u.setflags(write=False)
    w.setflags(write=False)
    return u, w


def semi_infinite_rule(order: int, scale: float = 1.0):
    """Rule for integrals over [0, inf) via the map y = scale * u / (1 - u).

    ``scale`` sets where the nodes concentrate: half of them land below y = scale.
    """
    if not scale > 0.0:
        raise ValueError("map scale must be positive")
    u, w = unit_rule(order)
    y = scale * u / (1.0 - u)
    wy = scale * w / (1.0 - u) ** 2
    return y, wy
