"""The shipped Gauss-Legendre rule on [0, 1].

Only the rule of ``SHIPPED_ORDERS`` exists: it ships with the package as a
``.npy`` file, written and checked bit for bit by the Newton builder of the
tests (``tests/legendre_reference.py``).  The solver maps it to the half
line itself (``solver._kinetic_excess``).
"""

from __future__ import annotations

import os
from functools import lru_cache

import numpy as np

# The order of the solver's kinetic pair integral, loaded by every cold m > 0 solve.
SHIPPED_ORDERS = (100,)


def _rule_path(order: int) -> str:
    """Path of the shipped (2, order) array of the order's nodes (ascending)
    and weights on [-1, 1]."""
    return os.path.join(os.path.dirname(__file__), "rules", f"gauss_legendre_{order}.npy")


@lru_cache(maxsize=None)
def unit_rule(order: int):
    """Gauss-Legendre nodes and weights on [0, 1] of a shipped order.  Any
    other order raises ValueError, and a missing shipped file raises."""
    if order not in SHIPPED_ORDERS:
        raise ValueError(f"no Gauss-Legendre rule of order {order} ships; the orders are {SHIPPED_ORDERS}")
    x, w = np.load(_rule_path(order))
    u = 0.5 * (x + 1.0)
    w = 0.5 * w
    u.setflags(write=False)
    w.setflags(write=False)
    return u, w
