"""The shipped Gauss-Legendre rule on [0, 1].

Only the rule of ``SHIPPED_ORDERS`` exists: it ships with the package as a
``.npy`` file, written and checked bit for bit by the Newton builder of the
tests (``tests/legendre_reference.py``), and read without numpy.  Each solve
maps it to the half line itself (``solver._kinetic_excess``).
"""

from __future__ import annotations

import os
import sys
from functools import lru_cache

# The order of the kinetic pair integral, loaded by every cold m > 0 solve.
SHIPPED_ORDERS = (100,)


def _rule_path(order: int) -> str:
    """Path of the shipped (2, order) array of the order's nodes (ascending)
    and weights on [-1, 1]."""
    return os.path.join(os.path.dirname(__file__), "rules", f"gauss_legendre_{order}.npy")


def read_rule(order: int):
    """Nodes (ascending) and weights on [-1, 1] of a shipped order, two
    ``array('d')`` read from its file without numpy.  Any other order, or a
    file but a version 1.0 ``.npy`` of a C-ordered little-endian float64
    (2, order) array, raises ValueError."""
    import ast
    from array import array

    if order not in SHIPPED_ORDERS:
        raise ValueError(f"no Gauss-Legendre rule of order {order} ships; the orders are {SHIPPED_ORDERS}")
    with open(_rule_path(order), "rb") as fh:
        data = fh.read()
    start = 10 + int.from_bytes(data[8:10], "little")
    header = {"descr": "<f8", "fortran_order": False, "shape": (2, order)}
    if (data[:8] != b"\x93NUMPY\x01\x00" or len(data) != start + 16 * order
            or ast.literal_eval(data[10:start].decode("latin1")) != header):
        raise ValueError(f"{_rule_path(order)} is not a .npy file of a little-endian float64 (2, {order}) array")
    values = array("d", data[start:])
    if sys.byteorder == "big":
        values.byteswap()
    return values[:order], values[order:]


@lru_cache(maxsize=None)
def unit_rule(order: int):
    """Gauss-Legendre nodes and weights on [0, 1] of a shipped order, read
    by :func:`read_rule`, as read-only numpy arrays."""
    import numpy as np

    x, w = map(np.frombuffer, read_rule(order))
    u = 0.5 * (x + 1.0)
    w = 0.5 * w
    u.setflags(write=False)
    w.setflags(write=False)
    return u, w
