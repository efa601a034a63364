"""The momentum rule of the kinetic term at m > 0: the trapezoid rule in ln p.

In t = ln p the kinetic integral of a Gaussian pair density,
∫ p^4 e^(-c p^2) / (sqrt(p^2 + mu^2) + mu) dp, is an analytic integrand that
falls off doubly exponentially at both ends, so the trapezoid rule of step
:data:`STEP` converges exponentially (Trefethen and Weideman, SIAM Rev. 56
(2014) 385).  Its nodes p_n = exp(n STEP) lie on one lattice of integers n,
so every basis, and the Gaussian upper bound, takes a window of the same
nodes, each of weight STEP p_n in dp.  The :func:`window` of the momentum
exponents c_min..c_max covers p from 1e-4/sqrt(c_max) to 6.5/sqrt(c_min),
at most 320 nodes for a basis of 120 Gaussians.

This module needs only the standard library.
"""

from __future__ import annotations

import math
from functools import lru_cache

#: Step of the rule in ln p.
STEP = 0.1


def window(c_min: float, c_max: float) -> tuple[int, int]:
    """(lo, hi): the integers n from lo to hi whose nodes exp(n STEP) cover
    the momentum densities p^2 e^(-c p^2) of exponents c_min..c_max."""
    return (math.floor(math.log(1e-4 / math.sqrt(c_max)) / STEP),
            math.ceil(math.log(6.5 / math.sqrt(c_min)) / STEP))


@lru_cache(maxsize=64)
def unit_rule(lo: int, hi: int) -> tuple[float, ...]:
    """The nodes exp(n STEP), ascending, for the integers n = lo..hi.  n
    stays an integer: nodes spaced by a float step in ln p are 1e-14 off."""
    return tuple(math.exp(n * STEP) for n in range(lo, hi + 1))
