"""Reference scale search and pair potentials, for the tests.

Plain golden-section search in log coordinates: no interpolation, a fixed
shrink per evaluation, and endpoint flags within twice the tolerance of an
end.  Run at a tight tolerance it locates the scale optimum independently of
the grid zoom of ``salbound.bounds``, for the Gaussian upper bound and for
the oscillator-basis oracle (``oscillator_reference``).

``potential_value`` evaluates V(r) of each form from a potential's spelling
(form and parameters), so that it stays independent of the power terms the
solver assembles from.
``gaussian_overlap`` is the overlap matrix of a solve's Gaussians, from the
closed form (2 r_i r_j/(r_i^2 + r_j^2))^(3/2) of unit-normalised ones.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from oscillator_reference import kinetic_matrix, potential_matrix

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


class GoldenResult(NamedTuple):
    """The least point x found, f there, and whether x is near either end."""

    x: float
    fx: float
    at_lower: bool
    at_upper: bool

#: V(r, *parameters) of each spelling's form.
_V = {
    "linear": lambda r, b: b * r,
    "coulomb": lambda r, v: -v / r,
    "harmonic": lambda r, v: v * r * r,
    # a vanishing Coulomb part is finite at the origin
    "coulomb+linear": lambda r, v, b: b * r - v / r if v else b * r,
    "power": lambda r, c, k: c * r**k,
}


def potential_value(potential, r):
    """V(r) of ``potential`` for scalar or array r > 0, from its spelling."""
    form, *parameters = potential.spelling
    return _V[form](np.asarray(r, dtype=float), *parameters)


def gaussian_overlap(result) -> np.ndarray:
    """Overlap matrix of the Gaussians of a ``SpectrumResult``: its radii are
    in geometric progression across ``basis_range``."""
    r = np.geomspace(*result.basis_range, len(result.coefficients))
    return (2.0 * np.outer(r, r) / np.add.outer(r * r, r * r)) ** 1.5


def reference_minimize_log_golden(f, lo: float, hi: float, rel_tol: float) -> GoldenResult:
    a, b = math.log(lo), math.log(hi)
    a0, b0 = a, b
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = f(math.exp(c)), f(math.exp(d))
    while (b - a) > rel_tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = f(math.exp(c))
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = f(math.exp(d))
    t, ft = (c, fc) if fc <= fd else (d, fd)
    pad = 2.0 * rel_tol
    return GoldenResult(math.exp(t), ft, t - a0 <= pad, b0 - t <= pad)


def reference_ground_energy(h, basis_size: int, lo: float, hi: float, order: int = 400) -> GoldenResult:
    """Lowest eigenvalue of ``h`` in the first ``basis_size`` oscillator
    functions, in its own units with no change of units: the basis scale is
    searched over [lo, hi] by the reference golden section at tolerance
    1e-9."""

    def lowest(sigma):
        kin = kinetic_matrix(h.beta, h.lam, h.mass, basis_size, sigma, order)
        pot = potential_matrix(h.potential, h.gamma, basis_size, sigma, order)
        return np.linalg.eigvalsh(kin + pot)[0]

    return reference_minimize_log_golden(lowest, lo, hi, 1e-9)
