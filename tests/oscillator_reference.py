"""The s-wave harmonic-oscillator basis, kept as an oracle for the tests.

salbound solved every operator in this basis before it moved to geometric
Gaussians: the functions R_n(y) = N_n L_n^(1/2)(y^2) exp(-y^2/2) on the
measure y^2 dy, at a length scale 1/sigma searched for the least energy.
They are form invariant under the Fourier transform up to a phase (-1)^n, so
the square-root kinetic term (in momentum space) and the potential (in
coordinate space) are radial quadratures against one function table.  The
matrices here are built by those quadratures on the mapped Gauss-Legendre
rule of any order (``legendre_reference``, the generator of the package's
shipped rules), with a doubled-order self-check, and share no closed form
with the Gaussian basis.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from legendre_reference import semi_infinite_rule

#: Relative change between a rule and its doubled-order version above which
#: a quadrature warning is recorded.
SELF_CHECK_TOL = 1e-10


def radial_basis(basis_size: int, y: np.ndarray) -> np.ndarray:
    """Table of dimensionless s-wave oscillator functions R_n(y), n < basis_size.

    R_n(y) = N_n L_n^(1/2)(y^2) exp(-y^2/2), normalized on the measure y^2 dy.
    The Laguerre recurrence is run on the exponentially weighted functions,
    which keeps every intermediate bounded.
    """
    y = np.asarray(y, dtype=float)
    t = y * y
    out = np.empty((basis_size, y.size))
    out[0] = np.exp(-0.5 * t)
    if basis_size > 1:
        out[1] = (1.5 - t) * out[0]
    for n in range(1, basis_size - 1):
        out[n + 1] = ((2.0 * n + 1.5 - t) * out[n] - (n + 0.5) * out[n - 1]) / (n + 1.0)
    log_ratio = np.array([math.lgamma(n + 1.0) - math.lgamma(n + 1.5) for n in range(basis_size)])
    norms = np.sqrt(2.0 * np.exp(log_ratio))
    return out * norms[:, None]


def map_scale(basis_size: int) -> float:
    """Quadrature map scale adapted to the radial extent of the basis."""
    return max(2.0, 1.25 * math.sqrt(basis_size))


@lru_cache(maxsize=16)
def _nodes(basis_size: int, order: int):
    """Nodes, weights times y^2, and the coordinate- and momentum-space tables.

    Nodes beyond the support of the Gaussian envelope (where exp(-y^2/2)
    underflows) contribute exactly zero and are dropped; this also keeps
    steeply rising potentials finite at every retained node.  The momentum
    table (-1)^n R_n carries the Fourier phases.
    """
    y, wy = semi_infinite_rule(order, map_scale(basis_size))
    keep = y < 38.0
    y = y[keep]
    wy2 = wy[keep] * y * y
    table = radial_basis(basis_size, y)
    momentum = table * np.where(np.arange(basis_size) % 2 == 0, 1.0, -1.0)[:, None]
    for array in (y, wy2, table, momentum):
        array.setflags(write=False)
    return y, wy2, table, momentum


def _gram(table: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """table diag(weights) table^T, exactly symmetric (one rank-k product)."""
    a = table * np.sqrt(weights)
    return a @ a.T


def _self_check(build, order, label, diagnostics):
    mat = build(order)
    if diagnostics is None:
        return mat
    doubled = build(2 * order)
    scale = max(float(np.abs(mat).max()), 1e-300)
    change = float(np.abs(doubled - mat).max()) / scale
    if change > SELF_CHECK_TOL:
        diagnostics.append(
            f"{label} quadrature self-check: relative change {change:.2e} between "
            f"order {order} and {2 * order} exceeds {SELF_CHECK_TOL:.0e}"
        )
    return mat


def kinetic_matrix(beta, lam, mass, basis_size, basis_scale, quadrature_order, diagnostics=None):
    """Matrix of beta * sqrt(lam p^2 + mass^2) in the oscillator basis of
    momentum-space width ``basis_scale``, by quadrature over the momentum
    table.  A list passed as ``diagnostics`` receives a self-check warning."""
    if not (beta > 0.0 and lam > 0.0 and mass >= 0.0 and basis_scale > 0.0):
        raise ValueError("kinetic matrix parameters out of range")

    def build(order):
        y, wy2, _, momentum = _nodes(basis_size, order)
        return _gram(momentum, wy2 * beta * np.sqrt(lam * (basis_scale * y) ** 2 + mass * mass))

    return _self_check(build, quadrature_order, "kinetic", diagnostics)


def potential_matrix(potential, gamma, basis_size, basis_scale, quadrature_order, diagnostics=None):
    """Matrix of gamma * V(r) in the oscillator basis: the sum over
    ``potential.terms()`` of gamma c basis_scale^-k times the quadrature of
    y^k.  The r^2 volume factor keeps the Coulomb integrand regular."""
    if not (gamma > 0.0 and basis_scale > 0.0):
        raise ValueError("potential matrix parameters out of range")

    def build(order):
        y, wy2, table, _ = _nodes(basis_size, order)
        return sum((gamma * c * basis_scale**-k) * _gram(table, wy2 * y**k) for c, k in potential.terms())

    return _self_check(build, quadrature_order, "potential", diagnostics)
