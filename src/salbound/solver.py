"""Variational ground-state solver for the reduced one-body operator

    H = beta * sqrt(lam * p^2 + m^2) + gamma * V(r)

in three dimensions at zero angular momentum (units hbar = c = 1).

Every operator is solved in its natural units (``reductions.natural_units``,
which also refuses operators that are unbounded below): a dilation r -> s r
maps H to beta sqrt(lam)/s times the canonical operator
sqrt(p^2 + mu^2) + r^k - v'/r, which is solved here and scaled back.

The Rayleigh-Ritz basis is a fixed geometric set of unit-normalised s-wave
Gaussians exp(-r^2/r_i^2), the Gaussian expansion method of Hiyama, Kino and
Kamimura (Prog. Part. Nucl. Phys. 51 (2003) 223).  ``spectrum.basis_radii``
places them by one rule, so nothing is searched.  The product of two of them
is a Gaussian, so each matrix element is their overlap times the expectation
of the operator in a Gaussian pair density (:func:`pair_expectation`): with
the coordinate exponent a = 1/r_i^2 + 1/r_j^2 and the momentum exponent
c = (r_i^2 + r_j^2)/4, <r^k> = M_k a^(-k/2) and <|p|> = M_1 c^(-1/2), where
M_k = Γ((3+k)/2)/Γ(3/2).  At m > 0 the kinetic expectation is mu plus one
integral per pair on the mapped Gauss-Legendre rule of the fixed order
:data:`KINETIC_ORDER`.  The rest mass mu adds mu to every generalized
eigenvalue, so it stays out of the matrix and is added to the energy.

A Cholesky of the unit-diagonal overlap S reduces H x = E S x to one
``eigvalsh``.  That eigenvalue carries about 1e-9 of roundoff from the
ill-conditioned overlap, so one step of inverse iteration at it gives the
ground vector x, and the energy is its Rayleigh quotient x.Hx / x.Sx in the
original basis: a variational upper bound for that vector.  Its plain sums
cancel: against a 50-digit solve of the same matrices it is 8.4e-13 off for
``power:1,0.5`` at K = 9 and 3.4e-12 off for ``coulomb:0.3`` at K = 60, where
the compensated quotient of ``spectrum`` is 8e-14 and 8.5e-16 off (ROADMAP
item 4).  The convergence estimate is the same solve on the centred half of
the Gaussians, a principal submatrix that needs no new matrix elements.

The Gaussian upper bound of ``bounds`` evaluates its one-Gaussian trial
states at m > 0 by :func:`pair_expectation`.  The operator, the basis size
and the closed forms of the massless linear case are in ``reductions``; the
basis rule, the result type and the range warnings are in ``spectrum``,
which also runs this solve without numpy at m = 0.  This module holds the
numpy solve.
"""

from __future__ import annotations

import math

import numpy as np

from . import quadrature
from .reductions import ReducedHamiltonian, SolverConfig, _pair_moment, natural_units
from .spectrum import _MOMENT_1, SpectrumResult, basis_radii, centred_half, range_warnings

#: Order of the kinetic pair integral's rule.  The self-check runs it at
#: twice the order, and both rules ship with the package.  Orders 100 and 200
#: agree to 6e-16 relative for every nu from 0 to 1e150, which covers every
#: pair an accepted input reaches (mu < 2^480, c <= 5e8).
KINETIC_ORDER = 100

#: Relative change between the rule and its doubled-order version above which
#: a quadrature warning is recorded.
QUADRATURE_SELF_CHECK_TOL = 1e-10

def _kinetic_excess(nu: np.ndarray, order: int) -> np.ndarray:
    """(4/sqrt(pi)) ∫ y^4 e^(-y^2) / (sqrt(y^2 + nu^2) + nu) dy over [0, inf)
    for each nu >= 0, on the shipped Gauss-Legendre rule of ``order`` mapped by
    y = u/(1 - u).

    It is c^(1/2) <sqrt(p^2 + mu^2) - mu> in the momentum density
    p^2 e^(-c p^2) at nu = mu sqrt(c); the form p^2/(sqrt(p^2 + mu^2) + mu)
    of the excess over the rest mass keeps heavy masses free of cancellation.
    The (nu, node) array is the one temporary, 0.66 MB at 820 pairs.
    """
    u, w = quadrature.unit_rule(order)
    y = u / (1.0 - u)
    wy = w / (1.0 - u) ** 2
    weight = (2.0 * _MOMENT_1) * wy * y**4 * np.exp(-y * y)
    d = np.add.outer(nu * nu, y * y)
    np.sqrt(d, out=d)
    d += nu[:, None]
    np.reciprocal(d, out=d)
    return d @ weight


def pair_expectation(canonical: ReducedHamiltonian, a: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Expectation of a canonical operator less its rest mass,
    sqrt(p^2 + mu^2) - mu + V(r), in the Gaussian pair densities of
    coordinate exponents ``a`` and momentum exponents ``c`` (ac >= 1).

    The density of r is r^2 e^(-a r^2) and that of p is p^2 e^(-c p^2), so
    <r^k> = M_k a^(-k/2) with M_k = Γ((3+k)/2)/Γ(3/2), and <|p|> =
    M_1 c^(-1/2) at m = 0.  At m > 0 the kinetic term is one integral per
    pair (:func:`_kinetic_excess`) on the rule of :data:`KINETIC_ORDER`; at
    m = 0 no rule is loaded.
    """
    root = np.sqrt(c)
    if canonical.mass == 0.0:
        out = _MOMENT_1 / root
    else:
        out = _kinetic_excess(canonical.mass * root, KINETIC_ORDER) / root
    for coefficient, k in canonical.potential.terms():
        out += (coefficient * _pair_moment(k)) * a ** (-k / 2.0)
    return out


def _matrices(canonical: ReducedHamiltonian, radii: np.ndarray):
    """Overlap and Rayleigh-Ritz matrix less the rest mass of the
    unit-normalised Gaussians of ``radii``, built on the upper triangle."""
    i, j = np.triu_indices(radii.size)
    r2 = radii * radii
    width = r2[i] + r2[j]
    overlap = (2.0 * radii[i] * radii[j] / width) ** 1.5
    energy = pair_expectation(canonical, width / (r2[i] * r2[j]), width / 4.0)
    out = []
    for values in (overlap, overlap * energy):
        mat = np.empty((radii.size, radii.size))
        mat[i, j] = values
        mat[j, i] = values
        out.append(mat)
    return out


def _lowest(overlap: np.ndarray, matrix: np.ndarray):
    """(energy, x, edge weights) of the lowest solution of matrix x = E overlap x.

    ``eigvalsh`` of the Cholesky-reduced matrix, one step of inverse
    iteration next to its lowest eigenvalue, and the Rayleigh quotient of the
    back-transformed vector x, which is normalised to x.S x = 1.  The weight
    of Gaussian i is x_i^2/(S^-1)_ii, the squared norm of the part of the
    state that no other Gaussian supplies; it is given for the first and the
    last.
    """
    inverse = np.linalg.inv(np.linalg.cholesky(overlap))
    reduced = inverse @ matrix @ inverse.T
    size = len(reduced)
    eigenvalues = np.linalg.eigvalsh(reduced)
    # a shift below the lowest eigenvalue by 1e-10 of the gap keeps the
    # solve nonsingular and still suppresses every other component
    gap = eigenvalues[1] - eigenvalues[0] if size > 1 else 1.0
    shifted = reduced - (eigenvalues[0] - 1e-10 * gap) * np.eye(size)
    vector = inverse.T @ np.linalg.solve(shifted, np.ones(size))
    norm = vector @ overlap @ vector
    energy = float(vector @ matrix @ vector / norm)
    vector /= math.sqrt(norm)
    edges = inverse[:, [0, -1]]
    weights = vector[[0, -1]] ** 2 / np.einsum("ij,ij->j", edges, edges)
    return energy, vector, weights


def _self_check(canonical: ReducedHamiltonian, radii: np.ndarray) -> list[str]:
    """The kinetic pair integral at :data:`KINETIC_ORDER` and twice it on the
    diagonal pairs, whose momentum exponents c_ii = r_i^2/2 bracket every
    other pair's c_ij = (c_ii + c_jj)/2; a warning where they differ beyond
    the tolerance."""
    if canonical.mass == 0.0:
        return []
    nu = canonical.mass * radii / math.sqrt(2.0)
    order = KINETIC_ORDER
    base = _kinetic_excess(nu, order)
    change = float(np.max(np.abs(_kinetic_excess(nu, 2 * order) - base) / base))
    if change <= QUADRATURE_SELF_CHECK_TOL:
        return []
    return [
        f"kinetic quadrature self-check: relative change {change:.2e} between "
        f"order {order} and {2 * order} exceeds {QUADRATURE_SELF_CHECK_TOL:.0e}"
    ]


def ground_energy(h: ReducedHamiltonian, config: SolverConfig | None = None) -> SpectrumResult:
    """Bottom of the spectrum of H by Rayleigh-Ritz on ``config.basis_size``
    geometric Gaussians.

    The solve runs on the canonical operator of ``reductions.natural_units``,
    and the result is scaled back to H.  The returned energy is a
    variational upper bound on the true spectral bottom.
    ``convergence_estimate`` is its difference against the solve on the
    centred ``basis_size // 2`` Gaussians and bounds the plausible remaining
    truncation error.  The warnings come from the kinetic quadrature
    self-check at m > 0 and from the weight of the edge Gaussians.
    """
    cfg = config if config is not None else SolverConfig()
    h, energy, length = natural_units(h)
    radii = np.array(basis_radii(h, cfg.basis_size))
    overlap, matrix = _matrices(h, radii)
    lowest, vector, weights = _lowest(overlap, matrix)
    block = centred_half(cfg.basis_size)
    estimate = abs(_lowest(overlap[block, block], matrix[block, block])[0] - lowest)
    if (overlap @ vector).sum() < 0.0:
        vector = -vector
    vector.setflags(write=False)
    return SpectrumResult(
        ground_energy=h.mass + lowest,
        basis_range=(float(radii[0]), float(radii[-1])),
        coefficients=vector,
        convergence_estimate=estimate,
        warnings=_self_check(h, radii) + range_warnings(weights),
    ).dilated(energy, length)

