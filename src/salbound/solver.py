"""Variational ground-state solver for the reduced one-body operator

    H = beta * sqrt(lam * p^2 + m^2) + gamma * V(r)

in three dimensions at zero angular momentum (units hbar = c = 1).

Every operator is solved in its natural units (``reductions.natural_units``,
which also refuses operators that are unbounded below): a dilation r -> s r
maps H to beta sqrt(lam)/s times the canonical operator
sqrt(p^2 + mu^2) + r^k - v'/r, which is solved here and scaled back.

The Rayleigh-Ritz basis is a fixed geometric set of unit-normalised s-wave
Gaussians exp(-r^2/r_i^2), the Gaussian expansion method of Hiyama, Kino and
Kamimura (Prog. Part. Nucl. Phys. 51 (2003) 223).  :func:`basis_radii`
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
original basis: a variational upper bound for that vector, accurate to about
1e-14.  The convergence estimate is the same solve on the centred half of
the Gaussians, a principal submatrix that needs no new matrix elements.

The Gaussian upper bound of ``bounds`` evaluates its one-Gaussian trial
states by :func:`pair_expectation`.  The operator, the basis size and the
closed forms of the massless linear case are in ``reductions``; this module
holds only the basis solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .quadrature import semi_infinite_rule
from .reductions import ReducedHamiltonian, SolverConfig, _pair_moment, natural_units

#: Order of the kinetic pair integral's rule.  The self-check runs it at
#: twice the order, and both rules ship with the package.  Orders 100 and 200
#: agree to 6e-16 relative for every nu from 0 to 1e150, which covers every
#: pair an accepted input reaches (mu < 2^480, c <= 5e8).
KINETIC_ORDER = 100

#: Relative change between the rule and its doubled-order version above which
#: a quadrature warning is recorded.
QUADRATURE_SELF_CHECK_TOL = 1e-10

#: Least ratio r_{i+1}/r_i of neighbouring Gaussian radii.  Closer Gaussians
#: make the overlap worse conditioned without representing more.
MIN_RADIUS_RATIO = 1.19

#: Largest ratio of neighbouring radii on a Coulomb grid: a sparser grid
#: resolves the bulk of the state worse than the cusp gains (at K = 24 the
#: ratio 1.70 over the whole span left a weak Coulomb+linear state 3e-6
#: above the oscillator basis).
MAX_RADIUS_RATIO = 1.5

#: Radius span (r_lo, r_hi) in natural units of the grid of a canonical
#: operator with a Coulomb term, with a linear term and without one: the
#: small radii resolve the Coulomb cusp, and a pure Coulomb state reaches
#: further out.
_COULOMB_SPAN = (1e-4, 20.0)
_PURE_COULOMB_SPAN = (1e-4, 40.0)

#: Weight of the ground state on the first or the last Gaussian (the part of
#: the state that only that Gaussian supplies) above which a range warning is
#: recorded.  Over the shapes r^k (k = 0.5..2.5, mu = 0..30) and Coulomb
#: (+linear) at v' = 0.13..0.446 it is at most 1.2e-6 at K = 24 (r^0.5,
#: mu = 0) and 1.2e-10 at K = 40; it is 1.6e-5 for heavy linear:8 at
#: m = 1e5 and 0.16 for massless coulomb:0.3 at K = 40.
EDGE_WEIGHT_TOL = 4e-6

#: M_1 = <|p|> sqrt(c) of a Gaussian pair density, 2/sqrt(pi).
_MOMENT_1 = _pair_moment(1.0)


@dataclass
class SpectrumResult:
    """Variational ground state with convergence diagnostics.

    ``ground_energy`` is the energy in the operator's own units, a
    variational upper bound on its spectral bottom.  ``basis_range`` is
    (r_1, r_K), the radii of the narrowest and the widest Gaussian in the
    operator's own length units; the radii between are in geometric
    progression.  ``coefficients`` are the ground state's coefficients on
    the unit-normalised Gaussians, ascending in radius, normalised to
    x.S x = 1 with S their overlap, with the first entry above 1e-12 in
    magnitude positive.  ``matrix`` is the Rayleigh-Ritz matrix of the
    canonical operator less its rest mass mu (which adds mu S).  Both arrays
    are read-only.
    """

    ground_energy: float
    basis_range: tuple[float, float]
    coefficients: np.ndarray = field(repr=False, compare=False)
    matrix: np.ndarray = field(repr=False, compare=False)
    convergence_estimate: float
    warnings: list[str] = field(default_factory=list)

    def dilated(self, energy: float, length: float) -> SpectrumResult:
        """This spectrum, of a canonical operator, as that of ``energy`` times
        it dilated by r -> ``length`` r: energies times ``energy``, radii times
        ``length``, coefficients, matrices and warnings as they are."""
        lo, hi = self.basis_range
        return SpectrumResult(
            ground_energy=energy * self.ground_energy,
            basis_range=(lo * length, hi * length),
            coefficients=self.coefficients,
            matrix=self.matrix,
            convergence_estimate=energy * self.convergence_estimate,
            warnings=list(self.warnings),
        )


def basis_radii(canonical: ReducedHamiltonian, basis_size: int) -> np.ndarray:
    """Radii r_i of the basis Gaussians exp(-r^2/r_i^2) of a canonical
    operator, ascending and in natural units, in geometric progression.

    A confining term alone gets the ratio :data:`MIN_RADIUS_RATIO`, centred
    in log on radius 1, the natural length.  A Coulomb term gets the span
    (r_lo, r_hi) of ``_COULOMB_SPAN`` or, alone, ``_PURE_COULOMB_SPAN``: the
    widest Gaussian sits at r_hi, and the ratio (r_hi/r_lo)^(1/(K-1)) is kept
    from :data:`MIN_RADIUS_RATIO` to :data:`MAX_RADIUS_RATIO`, so the
    narrowest reaches r_lo from K = 32 (33 alone) and goes below it beyond
    K = 71 (75).
    """
    steps = np.arange(basis_size) - (basis_size - 1.0)
    if canonical.potential.coulomb_strength() == 0.0:
        return MIN_RADIUS_RATIO ** (steps + (basis_size - 1) / 2.0)
    lo, hi = _PURE_COULOMB_SPAN if len(canonical.potential.terms()) == 1 else _COULOMB_SPAN
    ratio = min(MAX_RADIUS_RATIO, max(MIN_RADIUS_RATIO, (hi / lo) ** (1.0 / (basis_size - 1))))
    return hi * ratio**steps


def _kinetic_excess(nu: np.ndarray, order: int) -> np.ndarray:
    """(4/sqrt(pi)) ∫ y^4 e^(-y^2) / (sqrt(y^2 + nu^2) + nu) dy over [0, inf)
    for each nu >= 0, on the mapped Gauss-Legendre rule of ``order``.

    It is c^(1/2) <sqrt(p^2 + mu^2) - mu> in the momentum density
    p^2 e^(-c p^2) at nu = mu sqrt(c); the form p^2/(sqrt(p^2 + mu^2) + mu)
    of the excess over the rest mass keeps heavy masses free of cancellation.
    The (nu, node) array is the one temporary, 0.66 MB at 820 pairs.
    """
    y, wy = semi_infinite_rule(order, 1.0)
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
        mat.setflags(write=False)
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


def _range_warnings(weights: np.ndarray) -> list[str]:
    """One warning per edge Gaussian whose weight exceeds :data:`EDGE_WEIGHT_TOL`."""
    return [
        f"the ground state has weight {weight:.1e} on the Gaussian at the {end} endpoint "
        f"of the basis range (above {EDGE_WEIGHT_TOL:.0e}); the range does not cover "
        f"this operator's length scales"
        for end, weight in zip(("lower", "upper"), weights)
        if weight > EDGE_WEIGHT_TOL
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
    radii = basis_radii(h, cfg.basis_size)
    overlap, matrix = _matrices(h, radii)
    lowest, vector, weights = _lowest(overlap, matrix)
    half = cfg.basis_size // 2
    block = slice((cfg.basis_size - half) // 2, (cfg.basis_size + half) // 2)
    estimate = abs(_lowest(overlap[block, block], matrix[block, block])[0] - lowest)
    pivot = np.flatnonzero(np.abs(vector) > 1e-12)
    if pivot.size and vector[pivot[0]] < 0.0:
        vector = -vector
    vector.setflags(write=False)
    return SpectrumResult(
        ground_energy=h.mass + lowest,
        basis_range=(float(radii[0]), float(radii[-1])),
        coefficients=vector,
        matrix=matrix,
        convergence_estimate=estimate,
        warnings=_self_check(h, radii) + _range_warnings(weights),
    ).dilated(energy, length)

