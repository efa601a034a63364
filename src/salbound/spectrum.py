"""The geometric Gaussian basis, its spectrum result, and the Rayleigh-Ritz
solve in pure Python.

``solver._canonical_ground_energies`` solves canonical operators on numpy
and returns their spectra in natural units.  This module holds what that solve
shares with the one here: :class:`SpectrumResult`, the basis rule
:func:`basis_radii`, the centred half basis of the convergence estimate and
the range warnings.  :func:`pure_ground_energy` runs the same steps as the
numpy solve without numpy: the matrix elements in ``math`` (at m > 0 the
kinetic elements are Phi^T diag(g) Phi on the nodes of ``quadrature``,
which needs no numpy either), a Cholesky of the overlap, the reduced
matrix, a Householder tridiagonalisation with Sturm bisection for its two
lowest eigenvalues, one shifted inverse-iteration step, and the Rayleigh
quotient in the original basis.  Its cost grows as K^3 in Python
arithmetic, so it pays only up to a moderate basis size; the command line
takes it there (``cli.PURE_PYTHON_MAX_BASIS``), and the library keeps numpy.

This module needs only the standard library.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Sequence
from dataclasses import dataclass, field
from operator import mul

from .reductions import ReducedHamiltonian, SolverConfig, _pair_moment

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

_EPS = sys.float_info.epsilon

_SPLITTER = 134217729.0

#: Least magnitude of a Sturm pivot, as in LAPACK's bisection.
_PIVOT_MIN = sys.float_info.min


@dataclass
class SpectrumResult:
    """Variational ground state with convergence diagnostics.

    ``ground_energy`` is the energy in the operator's own units, a
    variational upper bound on its spectral bottom.  ``basis_range`` is
    (r_1, r_K), the radii of the narrowest and the widest Gaussian in the
    operator's own length units; the radii between are in geometric
    progression.  ``coefficients`` are the ground state's coefficients x on
    the unit-normalised Gaussians, ascending in radius, normalised to
    x.S x = 1 with S their overlap, with the sign that makes sum_i (S x)_i,
    the state's overlap with the sum of the Gaussians, positive.  They are
    read-only, because bound rows that share a solve share them: a numpy
    array from ``solver.ground_energy``, a tuple from
    :func:`pure_ground_energy`.
    """

    ground_energy: float
    basis_range: tuple[float, float]
    coefficients: Sequence[float] = field(repr=False, compare=False)
    convergence_estimate: float
    warnings: list[str] = field(default_factory=list)

    def dilated(self, energy: float, length: float) -> SpectrumResult:
        """This spectrum, of a canonical operator, as that of ``energy`` times
        it dilated by r -> ``length`` r: energies times ``energy``, radii times
        ``length``, coefficients and warnings as they are."""
        lo, hi = self.basis_range
        return SpectrumResult(
            ground_energy=energy * self.ground_energy,
            basis_range=(lo * length, hi * length),
            coefficients=self.coefficients,
            convergence_estimate=energy * self.convergence_estimate,
            warnings=list(self.warnings),
        )


def basis_radii(canonical: ReducedHamiltonian, basis_size: int) -> list[float]:
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
    steps = [i - (basis_size - 1.0) for i in range(basis_size)]
    if canonical.potential.coulomb_strength() == 0.0:
        return [MIN_RADIUS_RATIO ** (s + (basis_size - 1) / 2.0) for s in steps]
    lo, hi = _PURE_COULOMB_SPAN if len(canonical.potential.terms()) == 1 else _COULOMB_SPAN
    ratio = min(MAX_RADIUS_RATIO, max(MIN_RADIUS_RATIO, (hi / lo) ** (1.0 / (basis_size - 1))))
    return [hi * ratio**s for s in steps]


def centred_half(basis_size: int) -> slice:
    """The centred ``basis_size // 2`` Gaussians, whose solve gives the
    convergence estimate."""
    half = basis_size // 2
    return slice((basis_size - half) // 2, (basis_size + half) // 2)


def range_warnings(weights: Sequence[float]) -> list[str]:
    """One warning per edge Gaussian whose weight exceeds :data:`EDGE_WEIGHT_TOL`."""
    return [
        f"the ground state has weight {weight:.1e} on the Gaussian at the {end} endpoint "
        f"of the basis range (above {EDGE_WEIGHT_TOL:.0e}); the range does not cover "
        f"this operator's length scales"
        for end, weight in zip(("lower", "upper"), weights)
        if weight > EDGE_WEIGHT_TOL
    ]


# --- the solve in pure Python ------------------------------------------------


def _dot(a, b) -> float:
    """Sum of a_i b_i over the shorter of the two."""
    return sum(map(mul, a, b))


def _kinetic_matrix(mu: float, c: Sequence[float]):
    """Rows i of ``solver._Basis.kinetic``'s Phi^T diag(g) Phi, j = i..K-1,
    for Gaussians of self-pair momentum exponents ``c``, in ``math``.  A row
    of Phi stops where its exponential underflows to 0.  Only a solve at
    m > 0 loads ``quadrature``."""
    from . import quadrature

    p = quadrature.unit_rule(*quadrature.window(min(c), max(c)))
    g = [quadrature.STEP * x**5 / (math.sqrt(x * x + mu * mu) + mu) for x in p]
    half = [0.5 * x * x for x in p]
    phi = [[norm * math.exp(-ci * y) for y in half if ci * y < 746.0]
           for ci, norm in zip(c, [math.sqrt(2.0 * _MOMENT_1) * ci**0.75 for ci in c])]
    weighted = [list(map(mul, g, row)) for row in phi]
    return [[_dot(weighted[i], phi[j]) for j in range(i, len(c))] for i in range(len(c))]


def _with_potential(canonical: ReducedHamiltonian, out: float, a: float) -> float:
    """``out`` plus <V> in the pair density of coordinate exponent a.  A
    Coulomb term's a^(1/2) is a square root, as numpy takes it."""
    for coefficient, k in canonical.potential.terms():
        out += (coefficient * _pair_moment(k)) * (math.sqrt(a) if k == -1.0 else a ** (-k / 2.0))
    return out


def pure_pair_expectation(canonical: ReducedHamiltonian, a: float, c: float) -> float:
    """``solver.pair_expectation`` for one pair of a massless canonical
    operator: <|p|> + <V> in the Gaussian pair density of coordinate
    exponent a and momentum exponent c."""
    return _with_potential(canonical, _MOMENT_1 / math.sqrt(c), a)


def _matrices(canonical: ReducedHamiltonian, radii: list[float]):
    """Overlap and Rayleigh-Ritz matrix less the rest mass of a canonical
    operator on the unit-normalised Gaussians of ``radii``, as lists of rows."""
    size = len(radii)
    overlap = [[0.0] * size for _ in range(size)]
    matrix = [[0.0] * size for _ in range(size)]
    if canonical.mass > 0.0:
        kinetic = _kinetic_matrix(canonical.mass, [0.5 * r * r for r in radii])
    for i, ri in enumerate(radii):
        for j in range(i, size):
            rj = radii[j]
            r2i, r2j = ri * ri, rj * rj
            width = r2i + r2j
            a = width / (r2i * r2j)
            s = (2.0 * ri * rj / width) ** 1.5
            if canonical.mass == 0.0:
                value = s * pure_pair_expectation(canonical, a, width / 4.0)
            else:
                value = kinetic[i][j - i] + s * _with_potential(canonical, 0.0, a)
            overlap[i][j] = overlap[j][i] = s
            matrix[i][j] = matrix[j][i] = value
    return overlap, matrix


def _cholesky(a):
    """Rows of the lower Cholesky factor L of a, row i holding L_i0..L_ii."""
    low = []
    for i, row in enumerate(a):
        li = []
        for j in range(i):
            lj = low[j]
            li.append((row[j] - _dot(li, lj)) / lj[j])
        pivot = row[i] - _dot(li, li)
        if not pivot > 0.0:
            raise ArithmeticError("the overlap matrix is not numerically positive definite")
        li.append(math.sqrt(pivot))
        low.append(li)
    return low


def _lower_inverse(low):
    """Columns of L^-1 for the Cholesky rows ``low``: column j holds rows j..K-1."""
    size = len(low)
    columns = []
    for j in range(size):
        column = [1.0 / low[j][j]]
        for i in range(j + 1, size):
            column.append(-_dot(low[i][j:i], column) / low[i][i])
        columns.append(column)
    return columns


def _tridiagonal(a):
    """(d, e, reflectors) with a = Q T Q^T, T tridiagonal with diagonal d and
    off-diagonal e, and Q the product of the Householder reflectors
    (k, beta, v), each I - beta v v^T on the indices above k.  ``a`` is
    overwritten."""
    size = len(a)
    d, e, reflectors = [], [], []
    for k in range(size - 2):
        x = [a[i][k] for i in range(k + 1, size)]
        norm = math.sqrt(_dot(x, x))
        alpha = -norm if x[0] >= 0.0 else norm
        v = x
        v[0] -= alpha
        vv = _dot(v, v)
        d.append(a[k][k])
        e.append(alpha)
        if vv == 0.0:
            continue
        beta = 2.0 / vv
        trailing = [row[k + 1 :] for row in a[k + 1 :]]
        p = [beta * _dot(row, v) for row in trailing]
        half = 0.5 * beta * _dot(p, v)
        w = [pi - half * vi for pi, vi in zip(p, v)]
        for i, row in enumerate(trailing):
            vi, wi = v[i], w[i]
            a[k + 1 + i][k + 1 :] = [rij - vi * wj - wi * vj for rij, vj, wj in zip(row, v, w)]
        reflectors.append((k, beta, v))
    if size >= 2:
        d.append(a[size - 2][size - 2])
        e.append(a[size - 1][size - 2])
    d.append(a[size - 1][size - 1])
    return d, e, reflectors


def _reflect(reflectors, b):
    """Apply the reflectors to b in place, in the order given."""
    for k, beta, v in reflectors:
        tail = b[k + 1 :]
        scale = beta * _dot(v, tail)
        b[k + 1 :] = [bi - scale * vi for bi, vi in zip(tail, v)]


def _count_below(d, e2, x: float) -> int:
    """Sturm count: the eigenvalues below x of the tridiagonal (d, e), e2 = e^2.
    The recurrence is the pivot sequence of an LDL^T of T - x."""
    q, count = 1.0, 0
    for di, ei2 in zip(d, [0.0, *e2]):
        q = di - x - ei2 / q
        if abs(q) < _PIVOT_MIN:
            q = -_PIVOT_MIN
        count += q < 0.0
    return count


def _eigenvalue(d, e2, index: int) -> float:
    """Lower end of a bisection bracket, within roundoff relative to the
    tridiagonal's ``index``-th least eigenvalue (from 0), below which it has
    at most ``index`` eigenvalues.  The bracket starts from the Gershgorin
    interval, widened by its roundoff."""
    radius = [math.sqrt(x) + math.sqrt(y) for x, y in zip([0.0, *e2], [*e2, 0.0])]
    lo = min(di - ri for di, ri in zip(d, radius))
    hi = max(di + ri for di, ri in zip(d, radius))
    slack = 2.0 * _EPS * max(abs(lo), abs(hi))
    lo, hi = lo - slack, hi + slack
    while hi - lo > 2.0 * _EPS * max(abs(lo), abs(hi)) + _PIVOT_MIN:
        mid = 0.5 * (lo + hi)
        if _count_below(d, e2, mid) > index:
            hi = mid
        else:
            lo = mid
    return lo


def _shifted_solve(d, e, e2, shift: float, b):
    """(T - shift) z = b for the tridiagonal T = (d, e) by LDL^T, for a shift
    below every eigenvalue, where the pivots are those of the Sturm count."""
    pivots, z = [d[0] - shift], [b[0]]
    for di, ei, ei2, bi in zip(d[1:], e, e2, b[1:]):
        z.append(bi - ei / pivots[-1] * z[-1])
        pivots.append(di - shift - ei2 / pivots[-1])
    x = [z[-1] / pivots[-1]]
    for zi, ei, pivot in zip(z[-2::-1], e[::-1], pivots[-2::-1]):
        x.append((zi - ei * x[-1]) / pivot)
    return x[::-1]


def _exact_dot(a, b) -> float:
    """sum a_i b_i correctly rounded: each product is split exactly into two
    floats (Dekker, with the halves of 26 bits that 2^27 + 1 cuts off) and
    ``math.fsum`` adds them all."""
    terms = []
    for ai, bi in zip(a, b):
        t = _SPLITTER * ai
        ah = t - (t - ai)
        al = ai - ah
        t = _SPLITTER * bi
        bh = t - (t - bi)
        bl = bi - bh
        p = ai * bi
        terms += (p, ((ah * bh - p) + ah * bl + al * bh) + al * bl)
    return math.fsum(terms)


def _quadratic_form(m, x) -> float:
    """x.M x with (M x)_i correctly rounded and their dot with x too, so
    the form's error is those roundings alone.  Plain sums lose about 1e-13
    relative to cancellation between coefficients of opposite sign
    (K = 5 to 16 on r^0.5)."""
    return _exact_dot(x, [_exact_dot(row, x) for row in m])


def _lowest(overlap, matrix):
    """(energy, x, edge weights) of the lowest solution of matrix x =
    E overlap x, the steps of ``solver._lowest`` in pure Python.

    The reduced matrix L^-1 H L^-T is tridiagonalised, bisection gives its
    two lowest eigenvalues, one solve of (T - shift) just below the lowest
    followed by the reflectors and L^-T gives x, and the energy is x's
    Rayleigh quotient in the original basis, with x normalised to x.S x = 1.
    The weight of Gaussian i is x_i^2/(S^-1)_ii.
    """
    size = len(overlap)
    columns = _lower_inverse(_cholesky(overlap))
    rows = [[columns[j][i - j] for j in range(i + 1)] for i in range(size)]
    # (H L^-T)^T by rows, then L^-1 H L^-T on the lower triangle
    half = [[_dot(row, h) for h in matrix] for row in rows]
    reduced = [[0.0] * size for _ in range(size)]
    for i, row in enumerate(rows):
        for j in range(i + 1):
            reduced[i][j] = reduced[j][i] = _dot(row, half[j])
    d, e, reflectors = _tridiagonal(reduced)
    e2 = [x * x for x in e]
    lowest = _eigenvalue(d, e2, 0)
    gap = _eigenvalue(d, e2, 1) - lowest if size > 1 else 1.0
    b = [1.0] * size
    _reflect(reflectors, b)
    # a shift below the lowest eigenvalue by 1e-10 of the gap keeps the
    # solve nonsingular and still suppresses every other component
    y = _shifted_solve(d, e, e2, lowest - 1e-10 * gap, b)
    _reflect(reversed(reflectors), y)
    vector = [_dot(column, y[j:]) for j, column in enumerate(columns)]
    norm = _quadratic_form(overlap, vector)
    energy = _quadratic_form(matrix, vector) / norm
    scale = 1.0 / math.sqrt(norm)
    vector = [x * scale for x in vector]
    weights = [vector[j] ** 2 / _dot(columns[j], columns[j]) for j in (0, -1)]
    return energy, vector, weights


def pure_ground_energy(canonical: ReducedHamiltonian, config: SolverConfig | None = None) -> SpectrumResult:
    """``solver._canonical_ground_energies`` of one operator without numpy:
    the bottom of the spectrum of a canonical operator, in its natural units.

    The same basis, the same steps and the same diagnostics; the energies
    agree to roundoff.  ``coefficients`` is a tuple.
    """
    cfg = config if config is not None else SolverConfig()
    radii = basis_radii(canonical, cfg.basis_size)
    overlap, matrix = _matrices(canonical, radii)
    lowest, vector, weights = _lowest(overlap, matrix)
    block = centred_half(cfg.basis_size)
    estimate = abs(_lowest(*([row[block] for row in m[block]] for m in (overlap, matrix)))[0] - lowest)
    if sum(_dot(row, vector) for row in overlap) < 0.0:
        vector = [-x for x in vector]
    return SpectrumResult(
        ground_energy=canonical.mass + lowest,
        basis_range=(radii[0], radii[-1]),
        coefficients=tuple(vector),
        convergence_estimate=estimate,
        warnings=range_warnings(weights),
    )
