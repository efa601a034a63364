"""Variational ground-state solver for the reduced one-body operator

    H = beta * sqrt(lam * p^2 + m^2) + gamma * V(r)

in three dimensions at zero angular momentum (units hbar = c = 1).

Every operator is solved in its natural units (``reductions.natural_units``,
which also refuses operators that are unbounded below): a dilation r -> s r
maps H to beta sqrt(lam)/s times the canonical operator
sqrt(p^2 + mu^2) + r^k - v'/r, solved in natural units by
:func:`_canonical_ground_energies`; :func:`ground_energy` maps any H and
scales the result back.

The Rayleigh-Ritz basis is a fixed geometric set of unit-normalised s-wave
Gaussians exp(-r^2/r_i^2), the Gaussian expansion method of Hiyama, Kino and
Kamimura (Prog. Part. Nucl. Phys. 51 (2003) 223).  ``spectrum.basis_radii``
places them by one rule from the operator's ``spectrum.grid_kind`` and the
basis size, so nothing is searched.  The product of two of them is a
Gaussian, so each matrix element is their overlap times the expectation
of the operator in a Gaussian pair density (:func:`pair_expectation`): with
the coordinate exponent a = 1/r_i^2 + 1/r_j^2 and the momentum exponent
c = (r_i^2 + r_j^2)/4, <r^k> = M_k a^(-k/2) and <|p|> = M_1 c^(-1/2), where
M_k = Γ((3+k)/2)/Γ(3/2).  At m > 0 sqrt(p^2 + mu^2) is local in momentum
space, so the kinetic matrix less mu is Phi^T diag(g) Phi on the nodes of
``quadrature`` (:meth:`_Basis.kinetic`).  The rest mass mu adds mu to every
generalized eigenvalue, so it stays out of the matrix and is added to the
energy.

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
Operators on one basis, such as the rows of one bounds problem, are solved
as one stack of matrices, with each operator's own bits (:func:`_lowest`).
The overlap, its full and centred-half factors and the momentum table depend
only on the grid kind and K, so they are built once per (kind, K) and shared
read-only by every solve on it (:func:`_basis`); the cache holds at most 8
bases, about 1 MB each at K = 120, 0.31 MB of it the momentum table.

At m > 0 the Gaussian upper bound of ``bounds`` zooms in on its least
one-Gaussian energy here (:func:`zoom_log_minimum`), on grids that
:func:`_zoom_objective` evaluates as :func:`pair_expectation` does.  The
operator, the basis size and the closed forms of the massless linear case
are in ``reductions``; the basis rule, the result type and the range
warnings are in ``spectrum``, which also runs this solve without numpy.
This module holds the numpy solve; only it and ``delta`` import numpy.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import quadrature
from .reductions import ReducedHamiltonian, SolverConfig, _pair_moment, natural_units
from .spectrum import _MOMENT_1, SpectrumResult, basis_radii, centred_half, grid_kind, range_warnings


@functools.lru_cache(maxsize=64)
def _nodes(lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """(p^2, STEP p^5), read-only, at ``quadrature.unit_rule``'s nodes p of a
    window: what :func:`_weights` and the exponentials read of the nodes,
    whatever the mass."""
    p = np.array(quadrature.unit_rule(lo, hi))
    nodes = p * p, quadrature.STEP * p**5
    for array in nodes:
        array.setflags(write=False)
    return nodes


def _weights(mu: float, square: np.ndarray, fifth: np.ndarray) -> np.ndarray:
    """g_n = STEP p_n^5 / (sqrt(p_n^2 + mu^2) + mu) on the :func:`_nodes`
    (square, fifth): the weight in ln p times the excess over the rest mass,
    in a form free of cancellation."""
    return fifth / (np.sqrt(square + mu * mu) + mu)


def _with_potential(canonical: ReducedHamiltonian, out: np.ndarray, a: np.ndarray) -> np.ndarray:
    """``out`` plus <V> in the pair densities of coordinate exponents ``a``."""
    for coefficient, k in canonical.potential.terms():
        out += (coefficient * _pair_moment(k)) * a ** (-k / 2.0)
    return out


def pair_expectation(canonical: ReducedHamiltonian, a: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Expectation of a canonical operator less its rest mass,
    sqrt(p^2 + mu^2) - mu + V(r), in the Gaussian pair densities of
    coordinate exponents ``a`` and momentum exponents ``c`` (ac >= 1).

    The density of r is r^2 e^(-a r^2) and that of p is p^2 e^(-c p^2), so
    <r^k> = M_k a^(-k/2) with M_k = Γ((3+k)/2)/Γ(3/2), and <|p|> =
    M_1 c^(-1/2) at m = 0, where no node is built; at m > 0 the kinetic term
    is :func:`_kinetic`, and :func:`_zoom_objective` gives the same bits.
    """
    out = _MOMENT_1 / np.sqrt(c) if canonical.mass == 0.0 else _kinetic(canonical.mass, c)
    return _with_potential(canonical, out, a)


def _kinetic(mu: float, c: np.ndarray) -> np.ndarray:
    """<sqrt(p^2 + mu^2) - mu> in the momentum densities p^2 e^(-c p^2):
    :func:`_weights` against Phi^2 = (4/sqrt(pi)) c^(3/2) e^(-c p^2)."""
    square, fifth = _nodes(*quadrature.window(c.min(), c.max()))
    return _moment(c, np.exp(np.multiply.outer(-c, square)), _weights(mu, square, fifth))


def _moment(c: np.ndarray, exponentials: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """:func:`_kinetic` from its table e^(-c_i p_n^2) and its weights."""
    return (2.0 * _MOMENT_1) * c**1.5 * (exponentials @ weights)


@functools.lru_cache(maxsize=1)
def _first_exponentials(widths: bytes, lo: int, hi: int) -> np.ndarray:
    """e^(-c_i p_n^2), read-only, at c_i = 1/s_i^2 for the momentum widths
    s_i packed in ``widths`` and the nodes p_n of window lo..hi: the table
    of :func:`_kinetic` on a zoom's first grid, which every zoom of the
    Gaussian upper bound shares."""
    s = np.frombuffer(widths)
    table = np.exp(np.multiply.outer(-(1.0 / (s * s)), _nodes(lo, hi)[0]))
    table.setflags(write=False)
    return table


def _zoom_objective(canonical: ReducedHamiltonian, lo: float, hi: float):
    """s -> ``pair_expectation(canonical, s * s, 1 / (s * s))`` at m > 0, bit
    for bit, for grids of momentum widths s in [lo, hi].

    The window of nodes of [lo, hi] and its :func:`_weights` are built once,
    and every grid reads a slice of them: the same nodes, since all lie on
    one integer lattice.  The one grid that holds both ends, the first of
    every zoom, reads the table of exponentials that every zoom shares
    (:func:`_first_exponentials`).  A grid outside [lo, hi] raises ValueError.
    """
    start, stop = quadrature.window(1.0 / (hi * hi), 1.0 / (lo * lo))
    square, fifth = _nodes(start, stop)
    weights = _weights(canonical.mass, square, fifth)

    def objective(s: np.ndarray) -> np.ndarray:
        low, high = float(s.min()), float(s.max())
        if not lo <= low <= high <= hi:
            raise ValueError(f"momentum widths {low!r}..{high!r} leave the zoom's interval [{lo!r}, {hi!r}]")
        a = s * s
        c = 1.0 / a
        if low == lo and high == hi:
            part, table = slice(None), _first_exponentials(s.tobytes(), start, stop)
        else:
            # c.max() and c.min(), at the narrowest and the widest s
            first, last = quadrature.window(1.0 / (high * high), 1.0 / (low * low))
            part = slice(first - start, last - start + 1)
            table = np.exp(np.multiply.outer(-c, square[part]))
        return _with_potential(canonical, _moment(c, table, weights[part]), a)

    return objective


#: Points of each grid of the zoom in log s, and the grid spacing at
#: which it stops: 6 grids across ``bounds.GAUSSIAN_SCALE_INTERVAL``.
ZOOM_POINTS = 33
ZOOM_SPACING = 1e-6


def zoom_log_minimum(f, lo: float, hi: float):
    """(x, f(x), at_lower, at_upper) at the least of f over [lo, hi], for a
    unimodal f that takes and returns arrays.

    f is evaluated on :data:`ZOOM_POINTS` points evenly spaced in log x, and
    the grid shrinks to the neighbours of its least point until its spacing
    is at most :data:`ZOOM_SPACING`: the minimum always lies between those
    neighbours, so the returned log x is within the final spacing of it.  A
    grid that still reaches an end of [lo, hi] holds that end itself, and a
    flag is set where the least point is that end.
    """
    ends = math.log(lo), math.log(hi)
    a, b = ends
    steps = np.arange(ZOOM_POINTS, dtype=float)
    while True:
        # np.linspace(a, b, ZOOM_POINTS) written out, without its per-call
        # overhead, on Python floats a and b
        t = steps * ((b - a) / (ZOOM_POINTS - 1)) + a
        t[-1] = b
        reach = a == ends[0], b == ends[1]
        x = np.exp(t)
        # exp(log(lo)) need not be lo: a grid that reaches an end holds the end
        if reach[0]:
            x[0] = lo
        if reach[1]:
            x[-1] = hi
        values = f(x)
        i = int(values.argmin())
        t0, t1 = t[:2].tolist()
        if t1 - t0 <= ZOOM_SPACING:
            return float(x[i]), float(values[i]), reach[0] and i == 0, reach[1] and i == ZOOM_POINTS - 1
        a, b = t[[max(i - 1, 0), min(i + 1, ZOOM_POINTS - 1)]].tolist()


def _factor(overlap: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(S, L^-1, norms) of a unit-diagonal overlap S with Cholesky factor L,
    all three read-only.  The norms are the squared column norms of L^-1 at
    the first and the last Gaussian, which are (S^-1)_ii there."""
    inverse = np.linalg.inv(np.linalg.cholesky(overlap))
    edges = inverse[:, [0, -1]]
    norms = np.einsum("ij,ij->j", edges, edges)
    for array in (overlap, inverse, norms):
        array.setflags(write=False)
    return overlap, inverse, norms


class _Basis:
    """What the unit-normalised Gaussians of some radii share whatever the
    operator: the overlap and the pair exponents a and c, K x K and exactly
    symmetric (commutative in r_i and r_j), the momentum table of the m > 0
    kinetic elements, and the factors of the overlap and of its
    :func:`centred_half` block.  Every array is read-only.  The table and
    the factors are built at their first read, since only a solve at m > 0
    reads the table and a factor needs K >= 2 distinct radii."""

    def __init__(self, radii: tuple[float, ...]):
        r = np.array(radii)
        r2 = r * r
        width = np.add.outer(r2, r2)
        self.radii = r
        self.overlap = (2.0 * np.multiply.outer(r, r) / width) ** 1.5
        self.a = width / np.multiply.outer(r2, r2)
        self.c = width / 4.0
        for array in vars(self).values():
            array.setflags(write=False)

    @functools.cached_property
    def momenta(self):
        """(p^2, STEP p^5, Phi): the :func:`_nodes` p of ``quadrature`` that
        cover the pair densities of the basis, and Phi[n, i] =
        sqrt(4/sqrt(pi)) c_i^(3/4) e^(-c_i p_n^2/2), the momentum amplitude
        of Gaussian i, whose pair density with itself has the momentum
        exponent c_i = r_i^2/2."""
        c = 0.5 * self.radii**2
        square, fifth = _nodes(*quadrature.window(c.min(), c.max()))
        phi = math.sqrt(2.0 * _MOMENT_1) * c**0.75 * np.exp(-0.5 * np.multiply.outer(square, c))
        phi.setflags(write=False)
        return square, fifth, phi

    def kinetic(self, mu: float) -> np.ndarray:
        """The m > 0 kinetic matrix Phi^T diag(g) Phi on :attr:`momenta`: one
        syrk of sqrt(g) Phi, whose triangle numpy mirrors exactly; a gemm left
        the massless solves after it 5% slower on AVX-512 OpenBLAS (2 vCPU)."""
        square, fifth, phi = self.momenta
        root = np.sqrt(_weights(mu, square, fifth))[:, None] * phi
        return root.T @ root

    @functools.cached_property
    def full(self):
        return _factor(self.overlap)

    @functools.cached_property
    def half(self):
        block = centred_half(self.radii.size)
        return _factor(self.overlap[block, block])


@functools.lru_cache(maxsize=8)
def _basis(kind: str, basis_size: int) -> _Basis:
    """The shared :class:`_Basis` of the grid of a kind and size, the only
    inputs of ``spectrum.basis_radii``, so no entry goes stale; the largest,
    at K = 120, holds about 1 MB."""
    return _Basis(tuple(basis_radii(kind, basis_size)))


def _matrices(canonical: ReducedHamiltonian, basis: _Basis):
    """Overlap and Rayleigh-Ritz matrix less the rest mass of the
    unit-normalised Gaussians of a :class:`_Basis`, both K x K and exactly
    symmetric.  The overlap is the basis's read-only one; at m > 0 the
    kinetic elements are :meth:`_Basis.kinetic`."""
    if canonical.mass == 0.0:
        return basis.overlap, basis.overlap * pair_expectation(canonical, basis.a, basis.c)
    potential = _with_potential(canonical, np.zeros(basis.a.shape), basis.a)
    return basis.overlap, basis.kinetic(canonical.mass) + basis.overlap * potential


def _lowest(factor, matrices: np.ndarray) -> list:
    """(energy, x) of the lowest solution of matrix x = E overlap x for each
    matrix of a (R, K, K) stack, on the overlap's :func:`_factor`.

    ``eigvalsh`` of the Cholesky-reduced matrices, one step of inverse
    iteration next to each lowest eigenvalue, and the Rayleigh quotient of
    the back-transformed vector x, which is normalised to x.S x = 1.  The
    reduction, ``eigvalsh`` and ``solve`` run on the whole stack, which
    LAPACK solves item by item, so each item has its own solve's bits.
    """
    overlap, inverse, _ = factor
    reduced = inverse @ matrices @ inverse.T
    depth, size, _ = reduced.shape
    eigenvalues = np.linalg.eigvalsh(reduced)
    # a shift below the lowest eigenvalue by 1e-10 of the gap keeps the
    # solve nonsingular and still suppresses every other component
    reduced.reshape(depth, -1)[:, :: size + 1] -= [
        [low[0] - 1e-10 * (low[1] - low[0] if size > 1 else 1.0)] for low in eigenvalues[:, :2].tolist()
    ]
    # b as (R, K, 1), which numpy 1 and 2 both read as R right-hand sides;
    # they read a (R, K) b differently
    solutions = np.linalg.solve(reduced, np.ones((depth, size, 1)))[:, :, 0]
    lowest = []
    for matrix, solution in zip(matrices, solutions):
        vector = inverse.T @ solution
        norm = vector @ overlap @ vector
        energy = float(vector @ matrix @ vector / norm)
        vector /= math.sqrt(norm)
        lowest.append((energy, vector))
    return lowest


def _canonical_ground_energies(canonicals: tuple[ReducedHamiltonian, ...],
                               config: SolverConfig | None = None) -> tuple[SpectrumResult, ...]:
    """Bottom of the spectrum of each canonical operator, in its natural
    units, by Rayleigh-Ritz on ``config.basis_size`` geometric Gaussians: a
    variational upper bound on it.  ``convergence_estimate`` is its
    difference against the solve on the centred ``basis_size // 2``
    Gaussians and bounds the plausible remaining truncation error.  The
    warnings come from the weight of the edge Gaussians: that of Gaussian i
    is x_i^2/(S^-1)_ii, the squared norm of the part of the state that no
    other Gaussian supplies.  The operators share one basis, as the rows of
    one bounds problem do, and are solved as one stack."""
    cfg = config if config is not None else SolverConfig()
    kind, *others = {grid_kind(canonical) for canonical in canonicals}
    if others:
        raise ValueError("canonical operators solved together must share one basis")
    basis, block = _basis(kind, cfg.basis_size), centred_half(cfg.basis_size)
    matrices = np.array([_matrices(canonical, basis)[1] for canonical in canonicals])
    full, halves = _lowest(basis.full, matrices), _lowest(basis.half, matrices[:, block, block])
    results = []
    for canonical, (lowest, vector), (rough, _) in zip(canonicals, full, halves):
        weights = vector[[0, -1]] ** 2 / basis.full[2]
        if (basis.overlap @ vector).sum() < 0.0:
            vector = -vector
        vector.setflags(write=False)
        results.append(SpectrumResult(
            ground_energy=canonical.mass + lowest,
            basis_range=(float(basis.radii[0]), float(basis.radii[-1])),
            coefficients=vector,
            convergence_estimate=abs(rough - lowest),
            warnings=range_warnings(weights),
        ))
    return tuple(results)


def ground_energy(h: ReducedHamiltonian, config: SolverConfig | None = None) -> SpectrumResult:
    """Bottom of the spectrum of any reduced operator H: its canonical operator
    (``reductions.natural_units``, which refuses an unbounded or out-of-range
    H) solved by :func:`_canonical_ground_energies` and scaled back to H."""
    canonical, energy, length = natural_units(h)
    return _canonical_ground_energies((canonical,), config)[0].dilated(energy, length)
