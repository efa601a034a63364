"""Variational ground-state solver for the reduced one-body operator

    H = beta * sqrt(lam * p^2 + m^2) + gamma * V(r)

in three dimensions at zero angular momentum (units hbar = c = 1).

The Rayleigh-Ritz basis consists of s-wave eigenfunctions of the isotropic
harmonic oscillator.  These are form invariant under the three-dimensional
Fourier transform up to a phase (-1)^n, so both the square-root kinetic term
(in momentum space) and the potential term (in coordinate space) reduce to
one-dimensional radial quadratures against the same function table.  The
lowest eigenvalue is minimized over the basis length scale sigma, which makes
the result a variational upper bound on the spectral bottom of H for every
basis size.

The potential is a sum of terms c r^k (``PairPotential.terms``), so its
matrix is gamma sum c sigma^-k U_k, where the term matrix U_k of y^k in the
dimensionless basis depends only on (basis size, quadrature order, k) and is
built once by quadrature.  The kinetic term is a quadrature over the
momentum-space table (-1)^n R_n, which carries the Fourier phases: at m = 0
it is beta sqrt(lam) sigma times that table's term matrix of y, so a step of
the scale search is one ``eigvalsh`` of a scaled sum; at m > 0 it is one
kinetic quadrature plus the ``eigvalsh``.  Each step adds its terms into one
matrix in place.

Every operator is solved in its natural units (``reductions.natural_units``,
which also refuses operators that are unbounded below): a dilation r -> s r
maps H to beta sqrt(lam)/s times the canonical operator
sqrt(p^2 + mu^2) + r^k - v'/r, whose optimal basis scale is of order 1 for
every coupling, mass and particle count.  The scale search runs on that
operator, and the result is scaled back.  :func:`scale_search` is that search
at any basis size, and the Gaussian upper bound of ``bounds`` runs it at basis
size 1.  ``ground_energy`` brings its operator to natural units once and runs
two searches on it: the half basis over the whole scale interval, then the
full basis on a bracket of e^(+-1/2) around the half-basis optimum, the
distance the two optima keep in practice.  The search stops where its bracket
is within the scale tolerance or flat to roundoff (:data:`FLAT_TOL`).  The
reported energy is the search's own ``eigvalsh`` value at the reported scale;
the eigenvector is computed only when ``SpectrumResult.coefficients`` is read.
The operator, the solver knobs and the closed forms of the massless linear
case are in ``reductions``; this module holds only the numerics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .potentials import PairPotential
from .quadrature import semi_infinite_rule
from .reductions import ReducedHamiltonian, SolverConfig, natural_units

#: Relative change between a rule and its doubled-order version above which
#: a quadrature warning is recorded.
QUADRATURE_SELF_CHECK_TOL = 1e-10

#: Relative spread of the objective across the search bracket below which the
#: scale search stops: about the roundoff of an ``eigvalsh`` at B <= 40, so
#: the objective carries no more information about the scale.
FLAT_TOL = 1e-13

#: Half-width, in log scale, of the full-basis search bracket around the
#: half-basis optimum.  Over 631 solves of the bounds benchmark (seeds 7 and 8)
#: the two optima differed by 0.16-0.18 in median and 0.27 at most.
_LOCAL_HALF_WIDTH = 0.5

#: Golden-section step as a fraction of the bracket, (3 - sqrt 5)/2.
_GOLDEN_STEP = (3.0 - math.sqrt(5.0)) / 2.0


@dataclass
class SpectrumResult:
    """Variational ground state with convergence diagnostics.

    ``matrix`` is the read-only Rayleigh-Ritz matrix at the optimal scale, of
    the canonical operator in natural units.  ``ground_energy`` is its lowest
    eigenvalue in the operator's own units, stable to roundoff.
    ``coefficients``, its lowest eigenvector, is computed by ``eigh`` on first
    read and is read-only.  ``optimal_basis_scale`` and ``coefficients`` are
    fixed only up to the flatness of the scale-search objective: where the
    lowest eigenvalue barely depends on the scale, a change in the last bits
    of the matrices can move the scale by tens of percent while the energy
    moves by 1e-14.
    """

    ground_energy: float
    optimal_basis_scale: float
    matrix: np.ndarray = field(repr=False, compare=False)
    convergence_estimate: float
    warnings: list[str] = field(default_factory=list)

    @cached_property
    def coefficients(self) -> np.ndarray:
        """Lowest eigenvector of ``matrix``, of unit norm, with its first entry
        above 1e-12 in magnitude positive; read-only."""
        _, vectors = np.linalg.eigh(self.matrix)
        coeff = vectors[:, 0]
        pivot = np.flatnonzero(np.abs(coeff) > 1e-12)
        if pivot.size and coeff[pivot[0]] < 0.0:
            coeff = -coeff
        coeff = coeff / np.linalg.norm(coeff)
        coeff.setflags(write=False)
        return coeff

    def dilated(self, energy: float, length: float) -> SpectrumResult:
        """This spectrum, of a canonical operator, as that of ``energy`` times
        it dilated by r -> ``length`` r: energies times ``energy``, basis scale
        over ``length``, matrix (so coefficients) and warnings as they are."""
        return SpectrumResult(
            ground_energy=energy * self.ground_energy,
            optimal_basis_scale=self.optimal_basis_scale / length,
            matrix=self.matrix,
            convergence_estimate=energy * self.convergence_estimate,
            warnings=list(self.warnings),
        )


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


@lru_cache(maxsize=32)
def _node_table(basis_size: int, order: int):
    """Nodes, weights (already including y^2), basis table and momentum-space
    table, read-only.

    The momentum-space table (-1)^n R_n carries the Fourier phases of the
    basis functions.  Nodes beyond the support of the Gaussian envelope (where
    exp(-y^2/2) underflows) contribute exactly zero and are dropped; this also
    keeps steeply rising potentials finite at every retained node.
    """
    y, wy = semi_infinite_rule(order, map_scale(basis_size))
    keep = y < 38.0
    y = y[keep]
    wy2 = wy[keep] * y * y
    table = radial_basis(basis_size, y)
    momentum = table * np.where(np.arange(basis_size) % 2 == 0, 1.0, -1.0)[:, None]
    for arr in (y, wy2, table, momentum):
        arr.setflags(write=False)
    return y, wy2, table, momentum


def _gram(table: np.ndarray, root_weights: np.ndarray) -> np.ndarray:
    """table diag(root_weights^2) table^T, exactly symmetric.

    numpy evaluates ``a @ a.T`` as one symmetric rank-k update (BLAS syrk)
    and mirrors its triangle.
    """
    a = table * root_weights
    return a @ a.T


# A problem's working set is its kinetic and potential terms at the full basis
# (two quadrature orders), the half basis and basis size 1; 64 entries hold it
# for problems that alternate two basis sizes, at most about 0.8 MB at B = 40
@lru_cache(maxsize=64)
def _term_matrix(basis_size: int, order: int, k: float, momentum: bool) -> np.ndarray:
    """Term matrix table diag(wy2 y^k) table^T of y^k, read-only, on the
    coordinate-space table or, with ``momentum``, the momentum-space one.

    Every potential is a sum of terms c r^k and the massless kinetic term is
    |p|, so these few matrices per (basis, order) serve every scale of the
    search.
    """
    y, wy2, table, momentum_table = _node_table(basis_size, order)
    mat = _gram(momentum_table if momentum else table, np.sqrt(wy2 * y**k))
    mat.setflags(write=False)
    return mat


def _kinetic(beta, lam, mass, basis_size, basis_scale, order):
    """A new kinetic matrix.  At m > 0 the quadrature weights
    sqrt(wy2 beta sqrt(lam (sigma y)^2 + m^2)) are built in one array."""
    if mass == 0.0:
        return (beta * math.sqrt(lam) * basis_scale) * _term_matrix(basis_size, order, 1.0, True)
    y, wy2, _, momentum = _node_table(basis_size, order)
    w = basis_scale * y
    np.square(w, out=w)
    w *= lam
    w += mass * mass
    np.sqrt(w, out=w)
    w *= beta
    w *= wy2
    np.sqrt(w, out=w)
    return _gram(momentum, w)


def _potential(potential, gamma, basis_size, basis_scale, order):
    """A new potential matrix, its terms added in place in ``terms()`` order."""
    (c, k), *rest = potential.terms()
    mat = (gamma * c * basis_scale**-k) * _term_matrix(basis_size, order, k, False)
    for c, k in rest:
        mat += (gamma * c * basis_scale**-k) * _term_matrix(basis_size, order, k, False)
    return mat


def _self_check(build, order, label, diagnostics):
    mat = build(order)
    if diagnostics is None:
        return mat
    doubled = build(2 * order)
    scale = max(float(np.abs(mat).max()), 1e-300)
    change = float(np.abs(doubled - mat).max()) / scale
    if change > QUADRATURE_SELF_CHECK_TOL:
        diagnostics.append(
            f"{label} quadrature self-check: relative change {change:.2e} between "
            f"order {order} and {2 * order} exceeds {QUADRATURE_SELF_CHECK_TOL:.0e}; "
            f"increase quadrature_order"
        )
    return mat


def kinetic_matrix(
    beta: float,
    lam: float,
    mass: float,
    basis_size: int,
    basis_scale: float,
    quadrature_order: int,
    diagnostics: list[str] | None = None,
) -> np.ndarray:
    """Matrix of beta * sqrt(lam p^2 + mass^2) in the oscillator basis.

    Computed by radial quadrature over the momentum-space table (-1)^n R_n,
    whose signs are the Fourier phases of the basis functions, at mass 0 as
    basis_scale times that table's term matrix of y.  ``basis_scale`` is the
    momentum-space width of the lowest basis function (units 1/length).
    The matrix is exactly symmetric (a symmetric rank-k product).  When a list
    is passed as ``diagnostics``, a doubled-order self-check may append a
    non-convergence warning to it.
    """
    if not (beta > 0.0 and lam > 0.0 and mass >= 0.0 and basis_scale > 0.0):
        raise ValueError("kinetic matrix parameters out of range")
    return _self_check(
        lambda order: _kinetic(beta, lam, mass, basis_size, basis_scale, order),
        quadrature_order,
        "kinetic",
        diagnostics,
    )


def potential_matrix(
    potential: PairPotential,
    gamma: float,
    basis_size: int,
    basis_scale: float,
    quadrature_order: int,
    diagnostics: list[str] | None = None,
) -> np.ndarray:
    """Matrix of gamma * V(r) in the oscillator basis.

    Sum over ``potential.terms()`` of gamma c basis_scale^-k times the term
    matrix of y^k, each a coordinate-space quadrature; the r^2 volume factor
    makes the Coulomb integrand regular at the origin, so the same rule
    serves every shape in the family.
    """
    if not (gamma > 0.0 and basis_scale > 0.0):
        raise ValueError("potential matrix parameters out of range")
    return _self_check(
        lambda order: _potential(potential, gamma, basis_size, basis_scale, order),
        quadrature_order,
        "potential",
        diagnostics,
    )


@dataclass(frozen=True)
class GoldenResult:
    x: float
    fx: float
    at_lower: bool
    at_upper: bool


def minimize_log_golden(f, lo: float, hi: float, rel_tol: float) -> GoldenResult:
    """Minimum of a unimodal f over [lo, hi] by Brent's method in log coordinates.

    Golden-section search with parabolic steps (R. P. Brent, Algorithms for
    Minimization without Derivatives, 1973, in the form of fminbound): each
    step takes the vertex of the parabola through the three best points when
    it falls inside the bracket and moves less than half the step before
    last, and a golden-section step otherwise.  No step is shorter than
    rel_tol/3.  The search stops once the bracket around the best point is
    within 2 rel_tol/3 on either side, so for a unimodal f the returned
    abscissa is within ``rel_tol`` of the minimum in log coordinates (the
    relative uncertainty of the abscissa).  It also stops once f has been
    evaluated at both ends of the bracket and neither exceeds f at the best
    point by more than :data:`FLAT_TOL` relative: the bracket is then flat to
    roundoff, and the abscissa may lie anywhere in it.  Flags indicate a
    minimum pinned at an interval endpoint; where the bracket never left an
    end and f is no larger there, the end itself is returned.
    """
    a, b = math.log(lo), math.log(hi)
    a0, b0 = a, b
    tol1 = rel_tol / 3.0
    # x: best point so far, w: second best, v: the previous w
    x = w = v = a + _GOLDEN_STEP * (b - a)
    fx = fw = fv = f(math.exp(x))
    # f at the bracket ends, infinite until the end has moved to a point of f
    fa = fb = math.inf
    step = last = 0.0
    while True:
        xm = 0.5 * (a + b)
        if abs(x - xm) <= 2.0 * tol1 - 0.5 * (b - a):
            break
        if max(fa, fb) - fx <= FLAT_TOL * abs(fx):
            break
        golden = True
        if abs(last) > tol1:
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            before_last, last = last, step
            if abs(p) < abs(0.5 * q * before_last) and q * (a - x) < p < q * (b - x):
                golden = False
                step = p / q
                if x + step - a < 2.0 * tol1 or b - (x + step) < 2.0 * tol1:
                    step = tol1 if xm >= x else -tol1
        if golden:
            last = (a if x >= xm else b) - x
            step = _GOLDEN_STEP * last
        u = x + (step if abs(step) >= tol1 else (tol1 if step >= 0.0 else -tol1))
        fu = f(math.exp(u))
        if fu <= fx:
            if u >= x:
                a, fa = x, fx
            else:
                b, fb = x, fx
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a, fa = u, fu
            else:
                b, fb = u, fu
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
    sigma = math.exp(x)
    if a == a0 or b == b0:
        # the bracket still reaches an end, where the minimum may sit: report
        # the end itself if it is no worse, so that a pinned result does not
        # depend on how the search approached it
        end = lo if a == a0 else hi
        f_end = f(end)
        if f_end <= fx:
            sigma, fx, x = end, f_end, math.log(end)
    pad = 2.0 * rel_tol
    return GoldenResult(sigma, fx, x - a0 <= pad, b0 - x <= pad)


def _lowest_eigenvalue(h, basis_size, sigma, order):
    # the kinetic matrix added into the potential one is bit for bit the sum
    # kinetic_matrix + potential_matrix that ground_energy builds
    mat = _potential(h.potential, h.gamma, basis_size, sigma, order)
    mat += _kinetic(h.beta, h.lam, h.mass, basis_size, sigma, order)
    return np.linalg.eigvalsh(mat)[0]


@dataclass(frozen=True)
class ScaleSearch:
    """Lowest Rayleigh-Ritz eigenvalue of an operator at its best basis scale,
    both in the operator's own units."""

    energy: float
    scale: float
    warnings: list[str]


def _search(canonical, basis_size, cfg, lo, hi) -> GoldenResult:
    """Scale search of a canonical operator over [lo, hi] at ``basis_size``."""
    return minimize_log_golden(
        lambda sigma: _lowest_eigenvalue(canonical, basis_size, sigma, cfg.quadrature_order),
        lo,
        hi,
        cfg.scale_tolerance,
    )


def _pin_warnings(best: GoldenResult) -> list[str]:
    """One warning per end of the scale interval that the optimum sits at; it
    names the end and no scale, so that it holds in any units."""
    return [
        f"scale optimum sits at the {end} endpoint of scale_interval; widen scale_interval"
        for end, pinned in (("lower", best.at_lower), ("upper", best.at_upper))
        if pinned
    ]


def scale_search(h: ReducedHamiltonian, basis_size: int, config: SolverConfig | None = None) -> ScaleSearch:
    """Lowest eigenvalue of H in the first ``basis_size`` oscillator functions,
    minimized over their basis scale.

    The search runs on the canonical operator of ``reductions.natural_units``
    over ``config.scale_interval``; energy and scale are scaled back to H.
    Each end of the interval that the optimum sits at gets one warning.
    """
    cfg = config if config is not None else SolverConfig()
    canonical, energy, length = natural_units(h)
    best = _search(canonical, basis_size, cfg, *cfg.scale_interval)
    return ScaleSearch(energy * float(best.fx), best.x / length, _pin_warnings(best))


def _full_search(canonical, cfg, half: GoldenResult) -> GoldenResult:
    """Full-basis scale search, seeded by the half-basis result ``half``.

    Unless ``half`` is pinned, the search runs on e^(+-1/2) around its
    optimum, cut to the scale interval; where it pins at an end of that
    bracket that is not an end of the interval, and whenever ``half`` is
    pinned, it runs over the whole interval.  So the flags of the result
    refer to the ends of the scale interval only.
    """
    lo, hi = cfg.scale_interval
    if not (half.at_lower or half.at_upper):
        width = math.exp(_LOCAL_HALF_WIDTH)
        local_lo, local_hi = max(lo, half.x / width), min(hi, half.x * width)
        best = _search(canonical, cfg.basis_size, cfg, local_lo, local_hi)
        if not ((best.at_lower and local_lo > lo) or (best.at_upper and local_hi < hi)):
            return best
    return _search(canonical, cfg.basis_size, cfg, lo, hi)


def ground_energy(h: ReducedHamiltonian, config: SolverConfig | None = None) -> SpectrumResult:
    """Bottom of the spectrum of H by Rayleigh-Ritz with basis-scale search.

    The searches and the solve run on the canonical operator of
    ``reductions.natural_units``, and the result is scaled back to H.  The
    returned energy is a variational upper bound on the true spectral
    bottom, nonincreasing in the basis size.  ``convergence_estimate`` is the
    difference against a solve at basis size max(2, basis_size // 2) and
    bounds the plausible remaining truncation error scale.  That solve runs
    first, over the whole scale interval, and the full-basis search starts
    from its optimum (:func:`_full_search`).  ``optimal_basis_scale`` is
    within ``scale_tolerance`` of the optimum, or anywhere in a bracket over
    which the energy is flat to :data:`FLAT_TOL`.  The energy is the
    full-basis search's ``eigvalsh`` value there; the matrix at that scale is
    built once more, with the quadrature self-checks, and kept on the result,
    whose ``coefficients`` run ``eigh`` only when read.
    """
    cfg = config if config is not None else SolverConfig()
    h, energy, length = natural_units(h)
    # h is canonical now, so the searches report in natural units
    half = _search(h, max(2, cfg.basis_size // 2), cfg, *cfg.scale_interval)
    best = _full_search(h, cfg, half)
    sigma = best.x

    diagnostics: list[str] = []
    matrix = kinetic_matrix(
        h.beta, h.lam, h.mass, cfg.basis_size, sigma, cfg.quadrature_order, diagnostics
    )
    matrix += potential_matrix(
        h.potential, h.gamma, cfg.basis_size, sigma, cfg.quadrature_order, diagnostics
    )
    matrix.setflags(write=False)
    return SpectrumResult(
        ground_energy=float(best.fx),
        optimal_basis_scale=float(sigma),
        matrix=matrix,
        convergence_estimate=abs(float(half.fx) - float(best.fx)),
        warnings=list(dict.fromkeys(_pin_warnings(best) + diagnostics + _pin_warnings(half))),
    ).dilated(energy, length)
