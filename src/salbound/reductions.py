"""The reductions of the N-boson problem, and what follows from them in closed form.

For N identical bosons with Hamiltonian sum_i sqrt(p_i^2 + m^2)
+ sum_{i<j} V(r_ij), every lower bound used here is N times the spectral
bottom of a reduced one-body operator

    sqrt(lam * p^2 + m^2) + (N - 1)/2 * V(r),

so the bounds differ only in the kinetic rescaling ``lam``.  The table
:data:`REDUCTIONS` holds one row per reduction: its ``lam(N)``, the least N
and the masses it holds for, and its derivation, and
:meth:`Reduction.operator` builds the row's reduced operator, the only place
it is built.  Everything else reads that table: the solver-path bounds and
the Gaussian upper bound of ``bounds``, the closed forms for the massless
linear potential, the ratio table, and the proof status of the
model-operator bound, which is proved exactly where its ``lam`` equals that
of an applicable proved reduction.

:func:`natural_units` maps every reduced operator, by a dilation, to
``energy`` times the canonical operator sqrt(p^2 + mu^2) + r^k - v'/r, and
refuses operators that are unbounded below (:class:`StabilityError`).  So
every bound is N times ``energy`` times one canonical number.  For the
massless linear potential that number is e = E(|p| + r) for each lower
bound, and the least one-Gaussian energy of |p| + r for the upper bound;
the ratio table's N -> inf column is the same table at N = 2^64.

This module needs only the standard library: the closed forms, the tables
and the stability refusal run without numpy.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable

from .potentials import (
    Coulomb,
    CoulombPlusLinear,
    Linear,
    PairPotential,
    PowerLaw,
    _parameters,
    require_finite,
)

#: Ground energy of H = ||p|| + r in three dimensions
#: (Boukraa and Basdevant 1989).
LINEAR_GROUND_ENERGY = 2.2322

#: Critical coupling of the Coulomb-Salpeter operator (Herbst 1977):
#: sqrt(p^2 + m^2) - v/r is unbounded below for v >= 2/pi.
COULOMB_CRITICAL_COUPLING = 2.0 / math.pi

_E = LINEAR_GROUND_ENERGY

#: Largest canonical mass mu.  From 2^512 on, p^2 + mu^2 overflows in the
#: weights of the kinetic rule (``quadrature``), whose nodes p stay below
#: 5e8 at the narrowest Gaussian of the largest basis; 2^480 keeps a margin.
_MU_MAX = 2.0**480


#: Largest exponent k of a confining term r^k.  Above it the widest
#: Gaussians' <r^k> swamps the reduced matrix, and the solve reports a wrong
#: energy with a convergence estimate about equal to it: from k = 10 at
#: K = 40, k = 8 at K = 60 and k = 4.5 at K = 120.  At k = 4 every K from 24
#: to 120, at m = 0, 1 and 30, keeps the estimate within 1.4e-5 of the
#: energy (the worst near K = 107, where roundoff starts to count; 4.4e-8 at
#: k = 3.5).
MAX_CONFINING_EXPONENT = 4.0


class StabilityError(ValueError):
    """The requested operator is unbounded below."""


@dataclass(frozen=True)
class ReducedHamiltonian:
    """Parameters of beta * sqrt(lam * p^2 + mass^2) + gamma * V(r)."""

    beta: float
    lam: float
    gamma: float
    mass: float
    potential: PairPotential

    def __post_init__(self):
        require_finite(self, "beta", "lam", "gamma", "mass")
        if not self.beta > 0.0:
            raise ValueError("beta must be positive")
        if not self.lam > 0.0:
            raise ValueError("lam must be positive")
        if not self.gamma > 0.0:
            raise ValueError("gamma must be positive")
        if self.mass < 0.0:
            raise ValueError("mass must be nonnegative")


#: Largest ``SolverConfig.basis_size``.  The grid of Gaussians widens with
#: the basis, to r from 3e-5 to 3e4 at 120 (7e-12 to 3e11 at 300), far beyond
#: the lengths of any canonical operator, while the m > 0 momentum table,
#: K Gaussians times the rule's nodes, grows with it: 320 x 120 (0.31 MB) at
#: 120, 633 x 300 (1.5 MB) at 300.
MAX_BASIS_SIZE = 120


@dataclass(frozen=True)
class SolverConfig:
    """Numerical knob for ``solver.ground_energy``: the number of Gaussians,
    an integer from 2 to ``MAX_BASIS_SIZE``."""

    basis_size: int = 40

    def __post_init__(self):
        require_finite(self, "basis_size")
        # it sets array sizes, so a whole float such as 40.0 is refused too
        try:
            operator.index(self.basis_size)
        except TypeError:
            raise ValueError(f"basis_size must be an integer, got {self.basis_size!r}") from None
        if self.basis_size < 2:
            raise ValueError("basis size must be at least 2")
        if self.basis_size > MAX_BASIS_SIZE:
            raise ValueError(f"basis size must be at most {MAX_BASIS_SIZE}")


def require_particle_count(n) -> None:
    """Raise ValueError unless n is a whole number of at least 2 whose pair
    count n(n-1)/2 is a finite float, the one check of a particle count."""
    if isinstance(n, float) and not math.isfinite(n):
        raise ValueError(f"n must be finite, got {n}")
    if n % 1 != 0:
        raise ValueError(f"particle count must be a whole number, got {n}")
    if n < 2:
        raise ValueError("need at least two particles")
    try:
        pairs = n * (n - 1) / 2.0
    except OverflowError:
        pairs = math.inf
    if pairs == math.inf:
        raise ValueError("particle count is too large: its pair count n(n-1)/2 is not a finite float")


def _in_range(name: str, value: float, limit: float = math.inf) -> float:
    """``value`` if it is positive and below ``limit``, else ValueError naming it."""
    if not 0.0 < value < limit:
        raise ValueError(f"{name} {value:g} is outside the floating-point range")
    return value


def natural_units(h: ReducedHamiltonian) -> tuple[ReducedHamiltonian, float, float]:
    """(canonical, energy, length) with H = energy times the canonical operator
    sqrt(p^2 + mu^2) + r^k - v'/r under the dilation r -> length r.

    The length s is
    - with a confining term c r^k (k > 0): (beta sqrt(lam)/(gamma c))^(1/(k+1)),
      and the canonical coefficient of r^k is exactly 1;
    - for pure Coulomb at m > 0: the Bohr radius beta lam/(m gamma v) of the
      non-relativistic limit;
    - for massless pure Coulomb, which is scale-free: 1.
    Then mu = m s/sqrt(lam), v' = gamma v/(beta sqrt(lam)) and
    energy = beta sqrt(lam)/s.  A canonical operator is its own canonical
    form: once it has passed every refusal below, it is returned itself,
    with energy and length exactly 1.

    Raises StabilityError where the effective Coulomb coupling v' reaches
    2/pi: the operator is then unbounded below for every mass, since the
    collapse happens at short distance where the mass and any confining tail
    are negligible.  Raises ValueError where the exponent k exceeds
    :data:`MAX_CONFINING_EXPONENT`, and where beta sqrt(lam), gamma c, v', s,
    the energy or, at m > 0, mu or mu^2 falls outside the floating-point
    range.
    """
    root = math.sqrt(h.lam)
    kinetic = _in_range("kinetic coefficient beta sqrt(lam)", h.beta * root)
    coupling = h.gamma * h.potential.coulomb_strength() / kinetic
    if coupling >= COULOMB_CRITICAL_COUPLING:
        raise StabilityError(
            f"effective Coulomb coupling {coupling:.6g} >= 2/pi "
            f"({COULOMB_CRITICAL_COUPLING:.6g}); the operator is unbounded below"
        )
    confining = [(c, k) for c, k in h.potential.terms() if k > 0.0]
    if confining:
        ((c, k),) = confining
        if k > MAX_CONFINING_EXPONENT:
            raise ValueError(
                f"confining exponent {k:g} is above {MAX_CONFINING_EXPONENT:g}, beyond what "
                f"the Gaussian basis resolves"
            )
        strength = _in_range("confining coefficient gamma c", h.gamma * c)
        length = (kinetic / strength) ** (1.0 / (k + 1.0))
        mu = h.mass * length / root
        # the family's only shape with a confining and a Coulomb term has k = 1
        form = (CoulombPlusLinear, coupling, 1.0) if coupling > 0.0 else (PowerLaw, 1.0, k)
    else:
        _in_range("effective Coulomb coupling", coupling)
        if h.mass > 0.0:
            # mu = 1/v' in closed form keeps the canonical operator's length at 1
            mu = 1.0 / coupling
            length = root * mu / h.mass
        else:
            mu, length = 0.0, 1.0
        form = (Coulomb, coupling)
    _in_range("natural length", length)
    if h.mass > 0.0:
        _in_range("natural mass mu", mu, _MU_MAX)
    energy = _in_range("energy factor", kinetic / length)
    cls, *parameters = form
    if (h.beta, h.lam, h.gamma, h.mass, type(h.potential)) == (1.0, 1.0, 1.0, mu, cls) and all(
        getattr(h.potential, name) == value for name, value in zip(_parameters(cls), parameters)
    ):
        # already canonical, so the length and the energy are exactly 1
        return h, 1.0, 1.0
    return ReducedHamiltonian(1.0, 1.0, 1.0, mu, cls(*parameters)), energy, length


# --- the reduction table ------------------------------------------------------


@dataclass(frozen=True)
class Reduction:
    """One row of the reduction table; ``model_proof`` proves the model-operator
    bound wherever this row holds with the model's ``lam``."""

    name: str
    lam: Callable[[int], float]
    n_min: int
    massless_only: bool
    derivation: str
    ratio: str
    model_proof: str | None

    def missing(self, n: int, mass: float) -> str | None:
        """Why the reduction does not hold at (n, mass), or None if it does."""
        if n < self.n_min:
            return f"requires n >= {self.n_min}"
        if self.massless_only and mass != 0.0:
            return "requires m=0"
        return None

    def operator(self, n: int, mass: float, potential: PairPotential) -> ReducedHamiltonian:
        """This row's reduced operator sqrt(lam p^2 + mass^2) + (n-1)/2 V."""
        return ReducedHamiltonian(1.0, self.lam(n), (n - 1) / 2.0, mass, potential)


#: The reductions in report order.  The lam expressions are kept in exactly
#: this form: coinciding rows must give bit-identical floats.
REDUCTIONS = (
    Reduction("n2", lambda n: 1.0, 2, False, "pairwise reduction", "R_N/2",
              "exact two-body reduction at N = 2"),
    Reduction("n3", lambda n: 4.0 / 3.0, 3, False, "three-body reduction", "R_N/3",
              "proved for three bosons at any mass"),
    Reduction("n4", lambda n: 1.5, 4, True, "four-body reduction", "R_N/4",
              "proved for four massless bosons"),
    Reduction("conjectured", lambda n: 2.0 * (n - 1) / n, 2, False,
              "model-operator reduction", "R_c", None),
)

_ROWS = {row.name: row for row in REDUCTIONS}
_MODEL = _ROWS["conjectured"]


@dataclass(frozen=True)
class ConjectureStatus:
    proven: bool
    reason: str

    @property
    def label(self) -> str:
        return "proven" if self.proven else "conjectured"


def model_status(n: int, mass: float) -> ConjectureStatus:
    """Proof status of the model-operator reduction (and of the delta inequality
    behind it) at (n, mass), for any potential: it is proved where its ``lam``
    equals that of a proved reduction that holds at (n, mass)."""
    lam = _MODEL.lam(n)
    for row in REDUCTIONS:
        if row.model_proof and row.missing(n, mass) is None and row.lam(n) == lam:
            return ConjectureStatus(True, row.model_proof)
    return ConjectureStatus(False, "no proof known for this particle count and mass")


def _table(n: int, mass: float, bound: Callable[[Reduction], object]):
    """``bound(row)`` by name for every reduction that holds at (n, mass), else
    None, with the reasons for the None entries."""
    values, reasons = {}, {}
    for row in REDUCTIONS:
        reason = row.missing(n, mass)
        if reason:
            values[row.name], reasons[row.name] = None, reason
        else:
            values[row.name] = bound(row)
    return values, reasons


# --- the massless Gaussian trial state ----------------------------------------


def _pair_moment(k: float) -> float:
    """<y^k> = Γ((3+k)/2)/Γ(3/2) of the unit Gaussian pair density
    (4/sqrt(pi)) y^2 e^(-y^2); k = 1 also gives <|p|> sigma = 2/sqrt(pi)."""
    return math.gamma((3.0 + k) / 2.0) / math.gamma(1.5)


def _massless_optimum(canonical: ReducedHamiltonian) -> tuple[float, float]:
    """(least, sigma): the least one-Gaussian energy of a massless canonical
    operator |p| + r^k - v'/r with k > 0, and the Gaussian length sigma
    where it lies.

    The pair moments <|p|> = M_1/sigma, <1/r> = M_-1/sigma and
    <r^k> = M_k sigma^k make the energy a/sigma + b sigma^k with
    a = M_1 - v' M_-1 and b = M_k, least at sigma = (a/(k b))^(1/(k+1)).
    """
    a = _pair_moment(1.0)
    for c, k in canonical.potential.terms():
        if k == -1.0:
            a += c * _pair_moment(k)
        else:
            b, power = c * _pair_moment(k), k
    sigma = (a / (power * b)) ** (1.0 / (power + 1.0))
    return (1.0 + 1.0 / power) * a / sigma, sigma


# --- closed forms for the massless linear potential V(r) = r -------------------


def upper_gaussian_linear(n: int) -> float:
    """4N ((N-1)^3 / (2 N pi^2))^(1/4), the k = 1 case of the massless
    Gaussian bound: N times the model operator's energy in natural units
    times the least one-Gaussian energy of |p| + r."""
    canonical, energy, _ = natural_units(_MODEL.operator(n, 0.0, Linear(1.0)))
    return n * (energy * _massless_optimum(canonical)[0])


@dataclass(frozen=True)
class LinearBoundTable:
    """Closed-form bounds for N massless bosons with V(r) = r; ``lower`` and
    ``reasons`` are keyed by reduction name like ``bounds.BoundSet``'s."""

    n: int
    lower: dict[str, float | None]
    reasons: dict[str, str]
    upper: float


def linear_bound_table(n: int) -> LinearBoundTable:
    """Exact closed forms at particle count n.  Each lower bound is N times
    the bottom of its row's operator sqrt(lam)|p| + (N-1)/2 r, which is its
    energy in natural units times that of |p| + r, e."""
    require_particle_count(n)
    lower, reasons = _table(
        n, 0.0, lambda row: n * (natural_units(row.operator(n, 0.0, Linear(1.0)))[1] * _E)
    )
    return LinearBoundTable(n=n, lower=lower, reasons=reasons, upper=upper_gaussian_linear(n))


@dataclass(frozen=True)
class RatioTable:
    """Upper-to-lower bound ratios for the massless linear potential.

    ``rows`` maps a row label to one value per entry of ``n_values`` (None
    below the row's particle-count threshold) followed by the large-N limit,
    the value at N = 2^64, where N - 1 rounds to N.
    """

    n_values: tuple[int, ...]
    rows: dict[str, tuple[float | None, ...]]


def ratio_table() -> RatioTable:
    """Ratios upper/lower for each bound at Table 1's N, plus the N -> inf column."""
    n_values = (2, 3, 4, 5, 6, 10)
    tables = [linear_bound_table(n) for n in (*n_values, 2**64)]
    rows = {
        row.ratio: tuple(None if t.lower[row.name] is None else t.upper / t.lower[row.name] for t in tables)
        for row in REDUCTIONS
    }
    return RatioTable(n_values=n_values, rows=rows)
