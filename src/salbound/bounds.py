"""Energy bounds for semirelativistic N-boson systems.

For N identical bosons with Hamiltonian sum_i sqrt(p_i^2 + m^2)
+ sum_{i<j} V(r_ij), every lower bound used here is N times the spectral
bottom of a reduced one-body operator

    sqrt(lam * p^2 + m^2) + (N - 1)/2 * V(r),

so the bounds differ only in the kinetic rescaling ``lam``.  The table
:data:`REDUCTIONS` holds one row per reduction: its ``lam(N)``, the least N
and the masses it holds for, and its derivation.  Everything below reads
that table: the solver-path bounds, the closed forms for the massless
linear potential, the ratio table and its large-N limits, and the proof
status of the model-operator bound, which is proved exactly where its
``lam`` equals that of an applicable proved reduction, and for harmonic
pair potentials; elsewhere it is conjectured and reported as such.  The
upper bound comes from a product Gaussian trial state in relative
coordinates, optimized over its scale.

Every row is solved in its natural units (``solver.natural_units``): a
dilation maps its reduced operator to a multiple of the canonical operator
sqrt(p^2 + mu^2) + r^k - v'/r, and rows with the same canonical operator
share one solve.  A massless single-term potential c r^k with k > 0
(linear, harmonic, power law) has the canonical operator |p| + r^k for every
row at every N, so it needs one solve in all (the dilation law
E(a|p| + b r^k) = a^(k/(k+1)) b^(1/(k+1)) E_k).  For the massless linear
potential V(r) = b r everything reduces to closed forms through the k = 1
case E(a, b) = sqrt(a b) e.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .potentials import Harmonic, PairPotential, require_finite
from .quadrature import semi_infinite_rule
from .solver import (
    LINEAR_GROUND_ENERGY,
    ReducedHamiltonian,
    SolverConfig,
    SpectrumResult,
    ground_energy,
    minimize_log_golden,
    natural_units,
)

_E = LINEAR_GROUND_ENERGY


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
class ProblemSpec:
    """An N-boson problem: particle count, per-particle mass, pair potential."""

    n: int
    mass: float
    potential: PairPotential

    def __post_init__(self):
        require_finite(self, "n", "mass")
        if self.n < 2:
            raise ValueError("need at least two particles")
        if self.mass < 0.0:
            raise ValueError("mass must be nonnegative")

    @property
    def pair_count(self) -> int:
        return self.n * (self.n - 1) // 2


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


def conjecture_status(spec: ProblemSpec) -> ConjectureStatus:
    """Proof status of the model-operator lower bound for this problem."""
    status = model_status(spec.n, spec.mass)
    if not status.proven and isinstance(spec.potential, Harmonic):
        return ConjectureStatus(True, "proved for harmonic pair potentials")
    return status


@dataclass
class BoundResult:
    """A lower bound value with its solver diagnostics."""

    value: float
    kinetic_factor: float
    derivation: str
    spectrum: SpectrumResult


@dataclass
class UpperBoundResult:
    """Gaussian variational upper bound with optimizer diagnostics."""

    value: float
    optimal_scale: float
    warnings: list[str]


def _bounds(spec: ProblemSpec, config) -> Callable[[Reduction], BoundResult]:
    """row -> lower bound of ``spec`` from that reduction.

    Each row's reduced operator sqrt(lam p^2 + m^2) + (N-1)/2 V is energy
    times its canonical operator dilated by a length
    (``solver.natural_units``); rows with the same canonical operator share
    one solve, read off with their own energy and length.
    """
    gamma = (spec.n - 1) / 2.0
    solve = functools.cache(lambda canonical: ground_energy(canonical, config))

    def bound(row: Reduction) -> BoundResult:
        lam = row.lam(spec.n)
        canonical, energy, length = natural_units(
            ReducedHamiltonian(1.0, lam, gamma, spec.mass, spec.potential)
        )
        spectrum = solve(canonical).dilated(energy, length)
        return BoundResult(
            value=spec.n * spectrum.ground_energy,
            kinetic_factor=lam,
            derivation=row.derivation,
            spectrum=spectrum,
        )

    return bound


def lower_bound(spec: ProblemSpec, name: str, config: SolverConfig | None = None) -> BoundResult:
    """Lower bound from the reduction ``name`` of :data:`REDUCTIONS`.

    Raises ValueError where the reduction does not hold for ``spec``.
    """
    row = _ROWS[name]
    reason = row.missing(spec.n, spec.mass)
    if reason:
        raise ValueError(f"{row.derivation} {reason}")
    return _bounds(spec, config)(row)


def _pair_moment(k: float) -> float:
    """<y^k> = Γ((3+k)/2)/Γ(3/2) of the unit Gaussian pair density
    (4/sqrt(pi)) y^2 e^(-y^2); k = 1 also gives <|p|> sigma = 2/sqrt(pi)."""
    return math.gamma((3.0 + k) / 2.0) / math.gamma(1.5)


def _massless_gaussian(n: int, terms) -> tuple[float, list[tuple[float, float]]]:
    """(A, [(B_k, k), ...]) with the massless Gaussian bound A/sigma + sum B_k sigma^k."""
    gamma = n * (n - 1) / 2.0
    return n * math.sqrt(_MODEL.lam(n)) * _pair_moment(1.0), [
        (gamma * c * _pair_moment(k), k) for c, k in terms
    ]


def _power_optimum(a: float, b: float, k: float) -> tuple[float, float]:
    """Minimum and minimizer of a/sigma + b sigma^k over sigma > 0 (a, b, k > 0)."""
    sigma = (a / (k * b)) ** (1.0 / (k + 1.0))
    return (1.0 + 1.0 / k) * a / sigma, sigma


def gaussian_upper(spec: ProblemSpec, config: SolverConfig | None = None) -> UpperBoundResult:
    """Variational upper bound from a product Gaussian in relative coordinates.

    Boson symmetry collapses the expectation to a single relative pair, with
    the kinetic term evaluated on sqrt(lam p^2 + m^2) at the model-operator
    ``lam``.  At m = 0 the energy is A/sigma + sum B_k sigma^k in closed form
    from the pair moments <|p|> = (2/sqrt(pi))/sigma and
    <r^k> = sigma^k Γ((3+k)/2)/Γ(3/2); a single term with k > 0 has its
    optimum in closed form (the massless linear one is
    :func:`upper_gaussian_linear`), other potentials search that energy over
    the Gaussian length scale.  At m > 0 the kinetic term is a radial
    quadrature of ``config.quadrature_order`` and the same search applies.
    The search runs over ``config.scale_interval`` times the natural length
    of the model operator (``solver.natural_units``).
    """
    cfg = config if config is not None else SolverConfig()
    if spec.mass == 0.0:
        kinetic, powers = _massless_gaussian(spec.n, spec.potential.terms())
        if len(powers) == 1 and powers[0][1] > 0.0:
            value, sigma = _power_optimum(kinetic, *powers[0])
            return UpperBoundResult(value=value, optimal_scale=sigma, warnings=[])

        def energy(sigma: float) -> float:
            return kinetic / sigma + sum(b * sigma**k for b, k in powers)

    else:
        y, wy = semi_infinite_rule(cfg.quadrature_order, 2.0)
        keep = y < 38.0
        y = y[keep]
        # |phi_0|^2 y^2 dy weights for the unit Gaussian, normalized on y^2 dy
        rho = (4.0 / math.sqrt(math.pi)) * wy[keep] * y * y * np.exp(-y * y)
        lam = _MODEL.lam(spec.n)
        gamma = float(spec.pair_count)
        mass = spec.mass
        potential = spec.potential

        def energy(sigma: float) -> float:
            kinetic = float(rho @ np.sqrt(lam * (y / sigma) ** 2 + mass * mass))
            pot = float(rho @ np.asarray(potential(sigma * y), dtype=float))
            return spec.n * kinetic + gamma * pot

    model = ReducedHamiltonian(1.0, _MODEL.lam(spec.n), (spec.n - 1) / 2.0, spec.mass, spec.potential)
    length = natural_units(model)[2]
    lo, hi = (length * end for end in cfg.scale_interval)
    best = minimize_log_golden(energy, lo, hi, cfg.scale_tolerance)
    warnings = []
    if best.at_lower or best.at_upper:
        end = lo if best.at_lower else hi
        warnings.append(
            f"Gaussian-scale optimum {best.x:.6g} sits at the search-interval "
            f"endpoint {end:g}; widen scale_interval"
        )
    return UpperBoundResult(value=best.fx, optimal_scale=best.x, warnings=warnings)


@dataclass
class BoundSet:
    """All bounds for one problem, with provenance and proof status.

    Absent entries (below their N threshold, or requiring m = 0) are None,
    with the reason recorded in ``reasons`` under the same key.
    """

    spec: ProblemSpec
    n2: BoundResult
    n3: BoundResult | None
    n4: BoundResult | None
    conjectured: BoundResult
    status: ConjectureStatus
    upper: UpperBoundResult
    reasons: dict[str, str]

    def lower_results(self) -> dict[str, BoundResult | None]:
        """Every lower bound by reduction name, in table order."""
        return {row.name: getattr(self, row.name) for row in REDUCTIONS}

    def lower_values(self) -> dict[str, float]:
        return {k: r.value for k, r in self.lower_results().items() if r is not None}


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


def compute_bounds(spec: ProblemSpec, config: SolverConfig | None = None) -> BoundSet:
    """Evaluate every applicable bound and validate the sandwich.

    Reductions with the same canonical operator share one solve, and a
    massless single-term power law needs one solve for all of them (see
    :func:`_bounds`).  The Gaussian upper bound must dominate every lower
    bound; a violation beyond the solver's own convergence scale indicates an
    internal error and raises RuntimeError.
    """
    lower, reasons = _table(spec.n, spec.mass, _bounds(spec, config))
    upper = gaussian_upper(spec, config)

    bounds = BoundSet(spec, **lower, status=conjecture_status(spec), upper=upper, reasons=reasons)
    estimate = bounds.conjectured.spectrum.convergence_estimate
    slack = max(1e-9 * max(1.0, abs(upper.value)), 10.0 * estimate)
    for name, value in bounds.lower_values().items():
        if value > upper.value + slack:
            raise RuntimeError(
                f"internal error: lower bound {name} = {value!r} exceeds the "
                f"Gaussian upper bound {upper.value!r}"
            )
    return bounds


# Closed forms for the massless linear potential V(r) = r.


def upper_gaussian_linear(n: int) -> float:
    """4N ((N-1)^3 / (2 N pi^2))^(1/4), the k = 1 case of the massless Gaussian bound."""
    kinetic, ((b, k),) = _massless_gaussian(n, ((1.0, 1.0),))
    return _power_optimum(kinetic, b, k)[0]


@dataclass(frozen=True)
class LinearBoundTable:
    """Closed-form bounds for N massless bosons with V(r) = r; ``lower`` and
    ``reasons`` are keyed by reduction name like :class:`BoundSet`'s."""

    n: int
    lower: dict[str, float | None]
    reasons: dict[str, str]
    upper: float


def linear_bound_table(n: int) -> LinearBoundTable:
    """Exact closed forms at particle count n.  By the scaling law each lower
    bound, N times the bottom of sqrt(lam)|p| + (N-1)/2 r, is
    N sqrt(sqrt(lam) (N-1)/2) e."""
    if n < 2:
        raise ValueError("need at least two particles")
    lower, reasons = _table(
        n, 0.0, lambda row: n * math.sqrt(math.sqrt(row.lam(n)) * (n - 1) / 2.0) * _E
    )
    return LinearBoundTable(n=n, lower=lower, reasons=reasons, upper=upper_gaussian_linear(n))


def ratio_limit(label: str) -> float:
    """Large-N limit (4/e) (2 / (pi^2 lam_inf))^(1/4) of a ratio row."""
    for row in REDUCTIONS:
        if row.ratio == label:
            # N - 1 rounds to N in double precision, so this is lam's N -> inf limit
            lam_inf = row.lam(2**64)
            return 4.0 / _E * (2.0 / (math.pi**2 * lam_inf)) ** 0.25
    raise ValueError(f"unknown ratio row {label!r}")


@dataclass(frozen=True)
class RatioTable:
    """Upper-to-lower bound ratios for the massless linear potential.

    ``rows`` maps a row label to one value per entry of ``n_values`` (None
    below the row's particle-count threshold) followed by the large-N limit.
    """

    n_values: tuple[int, ...]
    rows: dict[str, tuple[float | None, ...]]

    @property
    def columns(self) -> tuple[object, ...]:
        return self.n_values + ("inf",)


def ratio_table(n_values: tuple[int, ...] = (2, 3, 4, 5, 6, 10)) -> RatioTable:
    """Ratios upper/lower for each bound and each N, plus the N -> inf column."""
    tables = [linear_bound_table(n) for n in n_values]
    rows = {}
    for row in REDUCTIONS:
        values: list[float | None] = []
        for table in tables:
            lower = table.lower[row.name]
            values.append(None if lower is None else table.upper / lower)
        values.append(ratio_limit(row.ratio))
        rows[row.ratio] = tuple(values)
    return RatioTable(n_values=tuple(n_values), rows=rows)
