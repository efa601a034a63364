"""Energy bounds for semirelativistic N-boson systems, by the solver.

Every bound here is N times ``energy`` times one canonical number.  Each
row of the reduction table ``reductions.REDUCTIONS`` builds its reduced
operator sqrt(lam * p^2 + m^2) + (N - 1)/2 * V(r) (``Reduction.operator``),
and ``reductions.natural_units`` maps it by a dilation to ``energy`` times
the canonical operator sqrt(p^2 + mu^2) + r^k - v'/r.  The canonical number
of a lower bound is that operator's spectral bottom, solved numerically;
that of the upper bound, from a product Gaussian trial state in relative
coordinates (:func:`gaussian_upper`), is the canonical model operator's
least one-Gaussian energy: a closed form at m = 0 and at m > 0
``solver.zoom_log_minimum``, a grid zoom in log s over momentum widths
s = 1/sigma of ``solver.pair_expectation``.  ``reductions`` also holds the
proof status of the model-operator bound and the closed forms for the
massless linear potential; here the model-operator bound is also proved
wherever V is one harmonic term c r^2.  This module imports no numpy and
runs no quadrature of its own.  It loads ``solver``, and with it numpy,
only for the default solve and the m > 0 upper bound, so a massless bound
solved by ``spectrum.pure_ground_energy`` loads neither.

The distinct canonical operators of one problem are solved in one call, as
one stack on their shared basis.  A massless single-term potential c r^k
with k > 0 (linear, harmonic, power law) has the canonical operator
|p| + r^k for every row at every N, so it needs one solve in all (the
dilation law E(a|p| + b r^k) = a^(k/(k+1)) b^(1/(k+1)) E_k).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from .potentials import PairPotential, require_finite
from .reductions import (
    _MODEL,
    REDUCTIONS,
    ConjectureStatus,
    ReducedHamiltonian,
    Reduction,
    SolverConfig,
    _massless_optimum,
    _table,
    model_status,
    natural_units,
    require_particle_count,
)
from .spectrum import SpectrumResult, pure_pair_expectation

#: Interval of the Gaussian's momentum width s = 1/sigma searched in natural units.
GAUSSIAN_SCALE_INTERVAL = (0.05, 20.0)

_PINNED = "Gaussian scale optimum sits at the {end} endpoint of its search interval"


@dataclass(frozen=True)
class ProblemSpec:
    """An N-boson problem: particle count, per-particle mass, pair potential."""

    n: int
    mass: float
    potential: PairPotential

    def __post_init__(self):
        require_finite(mass=self.mass)
        require_particle_count(self.n)
        if self.mass < 0.0:
            raise ValueError("mass must be nonnegative")


def conjecture_status(spec: ProblemSpec) -> ConjectureStatus:
    """Proof status of the model-operator lower bound for this problem: also
    proved wherever V is one harmonic term c r^2, however it is spelled."""
    status = model_status(spec.n, spec.mass)
    if not status.proven and [k for _, k in spec.potential.terms()] == [2.0]:
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


def ground_energy(canonicals: tuple[ReducedHamiltonian, ...],
                  config: SolverConfig | None = None) -> tuple[SpectrumResult, ...]:
    """``solver._canonical_ground_energies``, the default solve of
    :func:`compute_bounds`, imported on its first call."""
    from .solver import _canonical_ground_energies

    return _canonical_ground_energies(canonicals, config)


def _bounds(spec: ProblemSpec, config, solve):
    """(lower bounds by reduction name, reasons for the absent ones) of
    ``spec``, by ``solve``.

    Each applicable row's reduced operator sqrt(lam p^2 + m^2) + (N-1)/2 V
    (``Reduction.operator``) is energy times its canonical operator dilated
    by a length (``reductions.natural_units``), its one mapping.  The
    distinct canonical operators, in row order, go to ``solve`` in one call,
    and each row scales its operator's spectrum back once with its own
    energy and length.
    """

    solves = {}  # distinct canonical operator -> its place in the one call

    def mapped(row: Reduction):
        h = row.operator(spec.n, spec.mass, spec.potential)
        canonical, energy, length = natural_units(h)
        return row, h, solves.setdefault(canonical, len(solves)), energy, length

    rows, reasons = _table(spec.n, spec.mass, mapped)
    spectra = solve(tuple(solves), config)

    def bound(row: Reduction, h: ReducedHamiltonian, solved: int, energy: float, length: float) -> BoundResult:
        spectrum = spectra[solved].dilated(energy, length)
        return BoundResult(spec.n * spectrum.ground_energy, h.lam, row.derivation, spectrum)

    return {name: None if m is None else bound(*m) for name, m in rows.items()}, reasons


def gaussian_upper(spec: ProblemSpec) -> UpperBoundResult:
    """Variational upper bound from a product Gaussian in relative coordinates.

    Boson symmetry collapses the expectation to a single relative pair: the
    energy at Gaussian length sigma is N times the expectation of the model
    operator sqrt(lam p^2 + m^2) + (N-1)/2 V (``lam`` of the model-operator
    reduction) in one Gaussian of length sigma, and ``optimal_scale`` is the
    sigma of its least value.  By the dilation of ``reductions.natural_units``
    that is N times ``energy`` times the least one-Gaussian energy of the
    canonical operator sqrt(p^2 + mu^2) + r^k - v'/r, at sigma ``length``
    times the canonical one:

    - at m = 0 with a confining term, the closed form
      (M_1 - v' M_-1)/sigma + M_k sigma^k of ``reductions._massless_optimum``
      (its k = 1 case is ``reductions.upper_gaussian_linear``);
    - at m = 0 with no confining term (pure Coulomb), whose
      (M_1 - v' M_-1)/sigma falls towards 0 at ever larger lengths, the
      widest Gaussian of ``GAUSSIAN_SCALE_INTERVAL``, with a warning
      (``spectrum.pure_pair_expectation``);
    - at m > 0, mu plus the least of ``solver.pair_expectation`` at
      a = s^2 and c = 1/s^2 over the momentum widths s = 1/sigma of
      ``GAUSSIAN_SCALE_INTERVAL``, zoomed in on by ``solver.zoom_log_minimum``
      on ``solver._zoom_objective``, its bits from one set of node weights.
      The zoom leaves mu out: at mu near 1e9 the grid's differences fall
      below one ulp of mu.
    """
    # refuses a collapsing or out-of-range operator
    canonical, energy, length = natural_units(_MODEL.operator(spec.n, spec.mass, spec.potential))
    pinned = (False, False)
    if spec.mass > 0.0:
        from .solver import _zoom_objective, zoom_log_minimum

        lo, hi = GAUSSIAN_SCALE_INTERVAL
        s, least, *pinned = zoom_log_minimum(_zoom_objective(canonical, lo, hi), lo, hi)
        least, sigma = canonical.mass + least, 1.0 / s
    elif not any(k > 0.0 for _, k in canonical.potential.terms()):
        s = GAUSSIAN_SCALE_INTERVAL[0]
        least, sigma = pure_pair_expectation(canonical, s * s, 1.0 / (s * s)), 1.0 / s
        pinned = (True, False)
    else:
        least, sigma = _massless_optimum(canonical)
    warnings = [_PINNED.format(end=end) for end, at in zip(("lower", "upper"), pinned) if at]
    return UpperBoundResult(spec.n * (energy * least), length * sigma, warnings)


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


def compute_bounds(
    spec: ProblemSpec,
    config: SolverConfig | None = None,
    solve: Callable[[tuple[ReducedHamiltonian, ...], SolverConfig | None], Sequence[SpectrumResult]] | None = None,
) -> BoundSet:
    """Evaluate every applicable bound and validate the sandwich.

    ``solve`` maps a problem's distinct canonical operators of
    ``reductions.natural_units``, as one tuple, to their spectra in natural
    units, which each row scales back once: :func:`ground_energy` by
    default, one stacked solve, or the command line's kernel choice
    ``cli.ground_energy``.  Rows with the same canonical operator share one
    solve, and a massless single-term power law needs one solve for all of
    them (see :func:`_bounds`).  The Gaussian upper bound
    must dominate every lower bound; a violation beyond the solver's own
    convergence scale indicates an internal error and raises RuntimeError.
    """
    lower, reasons = _bounds(spec, config, solve or ground_energy)
    upper = gaussian_upper(spec)

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
