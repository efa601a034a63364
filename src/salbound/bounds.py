"""Energy bounds for semirelativistic N-boson systems, by the solver.

Every lower bound is N times the spectral bottom of a reduced one-body
operator sqrt(lam * p^2 + m^2) + (N - 1)/2 * V(r), one per row of the
reduction table ``reductions.REDUCTIONS``; that module also holds the proof
status of the model-operator bound, the natural units and the closed forms
for the massless linear potential.  Here each row is solved numerically, the
model-operator bound is also proved for harmonic pair potentials, and the
upper bound comes from a product Gaussian trial state in relative
coordinates, optimized over its scale: N times the minimum over sigma of the
model operator's expectation in one Gaussian (:func:`gaussian_upper`).  At
m = 0 that minimum is a closed form; at m > 0 it is a grid zoom in log sigma
over ``solver.pair_expectation``, the one-Gaussian case of the solver's
basis, in natural units.  This module runs no quadrature of its own, and
loads numpy and ``solver`` only where it uses them, so a massless bound
solved by ``spectrum.massless_ground_energy`` loads neither.

Every row is solved in its natural units (``reductions.natural_units``): a
dilation maps its reduced operator to a multiple of the canonical operator
sqrt(p^2 + mu^2) + r^k - v'/r, and rows with the same canonical operator
share one solve.  A massless single-term potential c r^k with k > 0
(linear, harmonic, power law) has the canonical operator |p| + r^k for every
row at every N, so it needs one solve in all (the dilation law
E(a|p| + b r^k) = a^(k/(k+1)) b^(1/(k+1)) E_k).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

from .potentials import Harmonic, PairPotential, require_finite
from .reductions import (
    _MODEL,
    REDUCTIONS,
    ConjectureStatus,
    ReducedHamiltonian,
    Reduction,
    SolverConfig,
    _massless_gaussian,
    _power_optimum,
    _table,
    model_status,
    natural_units,
    require_particle_count,
)
from .spectrum import SpectrumResult, massless_pair_expectation

#: Interval of the Gaussian's momentum width sigma searched in natural units.
GAUSSIAN_SCALE_INTERVAL = (0.05, 20.0)

#: Points of each grid of the zoom in log sigma, and the grid spacing at
#: which it stops: 6 grids across ``GAUSSIAN_SCALE_INTERVAL``.
ZOOM_POINTS = 33
ZOOM_SPACING = 1e-6

_PINNED = "Gaussian scale optimum sits at the {end} endpoint of its search interval"


@dataclass(frozen=True)
class ProblemSpec:
    """An N-boson problem: particle count, per-particle mass, pair potential."""

    n: int
    mass: float
    potential: PairPotential

    def __post_init__(self):
        require_finite(self, "mass")
        require_particle_count(self.n)
        if self.mass < 0.0:
            raise ValueError("mass must be nonnegative")


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


def ground_energy(h: ReducedHamiltonian, config: SolverConfig | None = None) -> SpectrumResult:
    """``solver.ground_energy``, the default solve of :func:`compute_bounds`,
    imported on its first call."""
    from .solver import ground_energy

    return ground_energy(h, config)


def _bounds(spec: ProblemSpec, config, solve) -> Callable[[Reduction], BoundResult]:
    """row -> lower bound of ``spec`` from that reduction, by ``solve``.

    Each row's reduced operator sqrt(lam p^2 + m^2) + (N-1)/2 V is energy
    times its canonical operator dilated by a length
    (``reductions.natural_units``); rows with the same canonical operator
    share one solve, read off with their own energy and length.
    """
    gamma = (spec.n - 1) / 2.0
    solved = functools.cache(lambda canonical: solve(canonical, config))

    def bound(row: Reduction) -> BoundResult:
        lam = row.lam(spec.n)
        canonical, energy, length = natural_units(
            ReducedHamiltonian(1.0, lam, gamma, spec.mass, spec.potential)
        )
        spectrum = solved(canonical).dilated(energy, length)
        return BoundResult(
            value=spec.n * spectrum.ground_energy,
            kinetic_factor=lam,
            derivation=row.derivation,
            spectrum=spectrum,
        )

    return bound


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
    import numpy as np

    ends = math.log(lo), math.log(hi)
    a, b = ends
    while True:
        t = np.linspace(a, b, ZOOM_POINTS)
        reach = a == ends[0], b == ends[1]
        x = np.exp(t)
        # exp(log(lo)) need not be lo: a grid that reaches an end holds the end
        x[[0, -1]] = np.where(reach, (lo, hi), x[[0, -1]])
        values = f(x)
        i = int(np.argmin(values))
        if t[1] - t[0] <= ZOOM_SPACING:
            return float(x[i]), float(values[i]), reach[0] and i == 0, reach[1] and i == ZOOM_POINTS - 1
        a, b = t[max(i - 1, 0)], t[min(i + 1, ZOOM_POINTS - 1)]


def gaussian_upper(spec: ProblemSpec) -> UpperBoundResult:
    """Variational upper bound from a product Gaussian in relative coordinates.

    Boson symmetry collapses the expectation to a single relative pair: the
    energy at Gaussian length sigma is N times the expectation of the model
    operator sqrt(lam p^2 + m^2) + (N-1)/2 V (``lam`` of the model-operator
    reduction) in one Gaussian of momentum width 1/sigma, and
    ``optimal_scale`` is the length sigma at its least value.

    At m = 0 the pair moments <|p|> = (2/sqrt(pi))/sigma and
    <r^k> = sigma^k Γ((3+k)/2)/Γ(3/2) make it A/sigma + sum B_k sigma^k, and a
    Coulomb term's <1/r> adds to A: a confining term c r^k has its optimum in
    closed form (the linear one is ``reductions.upper_gaussian_linear``), and
    pure Coulomb, whose A/sigma falls towards 0 at ever larger lengths, is
    taken at the widest Gaussian of ``GAUSSIAN_SCALE_INTERVAL``, with a
    warning (``spectrum.massless_pair_expectation`` in natural units).

    At m > 0 the bound is N times the least one-Gaussian energy of that
    operator in its natural units (``reductions.natural_units``;
    ``solver.pair_expectation`` at a = sigma^2 and c = 1/sigma^2), zoomed in
    on over the momentum widths of ``GAUSSIAN_SCALE_INTERVAL`` by
    :func:`zoom_log_minimum` and scaled back.
    """
    # refuses a collapsing or out-of-range operator
    canonical, energy, length = natural_units(
        ReducedHamiltonian(1.0, _MODEL.lam(spec.n), (spec.n - 1) / 2.0, spec.mass, spec.potential)
    )
    if spec.mass == 0.0:
        kinetic, terms = _massless_gaussian(spec.n, spec.potential.terms())
        kinetic += sum(b for b, k in terms if k == -1.0)
        confining = [(b, k) for b, k in terms if k > 0.0]
        if confining:
            value, sigma = _power_optimum(kinetic, *confining[0])
            return UpperBoundResult(value=value, optimal_scale=sigma, warnings=[])
        # the energy (M_1 - v' M_-1) s falls with the momentum width s
        s = GAUSSIAN_SCALE_INTERVAL[0]
        least = massless_pair_expectation(canonical, s * s, 1.0 / (s * s))
        return UpperBoundResult(spec.n * (energy * least), 1.0 / (s / length), [_PINNED.format(end="lower")])
    from .solver import pair_expectation

    sigma, least, at_lower, at_upper = zoom_log_minimum(
        lambda s: canonical.mass + pair_expectation(canonical, s * s, 1.0 / (s * s)),
        *GAUSSIAN_SCALE_INTERVAL,
    )
    warnings = [
        _PINNED.format(end=end) for end, pinned in (("lower", at_lower), ("upper", at_upper)) if pinned
    ]
    return UpperBoundResult(spec.n * (energy * least), 1.0 / (sigma / length), warnings)


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
    solve: Callable[[ReducedHamiltonian, SolverConfig | None], SpectrumResult] | None = None,
) -> BoundSet:
    """Evaluate every applicable bound and validate the sandwich.

    ``solve`` is the basis solve of the lower bounds, :func:`ground_energy`
    by default; the command line passes ``spectrum.massless_ground_energy``
    for massless problems on small bases.  Reductions with the same canonical
    operator share one solve, and a massless single-term power law needs one
    solve for all of them (see :func:`_bounds`).  The Gaussian upper bound
    must dominate every lower bound; a violation beyond the solver's own
    convergence scale indicates an internal error and raises RuntimeError.
    """
    lower, reasons = _table(spec.n, spec.mass, _bounds(spec, config, solve or ground_energy))
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
