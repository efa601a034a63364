"""Energy bounds for semirelativistic N-boson systems, by the solver.

Every bound here is N times ``energy`` times one canonical number.  Each
row of the reduction table ``reductions.REDUCTIONS`` builds its reduced
operator sqrt(lam * p^2 + m^2) + (N - 1)/2 * V(r) (``Reduction.operator``),
and ``reductions.natural_units`` maps it by a dilation to ``energy`` times
the canonical operator sqrt(p^2 + mu^2) + r^k - v'/r.  The canonical number
of a lower bound is that operator's spectral bottom, solved numerically;
that of the upper bound, from a product Gaussian trial state in relative
coordinates (:func:`gaussian_upper`), is the canonical model operator's
least one-Gaussian energy: a closed form at m = 0 and a grid zoom in log
sigma over ``solver.pair_expectation`` at m > 0, which reuses its first
grid's node weights on every later grid.  ``reductions`` also holds
the proof status of the model-operator bound and the closed forms for the
massless linear potential; here the model-operator bound is also proved for
harmonic pair potentials.  This module runs no quadrature of its own, and
loads numpy and ``solver`` only where it uses them, so a massless bound
solved by ``spectrum.pure_ground_energy`` loads neither.

Rows with the same canonical operator share one solve.  A massless
single-term potential c r^k with k > 0 (linear, harmonic, power law) has
the canonical operator |p| + r^k for every row at every N, so it needs one
solve in all (the dilation law E(a|p| + b r^k) = a^(k/(k+1)) b^(1/(k+1)) E_k).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

from .potentials import Coulomb, Harmonic, PairPotential, require_finite
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

    Each row's reduced operator sqrt(lam p^2 + m^2) + (N-1)/2 V
    (``Reduction.operator``) is energy times its canonical operator dilated
    by a length
    (``reductions.natural_units``); rows with the same canonical operator
    share one solve, read off with their own energy and length.
    """
    solved = functools.cache(lambda canonical: solve(canonical, config))

    def bound(row: Reduction) -> BoundResult:
        h = row.operator(spec.n, spec.mass, spec.potential)
        canonical, energy, length = natural_units(h)
        spectrum = solved(canonical).dilated(energy, length)
        return BoundResult(
            value=spec.n * spectrum.ground_energy,
            kinetic_factor=h.lam,
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
    - for massless pure Coulomb, whose (M_1 - v' M_-1)/sigma falls towards 0
      at ever larger lengths, the widest Gaussian of
      ``GAUSSIAN_SCALE_INTERVAL``, with a warning
      (``spectrum.pure_pair_expectation``);
    - at m > 0, mu plus the least of ``solver.pair_expectation`` at
      a = s^2 and c = 1/s^2 over the momentum widths s = 1/sigma of
      ``GAUSSIAN_SCALE_INTERVAL``, zoomed in on by :func:`zoom_log_minimum`.
      The zoom leaves mu out: at mu near 1e9 the grid's differences fall
      below one ulp of mu.  Its objective, ``solver._zoom_objective``,
      gives ``pair_expectation`` bit for bit, but computes the mass-dependent
      node weights once, on the first grid's window, and reads a slice of
      them on every later grid, which lies inside the first; the first
      grid, the same for every problem, has its table of exponentials
      cached.
    """
    # refuses a collapsing or out-of-range operator
    canonical, energy, length = natural_units(_MODEL.operator(spec.n, spec.mass, spec.potential))
    pinned = (False, False)
    if spec.mass > 0.0:
        from .solver import _zoom_objective

        s, least, at_lower, at_upper = zoom_log_minimum(_zoom_objective(canonical), *GAUSSIAN_SCALE_INTERVAL)
        least, sigma, pinned = canonical.mass + least, 1.0 / s, (at_lower, at_upper)
    elif isinstance(canonical.potential, Coulomb):
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
    solve: Callable[[ReducedHamiltonian, SolverConfig | None], SpectrumResult] | None = None,
) -> BoundSet:
    """Evaluate every applicable bound and validate the sandwich.

    ``solve`` is the basis solve of the lower bounds, :func:`ground_energy`
    by default; the command line passes its one kernel choice,
    ``cli.ground_energy``, which runs ``spectrum.pure_ground_energy`` for
    massless problems on small bases.  Reductions with the same canonical
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
