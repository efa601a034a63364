import math

import numpy as np
import pytest
from scipy import integrate

import salbound.bounds
from salbound.bounds import (
    ProblemSpec,
    compute_bounds,
    conjecture_status,
    gaussian_upper,
    zoom_log_minimum,
)
from salbound.potentials import (
    Coulomb,
    CoulombPlusLinear,
    Harmonic,
    Linear,
    PowerLaw,
    parse_potential,
)
from salbound.reductions import (
    COULOMB_CRITICAL_COUPLING,
    LINEAR_GROUND_ENERGY,
    REDUCTIONS,
    ReducedHamiltonian,
    SolverConfig,
    linear_bound_table,
    natural_units,
    ratio_table,
    upper_gaussian_linear,
)
from salbound.solver import ground_energy, pair_expectation

from golden_reference import (
    potential_value,
    reference_ground_energy,
    reference_minimize_log_golden,
)

E = LINEAR_GROUND_ENERGY


def linear_spec(n, mass=0.0):
    return ProblemSpec(n, mass, Linear(1.0))


def closed_form(name, n):
    return linear_bound_table(n).lower[name]


# --- closed forms --------------------------------------------------------------


def test_linear_closed_forms_against_independent_arithmetic():
    assert closed_form("n2", 2) == pytest.approx(math.sqrt(2.0) * E, rel=1e-14)
    assert closed_form("n2", 3) == pytest.approx(3.0 * E, rel=1e-14)
    assert closed_form("n2", 10) == pytest.approx(10.0 * math.sqrt(4.5) * E, rel=1e-14)
    assert closed_form("n3", 3) == pytest.approx(7.195965005449532, rel=1e-12)
    assert closed_form("n3", 4) == pytest.approx(11.750961646850216, rel=1e-12)
    assert closed_form("n4", 4) == pytest.approx(12.102122354747374, rel=1e-12)
    assert closed_form("n4", 10) == pytest.approx(52.40372699459388, rel=1e-12)
    assert closed_form("conjectured", 2) == pytest.approx(math.sqrt(2.0) * E, rel=1e-14)
    assert closed_form("conjectured", 10) == pytest.approx(54.84758210765261, rel=1e-12)
    assert upper_gaussian_linear(2) == pytest.approx(8.0 / math.sqrt(2.0 * math.pi), rel=1e-14)
    assert upper_gaussian_linear(3) == pytest.approx(7.27513394794158, rel=1e-12)


def test_closed_forms_match_per_row_formulas():
    # each reduction's own closed form, as written before the shared
    # N sqrt(sqrt(lam) (N-1)/2) e replaced them
    reference = {
        "n2": lambda n: n * math.sqrt((n - 1) / 2.0) * E,
        "n3": lambda n: n * math.sqrt((n - 1) / math.sqrt(3.0)) * E,
        "n4": lambda n: n * (3.0 * (n - 1) ** 2 / 8.0) ** 0.25 * E,
        "conjectured": lambda n: n * ((n - 1) ** 3 / (2.0 * n)) ** 0.25 * E,
    }
    worst = 0.0
    for n in range(2, 10001):
        table = linear_bound_table(n)
        for name, formula in reference.items():
            if table.lower[name] is not None:
                worst = max(worst, abs(table.lower[name] / formula(n) - 1.0))
    assert worst <= 1e-15


def test_conjectured_equals_four_body_form_at_n4():
    assert closed_form("conjectured", 4) == pytest.approx(closed_form("n4", 4), rel=1e-14)


def test_linear_bound_table_thresholds():
    t2 = linear_bound_table(2)
    assert t2.lower["n3"] is None and t2.lower["n4"] is None
    assert t2.lower["n2"] == pytest.approx(3.1568, abs=1e-4)
    assert t2.upper == pytest.approx(3.19154, abs=1e-5)
    t3 = linear_bound_table(3)
    assert t3.lower["n3"] is not None and t3.lower["n4"] is None
    t4 = linear_bound_table(4)
    assert t4.lower["n4"] == pytest.approx(t4.lower["conjectured"], rel=1e-14)
    with pytest.raises(ValueError):
        linear_bound_table(1)


# --- solver-path bounds ---------------------------------------------------------


def test_lower_n2_examples():
    assert compute_bounds(linear_spec(2)).n2.value == pytest.approx(math.sqrt(2.0) * E, abs=2e-3)
    assert compute_bounds(linear_spec(3)).n2.value == pytest.approx(3.0 * E, abs=4e-3)
    value = compute_bounds(linear_spec(10)).n2.value
    assert value == pytest.approx(closed_form("n2", 10), rel=2e-3)


def test_lower_n3_examples_and_threshold():
    three = compute_bounds(linear_spec(3))
    assert three.n3.value == pytest.approx(closed_form("n3", 3), rel=2e-3)
    assert compute_bounds(linear_spec(4)).n3.value == pytest.approx(closed_form("n3", 4), rel=2e-3)
    assert three.n3.value > three.n2.value
    two = compute_bounds(linear_spec(2))
    assert two.n3 is None and two.reasons["n3"] == "requires n >= 3"


def test_lower_n4_examples_and_preconditions():
    assert compute_bounds(linear_spec(4)).n4.value == pytest.approx(closed_form("n4", 4), rel=2e-3)
    value = compute_bounds(linear_spec(10)).n4.value
    assert value == pytest.approx(closed_form("n4", 10), rel=2e-3)
    massive = compute_bounds(linear_spec(4, mass=1.0))
    assert massive.n4 is None and massive.reasons["n4"] == "requires m=0"
    three = compute_bounds(linear_spec(3))
    assert three.n4 is None and three.reasons["n4"] == "requires n >= 4"


def test_conjectured_lower_examples():
    value = compute_bounds(linear_spec(2)).conjectured
    status = conjecture_status(linear_spec(2))
    assert value.value == pytest.approx(math.sqrt(2.0) * E, abs=2e-3)
    assert status.proven
    four = compute_bounds(linear_spec(4))
    status4 = conjecture_status(linear_spec(4))
    assert four.conjectured.value == pytest.approx(four.n4.value, rel=1e-6)
    assert status4.proven
    value10 = compute_bounds(linear_spec(10)).conjectured
    status10 = conjecture_status(linear_spec(10))
    assert value10.value == pytest.approx(closed_form("conjectured", 10), rel=2e-3)
    assert not status10.proven


def test_conjecture_status_rules():
    assert conjecture_status(ProblemSpec(2, 7.0, Coulomb(0.2))).proven
    assert conjecture_status(ProblemSpec(3, 5.0, Linear(1.0))).proven
    assert conjecture_status(ProblemSpec(4, 0.0, Linear(1.0))).proven
    assert not conjecture_status(ProblemSpec(4, 1.0, Linear(1.0))).proven
    assert not conjecture_status(ProblemSpec(10, 0.0, Linear(1.0))).proven
    assert conjecture_status(ProblemSpec(10, 3.0, Harmonic(1.0))).proven
    assert conjecture_status(ProblemSpec(5, 0.0, Linear(1.0))).label == "conjectured"


def test_two_body_exactness_across_potentials():
    # the pairwise and model reductions both reproduce the two-body operator
    # 2 sqrt(p^2/4... i.e. 2 sqrt(p^2 + m^2) + V at N = 2
    for potential in (Linear(1.0), Harmonic(0.5), CoulombPlusLinear(0.3, 1.0)):
        for mass in (0.0, 1.0):
            spec = ProblemSpec(2, mass, potential)
            two_body = 2.0 * ground_energy(
                ReducedHamiltonian(1.0, 1.0, 0.5, mass, potential)
            ).ground_energy
            direct = ground_energy(
                ReducedHamiltonian(2.0, 1.0, 1.0, mass, potential)
            ).ground_energy
            bounds = compute_bounds(spec)
            assert bounds.n2.value == pytest.approx(two_body, rel=1e-10)
            assert bounds.conjectured.value == pytest.approx(two_body, rel=1e-10)
            assert direct == pytest.approx(two_body, rel=1e-9)


# --- Gaussian upper bound -------------------------------------------------------


def test_gaussian_upper_two_body_value():
    result = gaussian_upper(linear_spec(2))
    assert result.value == pytest.approx(3.19154, abs=1e-4)
    assert result.warnings == []


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_gaussian_upper_matches_closed_form(n):
    result = gaussian_upper(linear_spec(n))
    assert result.value == pytest.approx(upper_gaussian_linear(n), rel=1e-7)


def test_upper_gaussian_linear_is_the_k1_closed_form():
    worst = max(
        abs(upper_gaussian_linear(n) / (4.0 * n * ((n - 1) ** 3 / (2.0 * n * math.pi**2)) ** 0.25) - 1.0)
        for n in range(2, 10001)
    )
    assert worst <= 1e-15


def gaussian_energy_oracle(spec, sigma):
    """The Gaussian bound at scale sigma by adaptive quadrature over the pair
    density (4/sqrt(pi)) y^2 e^(-y^2), with kinetic moment
    sqrt(lam y^2/sigma^2 + m^2)."""

    def moment(g):
        value, _ = integrate.quad(lambda y: g(y) * y * y * math.exp(-y * y), 0.0, np.inf,
                                  epsabs=0.0, epsrel=1e-13)
        return (4.0 / math.sqrt(math.pi)) * value

    lam = 2.0 * (spec.n - 1) / spec.n
    kinetic = spec.n * moment(lambda y: math.sqrt(lam * (y / sigma) ** 2 + spec.mass**2))
    pairs = spec.n * (spec.n - 1) // 2
    return kinetic + pairs * moment(lambda y: float(potential_value(spec.potential, sigma * y)))


def check_against_oracle(spec):
    result = gaussian_upper(spec)
    assert result.warnings == []
    assert result.value == pytest.approx(gaussian_energy_oracle(spec, result.optimal_scale), rel=1e-12)
    for step in (0.99, 1.01):
        assert gaussian_energy_oracle(spec, step * result.optimal_scale) > result.value


@pytest.mark.parametrize(
    "n, potential",
    [
        (2, Linear(1.0)),
        (7, Harmonic(0.4)),
        (1000, Linear(2.0)),
        (10, PowerLaw(1.1, 0.5)),
        (10, PowerLaw(0.3, 3.0)),
        (4, CoulombPlusLinear(0.3, 1.0)),
        (1000, CoulombPlusLinear(0.001, 2.0)),
    ],
)
def test_massless_gaussian_upper_against_quadrature(n, potential):
    check_against_oracle(ProblemSpec(n, 0.0, potential))


@pytest.mark.parametrize(
    "n, mass, potential",
    [
        (3, 1.0, Linear(1.0)),
        (1000, 0.5, Harmonic(0.8)),
        (10, 2.0, PowerLaw(1.1, 0.5)),
        (5, 0.7, CoulombPlusLinear(0.1, 1.2)),
        (5, 0.5015, Coulomb(0.0813)),
    ],
)
def test_massive_gaussian_upper_against_quadrature(n, mass, potential):
    check_against_oracle(ProblemSpec(n, mass, potential))


def test_massless_gaussian_upper_is_not_pinned_at_large_n():
    # the optimal scale 0.0376 lies below the default scale interval (0.05, 20)
    result = gaussian_upper(ProblemSpec(1000, 0.0, Linear(2.0)))
    assert result.value == pytest.approx(math.sqrt(2.0) * upper_gaussian_linear(1000), rel=1e-12)
    assert result.value == pytest.approx(84804.1, abs=0.05)
    assert result.optimal_scale < 0.05
    assert result.warnings == []


def test_massless_coulomb_plus_linear_gaussian_upper_at_large_n():
    # the optimal scale 0.0302 lies below the interval (0.05, 20); searched
    # there, the bound was 76989.45
    result = gaussian_upper(ProblemSpec(1000, 0.0, CoulombPlusLinear(0.001, 2.0)))
    assert result.value == pytest.approx(68193.407, abs=1e-3)
    assert result.optimal_scale < 0.05
    assert result.warnings == []


def test_massless_coulomb_gaussian_upper_pins_at_the_widest_gaussian():
    # the energy (A - B)/sigma is scale-free: it is taken at the lower end of
    # the momentum-width interval, the Gaussian length 20 in natural units
    # (1 for massless Coulomb)
    result = gaussian_upper(ProblemSpec(4, 0.0, Coulomb(0.1)))
    assert result.warnings == ["Gaussian scale optimum sits at the lower endpoint of its search interval"]
    assert result.optimal_scale == 20.0
    moment = 2.0 / math.sqrt(math.pi)  # <|p|> sigma = <1/r> sigma
    assert result.value == pytest.approx((4.0 * math.sqrt(1.5) - 6.0 * 0.1) * moment / 20.0, rel=1e-13)


@pytest.mark.parametrize("mass", [1e5, 1e7, 1e9])
def test_heavy_mass_gaussian_upper_reports_its_pin(mass):
    # the optimum lies beyond the widest momentum width; at m = 1e9 a zoom
    # on mu plus the pair expectation lost the grid's differences below one
    # ulp of mu and stopped just inside the end, unflagged
    result = gaussian_upper(ProblemSpec(3, mass, Linear(1.0)))
    assert result.warnings == ["Gaussian scale optimum sits at the upper endpoint of its search interval"]


def zoomed_upper(spec):
    """N times the grid zoom of the model operator's one-Gaussian energy in
    natural units over the whole interval, scaled back: (value, scale, pinned ends)."""
    model = ReducedHamiltonian(1.0, 2.0 * (spec.n - 1) / spec.n, (spec.n - 1) / 2.0, spec.mass, spec.potential)
    canonical, energy, length = natural_units(model)
    sigma, least, at_lower, at_upper = zoom_log_minimum(
        lambda s: canonical.mass + pair_expectation(canonical, s * s, 1.0 / (s * s)), 0.05, 20.0
    )
    return spec.n * (energy * least), 1.0 / (sigma / length), (at_lower, at_upper)


@pytest.mark.parametrize("seed", range(3))
def test_massless_coulomb_uppers_are_the_zoom_in_closed_form(seed):
    # a Coulomb term folds into the kinetic 1/sigma term: over 300 random
    # problems the closed form is within 4.1e-15 of the zoom's least value,
    # and above it only by roundoff, at most 4.2e-16 relative; pure Coulomb,
    # taken at the interval's end, is the zoom's value bit for bit
    rng = np.random.default_rng(seed)
    for _ in range(100):
        n = int(rng.integers(2, 1000)) if rng.random() < 0.3 else int(rng.integers(2, 11))
        v = rng.uniform(0.01, 0.99) * (2.0 / math.pi) * 2.0 / (n - 1)
        spec = ProblemSpec(n, 0.0, CoulombPlusLinear(v, rng.uniform(0.1, 3.0)))
        result = gaussian_upper(spec)
        value, scale, pinned = zoomed_upper(spec)
        assert pinned == (False, False) and result.warnings == []
        assert result.value == pytest.approx(value, rel=5e-15)
        assert result.value <= value * (1.0 + 1e-15)
        assert result.optimal_scale == pytest.approx(scale, rel=1e-6)
        spec = ProblemSpec(n, 0.0, Coulomb(v))
        result = gaussian_upper(spec)
        value, scale, pinned = zoomed_upper(spec)
        assert pinned == (True, False)
        assert (result.value, result.optimal_scale) == (value, scale)


def test_gaussian_upper_dominates_two_body_energy_with_mass():
    spec = ProblemSpec(2, 1.0, Linear(1.0))
    upper = gaussian_upper(spec).value
    exact = 2.0 * ground_energy(ReducedHamiltonian(1.0, 1.0, 0.5, 1.0, Linear(1.0))).ground_energy
    assert upper >= exact


@pytest.mark.parametrize(
    "spec",
    [
        ProblemSpec(3, 1.0, Linear(1.0)),
        ProblemSpec(5, 0.7, CoulombPlusLinear(0.1, 1.2)),
        ProblemSpec(4, 0.5, Coulomb(0.2)),
    ],
    ids=["linear", "coulomb+linear", "coulomb"],
)
def test_massive_gaussian_upper_is_the_scale_search_at_basis_size_1(spec):
    # the zoom of zoomed_upper, scaled back bit for bit
    value, scale, pinned = zoomed_upper(spec)
    result = gaussian_upper(spec)
    assert (result.value, result.optimal_scale) == (value, scale)
    assert pinned == (False, False) and result.warnings == []


def zoom_grids(objective):
    """Every grid of momentum widths that the upper bound's zoom hands to
    ``objective``, in turn, with the objective's values on it."""
    grids = []
    zoom_log_minimum(lambda s: grids.append((s.copy(), objective(s))) or grids[-1][1], 0.05, 20.0)
    return grids


@pytest.mark.parametrize("mu", [1e-3, 1.0, 1e5])
@pytest.mark.parametrize(
    "potential",
    [
        PowerLaw(1.0, 1.0),
        PowerLaw(1.0, 2.0),
        PowerLaw(1.0, 0.5),
        PowerLaw(1.0, 2.5),
        Coulomb(0.3),
        CoulombPlusLinear(0.3, 1.0),
    ],
    ids=["linear", "harmonic", "power-0.5", "power-2.5", "coulomb", "coulomb+linear"],
)
def test_zoom_objective_is_the_pair_expectation_on_every_grid(potential, mu):
    # the objective reuses its first grid's weights and a shared table of
    # exponentials, and still gives pair_expectation bit for bit
    from salbound import solver

    canonical = ReducedHamiltonian(1.0, 1.0, 1.0, mu, potential)
    objective = solver._zoom_objective(canonical)
    grids = zoom_grids(objective)
    # 6 grids, 5 where the zoom closes in on an end; all but the first read
    # slices of the first grid's weights
    assert len(grids) >= 5
    for s, values in grids:
        assert np.array_equal(values, pair_expectation(canonical, s * s, 1.0 / (s * s)))
    # a later grid beyond the first one's window is computed afresh
    s = np.geomspace(0.01, 100.0, 33)
    assert np.array_equal(objective(s), pair_expectation(canonical, s * s, 1.0 / (s * s)))


def test_first_zoom_grid_table_is_built_once_and_read_only():
    from salbound import quadrature, solver

    solver._first_exponentials.cache_clear()
    gaussian_upper(ProblemSpec(4, 0.7, Linear(1.0)))
    gaussian_upper(ProblemSpec(3, 2.0, CoulombPlusLinear(0.1, 1.5)))
    assert solver._first_exponentials.cache_info()[:2] == (1, 1)  # (hits, misses)
    # the first grid, the same in every zoom
    (s, _), *_ = zoom_grids(lambda s: s)
    c = 1.0 / (s * s)
    table = solver._first_exponentials(s.tobytes(), *quadrature.window(c.min(), c.max()))
    assert solver._first_exponentials.cache_info().misses == 1
    with pytest.raises(ValueError):
        table[0, 0] = 0.0


def test_real_zooms_never_leave_the_first_grid_window(monkeypatch):
    # every later grid of a zoom reads a slice of the first grid's weights;
    # the fallback to pair_expectation, for a grid beyond the first window,
    # costs a zoom 7-11%, so no real zoom may take it: the five shapes,
    # Coulomb at half its critical effective coupling, n from 2 to 1000
    # and m from 1e-6 to 1e9
    from salbound import solver

    calls, zooms = [], []
    monkeypatch.setattr(solver, "pair_expectation", lambda *args: calls.append(args) or pair_expectation(*args))
    objective = solver._zoom_objective
    monkeypatch.setattr(solver, "_zoom_objective", lambda canonical: zooms.append(1) or objective(canonical))
    for n in (2, 3, 5, 10, 100, 1000):
        # v with (n-1)/2 v / sqrt(lam) = 1/pi for the model operator's lam
        v = COULOMB_CRITICAL_COUPLING * math.sqrt(2.0 * (n - 1) / n) / (n - 1)
        shapes = [Linear(1.0), Harmonic(1.0), PowerLaw(1.0, 0.5), PowerLaw(1.0, 2.5), Coulomb(v),
                  CoulombPlusLinear(v, 1.0)]
        for mass in (1e-6, 1e-3, 1.0, 1e3, 1e6, 1e9):
            for potential in shapes:
                gaussian_upper(ProblemSpec(n, mass, potential))
    assert len(zooms) == 216
    assert calls == []


# --- scale search against a reference golden section ----------------------------


@pytest.mark.parametrize("basis_size", [24, 40])
@pytest.mark.parametrize("n", [2, 4, 10])
@pytest.mark.parametrize("mass", [0.0, 0.7])
@pytest.mark.parametrize(
    "potential",
    ["linear:1.3", "coulomb:0.1", "harmonic:0.8", "power:1.1,1.5", "coulomb+linear:0.1,1.2"],
)
def test_bounds_match_reference_golden_search(potential, mass, n, basis_size):
    # the upper bound against plain golden section to 1e-9 in log sigma on
    # the same one-Gaussian energy of the model operator in natural units;
    # a pinned optimum is read at the end itself, as the zoom reports it.
    # The zoom stops at a spacing of 1e-6, which leaves about 1e-12 of the
    # energy where the objective is curved at order 1 in log sigma.
    spec = ProblemSpec(n, mass, parse_potential(potential))
    got = compute_bounds(spec, SolverConfig(basis_size=basis_size))
    model = ReducedHamiltonian(1.0, 2.0 * (n - 1) / n, (n - 1) / 2.0, mass, spec.potential)
    canonical, energy, length = natural_units(model)

    def f(sigma):
        a = np.array([sigma * sigma])
        return canonical.mass + float(pair_expectation(canonical, a, 1.0 / a)[0])

    want = reference_minimize_log_golden(f, 0.05, 20.0, 1e-9)
    least = f(0.05) if want.at_lower else f(20.0) if want.at_upper else want.fx
    assert got.upper.value == pytest.approx(n * (energy * least), rel=1e-11)
    pinned = [end for end, flag in (("lower", want.at_lower), ("upper", want.at_upper)) if flag]
    assert got.upper.warnings == [
        f"Gaussian scale optimum sits at the {end} endpoint of its search interval" for end in pinned
    ]


# --- bound sets -----------------------------------------------------------------


def test_compute_bounds_reasons_and_ordering():
    bounds = compute_bounds(linear_spec(5), SolverConfig(basis_size=24))
    assert "n4" not in bounds.reasons
    assert bounds.n4 is not None
    assert bounds.n2.value <= bounds.n3.value <= bounds.n4.value <= bounds.conjectured.value
    assert bounds.upper.value >= bounds.conjectured.value

    bounds2 = compute_bounds(ProblemSpec(5, 1.0, Linear(1.0)), SolverConfig(basis_size=24))
    assert bounds2.n4 is None
    assert bounds2.reasons["n4"] == "requires m=0"

    bounds3 = compute_bounds(linear_spec(2), SolverConfig(basis_size=24))
    assert bounds3.n3 is None and bounds3.n4 is None
    assert bounds3.reasons["n3"] == "requires n >= 3"
    assert bounds3.reasons["n4"] == "requires n >= 4"


def count_solves(monkeypatch, spec, solves):
    """compute_bounds(spec) after checking that its default solve gets all of
    the problem's distinct canonical operators, ``solves`` of them, in one
    call, and that every row equals N times an unshared solve of its own
    reduced operator.  Returns those operators and the bounds."""
    calls = []
    default = salbound.bounds.ground_energy

    def counting(canonicals, config=None):
        calls.append(canonicals)
        return default(canonicals, config)

    monkeypatch.setattr(salbound.bounds, "ground_energy", counting)
    cfg = SolverConfig(basis_size=16)
    bounds = compute_bounds(spec, cfg)
    assert len(calls) == 1
    (canonicals,) = calls
    assert len(canonicals) == solves
    assert len(set(canonicals)) == solves
    gamma = (spec.n - 1) / 2.0
    for row in REDUCTIONS:
        result = bounds.lower_results()[row.name]
        if result is not None:
            reduced = ReducedHamiltonian(1.0, row.lam(spec.n), gamma, spec.mass, spec.potential)
            assert result.value == spec.n * ground_energy(reduced, cfg).ground_energy, row.name
    return canonicals, bounds


@pytest.mark.parametrize(
    "n, mass, solves", [(2, 0.0, 1), (3, 0.0, 1), (4, 0.0, 1), (4, 1.0, 3), (5, 0.0, 1)]
)
def test_compute_bounds_solves_each_kinetic_factor_once(monkeypatch, n, mass, solves):
    _, bounds = count_solves(monkeypatch, linear_spec(n, mass), solves)
    if n == 3:
        assert bounds.n3.value == bounds.conjectured.value
    if n == 4 and mass == 0.0:
        assert bounds.n4.value == bounds.conjectured.value


@pytest.mark.parametrize(
    "potential, n, solves", [("coulomb+linear:0.3,1", 4, 3), ("power:1,1.5", 10**4, 1)]
)
def test_compute_bounds_solve_count_by_shape(monkeypatch, potential, n, solves):
    count_solves(monkeypatch, ProblemSpec(n, 0.0, parse_potential(potential)), solves)


@pytest.mark.parametrize(
    "potential, n, mass, solves",
    [
        ("linear:1", 2, 1.0, 1),
        ("harmonic:0.8", 3, 0.5, 2),
        ("coulomb:0.1", 3, 1.0, 2),
        ("power:1.1,0.5", 4, 2.0, 3),
        ("coulomb+linear:0.1,1.2", 10, 2.0, 3),
        ("linear:1.3", 10**4, 1.0, 3),
    ],
)
def test_massive_solve_count_is_one_per_distinct_mu(monkeypatch, potential, n, mass, solves):
    # at m > 0 each row's canonical operator has its own mu = m s/sqrt(lam);
    # rows with equal lam share it and its solve
    canonicals, _ = count_solves(monkeypatch, ProblemSpec(n, mass, parse_potential(potential)), solves)
    assert len({h.mass for h in canonicals}) == solves


def count_mappings(monkeypatch) -> dict:
    """Counts of natural_units calls, under every name the package binds it
    to, and of SpectrumResult.dilated calls, from here on."""
    import sys

    from salbound import reductions
    from salbound.spectrum import SpectrumResult

    counts = {"natural_units": 0, "dilated": 0}
    mapping, dilated = reductions.natural_units, SpectrumResult.dilated

    def counted(name, function):
        def wrapper(*args):
            counts[name] += 1
            return function(*args)
        return wrapper

    for name, module in list(sys.modules.items()):
        if name.startswith("salbound") and getattr(module, "natural_units", None) is mapping:
            monkeypatch.setattr(module, "natural_units", counted("natural_units", mapping))
    monkeypatch.setattr(SpectrumResult, "dilated", counted("dilated", dilated))
    return counts


@pytest.mark.parametrize(
    "potential, n, mass, rows",
    [("linear:1", 2, 0.0, 2), ("linear:1", 5, 0.0, 4), ("coulomb+linear:0.3,1", 4, 0.0, 4),
     ("harmonic:0.8", 4, 0.5, 3), ("coulomb:0.1", 3, 1.0, 3)],
)
@pytest.mark.parametrize("kernel", ["default", "cli", "any-operator"])
def test_compute_bounds_maps_each_operator_once(monkeypatch, potential, n, mass, rows, kernel):
    # one natural_units per applicable row and one for the upper bound, and
    # each row's spectrum is scaled back once, on every kernel; the
    # any-operator solver.ground_energy maps again, but its values are the same
    from salbound import cli

    spec, cfg = ProblemSpec(n, mass, parse_potential(potential)), SolverConfig(basis_size=16)
    any_operator = lambda canonicals, config: tuple(ground_energy(h, config) for h in canonicals)
    solve = {"default": None, "cli": cli.ground_energy, "any-operator": any_operator}[kernel]
    expected = compute_bounds(spec, cfg).lower_values()
    solves = len({natural_units(row.operator(n, mass, spec.potential))[0] for row in REDUCTIONS
                  if row.missing(n, mass) is None})
    counts = count_mappings(monkeypatch)
    bounds = compute_bounds(spec, cfg, solve)
    extra = solves if kernel == "any-operator" else 0
    assert counts == {"natural_units": rows + 1 + extra, "dilated": rows + extra}
    # the command line's pure-Python kernel agrees to roundoff, the others bit for bit
    assert bounds.lower_values() == (pytest.approx(expected, rel=1e-12) if kernel == "cli" else expected)


@pytest.mark.parametrize(
    "potential, basis", [("power:1.1,0.5", 24), ("linear:1.3", 24), ("linear:1.3", 40)]
)
def test_large_n_massless_power_law_is_not_pinned(potential, basis):
    # At N = 10^4 the reduced operator's length scale lies far from 1.  With
    # a basis fixed in the problem's own units a "lower bound" was overstated
    # by 18.5%, 2.4% and 0.56% for these cases.  In natural units the n2 row
    # is the dilation of the canonical solve, no higher than the oscillator
    # basis searched in the reduced operator's own units and within 1e-4 of it.
    n = 10**4
    potential = parse_potential(potential)
    (c, k), = potential.terms()
    cfg = SolverConfig(basis_size=basis)
    canonical = ground_energy(ReducedHamiltonian(1.0, 1.0, 1.0, 0.0, PowerLaw(1.0, k)), cfg)
    n2 = compute_bounds(ProblemSpec(n, 0.0, potential), cfg).n2
    dilation = ((n - 1) / 2.0 * c) ** (1.0 / (k + 1.0))
    assert n2.value == pytest.approx(n * dilation * canonical.ground_energy, rel=1e-12)
    assert n2.spectrum.warnings == []
    reduced = ReducedHamiltonian(1.0, 1.0, (n - 1) / 2.0, 0.0, potential)
    oscillator = reference_ground_energy(reduced, basis, 0.05, 1e5)
    assert not (oscillator.at_lower or oscillator.at_upper)
    assert n * oscillator.fx >= n2.value * (1.0 - 1e-9)
    assert n2.value == pytest.approx(n * oscillator.fx, rel=1e-4)


def test_large_n_massive_bounds_are_not_pinned():
    # With the basis scale searched over (0.05, 20) in the problem's own units,
    # n2 was 1.84386e+06 (2.45% high, scale pinned at 20) and the Gaussian
    # upper bound 3.99e6 (scale pinned at 0.05).  The oscillator basis
    # searched over a wide interval gave 1799716.55109814 at B = 24, 2.5e-6
    # above the Gaussian basis at K = 24.
    n = 10**4
    spec = ProblemSpec(n, 1.0, Linear(1.3))
    bounds = compute_bounds(spec, SolverConfig(basis_size=24))
    reduced = ReducedHamiltonian(1.0, 1.0, (n - 1) / 2.0, 1.0, Linear(1.3))
    reference = reference_ground_energy(reduced, 24, 0.05, 1e5)
    assert not (reference.at_lower or reference.at_upper)
    assert reference.x > 20.0
    assert n * reference.fx == pytest.approx(1799716.55109814, rel=1e-12)
    assert bounds.n2.value <= n * reference.fx
    assert bounds.n2.value == pytest.approx(1799712.01797421, rel=1e-10)
    assert bounds.upper.value == pytest.approx(2163607.45, abs=0.005)
    assert bounds.upper.optimal_scale < 0.05
    for result in bounds.lower_results().values():
        if result is not None:
            assert result.spectrum.warnings == []
    assert bounds.upper.warnings == []


def test_massive_coulomb_gaussian_optimum_beyond_twenty():
    # a bench-grid problem whose Gaussian optimum 25.78 lies past the old
    # interval end 20, where the bound was pinned at 2.49125
    spec = ProblemSpec(5, 0.5015, Coulomb(0.0813))
    bounds = compute_bounds(spec, SolverConfig(basis_size=24))
    assert bounds.upper.warnings == []
    assert bounds.upper.optimal_scale == pytest.approx(25.78, abs=0.01)
    assert bounds.upper.value == pytest.approx(2.48981115, rel=1e-8)
    for name, result in bounds.lower_results().items():
        if result is not None:
            assert result.spectrum.warnings == [], name
            assert result.value <= bounds.upper.value, name


def _family(n):
    """One potential per shape; the Coulomb parts have 0.4 of the critical
    effective coupling in the n2 row, the largest of all rows."""
    v = 0.4 * COULOMB_CRITICAL_COUPLING / ((n - 1) / 2.0)
    return {
        "linear": Linear(1.3),
        "harmonic": Harmonic(0.8),
        "power": PowerLaw(1.1, 0.5),
        "coulomb": Coulomb(v),
        "coulomb+linear": CoulombPlusLinear(v, 1.2),
    }


@pytest.mark.parametrize(
    "shape, n, mass",
    [
        (shape, n, mass)
        for shape in ("linear", "harmonic", "power", "coulomb", "coulomb+linear")
        for n in (2, 10, 10**4)
        for mass in (0.0, 0.5, 2.0)
        # massless pure Coulomb is scale-free: its energy falls towards 0 at
        # the largest scale, and it pins by design
        if not (shape == "coulomb" and mass == 0.0)
    ],
)
def test_no_row_pins_outside_massless_coulomb(shape, n, mass):
    bounds = compute_bounds(ProblemSpec(n, mass, _family(n)[shape]), SolverConfig(basis_size=24))
    for name, result in bounds.lower_results().items():
        if result is not None:
            assert result.spectrum.warnings == [], name
    assert bounds.upper.warnings == []


def test_massless_power_law_rows_follow_the_dilation_law():
    # every row of the single canonical solve matches a direct solve of its
    # own reduced operator
    cfg = SolverConfig(basis_size=24)
    for n, potential in ((4, Harmonic(0.7)), (6, PowerLaw(1.4, 1.7)), (3, Linear(0.8))):
        spec = ProblemSpec(n, 0.0, potential)
        for name, result in compute_bounds(spec, cfg).lower_results().items():
            if result is None:
                continue
            reduced = ReducedHamiltonian(1.0, result.kinetic_factor, (n - 1) / 2.0, 0.0, potential)
            direct = ground_energy(reduced, cfg)
            assert result.value == pytest.approx(n * direct.ground_energy, rel=1e-13), name
            assert result.spectrum.convergence_estimate == pytest.approx(
                direct.convergence_estimate, rel=1e-6, abs=1e-13
            )
            assert result.spectrum.basis_range == pytest.approx(direct.basis_range, rel=1e-13)


def test_sandwich_holds_across_potential_family():
    cfg = SolverConfig(basis_size=24)
    grid = [
        (2, 0.0, Linear(1.0)),
        (3, 1.0, Harmonic(0.5)),
        (4, 0.0, PowerLaw(1.0, 1.5)),
        (4, 1.0, PowerLaw(1.0, 1.5)),
        (3, 1.0, Coulomb(0.2)),
        (4, 0.0, CoulombPlusLinear(0.3, 1.0)),
        (5, 1.0, CoulombPlusLinear(0.2, 2.0)),
    ]
    for n, mass, potential in grid:
        bounds = compute_bounds(ProblemSpec(n, mass, potential), cfg)
        for name, value in bounds.lower_values().items():
            assert bounds.upper.value >= value, (n, mass, potential.spec(), name)


def test_problem_spec_validation():
    with pytest.raises(ValueError):
        ProblemSpec(1, 0.0, Linear(1.0))
    with pytest.raises(ValueError):
        ProblemSpec(3, -1.0, Linear(1.0))


@pytest.mark.parametrize("n", [10**200, 10**308, 10**400, 1e200], ids=["1e200", "1e308", "1e400", "float-1e200"])
def test_particle_counts_whose_pair_count_overflows_are_refused(n):
    # n(n-1)/2 raised OverflowError from int to float, or became inf
    for build in (lambda: ProblemSpec(n, 0.0, Linear(1.0)), lambda: linear_bound_table(n)):
        with pytest.raises(ValueError, match="particle count is too large"):
            build()


def test_largest_particle_counts_still_have_finite_bounds():
    n = 134 * 10**152
    table = linear_bound_table(n)
    bounds = compute_bounds(ProblemSpec(n, 1.0, Linear(1.0)), SolverConfig(basis_size=24))
    for value in [*bounds.lower_values().values(), bounds.upper.value, table.upper, table.lower["n4"]]:
        assert math.isfinite(value)


# --- ratio table ----------------------------------------------------------------

PAPER_TABLE = {
    "R_N/2": [1.011, 1.08639, 1.11886, 1.13706, 1.14872, 1.17104, 1.20229],
    "R_N/3": [None, 1.011, 1.04121, 1.05815, 1.069, 1.08977, 1.11886],
    "R_N/4": [None, None, 1.011, 1.02745, 1.03799, 1.05815, 1.08639],
    "R_c": [1.011, 1.011, 1.011, 1.011, 1.011, 1.011, 1.011],
}


def test_ratio_table_reproduces_published_values():
    table = ratio_table()
    assert table.n_values == (2, 3, 4, 5, 6, 10)
    for label, expected_row in PAPER_TABLE.items():
        for expected, got in zip(expected_row, table.rows[label]):
            if expected is None:
                assert got is None
            else:
                assert got == pytest.approx(expected, abs=1e-4), (label, expected)


def test_conjectured_ratio_is_constant_in_n():
    values = [
        upper_gaussian_linear(n) / closed_form("conjectured", n) for n in range(2, 51)
    ]
    reference = 4.0 / (E * math.sqrt(math.pi))
    assert max(abs(v - reference) for v in values) <= 1e-12


def test_ratio_limits():
    # the last column is the table at N = 2^64, where N - 1 rounds to N
    rows = ratio_table().rows
    assert rows["R_N/2"][-1] == pytest.approx(1.20229059576277, rel=1e-12)
    assert rows["R_N/3"][-1] == pytest.approx(1.1188574704695922, rel=1e-12)
    assert rows["R_N/4"][-1] == pytest.approx(1.086392191252513, rel=1e-12)
    assert rows["R_c"][-1] == pytest.approx(1.0110018520701662, rel=1e-12)


# --- nonrelativistic limit ------------------------------------------------------


def test_conjectured_bound_reaches_oscillator_limit():
    # exact Schroedinger N-boson oscillator energy: N m + 3(N-1) sqrt(N v / 2m)
    n, v = 3, 1.0
    residuals = []
    for mass in (1e2, 1e4):
        value = compute_bounds(ProblemSpec(n, mass, Harmonic(v))).conjectured
        oracle = n * mass + 3.0 * (n - 1) * math.sqrt(n * v / (2.0 * mass))
        residuals.append(abs(value.value - oracle))
    assert residuals[0] / residuals[1] > 2500.0


# --- work a bounds row does not read -------------------------------------------


@pytest.mark.parametrize("basis_size", [24, 40])
@pytest.mark.parametrize(
    "n, mass, potential",
    [
        (5, 0.0, "linear:1.3"),
        (3, 0.0, "harmonic:0.8"),
        (4, 0.0, "power:1.1,1.7"),
        (6, 0.7, "linear:1.2"),
        (4, 1.3, "power:0.9,0.6"),
        (3, 1.0, "coulomb:0.3"),
        (4, 0.0, "coulomb+linear:0.2,1"),
        (4, 0.5, "coulomb+linear:0.2,1"),
        (200, 0.0, "linear:0.01"),
        (200, 1.1, "harmonic:0.5"),
    ],
    ids=[
        "linear-m0",
        "harmonic-m0",
        "power-m0",
        "linear-m",
        "confining-m",
        "coulomb-m",
        "coulomb+linear-m0",
        "coulomb+linear-m",
        "large-n-m0",
        "large-n-m",
    ],
)
def test_bounds_computes_no_eigenvector(monkeypatch, n, mass, potential, basis_size):
    # every bound is an energy: the solver's eigenvector is computed only
    # when a caller reads coefficients
    def eigh(*args, **kwargs):
        raise AssertionError("compute_bounds ran numpy.linalg.eigh")

    monkeypatch.setattr(np.linalg, "eigh", eigh)
    bounds = compute_bounds(ProblemSpec(n, mass, parse_potential(potential)), SolverConfig(basis_size=basis_size))
    assert bounds.lower_values()


def test_rows_sharing_a_solve_cannot_write_each_others_coefficients():
    # n2, n3 and the conjectured row of massless linear N = 4 share one
    # canonical solve, so they share its coefficients
    bounds = compute_bounds(ProblemSpec(4, 0.0, parse_potential("linear:1")))
    before = bounds.n3.spectrum.coefficients.copy()
    for name, row in bounds.lower_results().items():
        with pytest.raises(ValueError):
            row.spectrum.coefficients[0] = 99.0
    assert np.array_equal(bounds.n3.spectrum.coefficients, before)
