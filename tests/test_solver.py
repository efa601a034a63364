import dataclasses
import math

import numpy as np
import pytest
from scipy import integrate

from salbound import quadrature, solver, spectrum
from salbound.bounds import GAUSSIAN_SCALE_INTERVAL, ZOOM_POINTS, ZOOM_SPACING, zoom_log_minimum
from salbound.potentials import Coulomb, CoulombPlusLinear, Harmonic, Linear, PowerLaw
from salbound.reductions import (
    COULOMB_CRITICAL_COUPLING,
    LINEAR_GROUND_ENERGY,
    MAX_BASIS_SIZE,
    ReducedHamiltonian,
    SolverConfig,
    StabilityError,
    _MU_MAX,
    natural_units,
)
from salbound.solver import ground_energy, pair_expectation
from salbound.spectrum import EDGE_WEIGHT_TOL, SpectrumResult, basis_radii, grid_kind

from golden_reference import gaussian_overlap, potential_value, reference_ground_energy
from legendre_reference import semi_infinite_rule, unit_rule
from oscillator_reference import kinetic_matrix, map_scale, potential_matrix, radial_basis

TWO_OVER_SQRT_PI = 2.0 / math.sqrt(math.pi)


def linear_hamiltonian(beta=1.0, lam=1.0, gamma=1.0, mass=0.0):
    return ReducedHamiltonian(beta, lam, gamma, mass, Linear(1.0))


# --- the oscillator-basis oracle (tests/oscillator_reference.py) ---------------


def test_basis_orthonormality_under_own_rule():
    y, wy = semi_infinite_rule(400, 8.0)
    table = radial_basis(40, y)
    overlap = (table * (wy * y * y)) @ table.T
    assert np.abs(overlap - np.eye(40)).max() < 1e-12


def test_single_gaussian_kinetic_entry():
    k = kinetic_matrix(1.0, 1.0, 0.0, 1, 1.0, 400)
    assert k[0, 0] == pytest.approx(TWO_OVER_SQRT_PI, rel=1e-12)


def test_kinetic_entry_scale_covariance():
    base = kinetic_matrix(1.0, 1.0, 0.0, 1, 1.0, 400)[0, 0]
    for sigma in (0.2, 3.0, 11.0):
        entry = kinetic_matrix(1.0, 1.0, 0.0, 1, sigma, 400)[0, 0]
        assert entry == pytest.approx(sigma * base, rel=1e-13)


def test_kinetic_entry_heavy_mass_expansion():
    # <sqrt(p^2 + m^2)> ~ m + <p^2>/(2m) with <p^2> = 3/2 for the unit Gaussian
    entry = kinetic_matrix(1.0, 1.0, 1000.0, 1, 1.0, 400)[0, 0]
    assert entry == pytest.approx(1000.0 + 1.5 / 2000.0, rel=1e-6)


def test_single_gaussian_potential_entries():
    linear = potential_matrix(Linear(1.0), 1.0, 1, 1.0, 400)
    assert linear[0, 0] == pytest.approx(TWO_OVER_SQRT_PI, rel=1e-12)
    harmonic = potential_matrix(Harmonic(1.0), 1.0, 1, 1.0, 400)
    assert harmonic[0, 0] == pytest.approx(1.5, rel=1e-12)


def test_coulomb_entry_against_quadrature_oracle():
    # <1/r> on the unit Gaussian via an independent adaptive quadrature
    oracle, err = integrate.quad(
        lambda y: (4.0 / math.sqrt(math.pi)) * y * math.exp(-y * y), 0.0, np.inf
    )
    assert err < 1e-8
    entry = potential_matrix(Coulomb(1.0), 2.0, 1, 1.0, 400)[0, 0]
    assert entry == pytest.approx(-2.0 * oracle, rel=1e-10)
    assert oracle == pytest.approx(TWO_OVER_SQRT_PI, rel=1e-10)


def test_matrices_exactly_symmetric():
    k = kinetic_matrix(1.0, 2.0, 0.7, 24, 1.3, 200)
    u = potential_matrix(CoulombPlusLinear(0.2, 1.0), 1.5, 24, 1.3, 200)
    assert (k == k.T).all()
    assert (u == u.T).all()


def test_fourier_self_duality_up_to_phase():
    # ||p|| and ||r|| have identical matrix elements against the self-dual
    # basis up to the (-1)^(i+j) Fourier phases of the basis functions.
    k = kinetic_matrix(1.0, 1.0, 0.0, 12, 1.0, 400)
    u = potential_matrix(Linear(1.0), 1.0, 12, 1.0, 400)
    assert np.abs(np.abs(k) - np.abs(u)).max() < 1e-10
    sign = np.where(np.arange(12) % 2 == 0, 1.0, -1.0)
    np.testing.assert_allclose(k, u * np.outer(sign, sign), atol=1e-12)


def quadrature_build(h, basis_size, sigma, order):
    """Kinetic and potential matrices by direct radial quadrature of the
    operator's own integrands, each as ``(table * w) @ table.T``, the kinetic
    one sign-flipped for the Fourier phases."""
    y, wy = semi_infinite_rule(order, map_scale(basis_size))
    keep = y < 38.0
    y = y[keep]
    wy2 = wy[keep] * y * y
    table = radial_basis(basis_size, y)
    sign = np.where(np.arange(basis_size) % 2 == 0, 1.0, -1.0)
    f = h.beta * np.sqrt(h.lam * (sigma * y) ** 2 + h.mass**2)
    kinetic = (table * (wy2 * f)) @ table.T * np.outer(sign, sign)
    potential = (table * (wy2 * h.gamma * potential_value(h.potential, y / sigma))) @ table.T
    return kinetic, potential


@pytest.mark.parametrize(
    "potential",
    [
        Linear(1.3),
        Coulomb(0.3),
        Harmonic(0.8),
        PowerLaw(1.1, 1.5),
        CoulombPlusLinear(0.0, 1.2),
        CoulombPlusLinear(0.3, 1.2),
    ],
)
@pytest.mark.parametrize("mass", [0.0, 0.7])
@pytest.mark.parametrize("basis_size, order", [(24, 400), (40, 400), (24, 800), (40, 800)])
def test_term_matrices_match_quadrature_build(potential, mass, basis_size, order):
    h = ReducedHamiltonian(1.0, 4.0 / 3.0, 1.5, mass, potential)
    for sigma in (0.07, 1.0, 9.0):
        kinetic_ref, potential_ref = quadrature_build(h, basis_size, sigma, order)
        kinetic = kinetic_matrix(h.beta, h.lam, mass, basis_size, sigma, order)
        potential_mat = potential_matrix(potential, h.gamma, basis_size, sigma, order)
        for mat, ref in ((kinetic, kinetic_ref), (potential_mat, potential_ref)):
            # one symmetric rank-k product: exactly symmetric, unlike the reference
            assert np.array_equal(mat, mat.T)
            assert np.abs(mat - ref).max() <= 1e-14 * np.abs(ref).max()
        reference = kinetic_ref + potential_ref
        mat = kinetic + potential_mat
        largest = np.abs(reference).max()
        assert np.abs(mat - reference).max() <= 1e-14 * largest
        lowest = np.linalg.eigvalsh(mat)[0] - np.linalg.eigvalsh(reference)[0]
        assert abs(lowest) <= 1e-13 * largest


def test_quadrature_self_check_warns_at_low_order():
    diagnostics = []
    kinetic_matrix(1.0, 1.0, 0.0, 40, 1.0, 24, diagnostics)
    assert any("self-check" in w for w in diagnostics)
    diagnostics = []
    kinetic_matrix(1.0, 1.0, 0.0, 8, 1.0, 400, diagnostics)
    assert diagnostics == []


# --- ground energies ----------------------------------------------------------


def test_linear_ground_energy_matches_reference():
    result = ground_energy(linear_hamiltonian())
    assert result.ground_energy == pytest.approx(LINEAR_GROUND_ENERGY, abs=1e-3)
    assert result.warnings == []
    assert result.convergence_estimate >= 0.0
    x = result.coefficients
    assert x @ gaussian_overlap(result) @ x == pytest.approx(1.0, rel=1e-12)


def test_kinetic_rescaling_is_scaling_law():
    # sqrt(4 p^2) = 2||p||, so the energy is E(2,1) = sqrt(2) E(1,1)
    base = ground_energy(linear_hamiltonian()).ground_energy
    result = ground_energy(linear_hamiltonian(lam=4.0)).ground_energy
    assert result == pytest.approx(math.sqrt(2.0) * base, abs=1e-4 * math.sqrt(2.0))
    assert result == pytest.approx(math.sqrt(2.0) * LINEAR_GROUND_ENERGY, abs=2e-3)


@pytest.mark.parametrize("a,b", [(2.0, 1.0), (1.0, 2.0), (3.0, 5.0)])
def test_scaling_law_via_beta_gamma(a, b):
    base = ground_energy(linear_hamiltonian()).ground_energy
    result = ground_energy(linear_hamiltonian(beta=a, gamma=b)).ground_energy
    assert abs(result - math.sqrt(a * b) * base) <= 1e-4 * math.sqrt(a * b)


def test_heavy_mass_harmonic_energy():
    # A p^2 + B r^2 with A = lam/(2m), B = gamma v has ground energy 3 sqrt(A B)
    result = ground_energy(
        ReducedHamiltonian(1.0, 1.0, 1.0, 200.0, Harmonic(1.0))
    ).ground_energy
    assert result == pytest.approx(200.0 + 3.0 * math.sqrt(1.0 / 400.0), abs=1e-3)


def test_heavy_mass_residual_shrinks_quadratically():
    residuals = []
    for mass in (1e2, 1e3, 1e4):
        h = ReducedHamiltonian(1.0, 1.0, 1.0, mass, Harmonic(1.0))
        oracle = mass + 3.0 * math.sqrt(1.0 / (2.0 * mass))
        residuals.append(abs(ground_energy(h).ground_energy - oracle))
    assert residuals[0] / residuals[1] > 50.0
    assert residuals[1] / residuals[2] > 50.0


def test_variational_monotonicity_in_basis_size():
    energies = [
        ground_energy(linear_hamiltonian(), SolverConfig(basis_size=m)).ground_energy
        for m in (8, 16, 32)
    ]
    assert energies[0] >= energies[1] >= energies[2]


def test_convergence_estimate_uses_configured_size():
    cfg = SolverConfig(basis_size=16)
    result = ground_energy(linear_hamiltonian(), cfg)
    small = ground_energy(linear_hamiltonian(), SolverConfig(basis_size=8))
    assert result.convergence_estimate == pytest.approx(
        small.ground_energy - result.ground_energy, rel=1e-6, abs=1e-12
    )


# --- stability guard and optimizer edge cases --------------------------------


def test_supercritical_coulomb_rejected():
    with pytest.raises(StabilityError, match="2/pi"):
        ground_energy(ReducedHamiltonian(1.0, 1.0, 1.0, 0.0, Coulomb(0.8)))
    # the guard applies to the effective coupling gamma*v/(beta*sqrt(lam))
    with pytest.raises(StabilityError):
        ground_energy(ReducedHamiltonian(1.0, 1.0, 4.0, 0.0, Coulomb(0.2)))
    with pytest.raises(StabilityError):
        ground_energy(ReducedHamiltonian(1.0, 1.0, 1.0, 1.0, CoulombPlusLinear(0.9, 1.0)))


def test_subcritical_coulomb_is_accepted():
    result = ground_energy(ReducedHamiltonian(1.0, 1.0, 1.0, 1.0, Coulomb(0.5)))
    assert 0.0 < result.ground_energy < 1.0  # bound state below the mass


def test_massless_subcritical_coulomb_hits_interval_endpoint():
    # both terms scale as 1/length, so the infimum 0 is approached by ever
    # wider states; the state leans on the widest Gaussian, which must be
    # reported, not hidden
    result = ground_energy(ReducedHamiltonian(1.0, 1.0, 1.0, 0.0, Coulomb(0.3)))
    assert any("endpoint" in w for w in result.warnings)
    assert abs(result.ground_energy) < 0.05


# --- natural units -------------------------------------------------------------


def _random_hamiltonians(count, seed):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        beta, lam, gamma = np.exp(rng.uniform(-3.0, 3.0, 3))
        mass = float(rng.choice([0.0, np.exp(rng.uniform(-4.0, 4.0))]))
        v = rng.uniform(0.01, 0.99) * COULOMB_CRITICAL_COUPLING * beta * math.sqrt(lam) / gamma
        c = float(np.exp(rng.uniform(-3.0, 3.0)))
        potential = [
            Linear(c), Harmonic(c), PowerLaw(c, rng.uniform(0.2, 3.0)),
            Coulomb(v), CoulombPlusLinear(v, c),
        ][rng.integers(5)]
        yield ReducedHamiltonian(float(beta), float(lam), float(gamma), mass, potential)


def test_natural_units_is_idempotent():
    for h in _random_hamiltonians(300, seed=11):
        canonical, energy, length = natural_units(h)
        assert (canonical.beta, canonical.lam, canonical.gamma) == (1.0, 1.0, 1.0)
        assert natural_units(canonical) == (canonical, 1.0, 1.0), h


@pytest.mark.parametrize(
    "canonical",
    [
        ReducedHamiltonian(1.0, 1.0, 1.0, 0.0, PowerLaw(1.0, 1.0)),
        ReducedHamiltonian(1.0, 1.0, 1.0, 2.5, PowerLaw(1.0, 0.4)),
        ReducedHamiltonian(1.0, 1.0, 1.0, 0.7, CoulombPlusLinear(0.3, 1.0)),
        ReducedHamiltonian(1.0, 1.0, 1.0, 0.0, Coulomb(0.3)),
        ReducedHamiltonian(1.0, 1.0, 1.0, 1.0 / 0.3, Coulomb(0.3)),
    ],
    ids=["power-m0", "power-m2.5", "coulomb+linear", "coulomb-m0", "coulomb-bohr"],
)
def test_natural_units_returns_a_canonical_operator_unchanged(canonical):
    # an equal operator, with energy and length exactly 1, so a solve of it
    # gives the same bits as a solve of the canonical operator itself
    got, energy, length = natural_units(canonical)
    assert got == canonical
    assert (energy, length) == (1.0, 1.0)


def test_natural_units_refuses_canonical_operators_out_of_range():
    # a canonical operator meets every refusal too
    with pytest.raises(StabilityError):
        natural_units(ReducedHamiltonian(1.0, 1.0, 1.0, 0.0, Coulomb(0.7)))
    with pytest.raises(StabilityError):
        natural_units(ReducedHamiltonian(1.0, 1.0, 1.0, 1.0 / 0.7, Coulomb(0.7)))
    with pytest.raises(StabilityError):
        natural_units(ReducedHamiltonian(1.0, 1.0, 1.0, 1.0, CoulombPlusLinear(0.7, 1.0)))
    with pytest.raises(ValueError, match="confining exponent 4.5"):
        natural_units(ReducedHamiltonian(1.0, 1.0, 1.0, 1.0, PowerLaw(1.0, 4.5)))
    with pytest.raises(ValueError, match="natural mass mu"):
        natural_units(ReducedHamiltonian(1.0, 1.0, 1.0, 2.0**512, PowerLaw(1.0, 1.0)))
    with pytest.raises(ValueError, match="natural mass mu"):
        natural_units(ReducedHamiltonian(1.0, 1.0, 1.0, 2.0**480, PowerLaw(1.0, 1.0)))
    # just below, the pair integrals of the widest basis stay finite (a
    # RuntimeWarning fails the test)
    heavy = ReducedHamiltonian(1.0, 1.0, 1.0, 2.0**479, PowerLaw(1.0, 1.0))
    assert ground_energy(heavy, SolverConfig(basis_size=MAX_BASIS_SIZE)).ground_energy >= 2.0**479


def test_natural_units_lengths():
    beta, lam, gamma, mass = 0.7, 1.9, 2.5, 0.3
    a = beta * math.sqrt(lam)
    # a confining term c r^k sets s = (a/(gamma c))^(1/(k+1)), canonical coefficient 1
    canonical, energy, length = natural_units(ReducedHamiltonian(beta, lam, gamma, mass, Harmonic(0.8)))
    s = (a / (gamma * 0.8)) ** (1.0 / 3.0)
    assert length == pytest.approx(s, rel=1e-15)
    assert energy == pytest.approx(a / s, rel=1e-15)
    assert canonical.mass == pytest.approx(mass * s / math.sqrt(lam), rel=1e-15)
    assert canonical.potential.terms() == ((1.0, 2.0),)
    # the Coulomb part keeps its effective coupling gamma v/(beta sqrt(lam))
    canonical, _, length = natural_units(ReducedHamiltonian(beta, lam, gamma, mass, CoulombPlusLinear(0.1, 1.2)))
    assert length == pytest.approx(math.sqrt(a / (gamma * 1.2)), rel=1e-15)
    assert canonical.potential.terms() == ((1.0, 1.0), (-gamma * 0.1 / a, -1.0))
    # pure Coulomb at m > 0: the non-relativistic Bohr radius beta lam/(m gamma v)
    canonical, energy, length = natural_units(ReducedHamiltonian(beta, lam, gamma, mass, Coulomb(0.1)))
    assert length == pytest.approx(beta * lam / (mass * gamma * 0.1), rel=1e-15)
    assert canonical.mass == pytest.approx(a / (gamma * 0.1), rel=1e-15)
    # massless pure Coulomb is scale-free: s = 1
    canonical, energy, length = natural_units(ReducedHamiltonian(beta, lam, gamma, 0.0, Coulomb(0.1)))
    assert (length, energy, canonical.mass) == (1.0, a, 0.0)


@pytest.mark.parametrize(
    "h",
    [
        ReducedHamiltonian(0.7, 1.9, 2.5, 0.3, Harmonic(0.8)),
        ReducedHamiltonian(1.0, 1.5, 40.0, 2.0, PowerLaw(1.1, 0.5)),
        ReducedHamiltonian(1.3, 0.8, 0.2, 0.0, CoulombPlusLinear(0.4, 3.0)),
        ReducedHamiltonian(1.0, 1.6, 2.0, 0.5015, Coulomb(0.0813)),
    ],
    ids=["harmonic", "power", "coulomb+linear-m0", "coulomb"],
)
def test_natural_units_solve_matches_direct_solve(h):
    # the oscillator basis searched in the operator's own units, with no
    # change of units: the Gaussian solve in natural units, scaled back, is
    # no higher and lies within the oscillator's own truncation error
    reference = reference_ground_energy(h, 24, 1e-3, 1e3)
    assert not (reference.at_lower or reference.at_upper)
    result = ground_energy(h, SolverConfig(basis_size=24))
    assert result.warnings == []
    assert result.ground_energy <= reference.fx * (1.0 + 1e-9)
    assert result.ground_energy == pytest.approx(reference.fx, rel=1e-4)


# --- the Gaussian upper bound's grid zoom (bounds.zoom_log_minimum) -------------


def _zoom_contract(shape, lo, hi, t):
    """Run the zoom on f(x) = shape(log x - t), unimodal with its minimum at
    log x = t, and check its contract: the returned log-abscissa lies within
    the final grid spacing of the minimum (clamped to [lo, hi]), an end is
    flagged exactly where it is returned, and it is returned exactly."""
    a, b = math.log(lo), math.log(hi)
    grids = []

    def f(x):
        values = shape(np.log(x) - t)
        grids.append((np.log(x), values))
        return values

    x, fx, at_lower, at_upper = zoom_log_minimum(f, lo, hi)
    logs, values = grids[-1]
    spacing = (logs[-1] - logs[0]) / (ZOOM_POINTS - 1)
    assert spacing <= ZOOM_SPACING
    assert all(g.size == ZOOM_POINTS for g, _ in grids)
    assert abs(math.log(x) - min(max(t, a), b)) <= spacing + 1e-14, t
    assert fx == values.min()
    assert at_lower == (x == lo) and at_upper == (x == hi), t
    if t <= a or t >= b:
        assert x == (lo if t <= a else hi), t
    if t - a > spacing:
        assert not at_lower, t
    if b - t > spacing:
        assert not at_upper, t
    return len(grids)


def _minimum_grid(lo, hi, near):
    """Log-abscissae across (lo, hi), beyond each end, at each end and within
    a few ``near`` of each end."""
    a, b = math.log(lo), math.log(hi)
    offsets = [s * near for s in (-5.0, -1.0, 0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 6.0)]
    return [a + d for d in offsets] + list(np.linspace(a, b, 15)[1:-1]) + [b - d for d in offsets]


@pytest.mark.parametrize(
    "shape",
    [lambda d: d * d + 0.25, lambda d: d**4],
    ids=["quadratic", "quartic"],
)
@pytest.mark.parametrize("lo, hi, near", [(0.05, 20.0, 1e-4), (0.5, 2.0, 1e-6)])
def test_minimizer_contract_on_log_grid(shape, lo, hi, near):
    # minima across the interval and at, beyond and within a few ``near`` of
    # each end; the bound's interval (0.05, 20) takes at most 6 grids
    for t in _minimum_grid(lo, hi, near):
        assert _zoom_contract(shape, lo, hi, t) <= 6


@pytest.mark.parametrize(
    "shape",
    [
        lambda d: d * d,
        lambda d: np.abs(d) ** 0.5,
        lambda d: np.expm1(d) - d,
        lambda d: np.where(d < 0.0, -3.0 * d, d**4),
    ],
    ids=["quadratic", "cusp", "skewed", "kinked"],
)
def test_zoom_contract_on_random_intervals(shape):
    rng = np.random.default_rng(23)
    for _ in range(100):
        lo = math.exp(rng.uniform(-6.0, 3.0))
        hi = lo * math.exp(rng.uniform(0.01, 9.0))
        t = rng.uniform(math.log(lo) - 1.0, math.log(hi) + 1.0)
        _zoom_contract(shape, lo, hi, t)


def linspace_zoom(f, lo, hi):
    """:func:`zoom_log_minimum` on ``np.linspace`` grids, the reference of its
    written-out grid arithmetic."""
    ends = math.log(lo), math.log(hi)
    a, b = ends
    while True:
        t = np.linspace(a, b, ZOOM_POINTS)
        reach = a == ends[0], b == ends[1]
        x = np.exp(t)
        x[[0, -1]] = np.where(reach, (lo, hi), x[[0, -1]])
        values = f(x)
        i = int(np.argmin(values))
        if t[1] - t[0] <= ZOOM_SPACING:
            return float(x[i]), float(values[i]), bool(reach[0] and i == 0), bool(reach[1] and i == len(t) - 1)
        a, b = t[max(i - 1, 0)], t[min(i + 1, len(t) - 1)]


def test_zoom_grids_are_linspace_grids():
    # the same grids, and the same result, as a zoom on np.linspace: on the
    # bound's interval with its optimum inside and beyond either end, and on
    # random intervals
    rng = np.random.default_rng(5)
    cases = [(*GAUSSIAN_SCALE_INTERVAL, centre) for centre in (-8.0, 0.3, 8.0)]
    cases += [(*sorted(np.exp(rng.uniform(-5.0, 5.0, 2)).tolist()), rng.uniform(-6.0, 6.0)) for _ in range(40)]
    for lo, hi, centre in cases:
        f = lambda x: (np.log(x) - centre) ** 2
        grids, reference = [], []
        got = zoom_log_minimum(lambda x: grids.append(x.copy()) or f(x), lo, hi)
        want = linspace_zoom(lambda x: reference.append(x.copy()) or f(x), lo, hi)
        assert got == want, (lo, hi, centre)
        assert len(grids) == len(reference)
        assert all(np.array_equal(g, r) for g, r in zip(grids, reference))


# --- reference constant -------------------------------------------------------


def test_reference_constant_recomputable():
    # cross-validation of the stored constant by the solver itself
    result = ground_energy(linear_hamiltonian())
    assert abs(result.ground_energy - LINEAR_GROUND_ENERGY) < 1e-3


# --- validation ----------------------------------------------------------------


def test_hamiltonian_validation():
    with pytest.raises(ValueError):
        ReducedHamiltonian(0.0, 1.0, 1.0, 0.0, Linear(1.0))
    with pytest.raises(ValueError):
        ReducedHamiltonian(1.0, -1.0, 1.0, 0.0, Linear(1.0))
    with pytest.raises(ValueError):
        ReducedHamiltonian(1.0, 1.0, 0.0, 0.0, Linear(1.0))
    with pytest.raises(ValueError):
        ReducedHamiltonian(1.0, 1.0, 1.0, -0.5, Linear(1.0))


def test_solver_config_validation():
    assert [f.name for f in dataclasses.fields(SolverConfig)] == ["basis_size"]
    with pytest.raises(ValueError):
        SolverConfig(basis_size=1)
    assert SolverConfig(basis_size=MAX_BASIS_SIZE).basis_size == 120
    for size in (MAX_BASIS_SIZE + 1, 200, 300):
        with pytest.raises(ValueError, match="basis size must be at most 120"):
            SolverConfig(basis_size=size)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            SolverConfig(basis_size=bad)


def test_matrix_argument_validation():
    with pytest.raises(ValueError):
        kinetic_matrix(0.0, 1.0, 0.0, 4, 1.0, 64)
    with pytest.raises(ValueError):
        potential_matrix(Linear(1.0), 1.0, 4, -1.0, 64)


def test_spectrum_result_fields():
    result = ground_energy(linear_hamiltonian(), SolverConfig(basis_size=10))
    assert isinstance(result, SpectrumResult)
    assert result.coefficients.shape == (10,)
    lo, hi = result.basis_range
    assert 0.0 < lo < 1.0 < hi
    assert COULOMB_CRITICAL_COUPLING == pytest.approx(2.0 / math.pi)


@pytest.mark.parametrize(
    "h",
    [
        ReducedHamiltonian(1.0, 1.0, 1.0, 0.0, Linear(1.0)),
        ReducedHamiltonian(1.0, 1.0, 1.0, 0.0, CoulombPlusLinear(0.3, 1.0)),
        ReducedHamiltonian(1.0, 1.0, 1.0, 0.8, Harmonic(1.0)),
        ReducedHamiltonian(1.0, 1.0, 1.0, 0.5, CoulombPlusLinear(0.3, 1.0)),
        ReducedHamiltonian(1.0, 1.0, 1.0, 2.0, Coulomb(0.5)),
    ],
    ids=["linear-m0", "coulomb+linear-m0", "harmonic-m0.8", "coulomb+linear-m0.5", "coulomb-m2"],
)
@pytest.mark.parametrize("basis_size", [24, 40])
def test_reported_energy_is_the_rayleigh_ritz_value_at_the_reported_scale(h, basis_size):
    # the energy is the Rayleigh quotient of the reported coefficients on the
    # basis matrices of the reported range, which are the Gaussians' closed
    # forms (checked against quadrature below), and it is the lowest
    # generalized eigenvalue
    from scipy.linalg import eigh

    canonical, energy, length = natural_units(h)
    assert natural_units(canonical)[1:] == (1.0, 1.0)
    result = ground_energy(canonical, SolverConfig(basis_size=basis_size))
    x = result.coefficients
    radii = np.array(basis_radii(grid_kind(canonical), basis_size))
    assert result.basis_range == (radii[0], radii[-1])
    overlap, matrix = solver._matrices(canonical, solver._basis(grid_kind(canonical), basis_size))
    np.testing.assert_allclose(overlap, gaussian_overlap(result), rtol=1e-13)
    assert np.array_equal(matrix, matrix.T) and np.array_equal(overlap, overlap.T)
    assert np.array_equal(np.diag(overlap), np.ones(basis_size))
    assert x @ overlap @ x == pytest.approx(1.0, rel=1e-12)
    assert result.ground_energy == pytest.approx(canonical.mass + x @ matrix @ x, rel=1e-13)
    lowest = canonical.mass + eigh(matrix, overlap, eigvals_only=True)[0]
    # scipy's generalized solve carries the overlap's roundoff of about 1e-9
    assert result.ground_energy == pytest.approx(lowest, rel=1e-8)


def test_coefficients_are_computed_eagerly_read_only_and_shared_by_dilated(monkeypatch):
    # the coefficients are the solve's own ground vector, so reading them
    # runs no eigh; they are read-only, because rows that share a solve
    # share them, and signed so that sum_i (S x)_i > 0
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a) or eigh(a))
    result = ground_energy(linear_hamiltonian(mass=0.5), SolverConfig(basis_size=12))
    dilated = result.dilated(2.0, 3.0)
    coefficients = result.coefficients
    assert result.coefficients is coefficients
    assert dilated.coefficients is coefficients
    assert calls == []
    with pytest.raises(ValueError):
        coefficients[0] = 99.0
    overlap = gaussian_overlap(dilated)
    assert coefficients @ overlap @ coefficients == pytest.approx(1.0, rel=1e-12)
    assert (overlap @ coefficients).sum() > 0.0


# --- the basis cache (solver._basis) ----------------------------------------------


def _bits(result):
    """The solve's reported numbers, bit for bit."""
    numbers = [result.ground_energy, result.convergence_estimate, *result.basis_range]
    return [float(x).hex() for x in (*numbers, *result.coefficients)] + result.warnings


#: One canonical operator of each ``spectrum.grid_kind``: confining,
#: Coulomb+linear and pure Coulomb.
GRID_KINDS = (
    ReducedHamiltonian(1.0, 1.0, 1.0, 1.0, Linear(1.0)),
    ReducedHamiltonian(1.0, 1.0, 1.0, 1.0, CoulombPlusLinear(0.3, 1.0)),
    ReducedHamiltonian(1.0, 1.0, 1.0, 1.0, Coulomb(0.3)),
)


def test_cold_and_warm_basis_give_the_same_bits():
    for h in GRID_KINDS[:2]:
        solver._basis.cache_clear()
        cold = _bits(ground_energy(h))
        assert solver._basis.cache_info().misses == 1
        assert _bits(ground_energy(h)) == cold
        assert solver._basis.cache_info().hits >= 1


def test_evicted_bases_give_the_same_bits_as_a_cold_cache():
    # 33 bases against a cache of 8, swept forwards and backwards, so each
    # sweep reuses, evicts and rebuilds entries
    cases = [(h, size) for size in range(2, 13) for h in GRID_KINDS]
    cold = {}
    for h, size in cases:
        solver._basis.cache_clear()
        cold[h, size] = _bits(ground_energy(h, SolverConfig(basis_size=size)))
    assert solver._basis.cache_info().maxsize < len(cases)
    for order in (cases, cases[::-1]):
        for h, size in order:
            assert _bits(ground_energy(h, SolverConfig(basis_size=size))) == cold[h, size], (h, size)


def test_every_cached_array_is_read_only():
    solver._basis.cache_clear()
    h = GRID_KINDS[0]
    ground_energy(h, SolverConfig(basis_size=12))
    basis = solver._basis(grid_kind(h), 12)
    names = ["radii", "overlap", "a", "c"]
    assert sorted(vars(basis)) == sorted(names + ["momenta", "full", "half"])
    arrays = [getattr(basis, name) for name in names] + [*basis.momenta, *basis.full, *basis.half]
    assert all(isinstance(x, np.ndarray) for x in arrays)
    for array in arrays:
        with pytest.raises(ValueError):
            array[(0,) * array.ndim] = 0.0


def test_one_bounds_problem_factors_its_basis_once(monkeypatch):
    # every row of an m = 1 linear problem has its own operator on one basis:
    # two Cholesky factors, of the overlap and of its centred half
    from salbound.bounds import ProblemSpec, compute_bounds

    calls = []
    cholesky = np.linalg.cholesky
    monkeypatch.setattr(np.linalg, "cholesky", lambda a: calls.append(a.shape) or cholesky(a))
    solver._basis.cache_clear()
    compute_bounds(ProblemSpec(5, 1.0, Linear(1.0)))
    assert calls == [(40, 40), (20, 20)]


def test_one_bounds_problem_solves_its_rows_as_one_stack(monkeypatch):
    # the three rows of an m = 1 linear problem, each with its own mu, go
    # through one eigvalsh and one solve on the full basis and one of each on
    # its centred half; the Cholesky count is the test above
    from salbound.bounds import ProblemSpec, compute_bounds

    calls = {"eigvalsh": [], "solve": []}
    for name, log in calls.items():
        original = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda a, *rest, f=original, log=log: log.append(a.shape) or f(a, *rest))
    compute_bounds(ProblemSpec(5, 1.0, Linear(1.0)))
    assert calls == {"eigvalsh": [(3, 40, 40), (3, 20, 20)], "solve": [(3, 40, 40), (3, 20, 20)]}


#: One potential of each of the five shapes; the Coulomb couplings stay
#: subcritical in natural units down to lam = 0.3.
SHAPES = (Linear(1.3), Harmonic(0.8), PowerLaw(1.1, 0.5), Coulomb(0.3), CoulombPlusLinear(0.3, 1.2))


@pytest.mark.parametrize("basis_size", [2, 3, 24, 40])
@pytest.mark.parametrize("mass", [0.0, 1.0])
def test_stacked_solve_gives_each_operator_the_bits_of_its_own_solve(mass, basis_size):
    # the canonical operators of sqrt(lam p^2 + m^2) + V over the five shapes
    # and four lam, grouped by basis: each item of a group's stacked solve
    # equals that operator's R = 1 solve bit for bit.  K = 2 and 3 have a
    # one-Gaussian centred half.  Operators on different bases are refused
    cfg = SolverConfig(basis_size=basis_size)
    groups = {}
    for potential in SHAPES:
        for lam in (1.0, 0.75, 0.5, 0.3):
            canonical = natural_units(ReducedHamiltonian(1.0, lam, 1.0, mass, potential))[0]
            groups.setdefault(grid_kind(canonical), {})[canonical] = None
    assert len(groups) == len(GRID_KINDS)
    stacks = [tuple(group) for group in groups.values()]
    assert min(map(len, stacks)) >= 3
    with pytest.raises(ValueError, match="share one basis"):
        solver._canonical_ground_energies(sum(stacks, ()), cfg)
    for stack in stacks:
        for canonical, stacked in zip(stack, solver._canonical_ground_energies(stack, cfg), strict=True):
            (alone,) = solver._canonical_ground_energies((canonical,), cfg)
            assert stacked.ground_energy.hex() == alone.ground_energy.hex(), canonical
            assert stacked.convergence_estimate.hex() == alone.convergence_estimate.hex(), canonical
            assert np.array_equal(stacked.coefficients, alone.coefficients), canonical
            assert stacked.warnings == alone.warnings, canonical


def test_a_cached_basis_is_reused_without_building_its_radii(monkeypatch):
    # the cache key is (grid kind, K): once a problem's basis is cached,
    # solving it again builds no radii
    from salbound.bounds import ProblemSpec, compute_bounds

    specs = [ProblemSpec(4, mass, potential) for potential in SHAPES for mass in (0.0, 1.0)]
    for spec in specs:
        compute_bounds(spec)
    calls = []
    for module in (spectrum, solver):
        monkeypatch.setattr(module, "basis_radii", lambda *args: calls.append(args))
    for spec in specs:
        compute_bounds(spec)
    assert calls == []


def test_five_shapes_share_six_bases():
    # one basis per grid kind and size, whatever the shape, mass or row
    from salbound.bounds import ProblemSpec, compute_bounds

    solver._basis.cache_clear()
    for potential in SHAPES:
        for basis_size in (24, 40):
            for mass in (0.0, 1.0):
                compute_bounds(ProblemSpec(4, mass, potential), SolverConfig(basis_size=basis_size))
    # three grid kinds times two sizes, each built once
    info = solver._basis.cache_info()
    assert info.currsize == info.misses == 6


@pytest.mark.parametrize("basis_size", [2, 24, 40, MAX_BASIS_SIZE])
@pytest.mark.parametrize("mass", [0.0, 1.0, 1e5])
def test_every_assembled_matrix_is_exactly_symmetric(mass, basis_size):
    # each element is built from r_i and r_j by commutative operations, and
    # the m > 0 kinetic matrix is numpy's mirrored syrk A.T @ A, on every
    # numpy the package supports
    for h in GRID_KINDS:
        canonical = natural_units(dataclasses.replace(h, mass=mass))[0]
        basis = solver._basis(grid_kind(canonical), basis_size)
        overlap, matrix = solver._matrices(canonical, basis)
        for array in (overlap, matrix, basis.a, basis.c):
            assert array.shape == (basis_size, basis_size)
            assert np.array_equal(array, array.T), (canonical, basis_size)


# --- the Gaussian basis -------------------------------------------------------------


def _normalised_gaussian(radius):
    """The unit-normalised Gaussian (2/(pi r_i^2))^(3/4) exp(-r^2/r_i^2) in
    coordinate space and its Fourier transform (r_i^2/(2 pi))^(3/4)
    exp(-p^2 r_i^2/4)."""
    space = lambda r: (2.0 / (math.pi * radius**2)) ** 0.75 * math.exp(-((r / radius) ** 2))
    momentum = lambda p: (radius**2 / (2.0 * math.pi)) ** 0.75 * math.exp(-((p * radius) ** 2) / 4.0)
    return space, momentum


def _radial(f):
    value, _ = integrate.quad(lambda x: 4.0 * math.pi * x * x * f(x), 0.0, np.inf,
                              epsabs=0.0, epsrel=1e-13, limit=200)
    return value


@pytest.mark.parametrize("mu", [0.0, 0.05, 1.0, 30.0])
@pytest.mark.parametrize("ri, rj", [(1.0, 1.0), (0.3, 0.37), (0.05, 2.0), (1.0, 12.0)])
def test_gaussian_matrix_elements_against_quadrature(ri, rj, mu):
    # the overlap and each pair expectation by adaptive quadrature of the
    # Gaussians themselves, in coordinate and momentum space, for the numpy
    # and the pure-Python kernel
    (gi, pi_), (gj, pj) = _normalised_gaussian(ri), _normalised_gaussian(rj)
    overlap = _radial(lambda r: gi(r) * gj(r))
    for potential in (PowerLaw(1.0, 0.5), PowerLaw(1.0, 2.5), Coulomb(0.3), CoulombPlusLinear(0.3, 1.0)):
        h = ReducedHamiltonian(1.0, 1.0, 1.0, mu, potential)
        s, mat = solver._matrices(h, solver._Basis((ri, rj)))
        assert s[0, 1] == pytest.approx(overlap, rel=1e-12)
        kinetic = _radial(lambda p: pi_(p) * pj(p) * p * p / (math.sqrt(p * p + mu * mu) + mu))
        pot = _radial(lambda r: gi(r) * gj(r) * float(potential_value(potential, r)))
        assert mat[0, 1] == pytest.approx(kinetic + pot, rel=1e-11), potential
        assert spectrum._matrices(h, [ri, rj])[1][0][1] == pytest.approx(kinetic + pot, rel=1e-11)


def test_gaussian_energy_is_the_one_gaussian_matrix():
    # the upper bound's trial state exp(-sigma^2 r^2/2), whose pair exponents
    # are a = sigma^2 and c = 1/sigma^2, is the basis Gaussian of radius
    # sqrt(2)/sigma
    sigma = np.array([0.1, 1.0, 7.0])
    for h in (ReducedHamiltonian(1.0, 1.0, 1.0, 0.7, CoulombPlusLinear(0.2, 1.0)),
              ReducedHamiltonian(1.0, 1.0, 1.0, 0.0, Harmonic(1.0))):
        energies = pair_expectation(h, sigma * sigma, 1.0 / (sigma * sigma))
        for s, energy in zip(sigma, energies):
            _, mat = solver._matrices(h, solver._Basis((math.sqrt(2.0) / s,)))
            assert energy == pytest.approx(mat[0, 0], rel=1e-15)


#: Canonical operators of the survey: r^k at k = 0.5..2.5 and mu = 0..30, and
#: Coulomb+linear and pure Coulomb (at the Bohr mass mu = 1/v') up to 0.7 of
#: the critical coupling.
SURVEY = (
    [(mu, PowerLaw(1.0, k)) for k in (0.5, 1.0, 1.5, 2.0, 2.5) for mu in (0.0, 0.05, 1.0, 4.0, 30.0)]
    + [(mu, CoulombPlusLinear(v, 1.0)) for v in (0.13, 0.3, 0.446) for mu in (0.0, 1.0)]
    + [(1.0 / v, Coulomb(v)) for v in (0.13, 0.3, 0.446)]
)
SURVEY_IDS = [f"{potential.spec()}-mu{mu:.3g}" for mu, potential in SURVEY]


@pytest.mark.parametrize("basis_size", [24, 40])
@pytest.mark.parametrize("mu, potential", SURVEY, ids=SURVEY_IDS)
def test_gaussian_basis_is_no_higher_than_the_oscillator_basis(mu, potential, basis_size):
    # the oscillator basis of the same size, its scale searched to 1e-9 in
    # natural units; no survey shape warns of the basis range
    h = ReducedHamiltonian(1.0, 1.0, 1.0, mu, potential)
    reference = reference_ground_energy(h, basis_size, 0.05, 20.0)
    result = ground_energy(h, SolverConfig(basis_size=basis_size))
    assert result.ground_energy <= reference.fx + 1e-9 * abs(reference.fx)
    assert result.warnings == []


@pytest.mark.parametrize("mu, potential", SURVEY, ids=SURVEY_IDS)
def test_convergence_estimate_covers_the_error(mu, potential):
    # against K = 120: the estimate is at least the error of K = 24 and 40
    # wherever that error exceeds 1e-10 relative, and the Coulomb shapes up
    # to v' = 0.3 are within 1e-7 at K = 40
    h = ReducedHamiltonian(1.0, 1.0, 1.0, mu, potential)
    reference = ground_energy(h, SolverConfig(basis_size=120)).ground_energy
    for basis_size in (24, 40):
        result = ground_energy(h, SolverConfig(basis_size=basis_size))
        error = result.ground_energy - reference
        assert error >= -1e-12 * abs(reference)
        if error > 1e-10 * abs(reference):
            assert result.convergence_estimate >= error, basis_size
    if potential.coulomb_strength() <= 0.3:
        assert error <= 1e-7 * abs(reference)


@pytest.mark.parametrize("c", [0.5, 1.0, 3.0])
def test_massless_harmonic_matches_the_airy_zero(c):
    # |p| + c r^2 is the Fourier dual of p^2 + c|r|: its bottom is c^(1/3)|a_1|
    result = ground_energy(ReducedHamiltonian(1.0, 1.0, 1.0, 0.0, Harmonic(c)))
    assert result.ground_energy == pytest.approx(c ** (1.0 / 3.0) * 2.3381074104597674, rel=1e-9)
    assert result.warnings == []


@pytest.mark.parametrize("mass, oracle", [(1.0, 2.664012612667), (3.0, 4.141457819711)])
def test_massive_harmonic_matches_the_finite_difference_oracle(mass, oracle):
    # -u'' + sqrt(p^2 + m^2) u = E u in momentum space, by a 4th-order finite
    # difference with Richardson extrapolation; that oracle is good to about
    # 5e-11
    result = ground_energy(ReducedHamiltonian(1.0, 1.0, 1.0, mass, Harmonic(1.0)))
    assert result.ground_energy == pytest.approx(oracle, rel=1e-10)


def test_largest_basis_gives_the_linear_constant_without_warning():
    result = ground_energy(linear_hamiltonian(), SolverConfig(basis_size=MAX_BASIS_SIZE))
    assert result.ground_energy == pytest.approx(2.2322863785, abs=1e-9)
    assert result.warnings == []


def _edge_weights(result):
    """x_i^2/(S^-1)_ii of the first and the last Gaussian, from the reported
    coefficients and overlap."""
    inverse = np.linalg.inv(gaussian_overlap(result))
    x = result.coefficients
    return x[0] ** 2 / inverse[0, 0], x[-1] ** 2 / inverse[-1, -1]


@pytest.mark.parametrize(
    "h, end",
    [
        (ReducedHamiltonian(1.0, 1.0, 1.0, 1e5, Linear(8.0)), "lower"),
        (ReducedHamiltonian(1.0, 1.0, 1.0, 0.0, Coulomb(0.3)), "upper"),
    ],
    ids=["heavy-linear", "massless-coulomb"],
)
def test_range_warning_names_the_heavy_edge(h, end):
    # a heavy mass wants Gaussians narrower than the grid's, and massless
    # Coulomb ever wider ones
    result = ground_energy(h)
    (warning,) = result.warnings
    assert f"{end} endpoint of the basis range" in warning
    weight = _edge_weights(result)[end == "upper"]
    assert weight > EDGE_WEIGHT_TOL
    assert f"weight {weight:.1e}" in warning


def test_edge_weights_of_the_survey_stay_below_the_threshold():
    # the measured margin: at most 1.2e-6 at K = 24 (r^0.5, mu = 0), 3.4 times
    # below the threshold, and 1.6e-5 for the heavy linear:8 at K = 40
    worst = max(
        max(_edge_weights(ground_energy(ReducedHamiltonian(1.0, 1.0, 1.0, mu, potential),
                                        SolverConfig(basis_size=basis_size))))
        for mu, potential in SURVEY
        for basis_size in (24, 40)
    )
    assert worst < EDGE_WEIGHT_TOL / 3.0


def _reference_kinetic(mu, c):
    """<sqrt(p^2 + mu^2) - mu> in the momentum densities p^2 e^(-c p^2), one
    integral per density on the order-200 Gauss-Legendre rule mapped by
    y = u/(1 - u), which shares nothing with the rule under test:
    c^(-1/2) (4/sqrt(pi)) ∫ y^4 e^(-y^2) / (sqrt(y^2 + nu^2) + nu) dy at
    nu = mu sqrt(c)."""
    u, w = unit_rule(200)
    y = u / (1.0 - u)
    weight = (2.0 * TWO_OVER_SQRT_PI) * (w / (1.0 - u) ** 2) * y**4 * np.exp(-y * y)
    keep = weight != 0.0
    root = np.sqrt(c)
    nu = mu * root
    return (1.0 / (np.sqrt((nu * nu)[..., None] + (y * y)[keep]) + nu[..., None])) @ weight[keep] / root


def test_fixed_kinetic_rule_holds_over_its_whole_domain(monkeypatch):
    # the one guarantee of the trapezoid rule in ln p: every kinetic element
    # of an accepted input, on the three grid kinds up to the largest basis
    # and on the Gaussian upper bound's widths, at every mass from the
    # subnormal end to reductions._MU_MAX, within 1e-14 of the per-pair
    # reference.  A basis rule that widens with the operator (ROADMAP item
    # 17) must extend the sizes here.
    masses = np.concatenate(([5e-324, 1e-300], np.logspace(-20.0, math.log10(_MU_MAX), 17)))
    c_upper = np.geomspace(*GAUSSIAN_SCALE_INTERVAL, 200) ** -2.0
    references = {}

    def worst(step):
        monkeypatch.setattr(quadrature, "STEP", step)
        quadrature.unit_rule.cache_clear()
        solver._nodes.cache_clear()
        solver._basis.cache_clear()
        gaps = []
        for kind in ("confining", "coulomb+confining", "coulomb"):
            for size in (2, 24, 40, MAX_BASIS_SIZE):
                basis = solver._basis(kind, size)
                for mu in masses:
                    key = kind, size, mu
                    if key not in references:
                        references[key] = basis.overlap * _reference_kinetic(mu, basis.c)
                    gaps.append(np.max(np.abs(basis.kinetic(mu) / references[key] - 1.0)))
        for mu in masses:
            if mu not in references:
                references[mu] = _reference_kinetic(mu, c_upper)
            gaps.append(np.max(np.abs(solver._kinetic(mu, c_upper) / references[mu] - 1.0)))
        quadrature.unit_rule.cache_clear()
        solver._nodes.cache_clear()
        solver._basis.cache_clear()
        return max(gaps)

    # the measured worst is 2.0e-15 (5.3e-15 at step 0.12)
    assert worst(quadrature.STEP) <= 1e-14
    # the same check fails step 0.2, which is 1.8e-8 off
    assert worst(0.2) > 1e-9


def test_massless_solve_loads_no_rule(monkeypatch):
    def never(*args):
        raise AssertionError("a massless solve built momentum nodes")

    monkeypatch.setattr(quadrature, "unit_rule", never)
    h = ReducedHamiltonian(1.0, 1.0, 1.0, 0.0, CoulombPlusLinear(0.2, 1.0))
    solver._basis.cache_clear()
    ground_energy(h)
    spectrum.pure_ground_energy(h)
    assert "momenta" not in vars(solver._basis(grid_kind(h), 40))
    assert solver._basis.cache_info().misses == 1  # the solve's own basis


@pytest.mark.parametrize("mass", [0.0, 1.0, 30.0])
def test_largest_confining_exponent_keeps_a_small_estimate(mass):
    # at k = 4 the estimate stays within 1.4e-5 of the energy for every K
    # from 24 to 120 (the worst near K = 107); at 4.5 the K = 120 solve
    # reported 22064 with an estimate of 22062, so natural_units refuses it
    h = ReducedHamiltonian(1.0, 1.0, 1.0, mass, PowerLaw(1.0, 4.0))
    for size in (24, 40, 60, 80, 100, 107, 120):
        result = ground_energy(h, SolverConfig(basis_size=size))
        assert result.convergence_estimate <= 1.4e-5 * result.ground_energy, size
    with pytest.raises(ValueError, match="confining exponent 4.5 is above 4"):
        ground_energy(dataclasses.replace(h, potential=PowerLaw(1.0, 4.5)))


def test_basis_radii_rule():
    assert [grid_kind(h) for h in GRID_KINDS] == ["confining", "coulomb+confining", "coulomb"]
    radii = np.array(basis_radii("confining", 40))
    np.testing.assert_allclose(radii[1:] / radii[:-1], 1.19, rtol=1e-14)
    assert radii[0] * radii[-1] == pytest.approx(1.0, rel=1e-14)
    for kind, span in (("coulomb+confining", (1e-4, 20.0)), ("coulomb", (1e-4, 40.0))):
        radii = np.array(basis_radii(kind, 40))
        np.testing.assert_allclose((radii[0], radii[-1]), span, rtol=1e-13)
        # the ratio stays within 1.19..1.5, with the widest Gaussian at r_hi
        for size, ratio in ((24, 1.5), (120, 1.19)):
            radii = np.array(basis_radii(kind, size))
            np.testing.assert_allclose(radii[1:] / radii[:-1], ratio, rtol=1e-14)
            assert radii[-1] == span[1]
