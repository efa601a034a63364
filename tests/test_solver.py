import math

import numpy as np
import pytest
from scipy import integrate

from salbound import solver
from salbound.potentials import Coulomb, CoulombPlusLinear, Harmonic, Linear, PowerLaw
from salbound.reductions import (
    COULOMB_CRITICAL_COUPLING,
    LINEAR_GROUND_ENERGY,
    ReducedHamiltonian,
    SolverConfig,
    StabilityError,
    natural_units,
    scaled_energy_linear,
)
from salbound.solver import (
    SpectrumResult,
    ground_energy,
    kinetic_matrix,
    map_scale,
    minimize_log_golden,
    potential_matrix,
    radial_basis,
)
from salbound.quadrature import semi_infinite_rule

from golden_reference import reference_ground_energy

TWO_OVER_SQRT_PI = 2.0 / math.sqrt(math.pi)


def linear_hamiltonian(beta=1.0, lam=1.0, gamma=1.0, mass=0.0):
    return ReducedHamiltonian(beta, lam, gamma, mass, Linear(1.0))


# --- basis and matrix elements ----------------------------------------------


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
    potential = (table * (wy2 * h.gamma * h.potential(y / sigma))) @ table.T
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
    assert np.linalg.norm(result.coefficients) == pytest.approx(1.0, rel=1e-12)


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
    # both terms scale as 1/length, the infimum 0 is approached at the
    # interval edge and must be reported, not hidden
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
    # the same Rayleigh-Ritz problem searched in the operator's own units
    reference = reference_ground_energy(h, 24, 1e-3, 1e3)
    assert not (reference.at_lower or reference.at_upper)
    result = ground_energy(h, SolverConfig(basis_size=24))
    assert result.warnings == []
    assert result.ground_energy == pytest.approx(reference.fx, rel=1e-12)


def test_golden_section_finds_quadratic_minimum():
    res = minimize_log_golden(lambda x: (math.log(x) - 1.0) ** 2 + 0.25, 0.1, 20.0, 1e-6)
    assert res.x == pytest.approx(math.e, rel=1e-5)
    assert res.fx == pytest.approx(0.25, abs=1e-9)
    assert not (res.at_lower or res.at_upper)
    res = minimize_log_golden(lambda x: x, 0.5, 2.0, 1e-6)
    assert res.at_lower and not res.at_upper


def _minimum_grid(lo, hi, rel_tol):
    """Log-abscissae across (lo, hi), beyond each end, at each end and within
    a few rel_tol of each end."""
    a, b = math.log(lo), math.log(hi)
    near = [s * rel_tol for s in (-5.0, -1.0, 0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 6.0)]
    return [a + d for d in near] + list(np.linspace(a, b, 15)[1:-1]) + [b - d for d in near]


@pytest.mark.parametrize(
    "shape",
    [lambda d: d * d + 0.25, lambda d: d**4],
    ids=["quadratic", "quartic"],
)
@pytest.mark.parametrize("lo, hi, rel_tol", [(0.05, 20.0, 1e-4), (0.5, 2.0, 1e-6)])
def test_minimizer_contract_on_log_grid(shape, lo, hi, rel_tol):
    a, b = math.log(lo), math.log(hi)
    for t in _minimum_grid(lo, hi, rel_tol):
        res = minimize_log_golden(lambda x: shape(math.log(x) - t), lo, hi, rel_tol)
        x = math.log(res.x)
        assert abs(x - min(max(t, a), b)) <= rel_tol, t
        assert res.fx == shape(x - t)
        if t <= a or t >= b:
            # a minimum at or beyond an end is reported at the end itself
            assert res.x == (lo if t <= a else hi), t
        # each flag is set within 2 rel_tol of its end; the abscissa is
        # within rel_tol of the minimum, so a minimum within rel_tol of an
        # end sets its flag and one 3 rel_tol or more inside clears it
        for flag, gap in ((res.at_lower, t - a), (res.at_upper, b - t)):
            if gap <= rel_tol:
                assert flag, t
            elif gap >= 3.0 * rel_tol:
                assert not flag, t


def _counted_searches(monkeypatch):
    """Record, per call of the solver's scale search, its interval and the
    abscissae it evaluates."""
    searches = []
    search = solver.minimize_log_golden

    def counted(f, lo, hi, rel_tol):
        calls = []
        searches.append((lo, hi, calls))
        return search(lambda sigma: calls.append(sigma) or f(sigma), lo, hi, rel_tol)

    monkeypatch.setattr(solver, "minimize_log_golden", counted)
    return searches


@pytest.mark.parametrize(
    "potential, mass, basis_size, evaluations",
    [
        (Linear(1.0), 0.0, 40, 12),
        (Harmonic(1.0), 1.0, 8, 26),
        (CoulombPlusLinear(0.3, 1.0), 0.5, 40, 24),
    ],
    ids=["abs-p-plus-r-B40-12evals", "harmonic-m1-B8-26evals", "coulomb+linear-m0.5-B40-24evals"],
)
def test_scale_search_evaluation_count(monkeypatch, potential, mass, basis_size, evaluations):
    # plain golden section takes 25 evaluations per search over the whole
    # interval, two searches per solve; the full-basis search now runs on a
    # bracket around the half-basis optimum
    searches = _counted_searches(monkeypatch)
    h = ReducedHamiltonian(1.0, 1.0, 1.0, mass, potential)
    ground_energy(h, SolverConfig(basis_size=basis_size))
    assert sum(len(calls) for _, _, calls in searches) == evaluations


def test_flat_objective_stops_early(monkeypatch):
    # at B = 40 the harmonic objective is flat to roundoff near its optimum,
    # so the count may follow the BLAS kernel: bound it.  It was 19 on seven
    # OpenBLAS kernels, and 33-48 before the search stopped on a flat bracket
    searches = _counted_searches(monkeypatch)
    h = ReducedHamiltonian(1.0, 1.0, 1.0, 1.0, Harmonic(1.0))
    result = ground_energy(h, SolverConfig(basis_size=40))
    assert sum(len(calls) for _, _, calls in searches) <= 24
    assert result.warnings == []
    canonical, _, _ = natural_units(h)
    reference = reference_ground_energy(canonical, 40, 0.05, 20.0)
    assert result.ground_energy == pytest.approx(reference.fx, rel=1e-12)


def test_local_search_pinned_inside_the_interval_falls_back(monkeypatch):
    # a local bracket far narrower than the distance between the half- and
    # full-basis optima pins the local search at one of its own ends, which
    # are not ends of the scale interval; then the whole interval is searched
    h = ReducedHamiltonian(1.0, 1.0, 1.0, 0.5, CoulombPlusLinear(0.3, 1.0))
    cfg = SolverConfig(basis_size=40)
    whole = solver.scale_search(h, cfg.basis_size, cfg)
    monkeypatch.setattr(solver, "_LOCAL_HALF_WIDTH", 1e-3)
    searches = _counted_searches(monkeypatch)
    result = ground_energy(h, cfg)
    lo, hi = cfg.scale_interval
    (half_lo, half_hi, _), (local_lo, local_hi, _), (full_lo, full_hi, _) = searches
    assert (half_lo, half_hi) == (full_lo, full_hi) == (lo, hi)
    assert lo < local_lo < local_hi < hi
    assert result.optimal_basis_scale == whole.scale
    assert result.warnings == []


def test_flat_bottom_stops_the_search_early(monkeypatch):
    # exactly flat (up to 1e-15 of ripple) within 0.5 of t = 0.3 in log
    # scale, quadratic outside; the least value is at least 1 - 1e-15
    def f(x):
        d = abs(math.log(x) - 0.3)
        return 1.0 + max(0.0, d - 0.5) ** 2 + 1e-15 * math.sin(1e4 * d)

    def run():
        calls = []
        res = minimize_log_golden(lambda x: calls.append(x) or f(x), 0.05, 20.0, 1e-4)
        return res, len(calls)

    res, evaluations = run()
    assert res.fx - (1.0 - 1e-15) <= solver.FLAT_TOL * abs(res.fx)
    assert abs(math.log(res.x) - 0.3) <= 0.5
    assert not (res.at_lower or res.at_upper)
    # without the flat stop the search narrows the plateau down to rel_tol
    monkeypatch.setattr(solver, "FLAT_TOL", -1.0)
    _, full = run()
    assert evaluations < full


# --- reference constant -------------------------------------------------------


def test_scaled_energy_linear_values():
    assert scaled_energy_linear(1.0, 1.0) == pytest.approx(2.2322)
    assert scaled_energy_linear(2.0, 1.0) == pytest.approx(3.1568, abs=1e-4)
    assert scaled_energy_linear(4.0, 9.0) == pytest.approx(6.0 * 2.2322, rel=1e-14)
    with pytest.raises(ValueError):
        scaled_energy_linear(-1.0, 1.0)
    with pytest.raises(ValueError):
        scaled_energy_linear(1.0, 0.0)


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
    with pytest.raises(ValueError):
        SolverConfig(basis_size=1)
    with pytest.raises(ValueError):
        SolverConfig(scale_interval=(2.0, 1.0))
    with pytest.raises(ValueError):
        SolverConfig(scale_interval=(0.0, 1.0))
    with pytest.raises(ValueError):
        SolverConfig(quadrature_order=8)


def test_matrix_argument_validation():
    with pytest.raises(ValueError):
        kinetic_matrix(0.0, 1.0, 0.0, 4, 1.0, 64)
    with pytest.raises(ValueError):
        potential_matrix(Linear(1.0), 1.0, 4, -1.0, 64)


def test_spectrum_result_fields():
    result = ground_energy(linear_hamiltonian(), SolverConfig(basis_size=10))
    assert isinstance(result, SpectrumResult)
    assert result.coefficients.shape == (10,)
    assert result.optimal_basis_scale > 0.0
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
    # the energy is the search's own eigvalsh value, and the search assembles
    # bit for bit the matrix that the public builders give at that scale
    canonical, energy, length = natural_units(h)
    assert natural_units(canonical)[1:] == (1.0, 1.0)
    cfg = SolverConfig(basis_size=basis_size)
    result = ground_energy(canonical, cfg)
    sigma, order = result.optimal_basis_scale, cfg.quadrature_order
    kin = kinetic_matrix(canonical.beta, canonical.lam, canonical.mass, basis_size, sigma, order)
    pot = potential_matrix(canonical.potential, canonical.gamma, basis_size, sigma, order)
    assert np.array_equal(result.matrix, kin + pot)
    assert result.ground_energy == np.linalg.eigvalsh(kin + pot)[0]


def test_coefficients_are_computed_on_first_read_and_read_only(monkeypatch):
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a) or eigh(a))
    result = ground_energy(linear_hamiltonian(mass=0.5), SolverConfig(basis_size=12))
    dilated = result.dilated(2.0, 3.0)
    assert calls == []
    coefficients = result.coefficients
    assert result.coefficients is coefficients
    assert len(calls) == 1
    assert np.array_equal(dilated.coefficients, coefficients)
    assert len(calls) == 2
    for array in (coefficients, result.matrix, dilated.matrix):
        with pytest.raises(ValueError):
            array[0] = 99.0
    assert np.linalg.norm(coefficients) == pytest.approx(1.0, rel=1e-12)
    assert coefficients[np.flatnonzero(np.abs(coefficients) > 1e-12)[0]] > 0.0
