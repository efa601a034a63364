"""The pure-Python massless solve (``spectrum.massless_ground_energy``)
against the numpy solve (``solver.ground_energy``) on the same basis."""

import math

import numpy as np
import pytest

from salbound import solver, spectrum
from salbound.cli import PURE_PYTHON_MAX_BASIS
from salbound.potentials import Linear, parse_potential
from salbound.reductions import ReducedHamiltonian, SolverConfig
from salbound.spectrum import basis_radii, centred_half, massless_ground_energy

EPS = np.finfo(float).eps

SHAPES = [
    "linear:1",
    "harmonic:1",
    "power:1,0.5",
    "power:1,1.5",
    "power:1,2.5",
    "power:1,4",
    "coulomb+linear:0.1,1",
    "coulomb+linear:0.3,1",
    "coulomb+linear:0.446,1",
    "coulomb:0.1",
    "coulomb:0.3",
]


def roundoff(overlap, matrix) -> float:
    """eps |x|.|H| |x| / |E| for the numpy solve of (matrix, overlap): the
    relative roundoff that the Rayleigh quotient of its vector x carries from
    cancellation between coefficients of opposite sign, or that one-ulp
    changes of the matrix elements move the energy by."""
    energy, x, _ = solver._lowest(solver._factor(overlap), matrix)
    return EPS * (np.abs(x) @ np.abs(matrix) @ np.abs(x)) / abs(energy)


def signed(x, overlap):
    """x with the sign that makes sum_i (S x)_i positive."""
    return x if (overlap @ x).sum() > 0.0 else -x


@pytest.mark.parametrize("shape", SHAPES)
def test_kernels_agree_up_to_the_crossover(shape):
    # the shapes are canonical, so energies are in natural units.  The
    # tolerance is 1e-13 relative, or the energy's own roundoff where that is
    # larger: r^0.5 at K = 7..14 has coefficients up to 20 of alternating
    # sign, and there the numpy energy is 8.4e-13 from a 50-digit solve of its
    # own matrices at K = 9, while the two kernels' elements differ by an ulp
    # in a few entries (numpy's vectorised pow against libm's)
    h = ReducedHamiltonian(1.0, 1.0, 1.0, 0.0, parse_potential(shape))
    for size in range(2, PURE_PYTHON_MAX_BASIS + 1):
        cfg = SolverConfig(basis_size=size)
        pure, numpy = massless_ground_energy(h, cfg), solver.ground_energy(h, cfg)
        overlap, matrix = solver._matrices(h, np.array(basis_radii(h, size)))
        block = centred_half(size)
        full = roundoff(overlap, matrix)
        half = roundoff(overlap[block, block], matrix[block, block])
        energy = numpy.ground_energy
        assert pure.ground_energy == pytest.approx(energy, rel=max(1e-13, full), abs=0.0), size
        assert abs(pure.convergence_estimate - numpy.convergence_estimate) <= max(
            1e-12, full + half
        ) * abs(energy), size
        assert pure.basis_range == numpy.basis_range
        assert pure.warnings == numpy.warnings, size
        x, y = np.array(pure.coefficients), numpy.coefficients
        assert np.array_equal(x, signed(x, overlap)) and np.array_equal(y, signed(y, overlap))
        assert math.sqrt((x - y) @ overlap @ (x - y)) <= 1e-6, size


def test_pure_result_is_read_only_and_massless_only():
    h = ReducedHamiltonian(2.0, 1.5, 0.7, 0.0, Linear(1.3))
    result = massless_ground_energy(h, SolverConfig(basis_size=12))
    assert isinstance(result.coefficients, tuple) and len(result.coefficients) == 12
    # the same dilation back to the operator's own units as the numpy solve
    numpy = solver.ground_energy(h, SolverConfig(basis_size=12))
    assert result.ground_energy == pytest.approx(numpy.ground_energy, rel=1e-13)
    assert result.basis_range == numpy.basis_range
    with pytest.raises(ValueError, match="massless operators only"):
        massless_ground_energy(ReducedHamiltonian(1.0, 1.0, 1.0, 0.5, Linear(1.0)))


@pytest.mark.parametrize("shape", ["linear:1", "power:1,0.5", "coulomb+linear:0.3,1", "coulomb:0.3"])
def test_pure_energy_is_the_rayleigh_quotient_of_its_coefficients(shape):
    # x.S x = 1 and E = x.H x on the kernel's own matrices, with
    # sum_i (S x)_i > 0
    h = ReducedHamiltonian(1.0, 1.0, 1.0, 0.0, parse_potential(shape))
    result = massless_ground_energy(h, SolverConfig(basis_size=24))
    x = np.array(result.coefficients)
    overlap, matrix = map(np.array, spectrum._massless_matrices(h, basis_radii(h, 24)))
    assert x @ overlap @ x == pytest.approx(1.0, rel=1e-12)
    assert (overlap @ x).sum() > 0.0
    assert result.ground_energy == pytest.approx(x @ matrix @ x, rel=1e-12)
