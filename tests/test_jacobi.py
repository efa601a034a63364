import math

import numpy as np
import pytest

from salbound.delta import jacobi_matrix

from delta_reference import from_jacobi, to_jacobi


@pytest.mark.parametrize("n", range(2, 9))
def test_matrix_is_orthogonal_with_uniform_first_row(n):
    b = jacobi_matrix(n)
    np.testing.assert_allclose(b @ b.T, np.eye(n), atol=1e-12)
    np.testing.assert_allclose(b[0], np.full(n, 1.0 / math.sqrt(n)), atol=1e-15)


def test_second_row_is_pair_difference():
    for n in (2, 3, 5):
        b = jacobi_matrix(n)
        expected = np.zeros(n)
        expected[0] = 1.0 / math.sqrt(2.0)
        expected[1] = -1.0 / math.sqrt(2.0)
        np.testing.assert_allclose(b[1], expected, atol=1e-15)


def test_two_particle_example():
    p = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
    pi = to_jacobi(p)
    np.testing.assert_allclose(pi[0], 0.0, atol=0.0)
    np.testing.assert_allclose(pi[1], [math.sqrt(2.0), 0.0, 0.0], rtol=1e-15)


def test_round_trip():
    rng = np.random.default_rng(7)
    for n in (2, 3, 4, 6):
        p = rng.normal(size=(n, 3))
        np.testing.assert_allclose(from_jacobi(to_jacobi(p)), p, atol=1e-12)


@pytest.mark.parametrize("n", range(2, 7))
def test_norm_identity_on_random_configurations(n):
    # sum_i p_i^2 = pi_1^2 + sum_{i>=2} pi_i^2 for arbitrary momenta
    rng = np.random.default_rng(100 + n)
    p = rng.normal(size=(1000, n, 3)) * 3.0
    pi = to_jacobi(p)
    lhs = (p**2).sum(axis=(1, 2))
    rhs = (pi**2).sum(axis=(1, 2))
    assert np.max(np.abs(lhs - rhs) / np.maximum(1.0, lhs)) <= 1e-12


@pytest.mark.parametrize("n", range(2, 7))
def test_last_momentum_reconstruction(n):
    # p_N = pi_1/sqrt(N) - sqrt((N-1)/N) pi_N componentwise
    rng = np.random.default_rng(200 + n)
    p = rng.normal(size=(50, n, 3))
    pi = to_jacobi(p)
    rebuilt = pi[:, 0] / math.sqrt(n) - math.sqrt((n - 1) / n) * pi[:, n - 1]
    np.testing.assert_allclose(rebuilt, p[:, n - 1], atol=1e-12)


def test_zero_total_momentum_maps_to_zero_first_coordinate():
    rng = np.random.default_rng(5)
    for n in (2, 3, 5):
        p = rng.normal(size=(n, 3))
        p[-1] -= p.sum(axis=0)
        pi = to_jacobi(p)
        assert np.abs(pi[0]).max() <= 1e-14 * max(1.0, np.abs(p).max())


def test_matrix_validation():
    with pytest.raises(ValueError):
        jacobi_matrix(1)
