"""Exact delta expectation of a Gaussian-mixture state, for the tests.

Independent of ``sample_momenta`` and ``expectation_delta``.  Within one
mixture component the relative Jacobi momenta are independent Gaussians
with a diagonal covariance, so every particle momentum p_i and every
rescaled difference sqrt((N-1)/(2N)) (p_i - p_j) is a 3D Gaussian X with
independent axes.  With

    sqrt(s) = 1/(2 sqrt(pi)) * int_0^inf (1 - exp(-t s)) t^(-3/2) dt

and the closed form of E exp(-t (|X|^2 + m^2)), each term of delta becomes
a one-dimensional integral at any mass.  delta has as many positive as
negative unit weights (N particle terms against 2/(N-1) times N(N-1)/2 pair
terms), so the constant parts cancel and the whole expectation is a single
integral.  Its integrand is O(t^(1/2)) at t -> 0, because the second
moments of both sides agree on the zero-total-momentum plane.

Per-sample particle permutations do not change the result: delta is
symmetric in the particles.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate

from salbound.delta import jacobi_matrix


def _term_coefficients(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows mapping the relative Jacobi momenta to each term's Gaussian
    vector, and each term's weight in delta."""
    relative = jacobi_matrix(n)[1:].T  # p_i = sum_k relative[i, k] pi_(k+2)
    scale = math.sqrt((n - 1) / (2.0 * n))
    rows = [relative[i] for i in range(n)]
    rows += [scale * (relative[i] - relative[j]) for i in range(n) for j in range(i + 1, n)]
    weights = np.concatenate([np.ones(n), np.full(len(rows) - n, -2.0 / (n - 1))])
    return np.array(rows), weights


def exact_delta_expectation(state, mass: float) -> float:
    """<delta> over the state's momentum distribution, to about 1e-12."""
    n = state.n_particles
    rows, term_weights = _term_coefficients(n)
    # (terms, components, 3): mean and variance of each term's Gaussian
    means = np.einsum("tk,cka->tca", rows, state.centers)
    variances = np.einsum("tk,cka->tca", rows**2, state.widths**2)
    mass2 = mass * mass

    def integrand(u: float) -> float:
        # t = u^2 turns t^(-3/2) dt into 2 u^(-2) du
        t = u * u
        per_axis = 0.5 * np.log1p(2.0 * t * variances) + t * means**2 / (1.0 + 2.0 * t * variances)
        log_laplace = -t * mass2 - per_axis.sum(axis=2)
        # E exp(-t S) - 1 per term, kept accurate as t -> 0
        shifted = np.expm1(log_laplace) @ state.weights
        return -2.0 * float(term_weights @ shifted) / t

    value, _ = integrate.quad(integrand, 0.0, np.inf, epsabs=1e-13, epsrel=1e-12, limit=400)
    return value / (2.0 * math.sqrt(math.pi))
