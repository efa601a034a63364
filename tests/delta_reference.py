"""Reference delta sampler, reduction and geometry, for the tests.

Written the plain way on (samples, N, 3) arrays, independent of how
``salbound.delta`` lays out and chunks its work: the sampler draws the
mixture components, then all normal deviates in one call, pads the
total-momentum Jacobi coordinate with zeros and applies the inverse Jacobi
transform; the reduction loops over particle pairs.  The Jacobi transforms
apply the shipped ``salbound.delta.jacobi_matrix``, and ``delta_value`` runs
the shipped reduction on one configuration, so the checks built on them test
the code that ``verify-delta`` runs.
"""

from __future__ import annotations

import math

import numpy as np

from salbound.delta import _kinetic_terms, jacobi_matrix


def to_jacobi(momenta: np.ndarray) -> np.ndarray:
    """Jacobi coordinates B p along the particle axis of an (..., N, 3) array."""
    return jacobi_matrix(momenta.shape[-2]) @ momenta


def from_jacobi(jacobi: np.ndarray) -> np.ndarray:
    """Particle momenta B^T pi of an (..., N, 3) array of Jacobi momenta."""
    return jacobi_matrix(jacobi.shape[-2]).T @ jacobi


def delta_value(mass: float, momenta) -> float:
    """delta(m, [p]) of one (N, 3) configuration on the zero-total-momentum
    plane, as k - q of ``salbound.delta._kinetic_terms``."""
    kinetic, pair_terms = _kinetic_terms(mass, np.asarray(momenta, dtype=float)[None])
    return float(kinetic[0] - pair_terms[0])


def regular_tetrahedron(edge: float) -> np.ndarray:
    """Vertices of a regular tetrahedron with the given edge, centered at 0."""
    vertices = np.array(
        [[1.0, 1.0, 1.0], [1.0, -1.0, -1.0], [-1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]]
    ) * (edge / (2.0 * math.sqrt(2.0)))
    edges = [np.linalg.norm(vertices[i] - vertices[j]) for i in range(4) for j in range(i + 1, 4)]
    np.testing.assert_allclose(edges, edge, rtol=1e-14)
    return vertices


def reference_sample_momenta(state, count: int, seed: int, shard_index: int = 0) -> np.ndarray:
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, shard_index])))
    n = state.n_particles
    component = rng.choice(state.n_components, size=count, p=state.weights)
    relative = state.centers[component] + state.widths[component] * rng.normal(
        size=(count, n - 1, 3)
    )
    full = np.concatenate([np.zeros((count, 1, 3)), relative], axis=1)
    return from_jacobi(full)


def reference_kinetic_terms(mass: float, momenta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """sum_i sqrt(p_i^2 + m^2) and 2/(N-1) sum_{i<j} sqrt((N-1)/(2N) (p_i - p_j)^2 + m^2)
    per sample."""
    n = momenta.shape[1]
    kinetic = np.sqrt((momenta**2).sum(axis=2) + mass * mass).sum(axis=1)
    coef = (n - 1) / (2.0 * n)
    pair_sum = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            d2 = ((momenta[:, i] - momenta[:, j]) ** 2).sum(axis=1)
            pair_sum = pair_sum + np.sqrt(coef * d2 + mass * mass)
    return kinetic, (2.0 / (n - 1)) * pair_sum
