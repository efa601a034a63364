"""Jacobi relative coordinates for N identical particles.

The transform matrix B is orthogonal with uniform first row 1/sqrt(N), so the
first new coordinate carries the total (center-of-mass) component and the
remaining N-1 coordinates are translation invariant.  Row two realizes
(x_1 - x_2)/sqrt(2).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


@lru_cache(maxsize=None)
def jacobi_matrix(n: int) -> np.ndarray:
    """Orthogonal N x N Jacobi matrix (read-only)."""
    if n < 2:
        raise ValueError("need at least two particles")
    b = np.zeros((n, n))
    b[0] = 1.0 / np.sqrt(n)
    for k in range(2, n + 1):
        norm = 1.0 / np.sqrt(k * (k - 1))
        b[k - 1, : k - 1] = norm
        b[k - 1, k - 1] = -(k - 1) * norm
    b.setflags(write=False)
    return b


def to_jacobi(vectors: np.ndarray) -> np.ndarray:
    """Apply B along the particle axis of an (..., N, d) array."""
    vectors = np.asarray(vectors, dtype=float)
    return jacobi_matrix(vectors.shape[-2]) @ vectors


def from_jacobi(jacobi_vectors: np.ndarray) -> np.ndarray:
    """Inverse transform, B being orthogonal this is B^T."""
    jacobi_vectors = np.asarray(jacobi_vectors, dtype=float)
    return jacobi_matrix(jacobi_vectors.shape[-2]).T @ jacobi_vectors


def total_momentum(momenta: np.ndarray) -> np.ndarray:
    """Sum over the particle axis of an (..., N, d) array."""
    return np.asarray(momenta, dtype=float).sum(axis=-2)


def require_zero_total_momentum(momenta: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Validate that the configuration lies on the zero-total-momentum plane."""
    momenta = np.asarray(momenta, dtype=float)
    limit = tol * max(1.0, float(np.abs(momenta).max(initial=0.0)))
    worst = float(np.abs(total_momentum(momenta)).max(initial=0.0))
    if worst > limit:
        raise ValueError(
            f"total momentum {worst:.3e} violates the zero-total-momentum "
            f"constraint (tolerance {limit:.3e})"
        )
    return momenta
