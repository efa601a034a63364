"""Monte Carlo checks of the kinetic-difference expectation.

For N momenta on the zero-total-momentum plane, the quantity

    delta(m, [p]) = sum_i sqrt(p_i^2 + m^2)
                    - 2/(N-1) * sum_{i<j} sqrt((N-1)/(2N) (p_i - p_j)^2 + m^2)

is the difference between the true kinetic sum and the pairwise kinetic
terms of the model operator behind the conjectured N-body lower bound.  It
vanishes identically at N = 2, on equilateral three-particle configurations
at any mass, and on centered regular tetrahedra at zero mass; it is negative
on collinear "pair plus spectator" configurations.

This module samples translation-invariant momentum distributions (Gaussian
mixtures in Jacobi momentum coordinates) and estimates the expectation of
delta together with the mean one-particle and pair kinetic terms, so that
claimed inequalities can be tested and any negative expectation can be
reproduced exactly from its serialized state and seed.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

# Samples per block of the sampler and the reduction.  Both work on
# (3, N, samples) blocks with samples innermost, so every elementwise pass runs
# over long contiguous rows, and their working memory is O(_CHUNK * N) at any N.
_CHUNK = 8192


@lru_cache(maxsize=None)
def jacobi_matrix(n: int) -> np.ndarray:
    """Orthogonal N x N Jacobi matrix B of relative coordinates (read-only).

    Its first row is uniform, 1/sqrt(N), so the first new coordinate carries
    the total (center-of-mass) component and the remaining N-1 coordinates
    are translation invariant; row two realizes (x_1 - x_2)/sqrt(2).  Being
    orthogonal, B^T is the inverse transform.
    """
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


def _kinetic_terms(mass: float, momenta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The two sums whose difference is delta, per sample of a (samples, N, 3)
    array: sum_i sqrt(p_i^2 + m^2) and
    2/(N-1) sum_{i<j} sqrt((N-1)/(2N) (p_i - p_j)^2 + m^2).  Each is N times
    the sample's mean one-particle or pair term."""
    count, n = momenta.shape[:2]
    m2 = mass * mass
    coef = (n - 1) / (2.0 * n)
    kinetic, pair_sum = np.empty(count), np.zeros(count)
    for start in range(0, count, _CHUNK):
        stop = min(start + _CHUNK, count)
        p = np.ascontiguousarray(momenta[start:stop].transpose(2, 1, 0))
        x, y, z = p
        kinetic[start:stop] = np.sqrt(x * x + y * y + z * z + m2).sum(axis=0)
        # particle i against all its partners j > i in one broadcast
        for i in range(n - 1):
            d = p[:, i : i + 1] - p[:, i + 1 :]
            d *= d
            d2 = d.sum(axis=0)
            d2 *= coef
            d2 += m2
            pair_sum[start:stop] += np.sqrt(d2, out=d2).sum(axis=0)
    pair_sum *= 2.0 / (n - 1)
    return kinetic, pair_sum


@dataclass(frozen=True)
class SymmetrizedGaussianState:
    """Gaussian mixture over the translation-invariant Jacobi momenta.

    ``centers`` and ``widths`` have shape (components, N-1, 3): one center
    and one width per Jacobi momentum coordinate and Cartesian axis.
    Sampling is exact.  Despite the name, the mixture is not averaged over
    particle permutations: delta is symmetric in the particles, so such an
    average would leave <delta> unchanged, and it would still not be a boson
    state (permuted amplitudes that are mixed, not superposed, do not
    interfere).
    """

    weights: np.ndarray
    centers: np.ndarray
    widths: np.ndarray

    def __post_init__(self):
        weights = np.asarray(self.weights, dtype=float)
        centers = np.asarray(self.centers, dtype=float)
        widths = np.asarray(self.widths, dtype=float)
        if centers.ndim != 3 or centers.shape[2] != 3 or centers.shape[1] < 1:
            raise ValueError("centers must have shape (components, N-1, 3)")
        if widths.shape != centers.shape:
            raise ValueError("widths must match the shape of centers")
        if weights.shape != (centers.shape[0],):
            raise ValueError("need one weight per mixture component")
        if np.any(weights < 0.0) or not np.isclose(weights.sum(), 1.0, atol=1e-9):
            raise ValueError("weights must be nonnegative and sum to 1")
        if not (np.isfinite(centers).all() and np.isfinite(widths).all()):
            raise ValueError("centers and widths must be finite")
        if not np.all(widths > 0.0):
            raise ValueError("widths must be strictly positive")
        weights = weights / weights.sum()
        for arr in (weights, centers, widths):
            arr.setflags(write=False)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "centers", centers)
        object.__setattr__(self, "widths", widths)

    @property
    def n_particles(self) -> int:
        return self.centers.shape[1] + 1

    @property
    def n_components(self) -> int:
        return self.centers.shape[0]

    def to_dict(self) -> dict:
        return {
            "weights": self.weights.tolist(),
            "centers": self.centers.tolist(),
            "widths": self.widths.tolist(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SymmetrizedGaussianState":
        """Inverse of :meth:`to_dict`.  Other keys are ignored, so findings
        written with an extra per-state flag still load and replay to the
        same values."""
        return cls(weights=data["weights"], centers=data["centers"], widths=data["widths"])


def random_state(n: int, rng: np.random.Generator) -> SymmetrizedGaussianState:
    """One random mixture: 1-4 components, unit-Gaussian centers, widths
    log-uniform in [0.3, 3]."""
    components = int(rng.integers(1, 5))
    centers = rng.normal(size=(components, n - 1, 3))
    widths = np.exp(rng.uniform(math.log(0.3), math.log(3.0), size=(components, n - 1, 3)))
    weights = rng.dirichlet(np.ones(components))
    return SymmetrizedGaussianState(weights, centers, widths)


def random_state_corpus(n: int, count: int, master_seed: int) -> list[SymmetrizedGaussianState]:
    """Deterministic corpus of random states for a given master seed."""
    children = np.random.SeedSequence(master_seed).spawn(count)
    return [random_state(n, np.random.Generator(np.random.PCG64(c))) for c in children]


def _whole(name: str, value) -> int:
    """``value`` as an int, else ValueError naming it.  Sample and shard
    counts set array sizes, so a whole float such as 10.0 is refused too."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def _shard_rng(seed: int, shard_index: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, shard_index])))


def sample_momenta(
    state: SymmetrizedGaussianState, count: int, seed: int, shard_index: int = 0
) -> np.ndarray:
    """Draw (count, N, 3) particle momenta from the state.

    Jacobi momenta are drawn from the mixture (the components of all samples
    first, then their normal deviates in sample order), the total-momentum
    coordinate is pinned to zero, and the inverse Jacobi transform produces
    particle momenta.  The result is a transposed view of a (3, N, count)
    array.  Deterministic for a fixed (state, count, seed, shard_index).
    """
    count = _whole("count", count)
    if count < 1:
        raise ValueError("sample count must be at least 1")
    rng = _shard_rng(seed, shard_index)
    n = state.n_particles
    component = rng.choice(state.n_components, size=count, p=state.weights)
    centers, widths = state.centers.T, state.widths.T
    # B^T without its total-momentum column maps Jacobi to particle momenta
    to_particles = jacobi_matrix(n)[1:].T
    out = np.empty((3, n, count))
    for start in range(0, count, _CHUNK):
        stop = min(start + _CHUNK, count)
        picked = component[start:stop]
        # sequential draws of (rows, N-1, 3) continue one draw of (count, N-1, 3)
        deviates = rng.normal(size=(stop - start, n - 1, 3))
        q = np.take(widths, picked, axis=2)
        q *= deviates.transpose(2, 1, 0)
        q += np.take(centers, picked, axis=2)
        np.matmul(to_particles, q, out=out[:, :, start:stop])
    return out.transpose(2, 1, 0)


@dataclass
class DeltaStats:
    """Monte Carlo estimate of the delta expectation for one state: what
    :func:`expectation_delta` computes, not its inputs.

    ``k_mean`` is the mean of sqrt(p_i^2 + m^2) over samples and particles,
    ``q_mean`` the mean of sqrt((N-1)/(2N) (p_i-p_j)^2 + m^2) over samples
    and pairs, so that ``mean`` = N (``k_mean`` - ``q_mean``) for the state's
    N particles.
    """

    mean: float
    stderr: float
    k_mean: float
    q_mean: float

    def negative_beyond(self, sigma: float) -> bool:
        return self.mean < -sigma * self.stderr


def expectation_delta(
    state: SymmetrizedGaussianState,
    mass: float,
    samples: int,
    seed: int,
    shard_count: int = 1,
    threads: int = 1,
) -> DeltaStats:
    """Monte Carlo mean and standard error of delta over the state.

    The sample stream splits into ``shard_count`` independently seeded
    shards whose kinetic terms are pooled in shard order, so the result is
    deterministic for a fixed (state, samples, seed, shard_count) and
    independent of ``threads``.  Shards run on up to ``threads`` threads
    once each holds at least one sampling block (8192 samples), and inline
    below that.
    """
    if not (math.isfinite(mass) and mass >= 0.0):
        raise ValueError(f"mass must be finite and nonnegative, got {mass}")
    # every kinetic term is sqrt(p^2 + m^2), which is inf once m^2 overflows
    if not math.isfinite(mass * mass):
        raise ValueError(f"mass {mass:g} is outside the floating-point range")
    samples = _whole("samples", samples)
    shard_count = _whole("shard_count", shard_count)
    if samples < 2:
        raise ValueError("need at least two samples for a standard error")
    if shard_count < 1 or shard_count > samples:
        raise ValueError("shard count must be in [1, samples]")
    n = state.n_particles
    base, extra = divmod(samples, shard_count)
    counts = [base + (1 if k < extra else 0) for k in range(shard_count)]

    def run_shard(shard_index: int):
        return _kinetic_terms(mass, sample_momenta(state, counts[shard_index], seed, shard_index))

    # a shard below one block of samples finishes sooner than a thread starts
    if threads > 1 and shard_count > 1 and counts[0] >= _CHUNK:
        # loaded here so that inline runs skip concurrent.futures
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            shards = list(pool.map(run_shard, range(shard_count)))
    else:
        shards = [run_shard(k) for k in range(shard_count)]

    kinetic, pair_terms = (np.concatenate(terms) for terms in zip(*shards))
    values = kinetic - pair_terms
    mean = values.mean()
    m2 = ((values - mean) ** 2).sum()
    return DeltaStats(
        mean=float(mean),
        stderr=math.sqrt(m2 / (samples - 1) / samples),
        k_mean=float(kinetic.sum()) / (n * samples),
        q_mean=float(pair_terms.sum()) / (n * samples),
    )
