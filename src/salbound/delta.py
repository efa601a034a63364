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
mixtures in Jacobi momentum coordinates, optionally averaged over particle
permutations) and estimates the expectation of delta together with the
per-index edge-length means, so that claimed inequalities can be tested and
any negative expectation can be reproduced exactly from its serialized state
and seed.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .bounds import model_status
from .jacobi import from_jacobi, jacobi_matrix, require_zero_total_momentum, to_jacobi


def _pairs(n: int) -> tuple[tuple[int, int], ...]:
    return tuple((i, j) for i in range(n) for j in range(i + 1, n))


def delta_value(mass: float, momenta: np.ndarray) -> float:
    """delta(m, [p]) for one configuration of N three-vectors.

    Rejects configurations off the zero-total-momentum plane; the quantity
    is only meaningful for translation-invariant states.
    """
    if mass < 0.0:
        raise ValueError("mass must be nonnegative")
    momenta = np.asarray(momenta, dtype=float)
    if momenta.ndim != 2 or momenta.shape[1] != 3 or momenta.shape[0] < 2:
        raise ValueError("momenta must have shape (N, 3) with N >= 2")
    require_zero_total_momentum(momenta)
    return float(delta_batch(mass, momenta[None, :, :])[0])


def delta_batch(mass: float, momenta: np.ndarray) -> np.ndarray:
    """Vectorized delta over a (samples, N, 3) array; no validation."""
    n = momenta.shape[1]
    kinetic = np.sqrt((momenta**2).sum(axis=2) + mass * mass).sum(axis=1)
    coef = (n - 1) / (2.0 * n)
    pair_sum = 0.0
    for i, j in _pairs(n):
        d2 = ((momenta[:, i] - momenta[:, j]) ** 2).sum(axis=1)
        pair_sum = pair_sum + np.sqrt(coef * d2 + mass * mass)
    return kinetic - (2.0 / (n - 1)) * pair_sum


def tetrahedron_relations(q: float) -> tuple[float, float]:
    """Height h = sqrt(2/3) q and centroid-to-vertex distance k = sqrt(3/8) q
    of a regular tetrahedron with edge length q."""
    if not q > 0.0:
        raise ValueError("edge length must be positive")
    return math.sqrt(2.0 / 3.0) * q, math.sqrt(3.0 / 8.0) * q


def regular_tetrahedron(edge: float) -> np.ndarray:
    """Vertices of a regular tetrahedron with the given edge, centered at 0."""
    if not edge > 0.0:
        raise ValueError("edge length must be positive")
    vertices = np.array(
        [[1.0, 1.0, 1.0], [1.0, -1.0, -1.0], [-1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]]
    )
    return vertices * (edge / (2.0 * math.sqrt(2.0)))


@dataclass(frozen=True)
class SymmetrizedGaussianState:
    """Gaussian mixture over the translation-invariant Jacobi momenta.

    ``centers`` and ``widths`` have shape (components, N-1, 3): one center
    and one width per Jacobi momentum coordinate and Cartesian axis.  With
    ``symmetrized`` set, the sampled distribution is averaged over all
    particle permutations: a permutation-invariant mixture, so per-index
    means agree across indices.  It is not a boson state (the permutations
    are mixed, not superposed, so there is no interference), and since delta
    is symmetric in the particles the average leaves <delta> unchanged.
    Sampling is exact.
    """

    weights: np.ndarray
    centers: np.ndarray
    widths: np.ndarray
    symmetrized: bool = True

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
            "symmetrized": self.symmetrized,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SymmetrizedGaussianState":
        return cls(
            weights=np.asarray(data["weights"], dtype=float),
            centers=np.asarray(data["centers"], dtype=float),
            widths=np.asarray(data["widths"], dtype=float),
            symmetrized=bool(data["symmetrized"]),
        )


def random_state(n: int, rng: np.random.Generator) -> SymmetrizedGaussianState:
    """One random symmetrized state: 1-4 components, unit-Gaussian centers,
    widths log-uniform in [0.3, 3]."""
    components = int(rng.integers(1, 5))
    centers = rng.normal(size=(components, n - 1, 3))
    widths = np.exp(rng.uniform(math.log(0.3), math.log(3.0), size=(components, n - 1, 3)))
    weights = rng.dirichlet(np.ones(components))
    return SymmetrizedGaussianState(weights, centers, widths, symmetrized=True)


def random_state_corpus(n: int, count: int, master_seed: int) -> list[SymmetrizedGaussianState]:
    """Deterministic corpus of random states for a given master seed."""
    children = np.random.SeedSequence(master_seed).spawn(count)
    return [random_state(n, np.random.Generator(np.random.PCG64(c))) for c in children]


def _shard_rng(seed: int, shard_index: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, shard_index])))


def sample_momenta(
    state: SymmetrizedGaussianState, count: int, seed: int, shard_index: int = 0
) -> np.ndarray:
    """Draw (count, N, 3) particle momenta from the state.

    Jacobi momenta are drawn from the mixture, the total-momentum coordinate
    is pinned to zero, and the inverse Jacobi transform produces particle
    momenta; when the state is symmetrized a uniformly random particle
    permutation is applied to each sample.  That samples the
    permutation-invariant mixture, not a boson state, and leaves every value
    of delta, hence <delta>, unchanged.  Deterministic for a fixed
    (state, count, seed, shard_index).
    """
    if count < 1:
        raise ValueError("sample count must be at least 1")
    rng = _shard_rng(seed, shard_index)
    n = state.n_particles
    component = rng.choice(state.n_components, size=count, p=state.weights)
    relative = state.centers[component] + state.widths[component] * rng.normal(
        size=(count, n - 1, 3)
    )
    full = np.concatenate([np.zeros((count, 1, 3)), relative], axis=1)
    momenta = from_jacobi(full)
    if state.symmetrized:
        order = np.argsort(rng.random((count, n)), axis=1)
        momenta = np.take_along_axis(momenta, order[:, :, None], axis=1)
    return momenta


@dataclass
class _Moments:
    """Streaming count/mean/M2 for an array-valued quantity (Chan merge)."""

    count: int = 0
    mean: np.ndarray | float = 0.0
    m2: np.ndarray | float = 0.0

    def add_batch(self, values: np.ndarray, axis: int = 0) -> None:
        batch = _Moments(
            count=values.shape[axis],
            mean=values.mean(axis=axis),
            m2=((values - values.mean(axis=axis, keepdims=True)) ** 2).sum(axis=axis),
        )
        self.merge(batch)

    def merge(self, other: "_Moments") -> None:
        if other.count == 0:
            return
        if self.count == 0:
            self.count, self.mean, self.m2 = other.count, other.mean, other.m2
            return
        total = self.count + other.count
        diff = other.mean - self.mean
        self.mean = self.mean + diff * (other.count / total)
        self.m2 = self.m2 + other.m2 + diff**2 * (self.count * other.count / total)
        self.count = total

    def stderr(self):
        return np.sqrt(self.m2 / (self.count - 1) / self.count)


@dataclass
class DeltaStats:
    """Monte Carlo estimate of the delta expectation for one state.

    ``k_by_index`` holds the per-particle means of sqrt(p_i^2 + m^2) and
    ``q_by_pair`` the per-pair means of sqrt((N-1)/(2N) (p_i-p_j)^2 + m^2);
    boson symmetry requires these to agree across indices within sampling
    error, which :meth:`symmetry_consistent` checks.
    """

    n: int
    mass: float
    samples: int
    mean: float
    stderr: float
    k_mean: float
    q_mean: float
    k_by_index: np.ndarray
    k_stderr_by_index: np.ndarray
    q_by_pair: np.ndarray
    q_stderr_by_pair: np.ndarray
    pairs: tuple[tuple[int, int], ...]
    seed: int
    shard_count: int
    warnings: list[str] = field(default_factory=list)

    def symmetry_consistent(self, max_sigma: float = 3.0) -> bool:
        for values, errors in (
            (self.k_by_index, self.k_stderr_by_index),
            (self.q_by_pair, self.q_stderr_by_pair),
        ):
            for a in range(len(values)):
                for b in range(a + 1, len(values)):
                    gap = abs(values[a] - values[b])
                    scale = math.hypot(errors[a], errors[b])
                    if gap > max_sigma * scale:
                        return False
        return True

    def negative_beyond(self, sigma: float = 3.0) -> bool:
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
    shards whose moments are merged in shard order, so the result is
    deterministic for a fixed (state, samples, seed, shard_count) and
    independent of ``threads``.
    """
    if mass < 0.0:
        raise ValueError("mass must be nonnegative")
    if samples < 2:
        raise ValueError("need at least two samples for a standard error")
    if shard_count < 1 or shard_count > samples:
        raise ValueError("shard count must be in [1, samples]")
    n = state.n_particles
    pairs = _pairs(n)
    coef = (n - 1) / (2.0 * n)
    base, extra = divmod(samples, shard_count)
    counts = [base + (1 if k < extra else 0) for k in range(shard_count)]

    def run_shard(shard_index: int):
        momenta = sample_momenta(state, counts[shard_index], seed, shard_index)
        k_vars = np.sqrt((momenta**2).sum(axis=2) + mass * mass)
        q_vars = np.empty((momenta.shape[0], len(pairs)))
        for col, (i, j) in enumerate(pairs):
            d2 = ((momenta[:, i] - momenta[:, j]) ** 2).sum(axis=1)
            q_vars[:, col] = np.sqrt(coef * d2 + mass * mass)
        deltas = k_vars.sum(axis=1) - (2.0 / (n - 1)) * q_vars.sum(axis=1)
        parts = (_Moments(), _Moments(), _Moments())
        parts[0].add_batch(deltas)
        parts[1].add_batch(k_vars)
        parts[2].add_batch(q_vars)
        return parts

    if threads > 1 and shard_count > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            shard_moments = list(pool.map(run_shard, range(shard_count)))
    else:
        shard_moments = [run_shard(k) for k in range(shard_count)]

    delta_m, k_m, q_m = _Moments(), _Moments(), _Moments()
    for dm, km, qm in shard_moments:
        delta_m.merge(dm)
        k_m.merge(km)
        q_m.merge(qm)

    return DeltaStats(
        n=n,
        mass=mass,
        samples=samples,
        mean=float(delta_m.mean),
        stderr=float(delta_m.stderr()),
        k_mean=float(np.mean(k_m.mean)),
        q_mean=float(np.mean(q_m.mean)),
        k_by_index=np.asarray(k_m.mean),
        k_stderr_by_index=np.asarray(k_m.stderr()),
        q_by_pair=np.asarray(q_m.mean),
        q_stderr_by_pair=np.asarray(q_m.stderr()),
        pairs=pairs,
        seed=seed,
        shard_count=shard_count,
    )


@dataclass
class IdentitiesReport:
    """Result of the quadratic-identity checks on a sampled state."""

    skipped: bool
    warnings: list[str]
    max_identity_residual: float | None = None
    pi_square_means: np.ndarray | None = None
    pi_square_stderrs: np.ndarray | None = None
    max_mean_difference_sigma: float | None = None


def quadratic_identities_check(
    state: SymmetrizedGaussianState, samples: int, seed: int
) -> IdentitiesReport:
    """Check the center-of-mass identity and the equal-quadratic-mean relation.

    Pointwise, every configuration must satisfy
    sum_i p_i^2 = (1/N) sum_{i<j} (p_i - p_j)^2 + (1/N) (sum_i p_i)^2 exactly;
    on symmetrized states the means of pi_k^2 over the relative Jacobi
    coordinates k = 2..N must agree within sampling error.  Unsymmetrized
    states are skipped with a warning since the second relation needs the
    permutation average.
    """
    if not state.symmetrized:
        return IdentitiesReport(
            skipped=True,
            warnings=["state is not symmetrized; equal-mean check skipped"],
        )
    momenta = sample_momenta(state, samples, seed)
    n = state.n_particles

    total_sq = (momenta.sum(axis=1) ** 2).sum(axis=1)
    lhs = (momenta**2).sum(axis=(1, 2))
    pair_sq = 0.0
    for i, j in _pairs(n):
        pair_sq = pair_sq + ((momenta[:, i] - momenta[:, j]) ** 2).sum(axis=1)
    rhs = pair_sq / n + total_sq / n
    residual = float(np.max(np.abs(lhs - rhs) / np.maximum(1.0, np.abs(lhs))))

    pi = to_jacobi(momenta)
    pi_sq = (pi[:, 1:] ** 2).sum(axis=2)
    means = pi_sq.mean(axis=0)
    stderrs = pi_sq.std(axis=0, ddof=1) / math.sqrt(samples)
    worst = 0.0
    for a in range(n - 1):
        for b in range(a + 1, n - 1):
            gap = abs(means[a] - means[b])
            scale = math.hypot(stderrs[a], stderrs[b])
            worst = max(worst, gap / scale if scale > 0 else 0.0)

    return IdentitiesReport(
        skipped=False,
        warnings=[],
        max_identity_residual=residual,
        pi_square_means=means,
        pi_square_stderrs=stderrs,
        max_mean_difference_sigma=worst,
    )


def finding_document(state: SymmetrizedGaussianState, stats: DeltaStats) -> dict:
    """Serializable record of a negative-mean finding, sufficient to reproduce it."""
    return {
        "type": "negative-delta-expectation",
        "regime": model_status(stats.n, stats.mass).label,
        "n": stats.n,
        "mass": stats.mass,
        "samples": stats.samples,
        "seed": stats.seed,
        "shard_count": stats.shard_count,
        "mean": stats.mean,
        "stderr": stats.stderr,
        "state": state.to_dict(),
    }


def jacobi_momentum_reconstruction(momenta: np.ndarray) -> np.ndarray:
    """p_N rebuilt from the Jacobi momenta as pi_1/sqrt(N) - sqrt((N-1)/N) pi_N."""
    momenta = np.asarray(momenta, dtype=float)
    n = momenta.shape[-2]
    pi = to_jacobi(momenta)
    return pi[..., 0, :] / math.sqrt(n) - math.sqrt((n - 1) / n) * pi[..., n - 1, :]


__all__ = [
    "DeltaStats",
    "IdentitiesReport",
    "SymmetrizedGaussianState",
    "delta_batch",
    "delta_value",
    "expectation_delta",
    "finding_document",
    "jacobi_matrix",
    "jacobi_momentum_reconstruction",
    "quadratic_identities_check",
    "random_state",
    "random_state_corpus",
    "regular_tetrahedron",
    "sample_momenta",
    "tetrahedron_relations",
]
