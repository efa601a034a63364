import math
import tracemalloc

import numpy as np
import pytest
from scipy import integrate

from salbound.delta import (
    _CHUNK,
    SymmetrizedGaussianState,
    _kinetic_terms,
    expectation_delta,
    jacobi_matrix,
    random_state_corpus,
    sample_momenta,
)
from salbound.reductions import model_status

from delta_reference import (
    delta_value,
    reference_kinetic_terms,
    reference_sample_momenta,
    regular_tetrahedron,
)
from exact_delta import exact_delta_expectation


def equilateral_config(scale=1.0):
    return scale * np.array(
        [
            [1.0, 0.0, 0.0],
            [-0.5, math.sqrt(3.0) / 2.0, 0.0],
            [-0.5, -math.sqrt(3.0) / 2.0, 0.0],
        ]
    )


def random_zero_sum(rng, n, count=1):
    p = rng.normal(size=(count, n, 3))
    p[:, -1] -= p.sum(axis=1)
    return p if count > 1 else p[0]


def isotropic_state(n, width=1.0):
    return SymmetrizedGaussianState(
        np.ones(1), np.zeros((1, n - 1, 3)), np.full((1, n - 1, 3), width)
    )


# --- pointwise geometry --------------------------------------------------------


def test_collinear_pair_configuration_is_negative():
    config = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    assert delta_value(0.0, config) == pytest.approx(2.0 - 4.0 / math.sqrt(3.0), abs=1e-14)


@pytest.mark.parametrize("mass", [0.0, 1.0, 10.0])
def test_equilateral_configuration_vanishes(mass):
    assert abs(delta_value(mass, equilateral_config())) <= 1e-12
    assert abs(delta_value(mass, equilateral_config(5.0))) <= 1e-11


def test_regular_tetrahedron_vanishes_massless():
    for edge in (0.5, 1.0, 3.7):
        assert abs(delta_value(0.0, regular_tetrahedron(edge))) <= 1e-12 * max(1.0, edge)


def test_two_body_delta_is_identically_zero():
    rng = np.random.default_rng(0)
    for _ in range(20):
        p1 = rng.normal(size=3)
        config = np.stack([p1, -p1])
        for mass in (0.0, 0.7):
            assert abs(delta_value(mass, config)) <= 1e-13


def test_tetrahedron_relations_values():
    # height h = sqrt(2/3) q and centroid-to-vertex distance k = sqrt(3/8) q
    # of a regular tetrahedron with edge q
    def relations(edge):
        vertices = regular_tetrahedron(edge)
        normal = np.cross(vertices[2] - vertices[1], vertices[3] - vertices[1])
        height = abs(np.dot(vertices[0] - vertices[1], normal)) / np.linalg.norm(normal)
        return height, np.linalg.norm(vertices[0])

    h, k = relations(1.0)
    assert h == pytest.approx(0.81650, abs=1e-5)
    assert k == pytest.approx(0.61237, abs=1e-5)
    h2, k2 = relations(2.0)
    assert (h2, k2) == (2.0 * h, 2.0 * k)


def test_tetrahedron_coordinate_construction():
    edge = 1.3
    vertices = regular_tetrahedron(edge)
    np.testing.assert_allclose(vertices.mean(axis=0), 0.0, atol=1e-15)
    for i in range(4):
        for j in range(i + 1, 4):
            assert np.linalg.norm(vertices[i] - vertices[j]) == pytest.approx(edge, abs=1e-12)
    for i in range(4):
        assert np.linalg.norm(vertices[i]) == pytest.approx(math.sqrt(3.0 / 8.0) * edge, abs=1e-12)


# --- invariances -----------------------------------------------------------------


def test_permutation_invariance():
    rng = np.random.default_rng(1)
    for n in (3, 4, 5):
        config = random_zero_sum(rng, n)
        reference = delta_value(0.8, config)
        for _ in range(5):
            perm = rng.permutation(n)
            assert delta_value(0.8, config[perm]) == pytest.approx(reference, rel=1e-12)


def test_rotation_invariance():
    rng = np.random.default_rng(2)
    config = random_zero_sum(rng, 4)
    rotation, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    rotated = config @ rotation.T
    for mass in (0.0, 1.3):
        assert delta_value(mass, rotated) == pytest.approx(
            delta_value(mass, config), rel=1e-12, abs=1e-12
        )


def test_massless_degree_one_homogeneity():
    rng = np.random.default_rng(3)
    config = random_zero_sum(rng, 3)
    base = delta_value(0.0, config)
    for s in (0.1, 2.0, 40.0):
        assert delta_value(0.0, s * config) == pytest.approx(s * base, rel=1e-12)


# --- states and sampling ----------------------------------------------------------


def test_state_validation():
    with pytest.raises(ValueError):
        SymmetrizedGaussianState(np.ones(2), np.zeros((1, 2, 3)), np.ones((1, 2, 3)))
    with pytest.raises(ValueError):
        SymmetrizedGaussianState(np.ones(1), np.zeros((1, 2, 3)), np.zeros((1, 2, 3)))
    with pytest.raises(ValueError):
        SymmetrizedGaussianState(np.array([0.7, 0.7]), np.zeros((2, 2, 3)), np.ones((2, 2, 3)))
    # a non-finite center or width would give a NaN mean that nothing flags
    for bad in (math.nan, math.inf, -math.inf):
        centers, widths = np.zeros((1, 2, 3)), np.ones((1, 2, 3))
        centers[0, 1, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            SymmetrizedGaussianState(np.ones(1), centers, widths)
        with pytest.raises(ValueError, match="finite"):
            SymmetrizedGaussianState.from_dict(
                {"weights": [1.0], "centers": centers.tolist(), "widths": widths.tolist()}
            )
    widths = np.ones((1, 2, 3))
    widths[0, 0, 1] = math.inf
    with pytest.raises(ValueError, match="finite"):
        SymmetrizedGaussianState(np.ones(1), np.zeros((1, 2, 3)), widths)
    state = isotropic_state(3)
    assert state.n_particles == 3
    assert state.n_components == 1


def test_state_dict_round_trip():
    state = random_state_corpus(4, 3, master_seed=11)[2]
    clone = SymmetrizedGaussianState.from_dict(state.to_dict())
    np.testing.assert_array_equal(clone.weights, state.weights)
    np.testing.assert_array_equal(clone.centers, state.centers)
    np.testing.assert_array_equal(clone.widths, state.widths)


def test_corpus_is_deterministic_and_in_range():
    corpus_a = random_state_corpus(3, 10, master_seed=42)
    corpus_b = random_state_corpus(3, 10, master_seed=42)
    assert len(corpus_a) == 10
    for a, b in zip(corpus_a, corpus_b):
        np.testing.assert_array_equal(a.centers, b.centers)
        np.testing.assert_array_equal(a.widths, b.widths)
        np.testing.assert_array_equal(a.weights, b.weights)
        assert 1 <= a.n_components <= 4
        assert np.all((a.widths >= 0.3) & (a.widths <= 3.0))
        assert a.weights.sum() == pytest.approx(1.0, rel=1e-12)


def test_sampling_is_deterministic_and_translation_invariant():
    state = random_state_corpus(4, 1, master_seed=5)[0]
    first = sample_momenta(state, 500, seed=9)
    second = sample_momenta(state, 500, seed=9)
    np.testing.assert_array_equal(first, second)
    totals = np.abs(first.sum(axis=1))
    assert totals.max() <= 1e-12 * max(1.0, np.abs(first).max())


@pytest.mark.parametrize("n", (2, 3, 4, 7))
def test_chunked_sampling_continues_one_draw(n):
    # the sampler draws its normal deviates in blocks of _CHUNK samples; the
    # blocks must continue one another exactly, so the momenta agree with one
    # draw of all deviates (a reordered or skipped draw moves whole samples)
    state = random_state_corpus(n, 2, master_seed=n)[1]
    for count in (2, _CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 5):
        for shard_index in (0, 2):
            momenta = sample_momenta(state, count, seed=13, shard_index=shard_index)
            reference = reference_sample_momenta(state, count, 13, shard_index)
            assert momenta.shape == reference.shape
            scale = np.abs(reference).max()
            assert np.abs(momenta - reference).max() <= 1e-15 * scale, (count, shard_index)


def test_sample_means_vanish_for_centered_state():
    state = isotropic_state(3)
    momenta = sample_momenta(state, 100000, seed=3)
    stderr = momenta.std(axis=0, ddof=1) / math.sqrt(momenta.shape[0])
    assert np.all(np.abs(momenta.mean(axis=0)) <= 4.0 * stderr)


# --- expectation estimates ----------------------------------------------------------


def test_centered_isotropic_states_sit_on_the_equality_manifold():
    # every p_i and rescaled difference has the same radial distribution, so
    # the delta expectation is exactly zero at any mass; the MC mean must be
    # statistically compatible with zero
    for n, mass, seed in ((3, 0.0, 21), (3, 1.5, 22), (4, 0.0, 23), (5, 2.0, 24)):
        stats = expectation_delta(isotropic_state(n), mass, 200000, seed=seed)
        assert abs(stats.mean) <= 4.0 * stats.stderr


def test_mean_equals_n_times_k_minus_q():
    state = random_state_corpus(4, 1, master_seed=17)[0]
    stats = expectation_delta(state, 0.6, 20000, seed=4)
    assert stats.mean == pytest.approx(state.n_particles * (stats.k_mean - stats.q_mean), rel=1e-9)


def test_single_shard_matches_direct_computation():
    # a sharded run is the direct computation over its shards' samples in order
    cases = ((isotropic_state(3), 0.5, 1), (random_state_corpus(4, 1, master_seed=19)[0], 0.7, 3))
    for state, mass, shard_count in cases:
        stats = expectation_delta(state, mass, 10000, seed=9, shard_count=shard_count)
        counts = [10000 // shard_count + (k < 10000 % shard_count) for k in range(shard_count)]
        terms = [_kinetic_terms(mass, sample_momenta(state, c, 9, k)) for k, c in enumerate(counts)]
        deltas = np.concatenate([kinetic - pair_terms for kinetic, pair_terms in terms])
        assert stats.mean == pytest.approx(float(deltas.mean()), rel=1e-12)
        assert stats.stderr == pytest.approx(
            float(deltas.std(ddof=1)) / math.sqrt(10000), rel=1e-12
        )


def test_sharded_runs_are_deterministic_and_thread_independent():
    # 4 x 9000 samples puts every shard across a block boundary of the sampler
    for n, samples in ((3, 8000), (4, 36000)):
        state = random_state_corpus(n, 1, master_seed=6)[0]
        a = expectation_delta(state, 0.0, samples, seed=12, shard_count=4, threads=1)
        b = expectation_delta(state, 0.0, samples, seed=12, shard_count=4, threads=4)
        assert a == b


@pytest.mark.parametrize("n", (2, 3, 4, 5, 6, 7, 8, 40))
@pytest.mark.parametrize("mass", (0.0, 0.7))
def test_reduction_matches_pair_loop(n, mass):
    # the reduction against a loop over pairs, on the layout sample_momenta
    # returns (above one block of samples), a C-contiguous copy and a strided
    # view (below one block)
    state = random_state_corpus(n, 1, master_seed=50 + n)[0]
    drawn = sample_momenta(state, _CHUNK + 3, seed=8)
    kinetic, pair_terms = reference_kinetic_terms(mass, np.ascontiguousarray(drawn))
    layouts = (
        (drawn, slice(None)),
        (np.ascontiguousarray(drawn), slice(None)),
        (drawn[::2], slice(None, None, 2)),
    )
    for momenta, rows in layouts:
        want_k, want_p = kinetic[rows], pair_terms[rows]
        got_k, got_p = _kinetic_terms(mass, momenta)
        np.testing.assert_allclose(got_k, want_k, rtol=1e-13, atol=0.0)
        np.testing.assert_allclose(got_p, want_p, rtol=1e-13, atol=0.0)
        np.testing.assert_allclose(
            got_k - got_p, want_k - want_p, rtol=0.0, atol=1e-13 * want_k.max()
        )


def test_expectation_delta_working_memory_is_linear():
    # the peak is the (3, N, samples) buffer of the sampler plus a few
    # per-sample arrays; full-size (samples, N, 3) temporaries would double it
    state = random_state_corpus(4, 1, master_seed=29)[0]
    samples = 200000
    expectation_delta(state, 0.5, 1000, seed=1)
    tracemalloc.start()
    try:
        expectation_delta(state, 0.5, samples, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 40 * samples * state.n_particles


def anisotropic_analytic_mean(a, b):
    """<delta> at N = 3, m = 0 for the centered single-component state with
    width a in the pair coordinate and b in the third Jacobi coordinate:
    every momentum and difference is a centered Gaussian vector, so the
    expectation has a closed form."""
    c3 = 2.0 * math.sqrt(2.0 / math.pi)
    k_side = 2.0 * math.sqrt(a * a / 2 + b * b / 6) + math.sqrt(2.0 / 3.0) * b
    q_side = (math.sqrt(2.0) * a + 2.0 * math.sqrt(a * a / 2 + 1.5 * b * b)) / math.sqrt(3.0)
    return c3 * (k_side - q_side)


def anisotropic_state(a, b):
    widths = np.stack([[np.full(3, a), np.full(3, b)]])
    return SymmetrizedGaussianState(np.ones(1), np.zeros((1, 2, 3)), widths)


ANISOTROPIC_CASES = ((2.0, 0.5, 31), (0.5, 2.0, 32))


def test_anisotropic_centered_gaussian_matches_analytic_mean():
    # checked for both signs of the anisotropy
    for a, b, seed in ANISOTROPIC_CASES:
        stats = expectation_delta(anisotropic_state(a, b), 0.0, 200000, seed=seed)
        assert stats.mean == pytest.approx(anisotropic_analytic_mean(a, b), abs=4.0 * stats.stderr)


def radial_expectation(mu, sigma, c, mass):
    """E sqrt(c |X|^2 + m^2) for an isotropic 3D Gaussian X with mean length
    mu and per-axis width sigma, by quadrature over the noncentral radial
    density."""
    if mu < 1e-12:
        density = lambda s: math.sqrt(2.0 / math.pi) / sigma**3 * s * s * math.exp(
            -s * s / (2.0 * sigma**2)
        )
    else:
        density = lambda s: s / (math.sqrt(2.0 * math.pi) * sigma * mu) * (
            math.exp(-((s - mu) ** 2) / (2.0 * sigma**2))
            - math.exp(-((s + mu) ** 2) / (2.0 * sigma**2))
        )
    value, err = integrate.quad(
        lambda s: density(s) * math.sqrt(c * s * s + mass * mass), 0.0, np.inf, limit=200
    )
    assert err < 1e-6
    return value


def off_center_state_and_oracle():
    """Single component with equal widths: each p_i and each
    difference is an isotropic Gaussian with known mean vector, so the delta
    expectation reduces to one-dimensional integrals over the noncentral
    radial density.  Returns (state, mass, expectation)."""
    n, width, mass = 3, 0.8, 0.7
    rng = np.random.default_rng(3)
    centers = rng.normal(size=(1, n - 1, 3))
    state = SymmetrizedGaussianState(np.ones(1), centers, np.full((1, n - 1, 3), width))
    b = jacobi_matrix(n)
    full_centers = np.concatenate([np.zeros((1, 3)), centers[0]], axis=0)
    mean_momenta = np.einsum("ji,jk->ik", b, full_centers)
    sigma_p = width * math.sqrt(1.0 - 1.0 / n)
    coef = (n - 1) / (2.0 * n)
    oracle = sum(
        radial_expectation(float(np.linalg.norm(mean_momenta[i])), sigma_p, 1.0, mass)
        for i in range(n)
    )
    for i in range(n):
        for j in range(i + 1, n):
            mu = float(np.linalg.norm(mean_momenta[i] - mean_momenta[j]))
            oracle -= (2.0 / (n - 1)) * radial_expectation(
                mu, math.sqrt(2.0) * width, coef, mass
            )
    return state, mass, oracle


def test_off_center_state_matches_quadrature_oracle():
    state, mass, oracle = off_center_state_and_oracle()
    stats = expectation_delta(state, mass, 300000, seed=11)
    assert stats.mean == pytest.approx(oracle, abs=4.0 * stats.stderr)


# --- exact expectation oracle (tests/exact_delta.py) ------------------------------


def test_exact_oracle_reproduces_readme_closed_form():
    # README: 4 sqrt(2/pi) [ sqrt(a^2/2 + b^2/6) + sqrt(b^2/6)
    #                        - (sqrt(2) a + 2 sqrt(a^2/2 + 3 b^2/2)) / (2 sqrt(3)) ]
    a, b = 3.0, 0.3
    readme = 4.0 * math.sqrt(2.0 / math.pi) * (
        math.sqrt(a * a / 2 + b * b / 6)
        + math.sqrt(b * b / 6)
        - (math.sqrt(2.0) * a + 2.0 * math.sqrt(a * a / 2 + 1.5 * b * b)) / (2.0 * math.sqrt(3.0))
    )
    assert readme == pytest.approx(-0.70340781, abs=1e-8)
    assert exact_delta_expectation(anisotropic_state(a, b), 0.0) == pytest.approx(readme, abs=1e-12)


def test_exact_oracle_matches_anisotropic_closed_form():
    for a, b, _ in ANISOTROPIC_CASES:
        assert exact_delta_expectation(anisotropic_state(a, b), 0.0) == pytest.approx(
            anisotropic_analytic_mean(a, b), abs=1e-10
        )


@pytest.mark.parametrize("mass", [0.0, 0.7, 3.0])
def test_exact_oracle_vanishes_on_isotropic_states(mass):
    for n in (3, 4, 5):
        for width in (0.3, 1.0, 2.5):
            assert abs(exact_delta_expectation(isotropic_state(n, width), mass)) <= 1e-12
    # a mixture of isotropic components is still invariant under rotations of
    # the relative Jacobi momenta
    mixture = SymmetrizedGaussianState(
        np.array([0.3, 0.7]),
        np.zeros((2, 3, 3)),
        np.stack([np.full((3, 3), 0.5), np.full((3, 3), 2.0)]),
    )
    assert abs(exact_delta_expectation(mixture, mass)) <= 1e-12


def test_exact_oracle_matches_off_center_quadrature():
    state, mass, oracle = off_center_state_and_oracle()
    assert exact_delta_expectation(state, mass) == pytest.approx(oracle, abs=1e-11)


def test_expectation_delta_validation():
    state = isotropic_state(3)
    with pytest.raises(ValueError):
        expectation_delta(state, -1.0, 100, seed=0)
    with pytest.raises(ValueError):
        expectation_delta(state, 0.0, 0, seed=0)
    with pytest.raises(ValueError):
        expectation_delta(state, 0.0, 100, seed=0, shard_count=0)
    with pytest.raises(ValueError):
        sample_momenta(state, 0, seed=0)


@pytest.mark.parametrize(
    "mass,message",
    [(math.nan, "mass must be finite"), (math.inf, "mass must be finite"),
     (1e300, "mass 1e[+]300 is outside the floating-point range")],
    ids=["nan", "inf", "square-overflows"],
)
def test_expectation_delta_refuses_a_non_finite_mass(mass, message):
    # a nan mean and stderr would flag no finding, so the call must fail; so
    # must a mass whose square overflows, where every kinetic term is inf
    with pytest.raises(ValueError, match=message):
        expectation_delta(isotropic_state(3), mass, 100, seed=0)


def test_expectation_delta_needs_two_samples():
    # the standard error divides by count - 1
    with pytest.raises(ValueError, match="two samples"):
        expectation_delta(isotropic_state(3), 0.0, 1, seed=0)
    stats = expectation_delta(isotropic_state(3), 0.0, 2, seed=0, shard_count=2)
    assert np.isfinite(stats.stderr)


# --- regime classification -------------------------------------------------------


def test_classify_regime():
    assert model_status(2, 5.0).label == "proven"
    assert model_status(3, 0.0).label == "proven"
    assert model_status(3, 2.0).label == "proven"
    assert model_status(4, 0.0).label == "proven"
    assert model_status(4, 0.5).label == "conjectured"
    assert model_status(5, 0.0).label == "conjectured"
