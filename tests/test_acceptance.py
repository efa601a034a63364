"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
are produced.  Criterion 6 checks the delta Monte Carlo in the three regimes
where the paper proves <delta> >= 0: each randomized corpus state's mean
must agree with the state's exact expectation (tests/exact_delta.py), and a
state must be flagged negative exactly when its exact value says so.  It
does not require the means to be nonnegative: the corpus states are
permutation-averaged Gaussian mixtures, not boson states, and many of them
have a strictly negative exact expectation (see
tests/test_delta.py::test_anisotropic_centered_gaussian_matches_analytic_mean
for a closed-form instance).  Its PASS line prints how many states are
negative and how many the Monte Carlo flags, so those findings stay visible.
"""

import math
import time

import numpy as np
import pytest

from salbound.bounds import ProblemSpec, compute_bounds
from salbound.delta import expectation_delta, random_state_corpus
from salbound.potentials import Coulomb, CoulombPlusLinear, Harmonic, Linear, PowerLaw
from salbound.reductions import (
    LINEAR_GROUND_ENERGY,
    ReducedHamiltonian,
    SolverConfig,
    linear_bound_table,
    ratio_table,
    upper_gaussian_linear,
)
from salbound.solver import ground_energy

from delta_reference import delta_value, regular_tetrahedron, to_jacobi
from exact_delta import exact_delta_expectation


def report(number: int, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def test_criterion_1_solver_accuracy():
    started = time.monotonic()
    result = ground_energy(
        ReducedHamiltonian(1.0, 1.0, 1.0, 0.0, Linear(1.0)), SolverConfig()
    )
    elapsed = time.monotonic() - started
    error = abs(result.ground_energy - 2.2322)
    ok = error <= 1e-3 and elapsed < 10.0
    assert report(
        1,
        ok,
        f"ground energy {result.ground_energy:.6f} vs 2.2322 "
        f"(|err| = {error:.2e} <= 1e-3), runtime {elapsed:.2f}s < 10s",
    )


def test_criterion_2_two_body_exactness():
    bounds = compute_bounds(ProblemSpec(2, 0.0, Linear(1.0)))
    low = bounds.n2.value
    conj = bounds.conjectured
    upper = bounds.upper.value
    ok = (
        abs(low - 3.1568) <= 2e-3
        and abs(conj.value - 3.1568) <= 2e-3
        and abs(upper - 3.19154) <= 1e-4
    )
    assert report(
        2,
        ok,
        f"lower {low:.5f} / conjectured {conj.value:.5f} vs 3.1568 +- 2e-3; "
        f"upper {upper:.6f} vs 3.19154 +- 1e-4",
    )


PAPER_TABLE = {
    "R_N/2": [1.011, 1.08639, 1.11886, 1.13706, 1.14872, 1.17104, 1.20229],
    "R_N/3": [None, 1.011, 1.04121, 1.05815, 1.069, 1.08977, 1.11886],
    "R_N/4": [None, None, 1.011, 1.02745, 1.03799, 1.05815, 1.08639],
    "R_c": [1.011] * 7,
}


def test_criterion_3_table_reproduction():
    table = ratio_table()
    worst = 0.0
    checked = 0
    for label, expected_row in PAPER_TABLE.items():
        for expected, got in zip(expected_row, table.rows[label]):
            if expected is None:
                assert got is None
                continue
            worst = max(worst, abs(got - expected))
            checked += 1
    constant = [
        upper_gaussian_linear(n) / linear_bound_table(n).lower["conjectured"] for n in range(2, 51)
    ]
    spread = max(constant) - min(constant)
    ok = worst <= 1e-4 and spread <= 1e-12
    assert report(
        3,
        ok,
        f"{checked} populated table entries, worst |err| {worst:.2e} <= 1e-4; "
        f"conjectured-ratio spread over N=2..50 is {spread:.2e} <= 1e-12",
    )


def test_criterion_4_closed_form_vs_solver():
    worst = 0.0
    for n in range(2, 7):
        bounds = compute_bounds(ProblemSpec(n, 0.0, Linear(1.0)))
        forms = linear_bound_table(n).lower
        checks = [(bounds.n2.value, forms["n2"])]
        if n >= 3:
            checks.append((bounds.n3.value, forms["n3"]))
        if n >= 4:
            checks.append((bounds.n4.value, forms["n4"]))
        checks.append((bounds.conjectured.value, forms["conjectured"]))
        checks.append((bounds.upper.value, upper_gaussian_linear(n)))
        for solved, closed in checks:
            worst = max(worst, abs(solved - closed) / closed)
    ok = worst <= 2e-3
    assert report(4, ok, f"worst relative solver-vs-closed-form error {worst:.2e} <= 2e-3")


def test_criterion_5_scaling_law():
    base = ground_energy(ReducedHamiltonian(1.0, 1.0, 1.0, 0.0, Linear(1.0))).ground_energy
    worst = 0.0
    for a, b in ((1.0, 1.0), (2.0, 1.0), (1.0, 2.0), (3.0, 5.0)):
        solved = ground_energy(
            ReducedHamiltonian(a, 1.0, b, 0.0, Linear(1.0))
        ).ground_energy
        worst = max(worst, abs(solved - math.sqrt(a * b) * base) / math.sqrt(a * b))
    ok = worst <= 1e-4
    assert report(5, ok, f"worst |E(a,b) - sqrt(ab) E(1,1)| / sqrt(ab) = {worst:.2e} <= 1e-4")


def test_criterion_6_delta_theorem_suites():
    # 100 randomized states with 1e5 samples each for (3, 0), (3, 1), (4, 0),
    # the regimes where the paper proves <delta> >= 0 for boson states.  The
    # corpus states are permutation-averaged Gaussian mixtures, not boson
    # states, and about half of them have a strictly negative exact <delta>
    # (the README gives a closed-form instance), so a nonnegative mean is not
    # something they owe.  What is checked is the Monte Carlo itself against
    # each state's exact expectation (tests/exact_delta.py): every mean within
    # 5 stderr of it, the pooled z-score within 3/sqrt(300) of 0, and a state
    # flagged negative (mean < -3 stderr) only if its exact value is negative
    # and always if that value is below -5 stderr.  The counts of negative
    # exact values and of flagged states are printed, so the negative findings
    # stay visible.
    started = time.monotonic()
    master_seed = 42
    problems = []
    counts = []
    z_scores = []
    for n, mass in ((3, 0.0), (3, 1.0), (4, 0.0)):
        corpus = random_state_corpus(n, 100, master_seed)
        negative = 0
        flagged = 0
        for index, state in enumerate(corpus):
            stats = expectation_delta(state, mass, 100000, seed=master_seed + index)
            exact = exact_delta_expectation(state, mass)
            z = (stats.mean - exact) / stats.stderr
            z_scores.append(z)
            where = f"(n={n}, m={mass}) state {index}: mean {stats.mean:.5f}, exact {exact:.5f}"
            if abs(z) > 5.0:
                problems.append(f"{where}, z {z:.1f}")
            negative += exact < 0.0
            if stats.negative_beyond(3.0):
                flagged += 1
                if exact >= 0.0:
                    problems.append(f"{where}, flagged but exact >= 0")
            elif exact < -5.0 * stats.stderr:
                problems.append(f"{where}, exact < -5 stderr but not flagged")
        counts.append(f"(n={n}, m={mass}) {negative}/100 negative exact, {flagged}/100 flagged")
    pooled = float(np.mean(z_scores))
    pooled_limit = 3.0 / math.sqrt(len(z_scores))
    if abs(pooled) > pooled_limit:
        problems.append(f"pooled z {pooled:.3f} outside +-{pooled_limit:.3f}")
    worst = float(np.max(np.abs(z_scores)))
    elapsed = time.monotonic() - started
    ok = not problems and elapsed < 300.0
    assert report(
        6,
        ok,
        f"runtime {elapsed:.0f}s (limit 300s); {len(z_scores)} means vs exact <delta>: "
        f"max |z| {worst:.2f} (limit 5), pooled z {pooled:.3f} (limit +-{pooled_limit:.3f}); "
        + "; ".join(counts)
        + ("" if not problems else f"; {len(problems)} problems: {'; '.join(problems[:10])}"),
    )


def test_criterion_7_pointwise_geometry():
    equilateral = np.array(
        [
            [1.0, 0.0, 0.0],
            [-0.5, math.sqrt(3.0) / 2.0, 0.0],
            [-0.5, -math.sqrt(3.0) / 2.0, 0.0],
        ]
    )
    worst = max(abs(delta_value(mass, equilateral)) for mass in (0.0, 1.0, 10.0))
    worst = max(worst, abs(delta_value(0.0, regular_tetrahedron(1.0))))
    collinear = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    negative = delta_value(0.0, collinear)
    expected = 2.0 - 4.0 / math.sqrt(3.0)
    ok = worst <= 1e-12 and abs(negative - expected) <= 1e-12
    assert report(
        7,
        ok,
        f"equilateral/tetrahedron |delta| <= {worst:.1e}; collinear example "
        f"{negative:.6f} = 2 - 4/sqrt(3)",
    )


def test_criterion_8_jacobi_identities():
    rng = np.random.default_rng(2024)
    worst_norm = 0.0
    worst_rebuild = 0.0
    for n in range(2, 7):
        momenta = rng.normal(size=(1000, n, 3)) * 2.0
        pi = to_jacobi(momenta)
        lhs = (momenta**2).sum(axis=(1, 2))
        rhs = (pi**2).sum(axis=(1, 2))
        worst_norm = max(worst_norm, float(np.max(np.abs(lhs - rhs) / np.maximum(1.0, lhs))))
        rebuilt = pi[:, 0] / math.sqrt(n) - math.sqrt((n - 1) / n) * pi[:, n - 1]
        worst_rebuild = max(worst_rebuild, float(np.max(np.abs(rebuilt - momenta[:, n - 1]))))
    ok = worst_norm <= 1e-12 and worst_rebuild <= 1e-12
    assert report(
        8,
        ok,
        f"norm identity residual {worst_norm:.1e} <= 1e-12 on 1000 configs for "
        f"N = 2..6; last-momentum reconstruction error {worst_rebuild:.1e} <= 1e-12",
    )


def test_criterion_9_nonrelativistic_limit():
    details = []
    ok = True
    for n in (3, 5):
        residuals = []
        for mass in (1e2, 1e3, 1e4):
            value = compute_bounds(ProblemSpec(n, mass, Harmonic(1.0))).conjectured
            oracle = n * mass + 3.0 * (n - 1) * math.sqrt(n / (2.0 * mass))
            residuals.append(abs(value.value - oracle))
        ratios = (residuals[0] / residuals[1], residuals[1] / residuals[2])
        ok = ok and min(ratios) >= 50.0
        details.append(f"N={n}: shrink x{ratios[0]:.0f}, x{ratios[1]:.0f}")
    assert report(9, ok, "; ".join(details) + " (required >= 50 per decade)")


def test_criterion_10_bound_sandwich_everywhere():
    grid = [
        (2, 0.0, Linear(1.0)),
        (3, 0.0, Linear(1.0)),
        (4, 0.0, Linear(1.0)),
        (5, 0.0, Linear(1.0)),
        (6, 0.0, Linear(1.0)),
        (3, 1.0, Linear(1.0)),
        (3, 0.0, Harmonic(0.5)),
        (4, 2.0, Harmonic(1.0)),
        (3, 1.0, Coulomb(0.2)),
        (4, 0.0, CoulombPlusLinear(0.3, 1.0)),
        (5, 1.0, CoulombPlusLinear(0.2, 2.0)),
        (4, 0.0, PowerLaw(1.0, 1.5)),
        (4, 1.0, PowerLaw(1.0, 1.5)),
    ]
    cfg = SolverConfig(basis_size=24)
    violations = []
    for n, mass, potential in grid:
        bounds = compute_bounds(ProblemSpec(n, mass, potential), cfg)
        for name, value in bounds.lower_values().items():
            if value > bounds.upper.value:
                violations.append(f"(n={n}, m={mass}, {potential.spec()}, {name})")
    ok = not violations
    assert report(
        10,
        ok,
        f"upper >= every lower bound across {len(grid)} (N, m, V) combinations"
        + ("" if ok else f"; violations: {violations}"),
    )
