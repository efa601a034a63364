"""Seeded inputs for the benchmark workloads.

Every workload is a fixed cycle of input categories; the seed draws the
parameters inside each category.  The cycle keeps the mix of cheap and
expensive operations the same for every seed, so medians from different
seeds are comparable, while the drawn parameters differ from seed to seed.
Parameters are rounded before use, so the oracle sees exactly the values
the program receives.
"""

from __future__ import annotations

import math
import random

CRITICAL = 2.0 / math.pi  # Herbst critical Coulomb coupling

FORMATS = ("text", "json", "csv")


def _u(rng: random.Random, lo: float, hi: float) -> float:
    return round(rng.uniform(lo, hi), 4)


def _fmt(x: float) -> str:
    return repr(float(x))


def potential(kind: str, *params: float) -> dict:
    """A potential as its parameters plus the spec string the CLI parses."""
    return {"kind": kind, "params": list(params), "spec": f"{kind}:" + ",".join(map(_fmt, params))}


def _coulomb_strength(pot: dict) -> float:
    return pot["params"][0] if pot["kind"] in ("coulomb", "coulomb+linear") else 0.0


def _coulomb_for(rng, effective_lo, effective_hi, gamma, beta=1.0, lam=1.0):
    """Coulomb strength whose effective coupling gamma*v/(beta*sqrt(lam))
    is the drawn multiple of the critical one."""
    factor = rng.uniform(effective_lo, effective_hi)
    return round(factor * CRITICAL * beta * math.sqrt(lam) / gamma, 4)


def refuses(pot: dict, beta: float, lam: float, gamma: float) -> bool:
    """True exactly when the reduced operator must be rejected as unstable."""
    v = _coulomb_strength(pot)
    return v > 0.0 and gamma * v / (beta * math.sqrt(lam)) >= CRITICAL


#: Largest (N-1)*slope drawn for a massless linear problem.  Beyond about
#: 1130 the Gaussian upper bound's optimal scale falls below the fixed floor
#: of its search (a known defect, see oracle.known_defect), so such problems
#: are not drawn for the timed operations; the defect probes exercise it.
MAX_PULL = 800.0


def max_slope(n: int) -> float:
    return min(2.0, MAX_PULL / (n - 1))


# --- bounds-grid --------------------------------------------------------------

GRID_CATEGORIES = (
    "linear-m0",
    "harmonic-m0",
    "power-m0",
    "linear-m",
    "confining-m",
    "coulomb-m",
    "coulomb+linear",
    "large-n",
    "refusal",
)
GRID_BASES = (24, 40)


def _grid_problem(rng: random.Random, category: str, basis: int) -> dict:
    n = rng.randint(2, 10)
    mass = 0.0
    gamma = (n - 1) / 2.0
    if category == "linear-m0":
        pot = potential("linear", _u(rng, 0.5, 2.0))
    elif category == "harmonic-m0":
        pot = potential("harmonic", _u(rng, 0.2, 2.0))
    elif category == "power-m0":
        pot = potential("power", _u(rng, 0.5, 2.0), _u(rng, 0.5, 2.5))
    elif category == "linear-m":
        mass, pot = _u(rng, 0.2, 2.0), potential("linear", _u(rng, 0.5, 2.0))
    elif category == "confining-m":
        mass = _u(rng, 0.2, 2.0)
        pot = (
            potential("harmonic", _u(rng, 0.2, 2.0))
            if rng.random() < 0.5
            else potential("power", _u(rng, 0.5, 2.0), _u(rng, 0.5, 2.5))
        )
    elif category == "coulomb-m":
        mass = _u(rng, 0.5, 2.0)
        pot = potential("coulomb", _coulomb_for(rng, 0.2, 0.7, gamma))
    elif category == "coulomb+linear":
        mass = 0.0 if rng.random() < 0.5 else _u(rng, 0.2, 2.0)
        pot = potential("coulomb+linear", _coulomb_for(rng, 0.2, 0.7, gamma), _u(rng, 0.5, 2.0))
    elif category == "large-n":
        n = int(round(math.exp(rng.uniform(math.log(11), math.log(1000)))))
        if rng.random() < 0.5:
            pot = potential("linear", _u(rng, 0.5, max_slope(n)))
        else:
            mass, pot = _u(rng, 0.2, 2.0), potential("harmonic", _u(rng, 0.2, 2.0))
    elif category == "refusal":
        mass = _u(rng, 0.2, 2.0)
        pot = potential("coulomb", _coulomb_for(rng, 1.05, 2.0, gamma))
    else:
        raise ValueError(category)
    return {"category": category, "n": n, "mass": mass, "potential": pot, "basis": basis}


def grid_problems(seed: int):
    """Endless stream of distinct bounds-grid problems (one cycle = 18)."""
    rng = random.Random(f"bounds-grid:{seed}")
    seen = set()
    while True:
        for category in GRID_CATEGORIES:
            for basis in GRID_BASES:
                while True:
                    problem = _grid_problem(rng, category, basis)
                    key = (problem["n"], problem["mass"], problem["potential"]["spec"], basis)
                    if key not in seen:
                        break
                seen.add(key)
                yield problem


# --- delta-corpus ------------------------------------------------------------

DELTA_CYCLE = (
    ("random", 3, 0.0),
    ("random", 3, 1.0),
    ("random", 4, 0.0),
    ("random", 3, 0.0),
    ("random", 3, 1.0),
    ("random", 4, 0.0),
    ("anisotropic", 3, 0.0),
    ("isotropic", None, None),
)
DELTA_SAMPLES = 100_000


def delta_states(seed: int):
    """Endless stream of delta-corpus states as plain arrays.

    Random states follow the corpus family: 1-4 mixture components,
    unit-normal centres, widths log-uniform in [0.3, 3], Dirichlet weights.
    The anisotropic state has widths (2, 0.5) in the two Jacobi momenta and
    a closed-form mean; the isotropic one has mean exactly 0.
    """
    import numpy as np

    index = 0
    while True:
        for kind, n, mass in DELTA_CYCLE:
            rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, index])))
            if kind == "random":
                components = int(rng.integers(1, 5))
                centers = rng.normal(size=(components, n - 1, 3))
                widths = np.exp(rng.uniform(math.log(0.3), math.log(3.0), size=centers.shape))
                weights = rng.dirichlet(np.ones(components))
            elif kind == "anisotropic":
                centers = np.zeros((1, 2, 3))
                widths = np.stack([[np.full(3, 2.0), np.full(3, 0.5)]])
                weights = np.ones(1)
            else:
                n, mass = (3, 0.0) if index // len(DELTA_CYCLE) % 2 == 0 else (4, 1.0)
                centers = np.zeros((1, n - 1, 3))
                widths = np.full((1, n - 1, 3), float(np.exp(rng.uniform(math.log(0.3), math.log(3.0)))))
                weights = np.ones(1)
            yield {
                "kind": kind,
                "n": n,
                "mass": mass,
                "weights": weights,
                "centers": centers,
                "widths": widths,
                "samples": DELTA_SAMPLES,
                "mc_seed": seed * 1_000_003 + index,
            }
            index += 1


# --- cli-cold ----------------------------------------------------------------

CLI_CYCLE = (
    "solve",
    "solve-linear",
    "bounds",
    "bounds-linear",
    "linear-table",
    "table1",
    "verify-delta",
    "refusal",
    "solve-coulomb",
    "bounds-large-n",
)


def _cli_op(rng: random.Random, kind: str) -> dict:
    fmt = rng.choice(FORMATS)
    basis = rng.choice(GRID_BASES)
    env = {}
    op = {"kind": kind, "format": fmt}
    if kind in ("solve", "solve-linear", "solve-coulomb", "refusal"):
        beta, lam, gamma = _u(rng, 0.5, 2.0), _u(rng, 1.0, 2.0), _u(rng, 0.5, 3.0)
        mass = 0.0 if kind == "solve-linear" else _u(rng, 0.2, 2.0)
        if kind == "solve-linear":
            pot = potential("linear", _u(rng, 0.5, 2.0))
        elif kind == "solve":
            pot = rng.choice(
                [
                    potential("linear", _u(rng, 0.5, 2.0)),
                    potential("harmonic", _u(rng, 0.2, 2.0)),
                    potential("power", _u(rng, 0.5, 2.0), _u(rng, 0.5, 2.5)),
                ]
            )
        elif kind == "solve-coulomb":
            pot = potential("coulomb+linear", _coulomb_for(rng, 0.2, 0.7, gamma, beta, lam), _u(rng, 0.5, 2.0))
        else:
            pot = potential("coulomb", _coulomb_for(rng, 1.05, 2.0, gamma, beta, lam))
        op.update(command="solve", beta=beta, lam=lam, gamma=gamma, mass=mass, potential=pot, basis=basis)
        argv = ["solve", "--beta", _fmt(beta), "--lambda", _fmt(lam), "--gamma", _fmt(gamma),
                "--mass", _fmt(mass), "--potential", pot["spec"], "--basis-size", str(basis)]
    elif kind == "probe-basis-120":
        pot = potential("linear", 1.0)
        op.update(command="solve", beta=1.0, lam=1.0, gamma=1.0, mass=0.0, potential=pot, basis=120)
        argv = ["solve", "--basis-size", "120"]
    elif kind == "probe-massless-coulomb":
        pot = potential("coulomb", 0.3)
        op.update(command="solve", beta=1.0, lam=1.0, gamma=1.0, mass=0.0, potential=pot, basis=40)
        argv = ["solve", "--mass", "0", "--potential", "coulomb:0.3"]
    elif kind == "probe-gaussian-floor":
        pot = potential("linear", 2.0)
        op.update(command="bounds", n=1000, mass=0.0, potential=pot, basis=basis)
        argv = ["bounds", "--n", "1000", "--mass", "0.0", "--potential", pot["spec"], "--basis-size", str(basis)]
    elif kind in ("bounds", "bounds-linear", "bounds-large-n"):
        n = rng.randint(2, 10)
        if kind == "bounds-large-n":
            n = int(round(math.exp(rng.uniform(math.log(11), math.log(1000)))))
        mass = 0.0
        if kind == "bounds":
            category = rng.choice(GRID_CATEGORIES[1:7])
            problem = _grid_problem(rng, category, basis)
            n, mass, pot = problem["n"], problem["mass"], problem["potential"]
        else:
            pot = potential("linear", _u(rng, 0.5, max_slope(n)))
        op.update(command="bounds", n=n, mass=mass, potential=pot, basis=basis)
        argv = ["bounds", "--n", str(n), "--mass", _fmt(mass), "--potential", pot["spec"],
                "--basis-size", str(basis)]
    elif kind == "linear-table":
        n = rng.randint(2, 1000)
        op.update(command="linear-table", n=n)
        argv = ["linear-table", "--n", str(n)]
    elif kind == "table1":
        op.update(command="table1")
        argv = ["table1"]
    elif kind == "verify-delta":
        fmt = rng.choice(("json", "csv"))
        n, mass = rng.choice(((3, 0.0), (3, 1.0), (4, 0.0), (4, 1.0)))
        op.update(command="verify-delta", format=fmt, n=n, mass=mass, states=2, samples=4000,
                  seed=rng.randint(0, 10**6), shards=2)
        argv = ["verify-delta", "--n", str(n), "--mass", _fmt(mass), "--states", "2",
                "--samples", "4000", "--seed", str(op["seed"]), "--shards", "2"]
        env["SALBOUND_THREADS"] = "2"
    else:
        raise ValueError(kind)
    op["argv"] = argv + ["--format", op["format"]]
    op["env"] = env
    return op


def cli_ops(seed: int):
    """Endless stream of CLI invocations (one cycle = 10)."""
    rng = random.Random(f"cli-cold:{seed}")
    while True:
        for kind in CLI_CYCLE:
            yield _cli_op(rng, kind)


# --- known-defect probes -------------------------------------------------------

#: Inputs that give a wrong answer today (see oracle.known_defect).  They are
#: run and checked once per run after the timed loop and reported on their
#: own, so the timed operations are ones on which the program is correct.
CLI_PROBES = ("probe-basis-120", "probe-massless-coulomb", "probe-gaussian-floor")


def cli_probes(seed: int) -> list[dict]:
    rng = random.Random(f"cli-probes:{seed}")
    return [_cli_op(rng, kind) for kind in CLI_PROBES]


def grid_probes(seed: int) -> list[dict]:
    return [{"category": "probe-gaussian-floor", "n": 1000, "mass": 0.0,
             "potential": potential("linear", 2.0), "basis": GRID_BASES[seed % 2]}]
