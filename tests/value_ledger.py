"""The value ledger: every value, warning and refusal of fixed seeded problems.

``tests/golden/ledger.json`` holds, for each problem, ``float.hex`` of every
lower value, solve energy, convergence estimate, basis range, upper value and
optimal scale, and the text of every warning, absent-row reason and refusal.
``test_ledger.test_value_ledger`` recomputes them and compares.  The problems
are stored with their inputs as ``float.hex``, so the comparison does not
depend on how they were drawn.  They cover:

- ``compute_bounds`` on the five shapes, N from 2 to 1000, m = 0 and m > 0,
  K = 24 and 40, on the numpy kernel (``solver.ground_energy``) and, at
  m = 0, on the command line's kernel (``cli.ground_energy``, the pure-Python
  solve up to its crossover basis size);
- single solves of reduced operators with beta, lam and gamma away from 1,
  on both kernels;
- the known-defect inputs, so that a fix shows as a stated move.

Values are compared at :data:`RTOL` relative (an estimate relative to its
solve's energy), because BLAS builds differ in their last bits; the optimal
scale of a zoom, located to a spacing of 1e-6 in log sigma, at
:data:`SCALE_RTOL`.  Numbers inside texts are compared the same way, the
rest of each text exactly.  :func:`compare` also counts the values that
are bit-identical.

Regenerate after a change that moves values, and state the moves:

    PYTHONPATH=src python tests/value_ledger.py --write

Without ``--write`` it compares and prints the counts.
"""

from __future__ import annotations

import dataclasses
import json
import math
import re
import sys
import warnings
from pathlib import Path

import numpy as np

from salbound import cli, solver, spectrum
from salbound.bounds import ProblemSpec, compute_bounds
from salbound.potentials import Coulomb, CoulombPlusLinear, Harmonic, Linear, PowerLaw
from salbound.reductions import COULOMB_CRITICAL_COUPLING, ReducedHamiltonian, SolverConfig

LEDGER = Path(__file__).resolve().parent / "golden" / "ledger.json"

#: Relative tolerance of every value but the optimal scale: the numpy
#: kernel's Rayleigh-quotient roundoff reaches 3.4e-12.
RTOL = 1e-10
#: Relative tolerance of an optimal scale.
SCALE_RTOL = 1e-5

_FORMS = {cls.form: cls for cls in (Linear, Coulomb, Harmonic, CoulombPlusLinear, PowerLaw)}
_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")

_KNOWN_DEFECTS = (
    # massless pure Coulomb: the answer is 0, the solve reports the widest Gaussians
    ("solve", (1.0, 1.0, 1.0, 0.0, Coulomb(0.3)), 40, "numpy"),
    # heavy mass: a binding energy 9.3 times the Airy value, with an edge warning
    ("solve", (1.0, 1.0, 1.0, 1e9, Linear(1.0)), 40, "numpy"),
    # a near-flat power law beyond the basis range
    ("solve", (1.0, 1.0, 1.0, 0.0, PowerLaw(1.0, 0.01)), 40, "numpy"),
    ("solve", (1.0, 1.0, 1.0, 0.0, PowerLaw(1.0, 0.01)), 40, "pure"),
    # the n2 row above the upper bound: the internal-error refusal
    ("bounds", (1000, 0.0, PowerLaw(2.0, 0.01)), 40, "numpy"),
    ("bounds", (1000, 0.0, PowerLaw(2.0, 0.01)), 40, "cli"),
    # the upper bound pinned at its widest momentum width
    ("bounds", (3, 1e9, Linear(1.0)), 40, "numpy"),
)


def _potential(rng: np.random.Generator, n: int):
    """A random pair potential of a random shape; Coulomb strengths reach
    past the collapse of the n2 row, exponents past the largest accepted."""
    c = float(np.exp(rng.uniform(-2.0, 2.0)))
    v = float(rng.uniform(0.02, 1.15) * COULOMB_CRITICAL_COUPLING * 2.0 / (n - 1))
    shape = int(rng.integers(5))
    return [
        lambda: Linear(c),
        lambda: Coulomb(v),
        lambda: Harmonic(c),
        lambda: CoulombPlusLinear(v, c),
        lambda: PowerLaw(c, float(rng.uniform(0.1, 4.4))),
    ][shape]()


def _particle_count(rng: np.random.Generator) -> int:
    return int(np.exp(rng.uniform(math.log(2.0), math.log(1000.0)))) if rng.random() < 0.3 else int(rng.integers(2, 11))


def draw_problems(seed: int = 22) -> list[tuple]:
    """(kind, arguments, K, kernel) of every ledger problem: 320 bounds on the
    numpy kernel, half of them at m > 0; 40 massless bounds on the command
    line's kernel; 24 single solves on each kernel; the known defects."""
    rng = np.random.default_rng(seed)
    problems = []
    for i in range(320):
        n = _particle_count(rng)
        mass = float(np.exp(rng.uniform(-4.0, 6.0))) if i % 2 else 0.0
        problems.append(("bounds", (n, mass, _potential(rng, n)), (24, 40)[i % 4 // 2], "numpy"))
    for i in range(40):
        n = _particle_count(rng)
        problems.append(("bounds", (n, 0.0, _potential(rng, n)), (24, 40)[i % 4 // 3], "cli"))
    for i in range(48):
        beta, lam, gamma = (float(x) for x in np.exp(rng.uniform(-1.5, 1.5, 3)))
        mass = float(np.exp(rng.uniform(-3.0, 3.0))) if i % 4 == 3 else 0.0
        kernel = "pure" if i % 2 else "numpy"
        problems.append(("solve", (beta, lam, gamma, mass, _potential(rng, 3)), 24, kernel))
    return problems + list(_KNOWN_DEFECTS)


def _spectrum(out: dict, texts: list, name: str, result) -> None:
    out[f"{name}.energy"] = result.ground_energy
    out[f"{name}.estimate"] = result.convergence_estimate
    out[f"{name}.range_lo"], out[f"{name}.range_hi"] = result.basis_range
    texts.extend(f"{name}: {w}" for w in result.warnings)


def _bounds(n: int, mass: float, potential, basis_size: int, kernel: str):
    config = SolverConfig(basis_size=basis_size)
    solve = solver.ground_energy if kernel == "numpy" else lambda h, c: cli.ground_energy(h, c, mass > 0.0)
    result = compute_bounds(ProblemSpec(n, mass, potential), config, solve)
    values, texts = {}, []
    for name, row in result.lower_results().items():
        if row is None:
            texts.append(f"{name}: absent, {result.reasons[name]}")
        else:
            values[f"{name}.value"] = row.value
            _spectrum(values, texts, name, row.spectrum)
    values["upper.value"] = result.upper.value
    values["upper.scale"] = result.upper.optimal_scale
    texts.extend(f"upper: {w}" for w in result.upper.warnings)
    return values, texts


def _solve(beta, lam, gamma, mass, potential, basis_size: int, kernel: str):
    solve = solver.ground_energy if kernel == "numpy" else spectrum.pure_ground_energy
    result = solve(ReducedHamiltonian(beta, lam, gamma, mass, potential), SolverConfig(basis_size=basis_size))
    values, texts = {}, []
    _spectrum(values, texts, "solve", result)
    return values, texts


def _encode(kind: str, args: tuple, basis_size: int, kernel: str) -> dict:
    *numbers, potential = args
    params = [getattr(potential, f.name) for f in dataclasses.fields(potential)]
    return {
        "kind": kind,
        "args": [x if isinstance(x, int) else float.hex(x) for x in numbers],
        "potential": [potential.form, *map(float.hex, params)],
        "basis_size": basis_size,
        "kernel": kernel,
    }


def _decode(problem: dict) -> tuple:
    args = [x if isinstance(x, int) else float.fromhex(x) for x in problem["args"]]
    form, *params = problem["potential"]
    potential = _FORMS[form](*map(float.fromhex, params))
    return problem["kind"], (*args, potential), problem["basis_size"], problem["kernel"]


def evaluate(kind: str, args: tuple, basis_size: int, kernel: str) -> dict:
    """The ledger entry of one problem: its values as ``float.hex``, and its
    texts; a refused problem has no values and its refusal as its one text."""
    try:
        values, texts = (_bounds if kind == "bounds" else _solve)(*args, basis_size, kernel)
    except (ValueError, RuntimeError) as exc:
        values, texts = {}, [f"refused: {type(exc).__name__}: {exc}"]
    return {"values": {k: float.hex(float(v)) for k, v in values.items()}, "texts": texts}


def write(path: Path = LEDGER) -> int:
    records = [{"problem": _encode(*p), **evaluate(*p)} for p in draw_problems()]
    lines = ",\n".join(json.dumps(r, separators=(",", ":")) for r in records)
    path.write_text("[\n" + lines + "\n]\n", encoding="utf-8")
    return len(records)


def _close(got: float, want: float, rtol: float, scale: float) -> bool:
    return abs(got - want) <= rtol * max(abs(want), scale)


def _texts_agree(got: str, want: str) -> bool:
    """Equal texts, or texts equal but for numbers within :data:`RTOL`."""
    if got == want:
        return True
    if _NUMBER.sub("#", got) != _NUMBER.sub("#", want):
        return False
    pairs = zip(_NUMBER.findall(got), _NUMBER.findall(want))
    return all(_close(float(g), float(w), RTOL, 0.0) for g, w in pairs)


def compare(path: Path = LEDGER) -> tuple[list[str], dict[str, int]]:
    """(mismatches, counts) of the current package against the ledger: each
    mismatch names its problem and field; the counts are of problems, values,
    bit-identical values, texts and identical texts."""
    records = json.loads(path.read_text(encoding="utf-8"))
    mismatches = []
    counts = dict(problems=len(records), values=0, bit_identical=0, texts=0, identical_texts=0)
    for index, record in enumerate(records):
        got = evaluate(*_decode(record["problem"]))
        label = f"problem {index} {json.dumps(record['problem'])}"
        if got["values"].keys() != record["values"].keys():
            mismatches.append(f"{label}: fields {sorted(got['values'])} != {sorted(record['values'])}")
            continue
        for name, want_hex in record["values"].items():
            got_hex = got["values"][name]
            counts["values"] += 1
            counts["bit_identical"] += got_hex == want_hex
            g, w = float.fromhex(got_hex), float.fromhex(want_hex)
            row = name.split(".")[0]
            if name.endswith(".estimate"):
                ok = _close(g, w, RTOL, abs(float.fromhex(record["values"][f"{row}.energy"])))
            else:
                ok = _close(g, w, SCALE_RTOL if name == "upper.scale" else RTOL, 0.0)
            if not ok:
                mismatches.append(f"{label}: {name} {g!r} != {w!r}")
        counts["texts"] += len(record["texts"])
        counts["identical_texts"] += got["texts"] == record["texts"] and len(record["texts"])
        if len(got["texts"]) != len(record["texts"]) or not all(
            map(_texts_agree, got["texts"], record["texts"])
        ):
            mismatches.append(f"{label}: texts {got['texts']} != {record['texts']}")
    return mismatches, counts


def summary(counts: dict[str, int]) -> str:
    return (
        f"value ledger: {counts['problems']} problems; {counts['bit_identical']} of "
        f"{counts['values']} values bit-identical, {counts['identical_texts']} of "
        f"{counts['texts']} texts identical"
    )


def main(argv: list[str]) -> int:
    # as under pytest's filterwarnings, a RuntimeWarning is an error
    warnings.simplefilter("error", RuntimeWarning)
    if argv == ["--write"]:
        print(f"wrote {write()} problems to {LEDGER}")
        return 0
    mismatches, counts = compare()
    print("\n".join(mismatches[:20]))
    print(summary(counts))
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
