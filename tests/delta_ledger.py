"""The delta ledger: seeded Monte Carlo estimates of <delta> and the
verify-delta probes.

``tests/golden/delta_ledger.json`` holds, for one seeded random state per
N = 2 to 6, ``float.hex`` of the mean, stderr, ``k_mean`` and ``q_mean`` of
``delta.expectation_delta`` at m = 0, 1, 10, 1e3 and 1e8, with one shard and
with two, 5000 samples each; and ``cli.main``'s exit code and verdict line
for two ``verify-delta`` probes.  ``test_delta_ledger.test_delta_ledger``
recomputes them and compares.  The probes are the known defects of the delta
path: findings on mixture states at m = 0 (exit 4 in the proven regime), and
a roundoff mean flagged at m = 1e8.  The means at m = 1e3 and 1e8 are
roundoff too, since each sqrt(p^2 + m^2) is rounded near m before the two
kinetic sums are subtracted, so a fix shows as a stated move.

Values are compared at ``value_ledger.RTOL`` relative, as the bounds ledger
compares its values.  :func:`compare` also counts the values that are
bit-identical.  Regenerate after a change that moves values, and state the
moves:

    PYTHONPATH=src python tests/delta_ledger.py --write

Without ``--write`` it compares and prints the counts.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import warnings
from pathlib import Path

from salbound import cli
from salbound.delta import expectation_delta, random_state_corpus

from value_ledger import RTOL, _close

LEDGER = Path(__file__).resolve().parent / "golden" / "delta_ledger.json"

#: Master seed of the states and of their samples.
SEED = 11
SAMPLES = 5000
MASSES = (0.0, 1.0, 10.0, 1e3, 1e8)
FIELDS = ("mean", "stderr", "k_mean", "q_mean")

#: The verify-delta probes whose exit code and verdict line are recorded.
PROBES = (
    ("verify-delta", "--n", "3", "--mass", "0", "--states", "3", "--samples", "2000", "--seed", "42"),
    ("verify-delta", "--n", "3", "--mass", "1e8", "--states", "3", "--samples", "20000", "--seed", "7"),
)


def estimate(n: int, mass: float, shards: int) -> dict[str, str]:
    state = random_state_corpus(n, 1, SEED)[0]
    stats = expectation_delta(state, mass, SAMPLES, seed=SEED, shard_count=shards)
    return {name: float.hex(getattr(stats, name)) for name in FIELDS}


def probe(argv: tuple[str, ...]) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    (verdict,) = [line for line in out.getvalue().splitlines() if line.startswith("verdict:")]
    return {"exit": code, "verdict": verdict}


def record() -> list[dict]:
    """Every ledger entry: one per run, then one per probe."""
    entries = [{"run": [n, float.hex(mass), shards], **estimate(n, mass, shards)}
               for n in range(2, 7) for mass in MASSES for shards in (1, 2)]
    return entries + [{"probe": list(argv), **probe(argv)} for argv in PROBES]


def write(path: Path = LEDGER) -> int:
    entries = record()
    lines = ",\n".join(json.dumps(e, separators=(",", ":")) for e in entries)
    path.write_text("[\n" + lines + "\n]\n", encoding="utf-8")
    return len(entries)


def compare(path: Path = LEDGER) -> tuple[list[str], dict[str, int]]:
    """(mismatches, counts) of the current package against the ledger; the
    counts are of values, bit-identical values and probes."""
    want = json.loads(path.read_text(encoding="utf-8"))
    got = record()
    counts = dict(values=0, bit_identical=0, probes=sum("probe" in e for e in want))
    if [e.get("run", e.get("probe")) for e in got] != [e.get("run", e.get("probe")) for e in want]:
        return ["the ledger's inputs are not the runs and probes of this module"], counts
    mismatches = []
    for new, old in zip(got, want):
        if "probe" in old:
            if new != old:
                mismatches.append(f"probe {' '.join(old['probe'])}: {new} != {old}")
            continue
        n, mass, shards = old["run"]
        for name in FIELDS:
            counts["values"] += 1
            counts["bit_identical"] += new[name] == old[name]
            g, w = float.fromhex(new[name]), float.fromhex(old[name])
            if not _close(g, w, RTOL, 0.0):
                mismatches.append(f"n={n} mass={float.fromhex(mass):g} shards={shards}: {name} {g!r} != {w!r}")
    return mismatches, counts


def summary(counts: dict[str, int]) -> str:
    return (
        f"delta ledger: {counts['bit_identical']} of {counts['values']} values bit-identical, "
        f"{counts['probes']} probes"
    )


def main(argv: list[str]) -> int:
    # as under pytest's filterwarnings, a RuntimeWarning is an error
    warnings.simplefilter("error", RuntimeWarning)
    if argv == ["--write"]:
        print(f"wrote {write()} entries to {LEDGER}")
        return 0
    mismatches, counts = compare()
    print("\n".join(mismatches[:20]))
    print(summary(counts))
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
