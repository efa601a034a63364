"""Run-to-run spread of the end-to-end metrics over several seeds.

Usage (from the repository root):

    python3 bench/spread.py --workload bounds-grid --seeds 1-10 [--seconds S] [--out FILE]

Runs bench/run.py once per seed, then prints for each end-to-end metric the
median, the quartiles (statistics.quantiles, n=4), the spread (third minus
first quartile, over the median) and the bound from BENCHMARK.json.  With
--out it also makes one traced run on the first seed and records, under the
workload's name in that JSON file, these figures, the per-run values, the
known-defect probe outcomes and the traced run with its environment.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--out")
    args = parser.parse_args()

    runs = []
    for seed in args.seeds:
        cmd = [sys.executable, os.path.join(BENCH, "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        with open(os.path.join(ROOT, ".bench_out", f"{args.workload}-seed{seed}-trace0.json"),
                  encoding="utf-8") as fh:
            record = json.load(fh)
        runs.append({"seed": seed, **result, "known_defects": record["known_defects"]})
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} " + " ".join(
                  f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)

    summary = {}
    for metric in bench["end_to_end"]:
        name = metric["name"]
        values = [r["metrics"][name]["value"] for r in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median
        summary[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                         "bound": metric["bound"], "unit": metric["unit"]}
        flag = "ok" if spread < metric["bound"] / 3 else ("within bound" if spread < metric["bound"] else "TOO WIDE")
        print(f"{name:12s} median {median:.5g} {metric['unit']:5s} spread {spread:.3f} "
              f"(bound {metric['bound']}) {flag}")
    if args.out:
        seed = args.seeds[0]
        cmd = [sys.executable, os.path.join(BENCH, "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "1"]
        subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
        with open(os.path.join(ROOT, ".bench_out", f"{args.workload}-seed{seed}-trace1.json"),
                  encoding="utf-8") as fh:
            traced = json.load(fh)
        doc = {}
        if os.path.exists(args.out):
            with open(args.out, encoding="utf-8") as fh:
                doc = json.load(fh)
        doc[args.workload] = {
            "seconds": args.seconds,
            "end_to_end": summary,
            "known_defects_per_run": [r["known_defects"] for r in runs],
            "runs": runs,
            "traced_run": {k: traced[k] for k in ("seed", "metrics", "info", "known_defects", "env")},
        }
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
