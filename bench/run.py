"""salbound benchmark: one seeded workload, checked on every operation.

Usage (from the repository root):

    python3 bench/run.py --workload {cli-cold,bounds-grid,delta-corpus} \\
        --seed N --seconds S --trace {0,1}

With --trace 0 it prints the end-to-end metrics of BENCHMARK.json, with
--trace 1 the per-layer ones.  Human-readable lines come first; the last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  A copy of the full result, with the
environment record, goes to .bench_out/.

Every workload runs in fresh processes with the package from ./src and one
BLAS thread.  The measured run is a closed loop with one client that stops
at the end of the input cycle under way once --seconds have passed.  It is
split over PARTS fresh processes one after another, each going on with the
input stream where the one before stopped, so that the speed of any one
process (its memory layout, say) sets only a share of the result.  Each
part first sets up (interpreter start, imports, input generation and the
warm-up that fills the solver's caches); setup_s is the median of the
parts' set-up times.  ops_per_s counts only the time spent inside
operations, not the oracle checks between them.  Every time is scaled to a
reference host by the calibration kernel of bench/calibration.py; the raw
wall-clock figures are printed beside them.  Inputs that hit a known defect
of the program are run once after the timed loop and reported on their own
("known defects"); they are not among the attempted operations.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("cli-cold", "bounds-grid", "delta-corpus")
PARTS = 5
THREADS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def loadavg() -> str | None:
    try:
        with open("/proc/loadavg", encoding="ascii") as fh:
            return fh.read().strip()
    except OSError:
        return None


def git_sha() -> str | None:
    """HEAD of the checkout, read without running git; None outside a repository."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="ascii") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = os.path.join(ROOT, ".git", name)
        if os.path.exists(path):
            with open(path, encoding="ascii") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="ascii") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return None


def child_env() -> dict:
    env = dict(os.environ, **THREADS_ENV)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    env.pop("SALBOUND_THREADS", None)
    return env


def worker(mode: str, args, seconds: float, *extra: str) -> dict:
    cmd = [sys.executable, os.path.join(BENCH, "worker.py"), "--mode", mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(seconds), "--t0", repr(time.time()), *extra]
    proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True, text=True,
                          timeout=max(seconds, 0) + 120)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker ({mode}) exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def p90(times: list[float]) -> float:
    return statistics.quantiles(times, n=10, method="inclusive")[8]


def end_to_end(workload: str, ops: list[dict], parts: list[dict], rss: float) -> tuple[dict, dict]:
    times = [op["scaled"] for op in ops]
    raw = [op["seconds"] for op in ops]
    busy = sum(times)
    n = len(ops)
    metrics = {  # name: (value, unit, sample count)
        "setup_s": (statistics.median(p["setup_s"] for p in parts), "s", len(parts)),
        "op_s_p50": (statistics.median(times), "s", n),
        "op_s_p90": (p90(times), "s", n),
        "ops_per_s": (n / busy, "1/s", n),
        "peak_rss_mb": (rss, "MB", 1),
    }
    failed = sum(1 for op in ops if op["failures"])
    info = {
        "error_rate": (failed / n, "ratio", n),
        "raw_setup_s": (statistics.median(p["setup_raw_s"] for p in parts), "s", len(parts)),
        "raw_op_s_p50": (statistics.median(raw), "s", n),
        "raw_op_s_p90": (p90(raw), "s", n),
        "raw_ops_per_s": (n / sum(raw), "1/s", n),
        "beyond_p90": sum(1 for t in times if t > metrics["op_s_p90"][0]),
    }
    if workload == "delta-corpus":
        info["mc_samples_per_s"] = (sum(op["samples"] for op in ops) / busy, "1/s", n)
    return metrics, info


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    for needed in (os.path.join(SRC, "salbound", "__init__.py"), os.path.join(ROOT, "docs", "report-schema.json")):
        if not os.path.isfile(needed):
            print(f"error: {os.path.relpath(needed, ROOT)} not found; run from a salbound checkout",
                  file=sys.stderr)
            return 2

    load_start = loadavg()
    if args.trace:
        result = worker("trace", args, args.seconds)
        metrics = {k: (value, unit, None) for k, (value, unit) in result["metrics"].items()}
        info = {"self_sum_vs_op_s": result["self_sum_vs_op_s"], "slice_ops": result["slice_ops"],
                "overhead_pairs": result["overhead_pairs"], "exact_counts": result["exact_counts"],
                "spans_file": result["spans_file"]}
        probes = []
    else:
        parts, used, looped = [], 0, 0.0
        for k in range(PARTS):
            # a part that overran its share (by finishing its input cycle)
            # shortens the next one, so the parts together take --seconds
            budget = args.seconds * (k + 1) / PARTS - looped
            parts.append(worker("run", args, budget, "--skip", str(used), "--probes", str(int(k == PARTS - 1))))
            used += len(parts[-1]["ops"])
            looped += parts[-1]["loop_s"]
        result = {"ops": [op for part in parts for op in part["ops"]], "env": parts[-1]["env"]}
        metrics, info = end_to_end(args.workload, result["ops"], parts, max(p["peak_rss_mb"] for p in parts))
        calibration = [s for part in parts for s in part["calibration_s"]]
        info["calibration"] = {"samples": len(calibration), "median_s": statistics.median(calibration)}
        probes = parts[-1]["probes"]
    ops = result["ops"]
    failures = [(op["kind"], op["defect"], msg) for op in ops for msg in op["failures"]]
    failed = sum(1 for op in ops if op["failures"])
    # known defects: probe outcome per defect, "present" while the probe fails
    known = {p["defect"]: "present" if p["failures"] else "fixed" for p in probes}
    env = {"git_sha": git_sha(), **result["env"], "loadavg_start": load_start, "loadavg_end": loadavg()}

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(ops)} operations, {failed} failed; known defects {json.dumps(known)}")
    for name, (value, unit, count) in {**metrics, **{k: v for k, v in info.items() if isinstance(v, tuple)}}.items():
        print(f"  {name:36s} {value:.6g} {unit}" + (f" (n={count})" if count else ""))
    print("  " + json.dumps({k: v for k, v in info.items() if not isinstance(v, tuple)}))
    for kind, defect, msg in failures[:20]:
        print(f"  FAIL [{kind}{' known defect ' + defect if defect else ''}] {msg}")
    for probe in probes:
        for msg in probe["failures"]:
            print(f"  KNOWN DEFECT [{probe['kind']}: {probe['defect']}] {msg}")
    print("  env " + json.dumps(env))

    os.makedirs(OUT, exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "metrics": metrics, "info": info, "env": env, "known_defects": known, "probes": probes,
              "failures": failures}
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    summary = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
