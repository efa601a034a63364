"""One benchmark workload in a fresh process; started by run.py.

Modes:
  run    one part of a measured run: set up and report how long that took,
         skip the --skip inputs that earlier parts used, then run a closed
         loop with one client for --seconds, finishing the input cycle
         under way; with --probes 1, then the known-defect probes;
  trace  traced slices of every workload, then paired untraced/traced
         operations of --workload to measure the tracing overhead.

The last line of standard output is one JSON object with the raw results.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from calibration import MIN_SAMPLES, Calibrator
from workloads import CYCLE, WORKLOADS, environment, op_record, peak_rss_mb


def closed_loop(workload, seconds: float, calibrator: Calibrator) -> list:
    """Operations one after another for ``seconds``, then on to the end of the
    input cycle, so every run has the same mix of operations.  Calibration
    samples are taken between operations."""
    ops = []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(ops) % CYCLE[workload.name]:
        ops.append(workload.run(next(workload.stream)))
        calibrator.maybe_sample()
    return ops


def probe_record(workload, item) -> dict:
    op = workload.run(item)
    return {"kind": op.kind, "defect": op.defect, "failures": op.failures}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", choices=("run", "trace"), required=True)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--t0", type=float, required=True, help="epoch time the parent started us")
    parser.add_argument("--skip", type=int, default=0, help="inputs used by earlier parts of the run")
    parser.add_argument("--probes", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if args.mode == "trace":
        import trace_run

        result = trace_run.run(args.workload, args.seed, args.seconds)
    else:
        workload = WORKLOADS[args.workload](args.seed)
        workload.warm_up()
        setup_s = time.time() - args.t0
        calibrator = Calibrator()
        for _ in range(MIN_SAMPLES):
            calibrator.sample()
        scale = calibrator.scale(calibrator.at[MIN_SAMPLES // 2])
        for _ in range(args.skip):
            next(workload.stream)
        start = time.perf_counter()
        ops = closed_loop(workload, args.seconds, calibrator)
        result = {
            "setup_raw_s": setup_s,
            "setup_s": setup_s * scale,
            "loop_s": time.perf_counter() - start,
            "ops": [op_record(op, calibrator.scale(op.at + op.seconds / 2)) for op in ops],
            "peak_rss_mb": peak_rss_mb(workload),
            "calibration_s": calibrator.seconds,
            "probes": [probe_record(workload, item) for item in workload.probes] if args.probes else [],
        }
    result["env"] = environment()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
