"""The three workloads: input stream, warm-up, and one timed, checked operation."""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import time

import inputs
import oracle

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT = os.path.join(ROOT, ".bench_out")
CALL_TIMEOUT_S = 120


class Op:
    """Outcome of one operation: start (perf_counter), wall time, failures,
    MC samples drawn, and the known defect its input exercises (None for
    the timed operations)."""

    def __init__(self, kind, at, seconds, failures, samples=0, defect=None):
        self.kind, self.at, self.seconds, self.failures, self.samples = kind, at, seconds, failures, samples
        self.defect = defect


class CliCold:
    """`python -m salbound <cmd>` subprocesses, one at a time."""

    name = "cli-cold"

    def __init__(self, seed: int):
        import jsonschema

        with open(os.path.join(ROOT, "docs", "report-schema.json"), encoding="utf-8") as fh:
            self.validator = jsonschema.Draft202012Validator(json.load(fh))
        self.stream = inputs.cli_ops(seed)
        self.probes = inputs.cli_probes(seed)
        self.calls = 0

    def warm_up(self) -> None:
        subprocess.run([sys.executable, "-m", "salbound", "table1"], capture_output=True,
                       timeout=CALL_TIMEOUT_S, check=True)

    def run(self, op: dict, tracer=None) -> Op:
        env = dict(os.environ, **op["env"])
        if tracer is None:
            cmd = [sys.executable, "-m", "salbound", *op["argv"]]
        else:
            os.makedirs(OUT, exist_ok=True)
            spans_path = os.path.join(OUT, f"cli-spans-{os.getpid()}-{self.calls}.json")
            cmd = [sys.executable, os.path.join(BENCH, "traced_cli.py"), spans_path, *op["argv"]]
        self.calls += 1
        start = time.perf_counter()
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=CALL_TIMEOUT_S)
        seconds = time.perf_counter() - start
        failures = oracle.check_cli(op, proc.returncode, proc.stdout, proc.stderr, self.validator)
        if tracer is not None and os.path.exists(spans_path):
            tracer.child_records(spans_path)
        samples = op.get("states", 0) * op.get("samples", 0)
        return Op(op["kind"], start, seconds, failures, samples, oracle.known_defect(op))


class BoundsGrid:
    """Warm in-process compute_bounds over distinct problems."""

    name = "bounds-grid"

    def __init__(self, seed: int):
        from salbound.bounds import ProblemSpec, compute_bounds
        from salbound.potentials import parse_potential
        from salbound.solver import SolverConfig

        self.spec, self.parse, self.config = ProblemSpec, parse_potential, SolverConfig
        self.compute_bounds = compute_bounds
        self.stream = inputs.grid_problems(seed)
        self.probes = inputs.grid_probes(seed)

    def warm_up(self) -> None:
        for basis in inputs.GRID_BASES:
            for mass in (0.0, 1.0):
                self.compute_bounds(self.spec(4, mass, self.parse("linear:1")), self.config(basis_size=basis))

    def run(self, problem: dict, tracer=None) -> Op:
        spec = self.spec(problem["n"], problem["mass"], self.parse(problem["potential"]["spec"]))
        config = self.config(basis_size=problem["basis"])
        span = tracer.open("bounds.compute_bounds") if tracer else None
        start = time.perf_counter()
        try:
            result, error = self.compute_bounds(spec, config), None
        except Exception as exc:  # every failure is counted against the operation
            result, error = None, exc
        seconds = time.perf_counter() - start
        if tracer:
            tracer.close(span)
        pot = problem["potential"]
        if inputs.refuses(pot, 1.0, 1.0, (problem["n"] - 1) / 2.0):
            refused = error is not None and "StabilityError" in {c.__name__ for c in type(error).__mro__}
            failures = [] if refused else [f"expected a stability refusal, got {error!r}"]
        elif error is not None:
            failures = [f"{type(error).__name__}: {error}"]
        else:
            lower = {k: getattr(result, k) for k in ("n2", "n3", "n4", "conjectured")}
            lower = {k: (None if v is None else v.value) for k, v in lower.items()}
            failures = oracle.check_bounds(problem["n"], problem["mass"], pot, lower, result.upper.value)
        return Op(problem["category"], start, seconds, failures, defect=oracle.known_defect(problem))


class DeltaCorpus:
    """Warm in-process expectation_delta, one state per operation."""

    name = "delta-corpus"

    def __init__(self, seed: int):
        from salbound.delta import SymmetrizedGaussianState, expectation_delta

        self.state, self.expectation = SymmetrizedGaussianState, expectation_delta
        self.stream = inputs.delta_states(seed)
        self.probes = []

    def warm_up(self) -> None:
        import numpy as np

        for n in (3, 4):
            state = self.state(np.ones(1), np.zeros((1, n - 1, 3)), np.ones((1, n - 1, 3)))
            self.expectation(state, 0.0, 1000, seed=0)

    def run(self, item: dict, tracer=None) -> Op:
        state = self.state(item["weights"], item["centers"], item["widths"])
        span = tracer.open("delta.expectation_delta") if tracer else None
        start = time.perf_counter()
        try:
            stats, error = self.expectation(
                state, item["mass"], item["samples"], seed=item["mc_seed"], shard_count=1, threads=1
            ), None
        except Exception as exc:  # every failure is counted against the operation
            stats, error = None, exc
        seconds = time.perf_counter() - start
        if tracer:
            tracer.close(span, finding=bool(stats and stats.mean < -3.0 * stats.stderr))
        if error is not None:
            return Op(item["kind"], start, seconds, [f"{type(error).__name__}: {error}"], item["samples"])
        failures = oracle.check_delta(item, stats.mean, stats.stderr)
        return Op(item["kind"], start, seconds, failures, item["samples"])


WORKLOADS = {w.name: w for w in (CliCold, BoundsGrid, DeltaCorpus)}

#: Operations in one full input cycle of each workload.
CYCLE = {"cli-cold": len(inputs.CLI_CYCLE), "bounds-grid": 2 * len(inputs.GRID_CATEGORIES),
         "delta-corpus": len(inputs.DELTA_CYCLE)}


def op_record(op: Op, scale: float = 1.0) -> dict:
    """Plain record of one operation; ``scaled`` is its time on the reference host."""
    return {"kind": op.kind, "seconds": op.seconds, "scaled": op.seconds * scale, "failures": op.failures,
            "samples": op.samples, "defect": op.defect}


def environment() -> dict:
    """Versions, BLAS and thread settings this process runs with."""
    from importlib import metadata

    import numpy

    try:
        config = numpy.show_config(mode="dicts")
        blas = config.get("Build Dependencies", {}).get("blas", {})
    except TypeError:  # numpy < 1.25 has no dict mode
        blas = {}
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration") if k in blas},
        "nproc": len(os.sched_getaffinity(0)),
        "threads_env": {k: os.environ.get(k) for k in
                        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "SALBOUND_THREADS")},
    }


def peak_rss_mb(workload) -> float:
    who = resource.RUSAGE_CHILDREN if workload.name == "cli-cold" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0
