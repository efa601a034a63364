"""The traced run: per-layer metrics from traced slices of every workload.

Each workload contributes one full input cycle (its slice) and its
known-defect probes, so every layer is measured in every traced run and the
counts repeat exactly for a given seed.  The probes are traced but, as in
the untraced run, not counted among the attempted operations.  The tracing overhead of the named workload is measured afterwards on
pairs of the same operation run untraced and traced, alternating the order.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from collections import defaultdict

from tracer import Tracer, install
from workloads import CYCLE, OUT, WORKLOADS, op_record

CLI_COMMANDS = ("solve", "bounds", "linear-table", "table1", "verify-delta")

#: Counts that repeat exactly for a given seed (the slices are fixed work).
EXACT_COUNTS = (
    "quadrature.rule_builds",
    "solver.ground_energy.calls",
    "solver.objective_evals",
    "solver.objective_evals_per_solve",
    "solver.eigvalsh.calls",
    "solver.assembly.flops_computed",
    "solver.endpoint_pinned",
    "potentials.calls",
    "bounds.solves_per_problem",
    "bounds.gaussian_upper.evals",
    "delta.samples",
    "delta.findings",
)


def _timed(cmd) -> tuple[float, subprocess.CompletedProcess]:
    start = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60, check=True)
    return time.perf_counter() - start, proc


def scipy_import_s(importtime_log: str) -> float:
    """Cumulative time of the outermost scipy imports in a -X importtime log."""
    rows = []
    for line in importtime_log.splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        name = parts[2].rstrip()
        rows.append((len(name) - len(name.lstrip()), name.strip(), int(parts[1])))
    total = 0
    for i, (depth, name, cumulative) in enumerate(rows):
        if name.split(".")[0] != "scipy":
            continue
        parent = next((r for r in rows[i + 1:] if r[0] < depth), None)
        if parent is None or parent[1].split(".")[0] != "scipy":
            total += cumulative
    return total * 1e-6


def import_probes() -> dict:
    py = sys.executable
    timer = "import time; t = time.perf_counter(); import salbound.cli; print(time.perf_counter() - t)"
    return {
        "import.interpreter_s": statistics.median(_timed([py, "-c", "pass"])[0] for _ in range(5)),
        "import.salbound_cli_s": statistics.median(float(_timed([py, "-c", timer])[1].stdout) for _ in range(3)),
        "import.scipy_s": statistics.median(
            scipy_import_s(_timed([py, "-X", "importtime", "-c", "import salbound.cli"])[1].stderr)
            for _ in range(3)
        ),
    }


def layer_metrics(groups: list[list[dict]]) -> dict:
    """Per-layer counts and self times over all span groups."""
    selfs = defaultdict(float)
    calls = defaultdict(int)
    main_by_command = defaultdict(list)
    builds = pinned = findings = samples = flops = 0
    solves_in_problems = 0
    for records in groups:
        kids = defaultdict(list)
        for r in records:
            if r["parent"] is not None:
                kids[r["parent"]].append(r)
        for index, r in enumerate(records):
            name = r["name"]
            selfs[name] += r["self"]
            calls[name] += 1
            if name == "cli.main":
                main_by_command[r["command"]].append(r["end"] - r["start"])
            elif name == "quadrature.unit_rule":
                builds += r.get("builds", 0)
            elif name == "solver.ground_energy":
                pinned += r.get("pinned", False)
                parent = r["parent"]
                solves_in_problems += parent is not None and records[parent]["name"] == "bounds.compute_bounds"
            elif name == "delta.expectation_delta":
                findings += r.get("finding", False)
            elif name == "delta.sample_momenta":
                samples += r.get("samples", 0)
            elif name == "solver.objective":
                # one kinetic and one potential matrix, 2 B^2 Q flops each
                dim = [k["dim"] for k in kids[index] if k["name"] == "solver.eigvalsh"]
                nodes = [k["size"] for k in kids[index] if k["name"] == "potentials.call"]
                if dim and nodes:
                    flops += 4 * dim[0] ** 2 * nodes[0]
            elif name == "solver.self_check" and "basis" in r:
                nodes = sum(k["size"] for k in kids[index] if k["name"] == "potentials.call")
                flops += 4 * r["basis"] ** 2 * nodes

    def total(*names):
        return sum(selfs[n] for n in names)

    solves = calls["solver.ground_energy"]
    out = {f"cli.{c}.p50_s": statistics.median(main_by_command[c]) if main_by_command[c] else 0.0
           for c in CLI_COMMANDS}
    out.update({
        "cli.self_s": total("cli.main"),
        "quadrature.rule_builds": builds,
        "quadrature.self_s": total("quadrature.unit_rule", "quadrature.semi_infinite_rule"),
        "solver.ground_energy.calls": solves,
        "solver.ground_energy.self_s": total("solver.ground_energy", "solver.scale_search"),
        "solver.objective_evals": calls["solver.objective"],
        "solver.objective_evals_per_solve": calls["solver.objective"] / max(solves, 1),
        "solver.objective.self_s": total("solver.objective"),
        "solver.eigvalsh.calls": calls["solver.eigvalsh"],
        "solver.eigvalsh.self_s": total("solver.eigvalsh"),
        "solver.assembly.flops_computed": flops,
        "solver.self_check.self_s": total("solver.self_check"),
        "solver.endpoint_pinned": pinned,
        "potentials.calls": calls["potentials.call"],
        "potentials.self_s": total("potentials.call"),
        "bounds.compute_bounds.self_s": total("bounds.compute_bounds"),
        "bounds.solves_per_problem": solves_in_problems / max(calls["bounds.compute_bounds"], 1),
        "bounds.gaussian_upper.self_s": total(
            "bounds.gaussian_upper", "bounds.gaussian_upper.search", "bounds.gaussian_upper.objective"
        ),
        "bounds.gaussian_upper.evals": calls["bounds.gaussian_upper.objective"],
        "delta.sample_momenta.self_s": total("delta.sample_momenta"),
        "jacobi.from_jacobi.self_s": total("jacobi.from_jacobi"),
        "delta.reduction.self_s": total("delta.expectation_delta"),
        "delta.samples": samples,
        "delta.findings": findings,
    })
    return out


def unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "flop" if "flops" in name else "count"


def overhead(workload, seconds_left: float, min_pairs: int = 3) -> tuple[float, list]:
    """Traced over untraced operations per second on the same inputs."""
    plain = traced = 0.0
    ops = []
    deadline = time.perf_counter() + seconds_left
    while len(ops) < 2 * min_pairs or time.perf_counter() < deadline:
        item = next(workload.stream)
        for with_trace in (False, True) if len(ops) % 4 == 0 else (True, False):
            if with_trace:
                tracer = Tracer()
                install(tracer)
                try:
                    op = workload.run(item, tracer)
                finally:
                    tracer.uninstall()
                traced += op.seconds
            else:
                op = workload.run(item)
                plain += op.seconds
            ops.append(op)
    return plain / traced, ops


def run(name: str, seed: int, seconds: float) -> dict:
    started = time.perf_counter()
    probes = import_probes()
    workloads = {n: cls(seed) for n, cls in WORKLOADS.items()}
    for workload in workloads.values():
        workload.warm_up()
    tracer = Tracer()
    install(tracer)
    slice_ops, coverage = {}, {}
    try:
        for n, workload in workloads.items():
            first, first_child = len(tracer.spans), len(tracer.children)
            slice_ops[n] = [workload.run(next(workload.stream), tracer) for _ in range(CYCLE[n])]
            spanned = sum(tracer.self_times()[first:]) + sum(
                r["self"] for records in tracer.children[first_child:] for r in records
            )
            coverage[n] = {"self_sum_s": spanned, "op_s": sum(op.seconds for op in slice_ops[n])}
        for workload in workloads.values():
            for item in workload.probes:
                workload.run(item, tracer)
    finally:
        tracer.uninstall()
    groups = tracer.groups()
    metrics = {**probes, **layer_metrics(groups)}
    ratio, pair_ops = overhead(workloads[name], seconds - (time.perf_counter() - started))
    metrics["trace.overhead_ratio"] = ratio
    os.makedirs(OUT, exist_ok=True)
    spans_path = os.path.join(OUT, f"spans-{name}-seed{seed}.jsonl")
    with open(spans_path, "w", encoding="utf-8") as fh:
        for group, records in enumerate(groups):
            for record in records:
                fh.write(json.dumps({"group": group, **record}) + "\n")
    ops = [op for n in workloads for op in slice_ops[n]] + pair_ops
    return {
        "metrics": {k: [v, unit(k)] for k, v in metrics.items()},
        # self times of a slice add up to its traced operation time; for
        # cli-cold the remainder is interpreter start and exit, not spanned
        "self_sum_vs_op_s": coverage,
        "exact_counts": list(EXACT_COUNTS),
        "slice_ops": {n: len(v) for n, v in slice_ops.items()},
        "overhead_pairs": len(pair_ops) // 2,
        "ops": [op_record(op) for op in ops],
        "spans_file": os.path.relpath(spans_path),
    }
