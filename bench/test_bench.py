"""Checks of the benchmark itself, on a seed other than the default one.

Run from the repository root:  python3 -m pytest -q bench/test_bench.py
"""

import itertools
import json
import math
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import calibration  # noqa: E402
import inputs  # noqa: E402
import oracle  # noqa: E402
from trace_run import EXACT_COUNTS, scipy_import_s  # noqa: E402

SEED = 7  # not the default seed 0
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCHMARK = json.load(fh)

STREAMS = {
    "cli-cold": (inputs.cli_ops, len(inputs.CLI_CYCLE)),
    "bounds-grid": (inputs.grid_problems, 2 * len(inputs.GRID_CATEGORIES)),
    "delta-corpus": (inputs.delta_states, len(inputs.DELTA_CYCLE)),
}


def _cycle(workload, seed):
    stream, size = STREAMS[workload]
    return repr(list(itertools.islice(stream(seed), size)))


def _run(workload, seed, seconds, trace, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "bench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("workload", sorted(STREAMS))
def test_inputs_follow_the_seed(workload):
    assert _cycle(workload, SEED) == _cycle(workload, SEED)
    assert _cycle(workload, SEED) != _cycle(workload, 0)


def test_timed_inputs_avoid_known_defects():
    timed = [*itertools.islice(inputs.grid_problems(SEED), 2000), *itertools.islice(inputs.cli_ops(SEED), 500)]
    assert [op for op in timed if oracle.known_defect(op)] == []
    probes = [*inputs.cli_probes(SEED), *inputs.grid_probes(SEED)]
    assert all(oracle.known_defect(op) for op in probes)


def test_calibration_scale_uses_nearby_samples():
    cal = calibration.Calibrator()
    cal.at = [float(t) for t in range(20)]
    cal.seconds = [calibration.REF_S] * 10 + [2 * calibration.REF_S] * 10
    assert cal.scale(2.0) == pytest.approx(1.0)
    assert cal.scale(17.0) == pytest.approx(0.5)
    assert cal.scale(100.0) == pytest.approx(0.5)  # the nearest MIN_SAMPLES when none is in the window


def test_grid_problems_never_repeat():
    problems = list(itertools.islice(inputs.grid_problems(SEED), 2000))
    keys = {(p["n"], p["mass"], p["potential"]["spec"], p["basis"]) for p in problems}
    assert len(keys) == len(problems)


def test_oracle_reference_values():
    e = oracle.E_LINEAR
    assert oracle.linear_lower(2, 1.0, 1.0) == pytest.approx(2 * math.sqrt(0.5) * e)
    # conjectured bound at N -> inf: ratio 4 / (e sqrt(pi))
    assert oracle.expected_ratio("R_c", "inf") == pytest.approx(4 / (e * math.sqrt(math.pi)))
    assert oracle.expected_ratio("R_N/4", "3") is None
    assert oracle.anisotropic_mean(3.0, 0.3) == pytest.approx(-0.7034, abs=1e-4)
    assert oracle.known_defect({"kind": "probe-basis-120"}) == "basis-120-quadrature"
    big = {"n": 1000, "mass": 0.0, "potential": inputs.potential("linear", 2.0)}
    assert oracle.known_defect(big) == "gaussian-scale-interval"
    assert oracle.known_defect({**big, "n": 10}) is None


def test_oracle_rejects_wrong_bounds():
    pot = inputs.potential("linear", 1.0)
    good = {k: oracle.linear_lower(4, lam, 1.0) for k, lam in oracle.lams(4, 0.0).items()}
    upper = oracle.linear_upper(4, 1.0)
    assert oracle.check_bounds(4, 0.0, pot, good, upper) == []
    assert oracle.check_bounds(4, 0.0, pot, {**good, "n2": 0.9 * good["n2"]}, upper)
    assert oracle.check_bounds(4, 0.0, pot, good, 0.5 * good["n2"])
    assert oracle.check_bounds(4, 0.0, pot, {**good, "n4": None}, upper)


def test_strict_json():
    with pytest.raises(ValueError):
        oracle.parse_json('{"stderr": NaN}')


def test_scipy_share_of_importtime_log():
    log = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     scipy._lib",
        "import time:       200 |        300 |   scipy.special",
        "import time:        50 |         50 |   numpy.linalg",
        "import time:        10 |        360 | salbound.quadrature",
    ])
    assert scipy_import_s(log) == pytest.approx(300e-6)


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_short_pass_on_second_seed(workload):
    proc = _run(workload, SEED, 3, 0)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert result["correct"] and result["failed"] == 0, proc.stdout
    # whole input cycles only; the known-defect probes run apart from them
    assert result["attempted"] >= 5 and result["attempted"] % STREAMS[workload][1] == 0
    with open(os.path.join(ROOT, ".bench_out", f"{workload}-seed{SEED}-trace0.json"), encoding="utf-8") as fh:
        known = json.load(fh)["known_defects"]
    expected = {
        "cli-cold": {"basis-120-quadrature", "massless-coulomb-endpoint", "gaussian-scale-interval"},
        "bounds-grid": {"gaussian-scale-interval"},
        "delta-corpus": set(),
    }
    assert known == dict.fromkeys(expected[workload], "present")


def test_traced_counts_repeat_exactly():
    counts = []
    for seed in (SEED, SEED, SEED + 1):
        proc = _run("delta-corpus", seed, 1, 1)
        assert proc.returncode == 0, proc.stderr
        metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
        assert set(metrics) == {m["name"] for m in BENCHMARK["per_layer"]}
        counts.append({k: metrics[k]["value"] for k in EXACT_COUNTS})
    assert counts[0] == counts[1]
    assert counts[0] != counts[2]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("bounds-grid", SEED, 1, 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
