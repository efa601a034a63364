import csv
import io
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

try:
    import jsonschema
except ImportError:  # pragma: no cover
    jsonschema = None

SCHEMA_PATH = Path(__file__).resolve().parent.parent / "docs" / "report-schema.json"


def run_cli(*argv, env=None):
    import os

    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    return subprocess.run(
        [sys.executable, "-m", "salbound", *argv],
        capture_output=True,
        text=True,
        env=full_env,
    )


def parse_json(proc):
    assert proc.returncode in (0, 4), proc.stderr
    return json.loads(proc.stdout)


def validate_schema(report):
    if jsonschema is None:
        pytest.skip("jsonschema not installed")
    schema = json.loads(SCHEMA_PATH.read_text(encoding="utf-8"))
    jsonschema.validate(report, schema)


def read_csv(text):
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    return list(csv.reader(io.StringIO("\n".join(lines))))


# --- solve -----------------------------------------------------------------------


def test_solve_text_output():
    proc = run_cli(
        "solve", "--beta", "1", "--lambda", "1", "--gamma", "1",
        "--mass", "0", "--potential", "linear:1",
    )
    assert proc.returncode == 0
    assert "units: hbar = c = 1" in proc.stdout
    assert "ground_energy" in proc.stdout
    value = float(proc.stdout.split("ground_energy")[1].split()[0])
    assert value == pytest.approx(2.2322, abs=1e-3)


def test_solve_json_schema_and_value():
    proc = run_cli("solve", "--potential", "linear:1", "--format", "json")
    report = parse_json(proc)
    validate_schema(report)
    assert report["result"]["ground_energy"] == pytest.approx(2.2322, abs=1e-3)
    assert report["header"]["units"] == "hbar = c = 1"


def test_solve_stability_exit_code():
    proc = run_cli("solve", "--potential", "coulomb:0.8", "--mass", "0")
    assert proc.returncode == 3
    assert "2/pi" in proc.stderr


def test_solve_parse_error_exit_code():
    proc = run_cli("solve", "--potential", "linear:-1")
    assert proc.returncode == 2
    assert "linear:-1" in proc.stderr or "slope" in proc.stderr
    proc = run_cli("solve", "--beta", "nope")
    assert proc.returncode == 2
    assert "--beta" in proc.stderr
    for flag, value in (("--mass", "inf"), ("--beta", "nan"), ("--gamma", "Infinity")):
        proc = run_cli("solve", flag, value)
        assert proc.returncode == 2, (flag, value)
        assert f"{flag} must be finite" in proc.stderr
    proc = run_cli("solve", "--potential", "linear:inf")
    assert proc.returncode == 2
    assert "non-finite" in proc.stderr


@pytest.mark.parametrize(
    "argv, message",
    [
        (["solve", "--potential", "coulomb:1e-310", "--mass", "1"], "natural length inf"),
        (["solve", "--potential", "coulomb:1e-200", "--mass", "1e-200"], "natural length inf"),
        (["solve", "--potential", "coulomb:1e-300", "--mass", "1"], "natural mass mu 1e+300"),
        (["bounds", "--n", "2", "--potential", "linear:1e-300", "--mass", "1e300"],
         "natural mass mu inf"),
        (["solve", "--gamma", "1e-200", "--potential", "linear:1e-200"],
         "confining coefficient gamma c 0"),
        (["solve", "--beta", "1e-200", "--lambda", "1e-300"],
         "kinetic coefficient beta sqrt(lam) 0"),
        (["solve", "--beta", "1e-300", "--potential", "linear:1e300"], "natural length 0"),
        # mu^2 c overflowed in the kinetic pair integral of the widest Gaussian
        (["solve", "--mass", "1e150", "--basis-size", "120"], "natural mass mu 1e+150"),
    ],
)
def test_out_of_range_natural_units_exit_2(capsys, argv, message):
    # each of these overflowed or underflowed into a misleading error, a
    # LAPACK failure or a traceback before the natural units were checked
    from salbound.cli import main

    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message} is outside the floating-point range\n"
    assert captured.out == ""


@pytest.mark.parametrize("command", ["solve", "bounds"])
def test_confining_exponent_above_4_exits_2_at_every_basis_size(capsys, command):
    # power:1,10 printed 24.8329 at K = 40 against 2.40587 at K = 24, with a
    # convergence estimate about equal to the energy, and exited 0
    from salbound.cli import main

    for size in range(2, 121):
        argv = [command, "--mass", "0", "--potential", "power:1,4.5", "--basis-size", str(size)]
        assert main(argv) == 2, size
        captured = capsys.readouterr()
        assert captured.err == (
            "error: confining exponent 4.5 is above 4, beyond what the Gaussian basis resolves\n"
        )
        assert captured.out == ""
    assert main(["solve", "--mass", "0", "--potential", "power:1,4", "--basis-size", "120"]) == 0


@pytest.mark.parametrize(
    "argv, lower, upper",
    [
        (["bounds", "--n", "2", "--mass", "0", "--potential", "coulomb+linear:0.6,1",
          "--basis-size", "2"], 13.68, 2.67),
        (["bounds", "--n", "1000", "--mass", "0", "--potential", "power:2,0.01"], 999640.0, 991017.0),
    ],
    ids=["coulomb+linear-two-gaussians", "power-0.01-at-large-n"],
)
def test_sandwich_violation_exits_5_with_one_error_line(capsys, argv, lower, upper):
    # the guard of compute_bounds used to end in a RuntimeError traceback
    from salbound.cli import EXIT_INTERNAL, main

    assert main(argv) == EXIT_INTERNAL == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("error: internal error: lower bound n2 = ")
    assert "exceeds the Gaussian upper bound" in line
    values = [float(word) for word in line.replace("=", " ").split() if word[0].isdigit()]
    assert values[-2:] == [pytest.approx(lower, rel=1e-3), pytest.approx(upper, rel=1e-3)]


def test_pinned_scale_gets_one_warning_without_a_scale(capsys):
    # the heavy mass wants Gaussians narrower than the grid's narrowest; the
    # one warning names that end and its weight but no length, so that it
    # holds in any units: the same operator in other units warns alike
    from salbound.cli import main

    warnings = []
    for argv in (["--potential", "linear:8"], ["--beta", "2", "--gamma", "3", "--potential", "linear:1"]):
        assert main(["solve", "--mass", "1e5", *argv, "--format", "json"]) == 0
        result = json.loads(capsys.readouterr().out)["result"]
        (warning,) = result["warnings"]
        warnings.append(warning)
    assert warnings[0].startswith("the ground state has weight 1.6e-05 on the Gaussian at the lower endpoint")
    assert "value returned" not in warnings[0]


@pytest.mark.parametrize(
    "argv",
    [
        ["linear-table", "--n", str(10**308)],
        ["bounds", "--n", str(10**200)],
        ["bounds", "--n", str(10**400)],
    ],
    ids=["linear-table-1e308", "bounds-1e200", "bounds-1e400"],
)
def test_particle_count_whose_pair_count_overflows_exits_2(capsys, argv):
    # these ended in an OverflowError traceback with exit 1
    from salbound.cli import main

    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        "error: particle count is too large: its pair count n(n-1)/2 is not a finite float\n"
    )
    assert captured.out == ""


@pytest.mark.parametrize("size", [121, 200, 300])
def test_basis_size_above_the_cap_exits_2_before_numpy(size):
    # 200 and 300 returned 0.00169 and 1.6e-08 for a bottom of 2.2322 with
    # exit 0; the refusal comes before any solve, with numpy blocked
    code = (
        "import contextlib, io, sys\n"
        "sys.modules['numpy'] = None\n"
        "from salbound.cli import main\n"
        "err = io.StringIO()\n"
        "with contextlib.redirect_stderr(err):\n"
        f"    code = main(['solve', '--basis-size', '{size}'])\n"
        "print(code, err.getvalue().strip())\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.stdout.strip() == "2 error: basis size must be at most 120", proc.stderr


@pytest.mark.parametrize("command", ["solve", "bounds"])
@pytest.mark.parametrize(
    "mass, above, kernels",
    [("0", 0, ("spectrum", "spectrum")), ("0", 1, ("solver", "solver")), ("1", 0, ("spectrum", "solver"))],
    ids=["massless-at-the-crossover", "massless-above-it", "massive"],
)
def test_every_cli_solve_is_one_kernel_choice(monkeypatch, command, mass, above, kernels):
    # cli.ground_energy picks the kernel of every solve of both commands: the
    # pure-Python one up to the crossover basis size, else numpy's, and
    # numpy's for bounds at m > 0, whose upper bound loads numpy anyway
    import salbound.solver
    import salbound.spectrum
    from salbound import cli

    size = str(cli.PURE_PYTHON_MAX_BASIS + above)
    kernel = dict(zip(("solve", "bounds"), kernels))[command]
    chosen, ran = [], []

    def counted(log, name, function):
        return lambda *args: log.append(name) or function(*args)

    monkeypatch.setattr(cli, "ground_energy", counted(chosen, "cli", cli.ground_energy))
    monkeypatch.setattr(salbound.spectrum, "pure_ground_energy", counted(
        ran, "spectrum", salbound.spectrum.pure_ground_energy))
    monkeypatch.setattr(salbound.solver, "ground_energy", counted(
        ran, "solver", salbound.solver.ground_energy))
    argv = [command, "--mass", mass, "--potential", "coulomb+linear:0.3,1", "--basis-size", size]
    if command == "bounds":
        argv += ["--n", "5"]
    assert cli.main(argv) == 0
    assert len(chosen) >= 1
    assert ran == [kernel] * len(chosen)


def test_unknown_flag_exits_2():
    proc = run_cli("solve", "--frobnicate", "1")
    assert proc.returncode == 2


def test_solve_csv_matches_json():
    json_proc = run_cli("solve", "--potential", "linear:1", "--format", "json")
    csv_proc = run_cli("solve", "--potential", "linear:1", "--format", "csv")
    report = parse_json(json_proc)
    rows = read_csv(csv_proc.stdout)
    assert rows[0] == ["key", "value"]
    table = {row[0]: row[1] for row in rows[1:]}
    assert float(table["ground_energy"]) == report["result"]["ground_energy"]
    assert float(table["convergence_estimate"]) == report["result"]["convergence_estimate"]
    coefficients = report["result"]["coefficients"]
    assert len(coefficients) == report["config"]["basis_size"]
    assert [float(table[f"coefficient_{i}"]) for i in range(len(coefficients))] == coefficients
    lo, hi = report["result"]["basis_range"]
    assert (float(table["basis_range_min"]), float(table["basis_range_max"])) == (lo, hi)
    assert len(table) == 4 + len(coefficients)


# --- bounds ----------------------------------------------------------------------


def test_bounds_n4_equals_conjectured_at_four_massless():
    proc = run_cli(
        "bounds", "--n", "4", "--mass", "0", "--potential", "linear:1", "--format", "json",
    )
    report = parse_json(proc)
    validate_schema(report)
    bounds = report["bounds"]
    assert bounds["n4"] == pytest.approx(bounds["conjectured"], abs=1e-6)
    assert report["status"] == "proven"


def test_bounds_absent_entries_are_null_with_reason():
    proc = run_cli(
        "bounds", "--n", "5", "--mass", "1", "--potential", "linear:1", "--format", "json",
    )
    report = parse_json(proc)
    validate_schema(report)
    assert report["bounds"]["n4"] is None
    assert report["reasons"]["n4"] == "requires m=0"
    assert report["status"] == "conjectured"


def test_bounds_two_body_values():
    proc = run_cli(
        "bounds", "--n", "2", "--mass", "0", "--potential", "linear:1", "--format", "json",
    )
    report = parse_json(proc)
    assert report["bounds"]["upper"] == pytest.approx(3.19154, abs=1e-4)
    assert report["bounds"]["n2"] == pytest.approx(3.1568, abs=2e-3)
    assert report["bounds"]["conjectured"] == pytest.approx(3.1568, abs=2e-3)
    assert report["bounds"]["n3"] is None and report["bounds"]["n4"] is None


def test_bounds_large_n_upper_is_the_gaussian_closed_form():
    proc = run_cli("bounds", "--n", "1000", "--potential", "linear:2.0", "--format", "json")
    report = parse_json(proc)
    n = 1000
    closed_form = 4.0 * n * (2.0 * (n - 1) ** 3 / (n * math.pi**2)) ** 0.25
    assert report["bounds"]["upper"] == pytest.approx(closed_form, rel=1e-12)
    assert report["bounds"]["upper"] == pytest.approx(84804.1, abs=0.05)
    assert report["diagnostics"]["upper"]["warnings"] == []


def test_bounds_large_n_massive_rows_are_not_pinned():
    # n2 was 1.84386e+06 with its basis scale pinned at 20, upper 3.99e6 with
    # the Gaussian scale pinned at 0.05
    proc = run_cli(
        "bounds", "--n", "10000", "--mass", "1", "--potential", "linear:1.3",
        "--basis-size", "24", "--format", "json",
    )
    report = parse_json(proc)
    assert report["bounds"]["n2"] == pytest.approx(1799712.01797421, rel=1e-10)
    assert report["bounds"]["upper"] == pytest.approx(2163607.45, abs=0.005)
    for name, diagnostics in report["diagnostics"].items():
        assert diagnostics["warnings"] == [], name


def test_bounds_csv_matches_json():
    args = ("bounds", "--n", "3", "--mass", "0", "--potential", "linear:1")
    report = parse_json(run_cli(*args, "--format", "json"))
    rows = read_csv(run_cli(*args, "--format", "csv").stdout)
    assert rows[0] == ["bound", "value", "note"]
    table = {row[0]: row[1] for row in rows[1:]}
    for key in ("n2", "n3", "conjectured", "upper"):
        assert float(table[key]) == report["bounds"][key]
    assert table["n4"] == ""


# --- linear-table and table1 --------------------------------------------------------


def test_linear_table_json():
    proc = run_cli("linear-table", "--n", "4", "--format", "json")
    report = parse_json(proc)
    validate_schema(report)
    assert report["bounds"]["n4"] == pytest.approx(report["bounds"]["conjectured"], rel=1e-14)
    assert report["bounds"]["upper"] == pytest.approx(12.23527, abs=1e-4)


# Reports captured before the bounds and linear-table renderers were merged.
GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize(
    "golden, argv",
    [
        ("linear-table_n2.txt", ["linear-table", "--n", "2"]),
        ("linear-table_n3.txt", ["linear-table", "--n", "3"]),
        ("linear-table_n10.txt", ["linear-table", "--n", "10"]),
        ("bounds_n2.txt", ["bounds", "--n", "2"]),
        ("bounds_n4.txt", ["bounds", "--n", "4"]),
        ("bounds_n5_m1.txt", ["bounds", "--n", "5", "--mass", "1"]),
        ("table1.txt", ["table1"]),
    ],
)
def test_text_report_matches_golden(capsys, golden, argv):
    from salbound.cli import main

    assert main(argv) == 0
    assert capsys.readouterr().out == (GOLDEN / golden).read_bytes().decode("utf-8")


@pytest.mark.parametrize(
    "n, potential, rows",
    [(2, "coulomb:0.3", ["n2", "conjectured"]), (3, "coulomb:0.2", ["n2", "n3", "conjectured"])],
    ids=["n2-coulomb0.3", "n3-coulomb0.2"],
)
def test_bounds_text_prints_every_warning_after_the_table(capsys, n, potential, rows):
    # massless Coulomb has its bottom at 0: every solve reaches the widest
    # Gaussian and the Gaussian scale pins at the end of its interval; each
    # warning of the JSON report is one line after the rows, led by
    # "warning:" so that a reader of the rows skips it
    from salbound.cli import main

    argv = ["bounds", "--n", str(n), "--potential", potential]
    assert main([*argv, "--format", "json"]) == 0
    diagnostics = json.loads(capsys.readouterr().out)["diagnostics"]
    expected = [f"warning: {name}: {w}" for name, d in diagnostics.items() for w in d["warnings"]]
    assert [line.split(":")[1].strip() for line in expected] == [*rows, "upper"]
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-len(expected):] == expected
    assert lines[-len(expected) - 1].startswith("upper ")
    assert expected[-1] == (
        "warning: upper: Gaussian scale optimum sits at the lower endpoint of its search interval"
    )
    for line in expected[:-1]:
        assert "on the Gaussian at the upper endpoint of the basis range" in line


@pytest.mark.parametrize(
    "argv",
    [["solve", "--mass", "0", "--potential", "coulomb:0.3"],
     ["bounds", "--n", "3", "--mass", "0", "--potential", "coulomb:0.2"]],
    ids=["solve", "bounds"],
)
def test_csv_carries_the_text_warnings_as_comments(capsys, argv):
    # after its rows, a CSV report prints each warning line of the text
    # report as a "#" comment, which a CSV reader of the rows skips
    from salbound.cli import main

    assert main(argv) == 0
    warnings = [line for line in capsys.readouterr().out.splitlines() if line.startswith("warning: ")]
    assert warnings
    assert main([*argv, "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-len(warnings):] == [f"# {line}" for line in warnings]
    assert [line for line in lines if line.startswith("# warning: ")] == lines[-len(warnings):]


@pytest.mark.parametrize("n", [2, 3, 10])
def test_linear_table_csv_matches_golden(capsys, n):
    from salbound.cli import main

    assert main(["linear-table", "--n", str(n), "--format", "csv"]) == 0
    got = capsys.readouterr().out.split("\r\n")
    want = (GOLDEN / f"linear-table_n{n}.csv").read_bytes().decode("utf-8").split("\r\n")
    assert len(got) == len(want)
    for got_line, want_line in zip(got, want):
        got_cells, want_cells = got_line.split(","), want_line.split(",")
        assert len(got_cells) == len(want_cells)
        for got_cell, want_cell in zip(got_cells, want_cells):
            try:
                expected = float(want_cell)
            except ValueError:
                assert got_cell == want_cell
            else:
                assert float(got_cell) == pytest.approx(expected, rel=1e-15, abs=0.0)


PAPER_RN2 = [1.011, 1.08639, 1.11886, 1.13706, 1.14872, 1.17104, 1.20229]


def test_table1_reproduces_published_rows():
    proc = run_cli("table1", "--format", "json")
    report = parse_json(proc)
    validate_schema(report)
    assert report["columns"] == [2, 3, 4, 5, 6, 10, "inf"]
    for got, expected in zip(report["rows"]["R_N/2"], PAPER_RN2):
        assert got == pytest.approx(expected, abs=1e-4)
    for value in report["rows"]["R_c"]:
        assert value == pytest.approx(1.011, abs=1e-4)
    assert report["rows"]["R_N/4"][3] == pytest.approx(1.02745, abs=1e-4)
    assert report["rows"]["R_N/3"][0] is None


def test_table1_csv_matches_json():
    report = parse_json(run_cli("table1", "--format", "json"))
    rows = read_csv(run_cli("table1", "--format", "csv").stdout)
    assert rows[0] == ["row_label", "n", "value"]
    from_csv = {(row[0], row[1]): float(row[2]) for row in rows[1:]}
    for label, values in report["rows"].items():
        for column, value in zip(report["columns"], values):
            if value is None:
                assert (label, str(column)) not in from_csv
            else:
                assert from_csv[(label, str(column))] == value


def test_table1_text_layout():
    proc = run_cli("table1")
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert any("N->inf" in line for line in lines)
    rn2 = next(line for line in lines if line.startswith("R_N/2"))
    assert "1.011" in rn2 and "1.20229" in rn2


# --- verify-delta --------------------------------------------------------------------


def test_verify_delta_reports_are_byte_identical():
    args = (
        "verify-delta", "--n", "3", "--mass", "0", "--states", "4",
        "--samples", "5000", "--seed", "42", "--format", "json",
    )
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.stdout == second.stdout
    report = json.loads(first.stdout)
    validate_schema(report)
    assert report["regime"] == "proven"


def test_verify_delta_exit_codes_track_regime_and_findings():
    # the sampled family contains states with genuinely negative expectation;
    # in a proven regime that is the implementation-bug signal (exit 4)
    proc = run_cli(
        "verify-delta", "--n", "3", "--mass", "0", "--states", "5",
        "--samples", "20000", "--seed", "42", "--format", "json",
    )
    report = json.loads(proc.stdout)
    has_findings = bool(report["findings"])
    assert report["verdict"] == ("findings" if has_findings else "all-nonnegative")
    assert proc.returncode == (4 if has_findings else 0)
    for finding in report["findings"]:
        assert finding["regime"] == "proven"
        assert finding["stderr"] > 0.0

    proc = run_cli(
        "verify-delta", "--n", "4", "--mass", "0.5", "--states", "3",
        "--samples", "5000", "--seed", "42", "--format", "json",
    )
    report = json.loads(proc.stdout)
    assert report["regime"] == "conjectured"
    assert proc.returncode == 0  # conjectured regime never signals exit 4


def test_verify_delta_at_many_particles():
    # N = 300: the reduction runs one broadcast per particle; its mean is the
    # pair loop's over the same draws
    from salbound.delta import random_state_corpus

    from delta_reference import reference_kinetic_terms, reference_sample_momenta

    proc = run_cli(
        "verify-delta", "--n", "300", "--states", "1", "--samples", "200", "--format", "json",
    )
    assert proc.returncode == 0, proc.stderr
    mean = json.loads(proc.stdout)["results"][0]["mean"]
    state = random_state_corpus(300, 1, 42)[0]
    kinetic, pair_terms = reference_kinetic_terms(0.0, reference_sample_momenta(state, 200, 42))
    assert mean == pytest.approx(float((kinetic - pair_terms).mean()), rel=1e-12)


def test_verify_delta_csv_and_text_carry_the_json_values(capsys):
    # seed 42 flags one of the three states, so both flag values appear
    from salbound.cli import _g, main

    argv = ["verify-delta", "--n", "3", "--states", "3", "--samples", "4000", "--seed", "42"]
    reports = {}
    for fmt in ("json", "csv", "text"):
        assert main([*argv, "--format", fmt]) == 4
        reports[fmt] = capsys.readouterr().out
    results = json.loads(reports["json"])["results"]
    assert {row["negative_beyond_3se"] for row in results} == {True, False}
    columns = ["state", "mean", "stderr", "k_mean", "q_mean", "negative_beyond_3se"]
    rows = read_csv(reports["csv"])
    assert rows[0] == columns
    assert len(rows) == 1 + len(results)
    for cells, row in zip(rows[1:], results):
        assert int(cells[0]) == row["state"]
        assert [float(cell) for cell in cells[1:5]] == [row[c] for c in columns[1:5]]
        assert cells[5] == ("1" if row["negative_beyond_3se"] else "0")
    lines = reports["text"].splitlines()
    assert lines[3].split() == [*columns[:5], "flag"]
    for line, row in zip(lines[4:], results):
        want = [str(row["state"]), *(_g(row[c]) for c in columns[1:5])]
        assert line.split() == want + (["NEGATIVE"] if row["negative_beyond_3se"] else [])
    assert lines[4 + len(results)].startswith("verdict: findings")


def test_verify_delta_threaded_shards_match_the_library(capsys, monkeypatch):
    # 10000 samples per shard, above one 8192-sample block, so the two shards
    # run on two threads; the report carries the stats of the inline run
    import concurrent.futures
    import os

    from salbound.cli import main
    from salbound.delta import expectation_delta, random_state_corpus

    pools = []

    class Pool(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, max_workers):
            super().__init__(max_workers)
            pools.append(max_workers)

    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Pool)
    argv = ["verify-delta", "--n", "4", "--mass", "1", "--states", "1",
            "--samples", "20000", "--shards", "2", "--format", "json"]
    assert main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    assert pools == [2]
    state = random_state_corpus(4, 1, report["seed"])[0]
    stats = expectation_delta(state, 1.0, 20000, seed=report["seed"], shard_count=2, threads=1)
    (row,) = report["results"]
    columns = ("mean", "stderr", "k_mean", "q_mean")
    assert [row[c] for c in columns] == [getattr(stats, c) for c in columns]


def test_verify_delta_finding_contents(capsys):
    # seed 7 flags state 2 of three at n = 4, m = 0.5; its finding replays
    # through the library from the record alone
    from salbound.cli import main
    from salbound.delta import SymmetrizedGaussianState, expectation_delta, random_state_corpus

    argv = ["verify-delta", "--n", "4", "--mass", "0.5", "--states", "3", "--samples", "5000",
            "--seed", "7", "--shards", "2", "--format", "json"]
    assert main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    flagged = [row for row in report["results"] if row["negative_beyond_3se"]]
    assert [row["state"] for row in flagged] == [2]
    (doc,) = report["findings"]
    assert doc["type"] == "negative-delta-expectation"
    assert doc["regime"] == "conjectured"
    assert doc["n"] == 4 and doc["mass"] == 0.5
    assert doc["seed"] == 7 + 2 and doc["shard_count"] == 2
    assert (doc["mean"], doc["stderr"]) == (flagged[0]["mean"], flagged[0]["stderr"])
    assert doc["state"] == random_state_corpus(4, 3, 7)[2].to_dict()
    restored = SymmetrizedGaussianState.from_dict(doc["state"])
    replay = expectation_delta(restored, doc["mass"], doc["samples"], doc["seed"], doc["shard_count"])
    assert replay.mean == doc["mean"]


def test_finding_written_with_symmetrized_key_replays():
    # a finding serialized while states still carried a "symmetrized" flag
    from salbound.delta import SymmetrizedGaussianState, expectation_delta

    doc = {
        "type": "negative-delta-expectation", "regime": "proven", "n": 3, "mass": 1.0,
        "samples": 4000, "seed": 52, "shard_count": 2,
        "mean": -0.02325692786504606, "stderr": 0.0019437577150246772,
        "state": {
            "weights": [1.0],
            "centers": [[[0.5796483884136153, 1.3190118263140254, 0.045875162973296996],
                         [-0.15750987445146633, -0.1495488972784771, -0.9209182652319117]]],
            "widths": [[[1.8276308507722374, 1.0965651447112135, 2.2995768992712935],
                        [0.9314881896344832, 0.5969385498421764, 1.057540966590625]]],
            "symmetrized": True,
        },
    }
    state = SymmetrizedGaussianState.from_dict(doc["state"])
    replay = expectation_delta(state, doc["mass"], doc["samples"], doc["seed"], doc["shard_count"])
    assert replay.negative_beyond(3.0)
    assert replay.mean == pytest.approx(doc["mean"], abs=1e-10 * doc["stderr"])
    assert replay.stderr == pytest.approx(doc["stderr"], rel=1e-12)
    assert "symmetrized" not in state.to_dict()


def test_verify_delta_text_verdict():
    proc = run_cli(
        "verify-delta", "--n", "4", "--mass", "0.5", "--states", "2",
        "--samples", "3000", "--seed", "1",
    )
    assert proc.returncode == 0
    assert "conjectured regime" in proc.stdout


# --- config file, output file, misc ---------------------------------------------------


def test_config_file_supplies_defaults_and_flags_override(tmp_path):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"n": 4, "mass": 0.0, "potential": "linear:1"}))
    report = parse_json(
        run_cli("bounds", "--config", str(config), "--format", "json")
    )
    assert report["n"] == 4
    report = parse_json(
        run_cli("bounds", "--config", str(config), "--n", "3", "--format", "json")
    )
    assert report["n"] == 3  # flag wins over config


def test_bad_config_file_exits_2(tmp_path):
    config = tmp_path / "broken.json"
    config.write_text("{not json")
    proc = run_cli("bounds", "--config", str(config))
    assert proc.returncode == 2
    # integer flags refuse what int() would truncate or coerce
    for command, values, flag in (
        ("linear-table", {"n": 3.9}, "--n"),
        ("verify-delta", {"samples": True}, "--samples"),
        ("bounds", {"n": False}, "--n"),
    ):
        config.write_text(json.dumps(values))
        proc = run_cli(command, "--config", str(config))
        assert proc.returncode == 2, values
        assert f"{flag} expects an integer" in proc.stderr
        assert proc.stdout == ""
    config.write_text(json.dumps({"n": 4.0}))
    assert parse_json(run_cli("linear-table", "--config", str(config), "--format", "json"))["n"] == 4


def test_config_keys_must_name_a_flag_and_integers_must_parse(tmp_path, capsys):
    from salbound.cli import main

    config = tmp_path / "run.json"
    config.write_text(json.dumps({"mas": 1.0}))
    assert main(["bounds", "--config", str(config)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --config ") and "'mas'" in captured.err
    # a config file shared between commands: keys of other commands and the
    # underscore spellings are accepted
    config.write_text(json.dumps({"n": 3, "seed": 7, "basis_size": 12, "beta": 2.0}))
    assert main(["linear-table", "--config", str(config), "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["n"] == 3
    assert main(["bounds", "--n", "1e3"]) == 2
    assert capsys.readouterr().err == "error: --n expects an integer, got '1e3'\n"


@pytest.mark.parametrize("out", [True, 2], ids=["true", "two"])
def test_config_out_must_be_a_path(tmp_path, capfd, out):
    # open() takes a bool or an int as a file descriptor: the report went to
    # fd 1 or 2, which was then closed
    import os

    from salbound.cli import main

    config = tmp_path / "run.json"
    config.write_text(json.dumps({"out": out}))
    saved = {fd: os.dup(fd) for fd in (1, 2)}
    try:
        code = main(["linear-table", "--config", str(config)])
        closed = []
        for fd in (1, 2):
            try:
                os.fstat(fd)
            except OSError:
                closed.append(fd)
    finally:
        for fd, copy in saved.items():
            if fd in closed:
                os.dup2(copy, fd)
            os.close(copy)
    assert closed == []
    assert code == 2
    captured = capfd.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --out expects a path, got {out!r}\n"


def test_out_writes_file(tmp_path):
    out = tmp_path / "report.json"
    proc = run_cli("linear-table", "--n", "3", "--format", "json", "--out", str(out))
    assert proc.returncode == 0
    assert proc.stdout == ""
    report = json.loads(out.read_text())
    assert report["header"]["command"] == "linear-table"


def test_unwritable_out_exits_2(tmp_path):
    target = tmp_path / "missing" / "x.txt"
    proc = run_cli("table1", "--out", str(target))
    assert proc.returncode == 2
    assert proc.stderr.startswith(f"error: --out {target}: ")
    assert "Traceback" not in proc.stderr


def test_verify_delta_one_sample_exits_2():
    # one sample has no standard error; the report would carry NaN, which is not JSON
    proc = run_cli("verify-delta", "--states", "1", "--samples", "1", "--format", "json")
    assert proc.returncode == 2
    assert "--samples" in proc.stderr
    assert proc.stdout == ""


def test_verify_delta_mass_whose_square_overflows_exits_2(capsys):
    # above about 1.34e154 every kinetic term is inf, and the report carried
    # NaN and Infinity with exit 0
    proc = run_cli("verify-delta", "--n", "3", "--mass", "1e300", "--states", "1",
                   "--samples", "10", "--format", "json")
    assert proc.returncode == 2
    assert proc.stderr == "error: mass 1e+300 is outside the floating-point range\n"
    assert proc.stdout == ""
    # m = 1e150 still runs: its square is finite
    from salbound import cli

    argv = ["verify-delta", "--n", "3", "--mass", "1e150", "--states", "1", "--samples", "10",
            "--format", "json"]
    assert cli.main(argv) == 0
    (result,) = json.loads(capsys.readouterr().out)["results"]
    assert all(math.isfinite(result[key]) for key in ("mean", "stderr", "k_mean", "q_mean"))


def test_solver_path_never_imports_scipy():
    code = (
        "import contextlib, io, sys\n"
        "from salbound.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(['bounds', '--n', '4', '--format', 'json']) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.fixture
def cold_rules():
    """The quadrature module with its node cache emptied, and the solver's
    caches of node arrays and bases too, so that the next solve at m > 0 has
    to build its momentum nodes."""
    from salbound import quadrature, solver

    quadrature.unit_rule.cache_clear()
    solver._nodes.cache_clear()
    solver._basis.cache_clear()
    return quadrature


def test_default_orders_load_their_rules(cold_rules, capsys):
    from salbound import cli

    # a massless solve is all closed forms and builds no node
    assert cli.main(["solve", "--format", "json"]) == 0
    assert cold_rules.unit_rule.cache_info().currsize == 0
    assert cli.main(["bounds", "--n", "4", "--mass", "1", "--format", "json"]) == 0
    # windows of the one lattice of nodes: the basis's, and the first grid's
    # of the upper bound's zoom, whose later grids read slices of it
    assert cold_rules.unit_rule.cache_info().currsize == 2


def test_quadrature_order_is_not_a_flag(cold_rules, tmp_path, capsys):
    # the kinetic rule is fixed: the order flag and the config key it had
    # are usage errors, refused before any node is built
    from salbound import cli

    for command in ("solve", "bounds"):
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--mass", "1", "--quadrature-order", "100"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --quadrature-order 100" in capsys.readouterr().err
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"quadrature-order": 100}))
        assert cli.main([command, "--mass", "1", "--config", str(config)]) == 2
        assert "'quadrature-order' is not a flag of any command" in capsys.readouterr().err
    assert cold_rules.unit_rule.cache_info().currsize == 0


def test_version_flag():
    proc = run_cli("--version")
    assert proc.returncode == 0
    assert "salbound" in proc.stdout


def test_missing_subcommand_exits_2():
    proc = run_cli()
    assert proc.returncode == 2


def test_bad_config_format_exits_2_before_the_command_runs(tmp_path, monkeypatch, capsys):
    import salbound.bounds
    import salbound.delta
    import salbound.solver
    from salbound import cli

    def never(*args, **kwargs):
        raise AssertionError("the command ran before its format was checked")

    # cli.ground_energy also stands for the pure-Python kernel of a massless solve
    monkeypatch.setattr(cli, "ground_energy", never)
    monkeypatch.setattr(salbound.solver, "ground_energy", never)
    monkeypatch.setattr(salbound.bounds, "ground_energy", never)
    monkeypatch.setattr(salbound.delta, "expectation_delta", never)
    monkeypatch.setattr(salbound.delta, "sample_momenta", never)
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"format": "xml"}))
    for command in ("solve", "bounds", "verify-delta"):
        assert cli.main([command, "--config", str(config)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: --format must be text, json or csv, got 'xml'\n"
        assert captured.out == ""


def test_solve_json_coefficients_come_from_one_eigh(capsys, monkeypatch):
    import numpy as np

    from salbound.cli import main

    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a) or eigh(a))
    assert main(["solve", "--potential", "coulomb+linear:0.2,1", "--mass", "0.5",
                 "--basis-size", "24", "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    coefficients = np.array(report["result"]["coefficients"])
    # the solve's own ground vector, so no eigh at all
    assert len(calls) == 0
    assert coefficients.shape == (report["config"]["basis_size"],) == (24,)
    from salbound.potentials import CoulombPlusLinear
    from salbound.reductions import ReducedHamiltonian, SolverConfig
    from salbound.spectrum import pure_ground_energy

    result = pure_ground_energy(ReducedHamiltonian(1.0, 1.0, 1.0, 0.5, CoulombPlusLinear(0.2, 1.0)),
                                SolverConfig(basis_size=24))
    assert coefficients.tolist() == list(result.coefficients)
    from golden_reference import gaussian_overlap

    overlap = gaussian_overlap(result)
    assert coefficients @ overlap @ coefficients == pytest.approx(1.0, rel=1e-12)
    # the sign makes the state's overlap with the sum of the Gaussians positive
    assert (overlap @ coefficients).sum() > 0.0
