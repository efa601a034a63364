"""Command-line front end.

Subcommands
-----------
solve         ground state of beta*sqrt(lam p^2 + m^2) + gamma V(r)
bounds        all N-boson bounds for one problem
linear-table  closed-form bounds for the massless linear potential
table1        upper/lower bound ratios for the massless linear potential
verify-delta  Monte Carlo suite for the kinetic-difference expectation

Reports render as text (6 significant digits), JSON or CSV (both full double
precision) and carry the unit convention hbar = c = 1 in their header.  A
JSON config file (same keys as the long flag names) supplies defaults; flags
given on the command line win.  Exit codes: 0 success, 2 usage error,
3 solver stability error, 4 negative-mean finding in a proven regime.
"""

from __future__ import annotations

import argparse
import io
import math
import os
import sys

# Only numpy-free modules load here; solver, bounds, delta, csv and json load
# inside the handlers and renderers that use them, so the closed-form commands,
# the stability refusal and usage errors never load numpy.
from . import __version__
from .potentials import PotentialParseError, parse_potential
from .reductions import (
    ReducedHamiltonian,
    SolverConfig,
    StabilityError,
    linear_bound_table,
    model_status,
    natural_units,
    ratio_table,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_STABILITY = 3
EXIT_VERIFICATION = 4

UNITS_NOTE = "hbar = c = 1"


class UsageError(ValueError):
    """Invalid flag or config value; maps to exit code 2."""


def _header(command: str) -> dict:
    return {
        "tool": "salbound",
        "version": __version__,
        "units": UNITS_NOTE,
        "command": command,
    }


def _g(value: float) -> str:
    return format(value, ".6g")


class _Options:
    """Flag values with config-file fallback and hard defaults."""

    def __init__(self, args: argparse.Namespace, defaults: dict):
        self.args = vars(args)
        self.defaults = defaults
        self.config = {}
        path = self.args.get("config")
        if path:
            import json

            try:
                with open(path, encoding="utf-8") as fh:
                    self.config = json.load(fh)
            except (OSError, json.JSONDecodeError) as exc:
                raise UsageError(f"--config {path}: {exc}") from None
            if not isinstance(self.config, dict):
                raise UsageError(f"--config {path}: expected a JSON object")

    def get(self, key: str):
        value = self.args.get(key.replace("-", "_"))
        if value is not None:
            return value
        for alias in (key, key.replace("-", "_")):
            if alias in self.config:
                return self.config[alias]
        return self.defaults[key]


def _positive(value, flag: str, kind=float, minimum=None, strict=True):
    # a config file can hand over JSON booleans and fractions, which int()
    # and float() would silently coerce or truncate
    if isinstance(value, bool) or (
        kind is int and isinstance(value, float) and not value.is_integer()
    ):
        wanted = "an integer" if kind is int else "a number"
        raise UsageError(f"--{flag} expects {wanted}, got {value!r}")
    try:
        value = kind(value)
    except (TypeError, ValueError, OverflowError):
        raise UsageError(f"--{flag} expects a number, got {value!r}") from None
    if kind is float and not math.isfinite(value):
        raise UsageError(f"--{flag} must be finite, got {value}")
    if minimum is not None:
        if strict and not value > minimum:
            raise UsageError(f"--{flag} must be > {minimum}, got {value}")
        if not strict and not value >= minimum:
            raise UsageError(f"--{flag} must be >= {minimum}, got {value}")
    return value


def _potential(value) -> object:
    try:
        return parse_potential(str(value))
    except PotentialParseError as exc:
        raise UsageError(f"--potential: {exc}") from None


def _solver_config(opt: _Options) -> SolverConfig:
    return SolverConfig(
        basis_size=_positive(opt.get("basis-size"), "basis-size", int, 1),
        quadrature_order=_positive(opt.get("quadrature-order"), "quadrature-order", int, 15),
    )


# --- solve -----------------------------------------------------------------

_SOLVE_DEFAULTS = {
    "beta": 1.0,
    "lambda": 1.0,
    "gamma": 1.0,
    "mass": 0.0,
    "potential": "linear:1",
    "basis-size": 40,
    "quadrature-order": 400,
    "format": "text",
    "out": None,
}


def cmd_solve(opt: _Options) -> tuple[dict, int]:
    hamiltonian = ReducedHamiltonian(
        beta=_positive(opt.get("beta"), "beta", float, 0.0),
        lam=_positive(opt.get("lambda"), "lambda", float, 0.0),
        gamma=_positive(opt.get("gamma"), "gamma", float, 0.0),
        mass=_positive(opt.get("mass"), "mass", float, 0.0, strict=False),
        potential=_potential(opt.get("potential")),
    )
    config = _solver_config(opt)
    # refuse an unbounded or out-of-range operator before numpy loads
    natural_units(hamiltonian)
    from .solver import ground_energy

    result = ground_energy(hamiltonian, config)
    report = {
        "header": _header("solve"),
        "problem": {
            "beta": hamiltonian.beta,
            "lambda": hamiltonian.lam,
            "gamma": hamiltonian.gamma,
            "mass": hamiltonian.mass,
            "potential": hamiltonian.potential.spec(),
        },
        "config": {
            "basis_size": config.basis_size,
            "quadrature_order": config.quadrature_order,
        },
        "result": {
            "ground_energy": result.ground_energy,
            "optimal_basis_scale": result.optimal_basis_scale,
            "convergence_estimate": result.convergence_estimate,
            "coefficients": result.coefficients.tolist(),
            "warnings": list(result.warnings),
        },
    }
    return report, EXIT_OK


def _text_solve(report: dict) -> list[str]:
    res = report["result"]
    prob = report["problem"]
    lines = [
        "problem: beta=%s lambda=%s gamma=%s mass=%s potential=%s"
        % tuple(_g(prob[k]) if k != "potential" else prob[k] for k in
               ("beta", "lambda", "gamma", "mass", "potential")),
        f"ground_energy        {_g(res['ground_energy'])}",
        f"optimal_basis_scale  {_g(res['optimal_basis_scale'])}",
        f"convergence_estimate {_g(res['convergence_estimate'])}",
    ]
    for warning in res["warnings"]:
        lines.append(f"warning: {warning}")
    return lines


def _csv_solve(report: dict, writer) -> None:
    res = report["result"]
    writer.writerow(["key", "value"])
    for key in ("ground_energy", "optimal_basis_scale", "convergence_estimate"):
        writer.writerow([key, repr(res[key])])
    for i, c in enumerate(res["coefficients"]):
        writer.writerow([f"coefficient_{i}", repr(c)])


# --- bounds ----------------------------------------------------------------

_BOUNDS_DEFAULTS = {
    "n": 2,
    "mass": 0.0,
    "potential": "linear:1",
    "basis-size": 40,
    "quadrature-order": 400,
    "format": "text",
    "out": None,
}


def cmd_bounds(opt: _Options) -> tuple[dict, int]:
    from .bounds import ProblemSpec, compute_bounds

    spec = ProblemSpec(
        n=_positive(opt.get("n"), "n", int, 2, strict=False),
        mass=_positive(opt.get("mass"), "mass", float, 0.0, strict=False),
        potential=_potential(opt.get("potential")),
    )
    config = _solver_config(opt)
    bounds = compute_bounds(spec, config)

    lower = bounds.lower_results()
    diagnostics = {}
    for name, result in lower.items():
        if result is None:
            continue
        diagnostics[name] = {
            "derivation": result.derivation,
            "kinetic_factor": result.kinetic_factor,
            "convergence_estimate": result.spectrum.convergence_estimate,
            "optimal_basis_scale": result.spectrum.optimal_basis_scale,
            "warnings": list(result.spectrum.warnings),
        }
    diagnostics["upper"] = {
        "derivation": "Gaussian trial state",
        "optimal_scale": bounds.upper.optimal_scale,
        "warnings": list(bounds.upper.warnings),
    }
    report = {
        "header": _header("bounds"),
        "n": spec.n,
        "mass": spec.mass,
        "potential": spec.potential.spec(),
        "bounds": {
            **{name: None if r is None else r.value for name, r in lower.items()},
            "upper": bounds.upper.value,
        },
        "reasons": dict(bounds.reasons),
        "status": bounds.status.label,
        "status_reason": bounds.status.reason,
        "diagnostics": diagnostics,
    }
    return report, EXIT_OK


def _bound_rows(report: dict):
    """(name, value, note) for each row of a bounds or linear-table report."""
    for name, value in report["bounds"].items():
        note = report["reasons"].get(name, "")
        if name == "conjectured" and "status" in report:
            note = f"{report['status']}: {report['status_reason']}"
        yield name, value, note


def _text_bounds(report: dict) -> list[str]:
    if report["header"]["command"] == "bounds":
        lines = [
            f"problem: n={report['n']} mass={_g(report['mass'])} potential={report['potential']}",
            f"{'bound':<12} {'value':>12}  note",
        ]
    else:
        lines = [f"closed-form bounds for V(r) = r, m = 0, n = {report['n']}"]
    for name, value, note in _bound_rows(report):
        shown = "-" if value is None else _g(value)
        lines.append(f"{name:<12} {shown:>12}  {note}")
    return lines


def _csv_bounds(report: dict, writer) -> None:
    writer.writerow(["bound", "value", "note"])
    for name, value, note in _bound_rows(report):
        writer.writerow([name, "" if value is None else repr(value), note])


# --- linear-table ----------------------------------------------------------

_LINEAR_TABLE_DEFAULTS = {"n": 2, "format": "text", "out": None}


def cmd_linear_table(opt: _Options) -> tuple[dict, int]:
    n = _positive(opt.get("n"), "n", int, 2, strict=False)
    table = linear_bound_table(n)
    report = {
        "header": _header("linear-table"),
        "n": table.n,
        "bounds": {**table.lower, "upper": table.upper},
        "reasons": dict(table.reasons),
    }
    return report, EXIT_OK


# --- table1 ----------------------------------------------------------------

_TABLE1_DEFAULTS = {"format": "text", "out": None}


def cmd_table1(opt: _Options) -> tuple[dict, int]:
    table = ratio_table()
    report = {
        "header": _header("table1"),
        "title": "ratios of upper to lower energy bounds, V(r) = r, m = 0",
        "columns": [*table.n_values, "inf"],
        "rows": {label: list(values) for label, values in table.rows.items()},
    }
    return report, EXIT_OK


def _text_table1(report: dict) -> list[str]:
    columns = report["columns"]
    heads = [f"N={c}" if c != "inf" else "N->inf" for c in columns]
    lines = [report["title"], f"{'':<8}" + "".join(f"{h:>10}" for h in heads)]
    for label, values in report["rows"].items():
        cells = "".join(f"{_g(v) if v is not None else '-':>10}" for v in values)
        lines.append(f"{label:<8}" + cells)
    return lines


def _csv_table1(report: dict, writer) -> None:
    writer.writerow(["row_label", "n", "value"])
    for label, values in report["rows"].items():
        for column, value in zip(report["columns"], values):
            if value is None:
                continue
            writer.writerow([label, column, repr(value)])


# --- verify-delta ----------------------------------------------------------

_VERIFY_DEFAULTS = {
    "n": 3,
    "mass": 0.0,
    "states": 100,
    "samples": 100000,
    "seed": 42,
    "shards": 1,
    "format": "text",
    "out": None,
}


def cmd_verify_delta(opt: _Options) -> tuple[dict, int]:
    from .delta import expectation_delta, finding_document, random_state_corpus

    n = _positive(opt.get("n"), "n", int, 2, strict=False)
    mass = _positive(opt.get("mass"), "mass", float, 0.0, strict=False)
    states = _positive(opt.get("states"), "states", int, 1, strict=False)
    samples = _positive(opt.get("samples"), "samples", int, 2, strict=False)
    seed = _positive(opt.get("seed"), "seed", int, 0, strict=False)
    shards = _positive(opt.get("shards"), "shards", int, 1, strict=False)
    threads = min(shards, os.cpu_count() or 1)

    regime = model_status(n, mass).label
    corpus = random_state_corpus(n, states, seed)
    results = []
    findings = []
    for index, state in enumerate(corpus):
        stats = expectation_delta(
            state, mass, samples, seed=seed + index, shard_count=shards, threads=threads
        )
        flagged = stats.negative_beyond(3.0)
        results.append(
            {
                "state": index,
                "mean": stats.mean,
                "stderr": stats.stderr,
                "k_mean": stats.k_mean,
                "q_mean": stats.q_mean,
                "negative_beyond_3se": flagged,
            }
        )
        if flagged:
            findings.append(finding_document(state, stats))
    verdict = "all-nonnegative" if not findings else "findings"
    report = {
        "header": _header("verify-delta"),
        "n": n,
        "mass": mass,
        "states": states,
        "samples": samples,
        "seed": seed,
        "shard_count": shards,
        "regime": regime,
        "results": results,
        "verdict": verdict,
        "findings": findings,
    }
    code = EXIT_VERIFICATION if findings and regime == "proven" else EXIT_OK
    return report, code


def _text_verify_delta(report: dict) -> list[str]:
    lines = [
        f"delta expectation suite: n={report['n']} mass={_g(report['mass'])} "
        f"regime={report['regime']}",
        f"states={report['states']} samples={report['samples']} seed={report['seed']} "
        f"shards={report['shard_count']}",
        f"{'state':>5} {'mean':>12} {'stderr':>12} {'k_mean':>12} {'q_mean':>12} flag",
    ]
    for row in report["results"]:
        flag = "NEGATIVE" if row["negative_beyond_3se"] else ""
        lines.append(
            f"{row['state']:>5} {_g(row['mean']):>12} {_g(row['stderr']):>12} "
            f"{_g(row['k_mean']):>12} {_g(row['q_mean']):>12} {flag}"
        )
    lines.append(f"verdict: {report['verdict']} ({report['regime']} regime)")
    if report["findings"]:
        lines.append(
            f"{len(report['findings'])} state(s) with mean < -3 stderr; "
            "full states serialized in the JSON report"
        )
    return lines


def _csv_verify_delta(report: dict, writer) -> None:
    writer.writerow(["state", "mean", "stderr", "k_mean", "q_mean", "negative_beyond_3se"])
    for row in report["results"]:
        writer.writerow(
            [
                row["state"],
                repr(row["mean"]),
                repr(row["stderr"]),
                repr(row["k_mean"]),
                repr(row["q_mean"]),
                int(row["negative_beyond_3se"]),
            ]
        )


# --- rendering and dispatch -------------------------------------------------

_FORMATS = ("text", "json", "csv")

_TEXT_RENDERERS = {
    "solve": _text_solve,
    "bounds": _text_bounds,
    "linear-table": _text_bounds,
    "table1": _text_table1,
    "verify-delta": _text_verify_delta,
}

_CSV_RENDERERS = {
    "solve": _csv_solve,
    "bounds": _csv_bounds,
    "linear-table": _csv_bounds,
    "table1": _csv_table1,
    "verify-delta": _csv_verify_delta,
}


def _format(value) -> str:
    if value not in _FORMATS:
        raise UsageError(f"--format must be text, json or csv, got {value!r}")
    return value


def render(report: dict, fmt: str) -> str:
    command = report["header"]["command"]
    fmt = _format(fmt)
    if fmt == "json":
        import json

        return json.dumps(report, indent=2) + "\n"
    if fmt == "csv":
        import csv

        buffer = io.StringIO()
        buffer.write(f"# salbound {__version__} | units: {UNITS_NOTE}\r\n")
        _CSV_RENDERERS[command](report, csv.writer(buffer))
        return buffer.getvalue()
    head = f"salbound {__version__} | {command} | units: {UNITS_NOTE}"
    return "\n".join([head, *_TEXT_RENDERERS[command](report)]) + "\n"


def _emit(text: str, out: str | None) -> None:
    if out:
        try:
            with open(out, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(f"--out {out}: {exc.strerror or exc}") from None
    else:
        sys.stdout.write(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="salbound",
        description="Energy bounds for semirelativistic N-boson systems "
        f"(units: {UNITS_NOTE}).",
    )
    parser.add_argument("--version", action="version", version=f"salbound {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=_FORMATS)
        p.add_argument("--out", help="write the report to this path instead of stdout")
        p.add_argument("--config", help="JSON file with default flag values")

    p = sub.add_parser("solve", help="ground state of the reduced one-body operator")
    p.add_argument("--beta")
    p.add_argument("--lambda")
    p.add_argument("--gamma")
    p.add_argument("--mass")
    p.add_argument("--potential", help="e.g. linear:1, coulomb:0.5, power:1,1.5")
    p.add_argument("--basis-size")
    p.add_argument("--quadrature-order")
    common(p)

    p = sub.add_parser("bounds", help="all N-boson bounds for one problem")
    p.add_argument("--n")
    p.add_argument("--mass")
    p.add_argument("--potential")
    p.add_argument("--basis-size")
    p.add_argument("--quadrature-order")
    common(p)

    p = sub.add_parser("linear-table", help="closed-form bounds for V(r) = r, m = 0")
    p.add_argument("--n")
    common(p)

    p = sub.add_parser("table1", help="bound-ratio table for V(r) = r, m = 0")
    common(p)

    p = sub.add_parser("verify-delta", help="Monte Carlo delta-expectation suite")
    p.add_argument("--n")
    p.add_argument("--mass")
    p.add_argument("--states")
    p.add_argument("--samples")
    p.add_argument("--seed")
    p.add_argument("--shards")
    common(p)

    return parser


_COMMANDS = {
    "solve": (cmd_solve, _SOLVE_DEFAULTS),
    "bounds": (cmd_bounds, _BOUNDS_DEFAULTS),
    "linear-table": (cmd_linear_table, _LINEAR_TABLE_DEFAULTS),
    "table1": (cmd_table1, _TABLE1_DEFAULTS),
    "verify-delta": (cmd_verify_delta, _VERIFY_DEFAULTS),
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    run, defaults = _COMMANDS[args.command]
    try:
        opt = _Options(args, defaults)
        # a bad format from a config file fails before the command runs
        fmt = _format(opt.get("format"))
        report, code = run(opt)
        _emit(render(report, fmt), opt.get("out"))
        return code
    except StabilityError as exc:
        print(f"stability error: {exc}", file=sys.stderr)
        return EXIT_STABILITY
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
