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
JSON config file supplies defaults; flags given on the command line win.  Its
keys are the long flag names of any subcommand, with dashes or underscores, so
one file can serve several commands; a key that names no flag, a flag under
both spellings, or an ``out`` that is not a string, is a usage error.  Exit
codes: 0 success, 2 usage error, 3 solver stability error, 4 negative-mean
finding in a proven regime, 5 internal error (a lower bound above the
Gaussian upper bound).

Each flag is declared once in ``_FLAGS`` (its check and help text) and each
subcommand once in ``_COMMANDS``; the parser, the config rules, the report
header and the CSV cells all follow from these two tables.
"""

from __future__ import annotations

import argparse
import io
import math
import os
import sys

# Only numpy-free modules load here; spectrum, solver, bounds, delta, csv and
# json load inside the functions that use them.  The closed-form commands, the
# refusals of an operator or a particle count and usage errors never load
# numpy, and neither do `solve` at any mass and massless `bounds` up to
# PURE_PYTHON_MAX_BASIS Gaussians: `ground_energy` below, the one kernel
# choice of every solve here, runs spectrum.pure_ground_energy for them.
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
EXIT_INTERNAL = 5

#: Largest basis size that `solve` or massless `bounds` runs in pure Python
#: (``spectrum.pure_ground_energy``).  Up to it the pure-Python solve, which
#: grows as K^3, costs less than importing numpy at every mass, and it agrees
#: with the numpy solve to roundoff.  Cold calls on 2 vCPU cross over near
#: K = 72 for an m = 1 coulomb+linear `solve`, but at K = 46 for a massless
#: n = 5 coulomb+linear `bounds`, whose four solves all run here.
PURE_PYTHON_MAX_BASIS = 45

UNITS_NOTE = "hbar = c = 1"


class UsageError(ValueError):
    """Invalid flag or config value; maps to exit code 2."""


class InternalError(RuntimeError):
    """A lower bound above the Gaussian upper bound, caught by the guard of
    ``bounds.compute_bounds``; maps to exit code 5."""


def _g(value: float) -> str:
    return format(value, ".6g")


# --- flag checks: each takes the raw value and the flag name -----------------


def _number(kind, minimum, strict=True):
    """Check for a flag of type ``kind`` above ``minimum``, or at it if not ``strict``."""
    wanted = "an integer" if kind is int else "a number"

    def check(value, flag):
        # a config file can hand over JSON booleans and fractions, which int()
        # and float() would silently coerce or truncate
        if isinstance(value, bool) or (
            kind is int and isinstance(value, float) and not value.is_integer()
        ):
            raise UsageError(f"--{flag} expects {wanted}, got {value!r}")
        try:
            value = kind(value)
        except (TypeError, ValueError, OverflowError):
            raise UsageError(f"--{flag} expects {wanted}, got {value!r}") from None
        if kind is float and not math.isfinite(value):
            raise UsageError(f"--{flag} must be finite, got {value}")
        if strict and not value > minimum:
            raise UsageError(f"--{flag} must be > {minimum}, got {value}")
        if not strict and not value >= minimum:
            raise UsageError(f"--{flag} must be >= {minimum}, got {value}")
        return value

    return check


def _potential(value, flag):
    try:
        return parse_potential(str(value))
    except PotentialParseError as exc:
        raise UsageError(f"--{flag}: {exc}") from None


_FORMATS = ("text", "json", "csv")


def _format(value, flag):
    if value not in _FORMATS:
        raise UsageError(f"--{flag} must be text, json or csv, got {value!r}")
    return value


def _path(value, flag):
    # open() would take a JSON true or 2 from a config file as a file descriptor
    if value is not None and not isinstance(value, str):
        raise UsageError(f"--{flag} expects a path, got {value!r}")
    return value


# Every flag of every subcommand: its check and its --help text.
_FLAGS = {
    "beta": (_number(float, 0.0), None),
    "lambda": (_number(float, 0.0), None),
    "gamma": (_number(float, 0.0), None),
    "n": (_number(int, 2, strict=False), None),
    "mass": (_number(float, 0.0, strict=False), None),
    "potential": (_potential, "e.g. linear:1, coulomb:0.5, power:1,1.5"),
    "basis-size": (_number(int, 1), None),
    "states": (_number(int, 1, strict=False), None),
    "samples": (_number(int, 2, strict=False), None),
    "seed": (_number(int, 0, strict=False), None),
    "shards": (_number(int, 1, strict=False), None),
    "format": (_format, None),
    "out": (_path, "write the report to this path instead of stdout"),
    "config": (_path, "JSON file with default flag values"),
}

# Flags every subcommand takes after its own, with their defaults.
_COMMON = {"format": "text", "out": None, "config": None}


class _Options:
    """One command's flag values: the command line, else the config file, else
    the command's default, checked when a handler reads one (``opt["mass"]``)."""

    def __init__(self, args: argparse.Namespace, defaults: dict):
        self.args = vars(args)
        self.defaults = {**defaults, **_COMMON}
        self.config = {}  # by flag name
        path = self.args["config"]
        if path:
            import json

            try:
                with open(path, encoding="utf-8") as fh:
                    config = json.load(fh)
            except (OSError, json.JSONDecodeError) as exc:
                raise UsageError(f"--config {path}: {exc}") from None
            if not isinstance(config, dict):
                raise UsageError(f"--config {path}: expected a JSON object")
            # keys of other subcommands are allowed, so one file serves several
            for key, value in config.items():
                flag = key.replace("_", "-")
                if flag not in _FLAGS:
                    raise UsageError(f"--config {path}: {key!r} is not a flag of any command")
                if flag in self.config:
                    raise UsageError(f"--config {path}: --{flag} is given twice, with - and with _")
                self.config[flag] = value

    def __getitem__(self, flag: str):
        value = self.args[flag.replace("-", "_")]
        if value is None:
            value = self.config.get(flag, self.defaults[flag])
        return _FLAGS[flag][0](value, flag)


def _solver_config(opt: _Options) -> SolverConfig:
    return SolverConfig(basis_size=opt["basis-size"])


def ground_energy(canonicals: tuple[ReducedHamiltonian, ...], config: SolverConfig, numpy_follows: bool = False):
    """The command line's one kernel choice for the spectra of a tuple of
    canonical operators in natural units, which the caller scales back:
    ``spectrum.pure_ground_energy`` of each on at most ``PURE_PYTHON_MAX_BASIS``
    Gaussians unless the caller loads numpy after the solve anyway
    (``numpy_follows``), else numpy's faster stacked ``solver._canonical_ground_energies``."""
    if config.basis_size <= PURE_PYTHON_MAX_BASIS and not numpy_follows:
        from .spectrum import pure_ground_energy

        return tuple(pure_ground_energy(canonical, config) for canonical in canonicals)
    from .solver import _canonical_ground_energies

    return _canonical_ground_energies(canonicals, config)


# --- solve -----------------------------------------------------------------

def cmd_solve(opt: _Options) -> tuple[dict, int]:
    hamiltonian = ReducedHamiltonian(
        beta=opt["beta"], lam=opt["lambda"], gamma=opt["gamma"], mass=opt["mass"],
        potential=opt["potential"],
    )
    config = _solver_config(opt)
    # refuses an unbounded or out-of-range operator before numpy loads
    canonical, energy, length = natural_units(hamiltonian)
    result = ground_energy((canonical,), config)[0].dilated(energy, length)
    return {
        "problem": {
            "beta": hamiltonian.beta,
            "lambda": hamiltonian.lam,
            "gamma": hamiltonian.gamma,
            "mass": hamiltonian.mass,
            "potential": hamiltonian.potential.spec(),
        },
        "config": {"basis_size": config.basis_size},
        "result": {
            "ground_energy": result.ground_energy,
            "basis_range": list(result.basis_range),
            "convergence_estimate": result.convergence_estimate,
            "coefficients": [float(c) for c in result.coefficients],
            "warnings": list(result.warnings),
        },
    }, EXIT_OK


def _text_solve(report: dict) -> list[str]:
    res = report["result"]
    prob = report["problem"]
    return [
        "problem: beta=%s lambda=%s gamma=%s mass=%s potential=%s"
        % tuple(_g(prob[k]) if k != "potential" else prob[k] for k in
               ("beta", "lambda", "gamma", "mass", "potential")),
        f"ground_energy        {_g(res['ground_energy'])}",
        "basis_range          %s to %s" % tuple(_g(r) for r in res["basis_range"]),
        f"convergence_estimate {_g(res['convergence_estimate'])}",
    ]


def _csv_solve(report: dict):
    res = report["result"]
    yield ["key", "value"]
    yield ["ground_energy", res["ground_energy"]]
    for end, radius in zip(("min", "max"), res["basis_range"]):
        yield [f"basis_range_{end}", radius]
    yield ["convergence_estimate", res["convergence_estimate"]]
    for i, c in enumerate(res["coefficients"]):
        yield [f"coefficient_{i}", c]


# --- bounds ----------------------------------------------------------------

def cmd_bounds(opt: _Options) -> tuple[dict, int]:
    n, mass, potential, config = opt["n"], opt["mass"], opt["potential"], _solver_config(opt)
    from .bounds import ProblemSpec, compute_bounds

    spec = ProblemSpec(n=n, mass=mass, potential=potential)
    try:
        # the spec refuses a particle count, and the n2 row, solved first, an
        # unbounded or out-of-range operator, before numpy's solve loads; at
        # m > 0 the upper bound's zoom (solver.zoom_log_minimum) loads numpy
        bounds = compute_bounds(spec, config, lambda h, c: ground_energy(h, c, mass > 0.0))
    except RuntimeError as exc:
        raise InternalError(str(exc)) from None

    lower = bounds.lower_results()
    diagnostics = {}
    for name, result in lower.items():
        if result is None:
            continue
        diagnostics[name] = {
            "derivation": result.derivation,
            "kinetic_factor": result.kinetic_factor,
            "convergence_estimate": result.spectrum.convergence_estimate,
            "basis_range": list(result.spectrum.basis_range),
            "warnings": list(result.spectrum.warnings),
        }
    diagnostics["upper"] = {
        "derivation": "Gaussian trial state",
        "optimal_scale": bounds.upper.optimal_scale,
        "warnings": list(bounds.upper.warnings),
    }
    return {
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
    }, EXIT_OK


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


def _csv_bounds(report: dict):
    yield ["bound", "value", "note"]
    yield from _bound_rows(report)


# --- linear-table ----------------------------------------------------------

def cmd_linear_table(opt: _Options) -> tuple[dict, int]:
    table = linear_bound_table(opt["n"])
    return {
        "n": table.n,
        "bounds": {**table.lower, "upper": table.upper},
        "reasons": dict(table.reasons),
    }, EXIT_OK


# --- table1 ----------------------------------------------------------------

def cmd_table1(opt: _Options) -> tuple[dict, int]:
    table = ratio_table()
    return {
        "title": "ratios of upper to lower energy bounds, V(r) = r, m = 0",
        "columns": [*table.n_values, "inf"],
        "rows": {label: list(values) for label, values in table.rows.items()},
    }, EXIT_OK


def _text_table1(report: dict) -> list[str]:
    columns = report["columns"]
    heads = [f"N={c}" if c != "inf" else "N->inf" for c in columns]
    lines = [report["title"], f"{'':<8}" + "".join(f"{h:>10}" for h in heads)]
    for label, values in report["rows"].items():
        cells = "".join(f"{_g(v) if v is not None else '-':>10}" for v in values)
        lines.append(f"{label:<8}" + cells)
    return lines


def _csv_table1(report: dict):
    yield ["row_label", "n", "value"]
    for label, values in report["rows"].items():
        for column, value in zip(report["columns"], values):
            if value is not None:
                yield [label, column, value]


# --- verify-delta ----------------------------------------------------------

def cmd_verify_delta(opt: _Options) -> tuple[dict, int]:
    n = opt["n"]
    mass = opt["mass"]
    states = opt["states"]
    samples = opt["samples"]
    seed = opt["seed"]
    shards = opt["shards"]
    from .delta import expectation_delta, random_state_corpus

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
            # enough to replay the state's estimate through expectation_delta
            findings.append({
                "type": "negative-delta-expectation", "regime": regime, "n": n, "mass": mass,
                "samples": samples, "seed": seed + index, "shard_count": shards,
                "mean": stats.mean, "stderr": stats.stderr, "state": state.to_dict(),
            })
    verdict = "all-nonnegative" if not findings else "findings"
    report = {
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


def _csv_verify_delta(report: dict):
    # one row per state, with the keys of its JSON result as the columns
    yield list(report["results"][0])
    for row in report["results"]:
        yield list(row.values())


# --- the command table, rendering and dispatch --------------------------------

# the library's default, so that the CLI and SolverConfig cannot drift apart
_SOLVER_DEFAULTS = {"basis-size": SolverConfig.basis_size}

# name: (help, handler, flag defaults in --help order, text view, CSV rows)
_COMMANDS = {
    "solve": (
        "ground state of the reduced one-body operator", cmd_solve,
        {"beta": 1.0, "lambda": 1.0, "gamma": 1.0, "mass": 0.0, "potential": "linear:1",
         **_SOLVER_DEFAULTS},
        _text_solve, _csv_solve,
    ),
    "bounds": (
        "all N-boson bounds for one problem", cmd_bounds,
        {"n": 2, "mass": 0.0, "potential": "linear:1", **_SOLVER_DEFAULTS},
        _text_bounds, _csv_bounds,
    ),
    "linear-table": (
        "closed-form bounds for V(r) = r, m = 0", cmd_linear_table, {"n": 2},
        _text_bounds, _csv_bounds,
    ),
    "table1": ("bound-ratio table for V(r) = r, m = 0", cmd_table1, {}, _text_table1, _csv_table1),
    "verify-delta": (
        "Monte Carlo delta-expectation suite", cmd_verify_delta,
        {"n": 3, "mass": 0.0, "states": 100, "samples": 100000, "seed": 42, "shards": 1},
        _text_verify_delta, _csv_verify_delta,
    ),
}


def _cell(value):
    """One CSV cell: None is empty, a bool 0 or 1, a float its full repr."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, float):
        return repr(value)
    return value


def _warnings(report: dict) -> list[str]:
    """The report's warning lines, which follow its text view and, each as a
    ``#`` comment, its CSV rows: a solve's, then each bound's by name."""
    if report["header"]["command"] == "solve":
        return [f"warning: {warning}" for warning in report["result"]["warnings"]]
    return [
        f"warning: {name}: {warning}"
        for name, diagnostic in report.get("diagnostics", {}).items()
        for warning in diagnostic["warnings"]
    ]


def render(report: dict, fmt: str) -> str:
    command = report["header"]["command"]
    if fmt == "json":
        import json

        return json.dumps(report, indent=2) + "\n"
    *_, text_view, csv_rows = _COMMANDS[command]
    if fmt == "csv":
        import csv

        buffer = io.StringIO()
        buffer.write(f"# salbound {__version__} | units: {UNITS_NOTE}\r\n")
        csv.writer(buffer).writerows([_cell(c) for c in row] for row in csv_rows(report))
        buffer.writelines(f"# {line}\r\n" for line in _warnings(report))
        return buffer.getvalue()
    head = f"salbound {__version__} | {command} | units: {UNITS_NOTE}"
    return "\n".join([head, *text_view(report), *_warnings(report)]) + "\n"


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
    for command, (text, _, defaults, *_) in _COMMANDS.items():
        p = sub.add_parser(command, help=text)
        for flag in (*defaults, *_COMMON):
            choices = _FORMATS if flag == "format" else None
            p.add_argument(f"--{flag}", choices=choices, help=_FLAGS[flag][1])
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    _, run, defaults, *_ = _COMMANDS[args.command]
    try:
        opt = _Options(args, defaults)
        # a bad format or out from a config file fails before the command runs
        fmt, out = opt["format"], opt["out"]
        body, code = run(opt)
        header = {"tool": "salbound", "version": __version__, "units": UNITS_NOTE,
                  "command": args.command}
        _emit(render({"header": header, **body}, fmt), out)
        return code
    except StabilityError as exc:
        print(f"stability error: {exc}", file=sys.stderr)
        return EXIT_STABILITY
    except InternalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
