"""Per-operation correctness checks, independent of the code under test.

Nothing here calls salbound.  Reference values come from the paper: the
one-body constant e = 2.2322 with the scaling law E(a, b) = sqrt(ab) e for
a|p| + b r, the Gaussian upper bound's closed form, the stability limit
2/pi, and the closed-form delta expectation of the anisotropic Gaussian.
Monte Carlo values are compared with the benchmark's own sampler.  Every
check returns a list of failure messages; an empty list means the output
is correct.
"""

from __future__ import annotations

import csv
import io
import json
import math

from inputs import refuses

E_LINEAR = 2.2322
CLOSED_FORM_RTOL = 2e-3  # acceptance criterion 4
SIGMA = 5.0  # Monte Carlo agreement, in combined standard errors
ORACLE_SAMPLES = 20_000

EXIT_OK, EXIT_STABILITY, EXIT_VERIFICATION = 0, 3, 4


def gaussian_optimal_scale(n: int, slope: float) -> float:
    """Optimal length scale of the Gaussian trial state for V = slope * r, m = 0."""
    return math.sqrt(2.0 * math.sqrt(2.0 * (n - 1) / n) / ((n - 1) * slope))


#: The Gaussian upper bound searches its scale in a fixed interval starting here.
GAUSSIAN_SCALE_FLOOR = 0.05


def known_defect(op: dict) -> str | None:
    """Name of the known defect this input exercises, if any.

    The timed operations never exercise one (bench/test_bench.py checks
    that).  Each workload's known-defect probes do: they are checked like
    any other operation after the timed loop, and each defect is reported
    as present while its probe fails and as fixed once it passes.
    """
    if op.get("kind") == "probe-basis-120":
        return "basis-120-quadrature"  # 0.324 returned for an operator whose bottom is 2.2322
    if op.get("kind") == "probe-massless-coulomb":
        return "massless-coulomb-endpoint"  # 0.008 returned for an operator whose bottom is 0
    pot = op.get("potential", {})
    if (op.get("command", "bounds") == "bounds" and pot.get("kind") == "linear" and op["mass"] == 0.0
            and gaussian_optimal_scale(op["n"], pot["params"][0]) < GAUSSIAN_SCALE_FLOOR):
        return "gaussian-scale-interval"  # upper bound pinned above its closed form at large N
    return None


def lams(n: int, mass: float) -> dict:
    """Kinetic factor of each lower bound that applies to (n, mass)."""
    out = {"n2": 1.0, "conjectured": 2.0 * (n - 1) / n}
    if n >= 3:
        out["n3"] = 4.0 / 3.0
    if n >= 4 and mass == 0.0:
        out["n4"] = 1.5
    return out


def linear_energy(a: float, b: float) -> float:
    """Bottom of a|p| + b r."""
    return math.sqrt(a * b) * E_LINEAR


def linear_lower(n: int, lam: float, slope: float) -> float:
    return n * linear_energy(math.sqrt(lam), slope * (n - 1) / 2.0)


def linear_upper(n: int, slope: float) -> float:
    return math.sqrt(slope) * 4.0 * n * ((n - 1) ** 3 / (2.0 * n * math.pi**2)) ** 0.25


def _degree(pot: dict):
    kind, params = pot["kind"], pot["params"]
    return {"linear": 1.0, "harmonic": 2.0}.get(kind, params[1] if kind == "power" else None)


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x)


def check_bounds(n, mass, pot, lower: dict, upper, rtol=1e-9) -> list[str]:
    """Checks on one problem's bounds; ``rtol`` is the rounding of the output."""
    fails = []
    expected = lams(n, mass)
    for name in ("n2", "n3", "n4", "conjectured"):
        present = lower.get(name) is not None
        if present != (name in expected):
            fails.append(f"{name} {'present' if present else 'missing'} for n={n} m={mass}")
    values = {k: v for k, v in lower.items() if v is not None}
    if not all(_finite(v) for v in [*values.values(), upper]):
        return fails + [f"non-finite bound in {values} upper={upper}"]
    slack = rtol * max(1.0, abs(upper))
    for name, value in values.items():
        if value > upper + slack:
            fails.append(f"lower {name}={value!r} exceeds upper {upper!r}")
    ordered = sorted((expected[k], v) for k, v in values.items() if k in expected)
    for (lam_a, a), (lam_b, b) in zip(ordered, ordered[1:]):
        if b < a - rtol * max(1.0, abs(a)):
            fails.append(f"lower bound decreases in lam: {a!r} at {lam_a:.4g} > {b!r} at {lam_b:.4g}")
    if pot["kind"] == "linear":
        slope = pot["params"][0]
        for name, value in values.items():
            if name not in expected:
                continue
            closed = linear_lower(n, expected[name], slope)
            if mass == 0.0 and _rel(value, closed) > CLOSED_FORM_RTOL:
                fails.append(f"{name}={value!r} vs closed form {closed!r}")
            if mass > 0.0 and not (
                closed * (1 - CLOSED_FORM_RTOL) <= value <= (closed + n * mass) * (1 + CLOSED_FORM_RTOL)
            ):
                fails.append(f"{name}={value!r} outside [{closed!r}, {closed + n * mass!r}]")
        if mass == 0.0 and _rel(upper, linear_upper(n, slope)) > CLOSED_FORM_RTOL:
            fails.append(f"upper={upper!r} vs closed form {linear_upper(n, slope)!r}")
    k = _degree(pot)
    if mass == 0.0 and k is not None and "n2" in values:
        # homogeneous V at m = 0: E(lam) / E(1) = lam^(k / (2 (k + 1)))
        for name, value in values.items():
            want = values["n2"] * expected[name] ** (k / (2.0 * (k + 1.0)))
            if _rel(value, want) > CLOSED_FORM_RTOL:
                fails.append(f"{name}={value!r} breaks the lam scaling law (want {want!r})")
    return fails


def check_solve(op: dict, energy) -> list[str]:
    if not _finite(energy):
        return [f"non-finite ground energy {energy!r}"]
    pot, mass, beta = op["potential"], op["mass"], op["beta"]
    a = beta * math.sqrt(op["lam"])
    if pot["kind"] == "linear":
        e0 = linear_energy(a, op["gamma"] * pot["params"][0])
        if mass == 0.0 and _rel(energy, e0) > CLOSED_FORM_RTOL:
            return [f"ground energy {energy!r} vs closed form {e0!r}"]
        if mass > 0.0 and not (e0 * (1 - CLOSED_FORM_RTOL) <= energy <= (e0 + beta * mass) * (1 + CLOSED_FORM_RTOL)):
            return [f"ground energy {energy!r} outside [{e0!r}, {e0 + beta * mass!r}]"]
    if pot["kind"] == "coulomb" and mass == 0.0 and abs(energy) > 1e-6:
        # a|p| - v/r is dilation invariant: below 2/pi its bottom is exactly 0
        return [f"ground energy {energy!r} for a scale-free operator whose bottom is 0"]
    return []


# --- delta --------------------------------------------------------------------


def anisotropic_mean(a: float, b: float) -> float:
    """<delta> at N = 3, m = 0 for widths a (pair) and b (third Jacobi momentum)."""
    return 4.0 * math.sqrt(2.0 / math.pi) * (
        math.sqrt(a * a / 2 + b * b / 6)
        + math.sqrt(b * b / 6)
        - (math.sqrt(2.0) * a + 2.0 * math.sqrt(a * a / 2 + 1.5 * b * b)) / (2.0 * math.sqrt(3.0))
    )


def _jacobi(n: int):
    import numpy as np

    b = np.zeros((n, n))
    b[0] = 1.0 / math.sqrt(n)
    for k in range(2, n + 1):
        b[k - 1, : k - 1] = 1.0 / math.sqrt(k * (k - 1))
        b[k - 1, k - 1] = -(k - 1) / math.sqrt(k * (k - 1))
    return b


def mc_delta(weights, centers, widths, mass: float, samples: int, seed: int):
    """Own Monte Carlo estimate (mean, stderr) of <delta> for a Gaussian mixture."""
    import numpy as np

    rng = np.random.default_rng([seed, 0xD17A])
    n = centers.shape[1] + 1
    comp = rng.choice(len(weights), size=samples, p=np.asarray(weights) / np.sum(weights))
    rel = centers[comp] + widths[comp] * rng.standard_normal((samples, n - 1, 3))
    jac = np.concatenate([np.zeros((samples, 1, 3)), rel], axis=1)
    p = np.einsum("ji,sjk->sik", _jacobi(n), jac)
    m2 = mass * mass
    kin = np.sqrt((p**2).sum(axis=2) + m2).sum(axis=1)
    coef = (n - 1) / (2.0 * n)
    pair = sum(
        np.sqrt(coef * ((p[:, i] - p[:, j]) ** 2).sum(axis=1) + m2)
        for i in range(n)
        for j in range(i + 1, n)
    )
    d = kin - 2.0 / (n - 1) * pair
    return float(d.mean()), float(d.std(ddof=1) / math.sqrt(samples))


def check_delta(state: dict, mean, stderr) -> list[str]:
    if not (_finite(mean) and _finite(stderr) and stderr > 0.0):
        return [f"bad estimate mean={mean!r} stderr={stderr!r}"]
    if state["kind"] == "anisotropic":
        want, tol = anisotropic_mean(2.0, 0.5), SIGMA * stderr
    elif state["kind"] == "isotropic":
        want, tol = 0.0, SIGMA * stderr
    else:
        want, se = mc_delta(
            state["weights"], state["centers"], state["widths"], state["mass"],
            ORACLE_SAMPLES, state["mc_seed"],
        )
        tol = SIGMA * math.hypot(stderr, se)
    if abs(mean - want) > tol:
        return [f"{state['kind']} state: mean {mean!r} vs {want!r} (tolerance {tol:.3g})"]
    return []


def corpus_state(n: int, master_seed: int, index: int, count: int):
    """The index-th state of the verify-delta corpus, regenerated here."""
    import numpy as np

    child = np.random.SeedSequence(master_seed).spawn(count)[index]
    rng = np.random.Generator(np.random.PCG64(child))
    components = int(rng.integers(1, 5))
    centers = rng.normal(size=(components, n - 1, 3))
    widths = np.exp(rng.uniform(math.log(0.3), math.log(3.0), size=centers.shape))
    weights = rng.dirichlet(np.ones(components))
    return weights, centers, widths


# --- CLI reports --------------------------------------------------------------


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def parse_json(text: str):
    """RFC 8259 JSON: NaN and Infinity are rejected."""
    return json.loads(text, parse_constant=_reject_constant)


def _csv_rows(text: str):
    lines = [line for line in text.splitlines() if line and not line.startswith("#")]
    return list(csv.reader(io.StringIO("\n".join(lines))))[1:]


def _num(cell: str):
    return None if cell in ("", "-") else float(cell)


def _table_lines(text: str):
    """(name, value) pairs of the text renderings of bounds and linear-table."""
    out = {}
    for line in text.splitlines():
        parts = line.split()
        if len(parts) >= 2 and parts[0] in ("n2", "n3", "n4", "conjectured", "upper"):
            out[parts[0]] = _num(parts[1])
    return out


def parse_report(op: dict, text: str, validator) -> dict:
    """Normalise one report into plain values; raises on a malformed one."""
    command, fmt = op["command"], op["format"]
    if fmt == "json":
        doc = parse_json(text)
        errors = sorted(validator.iter_errors(doc), key=str)
        if errors:
            raise ValueError(f"schema: {errors[0].message}")
        if command == "solve":
            return {"energy": doc["result"]["ground_energy"]}
        if command in ("bounds", "linear-table"):
            return {"bounds": doc["bounds"]}
        if command == "table1":
            return {"columns": doc["columns"], "rows": doc["rows"]}
        rows = [(r["mean"], r["stderr"], r["negative_beyond_3se"]) for r in doc["results"]]
        return {"rows": rows, "findings": doc["findings"], "regime": doc["regime"]}
    if fmt == "csv":
        rows = _csv_rows(text)
        if command == "solve":
            return {"energy": float({k: v for k, v in rows}["ground_energy"])}
        if command in ("bounds", "linear-table"):
            return {"bounds": {r[0]: _num(r[1]) for r in rows}}
        if command == "table1":
            table = {}
            for label, column, value in rows:
                table.setdefault(label, {})[column] = float(value)
            return {"table": table}
        return {"rows": [(float(r[1]), float(r[2]), r[5] == "1") for r in rows]}
    if command == "solve":
        for line in text.splitlines():
            if line.startswith("ground_energy"):
                return {"energy": float(line.split()[1])}
        raise ValueError("no ground_energy line")
    if command in ("bounds", "linear-table"):
        return {"bounds": _table_lines(text)}
    lines = text.splitlines()
    heads = lines[2].split()
    columns = [h[2:] if h.startswith("N=") else "inf" for h in heads]
    table = {}
    for line in lines[3:]:
        label, *cells = line.split()
        table[label] = {c: float(v) for c, v in zip(columns, cells) if v != "-"}
    return {"table": table}


RATIO_ROWS = {"R_N/2": (1.0, 2), "R_N/3": (4.0 / 3.0, 3), "R_N/4": (1.5, 4), "R_c": (None, 2)}


def expected_ratio(label: str, column) -> float | None:
    lam, n_min = RATIO_ROWS[label]
    if column == "inf":
        lam = 2.0 if lam is None else lam
        return (4.0 / E_LINEAR) * (2.0 / (math.pi**2 * lam)) ** 0.25
    n = int(column)
    if n < n_min:
        return None
    lam = 2.0 * (n - 1) / n if lam is None else lam
    return linear_upper(n, 1.0) / linear_lower(n, lam, 1.0)


def _check_table1(parsed: dict, rtol: float) -> list[str]:
    table = parsed.get("table")
    if table is None:
        table = {
            label: {str(c): v for c, v in zip(parsed["columns"], values) if v is not None}
            for label, values in parsed["rows"].items()
        }
    fails = []
    if set(table) != set(RATIO_ROWS):
        return [f"ratio rows {sorted(table)}"]
    for label, cells in table.items():
        for column in ("2", "3", "4", "5", "6", "10", "inf"):
            want = expected_ratio(label, column)
            got = cells.get(column)
            if (want is None) != (got is None):
                fails.append(f"{label} N={column}: {got!r} vs {want!r}")
            elif want is not None and _rel(got, want) > rtol:
                fails.append(f"{label} N={column}: {got!r} vs {want!r}")
    return fails


def _check_verify_delta(op: dict, parsed: dict, code: int) -> list[str]:
    import numpy as np

    n, mass = op["n"], op["mass"]
    rows = parsed["rows"]
    if len(rows) != op["states"]:
        return [f"{len(rows)} result rows for {op['states']} states"]
    fails = []
    for index, (mean, stderr, flagged) in enumerate(rows):
        if not (_finite(mean) and _finite(stderr) and stderr > 0.0):
            fails.append(f"state {index}: mean={mean!r} stderr={stderr!r}")
            continue
        if flagged != (mean < -3.0 * stderr):
            fails.append(f"state {index}: flag {flagged} for mean {mean!r} stderr {stderr!r}")
        w, c, s = corpus_state(n, op["seed"], index, op["states"])
        want, se = mc_delta(w, c, s, mass, ORACLE_SAMPLES, op["seed"] + index)
        if abs(mean - want) > SIGMA * math.hypot(stderr, se):
            fails.append(f"state {index}: mean {mean!r} vs own estimate {want!r} +- {se:.2g}")
    proven = n in (2, 3) or (n == 4 and mass == 0.0)
    flagged = [i for i, row in enumerate(rows) if row[2]]
    want_code = EXIT_VERIFICATION if flagged and proven else EXIT_OK
    if code != want_code:
        fails.append(f"exit {code}, expected {want_code} ({len(flagged)} findings, proven={proven})")
    if "findings" in parsed:
        if parsed["regime"] != ("proven" if proven else "conjectured"):
            fails.append(f"regime {parsed['regime']!r}")
        if len(parsed["findings"]) != len(flagged):
            fails.append(f"{len(parsed['findings'])} findings for {len(flagged)} flagged states")
        for doc, index in zip(parsed["findings"], flagged):
            w, c, s = corpus_state(n, op["seed"], index, op["states"])
            state = doc["state"]
            if not (np.allclose(state["weights"], w) and np.allclose(state["centers"], c)
                    and np.allclose(state["widths"], s)):
                fails.append(f"finding for state {index} does not serialize the corpus state")
    return fails


def check_cli(op: dict, code: int, stdout: str, stderr: str, validator) -> list[str]:
    """Check one CLI call against its expected outcome."""
    command = op["command"]
    if "Traceback" in stderr:
        return [f"exit {code} with a traceback: {stderr.strip().splitlines()[-1]}"]
    if command == "solve":
        refusal = refuses(op["potential"], op["beta"], op["lam"], op["gamma"])
    elif command == "bounds":
        refusal = refuses(op["potential"], 1.0, 1.0, (op["n"] - 1) / 2.0)
    else:
        refusal = False
    if refusal:
        return [] if code == EXIT_STABILITY else [f"exit {code}, expected stability refusal (3)"]
    if known_defect(op) and code not in (EXIT_OK, 1) and stderr:
        return []  # a documented refusal is an acceptable answer for a known defect
    if code == EXIT_STABILITY:
        return ["stability refusal of a stable operator"]
    if code not in (EXIT_OK, EXIT_VERIFICATION) or (code == EXIT_VERIFICATION and command != "verify-delta"):
        return [f"unexpected exit {code}: {stderr.strip()[-200:]}"]
    try:
        parsed = parse_report(op, stdout, validator)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"malformed {op['format']} report: {exc}"]
    if command == "solve":
        return check_solve(op, parsed["energy"])
    rtol = 1e-5 if op["format"] == "text" else 1e-9  # text shows 6 significant digits
    if command == "bounds":
        b = parsed["bounds"]
        return check_bounds(op["n"], op["mass"], op["potential"], {k: b.get(k) for k in lams(100, 0.0)},
                            b.get("upper"), rtol)
    if command == "linear-table":
        n, b = op["n"], parsed["bounds"]
        fails = []
        want = {k: linear_lower(n, lam, 1.0) for k, lam in lams(n, 0.0).items()}
        want["upper"] = linear_upper(n, 1.0)
        for name in ("n2", "n3", "n4", "conjectured", "upper"):
            got = b.get(name)
            if (got is None) != (name not in want) or (got is not None and _rel(got, want[name]) > rtol):
                fails.append(f"linear-table {name}: {got!r} vs {want.get(name)!r}")
        return fails
    if command == "table1":
        return _check_table1(parsed, rtol)
    return _check_verify_delta(op, parsed, code)
