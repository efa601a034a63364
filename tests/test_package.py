"""The package surface: lazy exports, import footprint, constructor domains."""

import ast
import dataclasses
import importlib
import inspect
import json
import math
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import salbound
from salbound.bounds import ProblemSpec
from salbound.delta import SymmetrizedGaussianState, expectation_delta, sample_momenta
from salbound.potentials import Coulomb, CoulombPlusLinear, Harmonic, Linear, PowerLaw
from salbound.reductions import ReducedHamiltonian, SolverConfig, linear_bound_table

# --- import footprint ---------------------------------------------------------------


def new_modules(statement: str) -> set[str]:
    """Modules that ``statement`` loads in a fresh interpreter, beyond those
    loaded at start-up."""
    code = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        f"{statement}\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout))


def test_import_salbound_loads_no_submodule():
    loaded = new_modules("import salbound")
    assert "salbound" in loaded
    assert not {m for m in loaded if m.startswith("salbound.")}


def test_import_cli_loads_only_what_every_command_needs():
    loaded = new_modules("import salbound.cli")
    assert "salbound.reductions" in loaded
    lazy = {"numpy", "salbound.spectrum", "salbound.solver", "salbound.quadrature",
            "salbound.bounds", "salbound.delta", "concurrent.futures", "csv", "json"}
    assert not loaded & lazy


def run_main(argv: list[str], prelude: str = "") -> tuple[int, set[str]]:
    """Exit code of ``cli.main(argv)`` in a fresh interpreter that first runs
    ``prelude``, and the salbound modules loaded by then."""
    code = (
        "import contextlib, io, json, sys\n"
        f"{prelude}\n"
        "from salbound.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        "    try:\n"
        f"        code = main({argv!r})\n"
        "    except SystemExit as exc:\n"
        "        code = exc.code\n"
        "print(json.dumps([code, sorted(m for m in sys.modules if m.startswith('salbound.'))]))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    code, modules = json.loads(proc.stdout)
    return code, set(modules)


CLOSED_FORM_MODULES = {"salbound.cli", "salbound.potentials", "salbound.reductions"}


@pytest.mark.parametrize(
    "argv, code, modules",
    [
        (["linear-table", "--n", "10"], 0, CLOSED_FORM_MODULES),
        (["table1"], 0, CLOSED_FORM_MODULES),
        (["solve", "--potential", "coulomb:0.8"], 3, None),
        (["solve", "--format", "bogus"], 2, None),
        (["solve", "--beta", "0"], 2, None),
        (["bounds", "--n", "1"], 2, None),
        (["verify-delta", "--samples", "1"], 2, None),
        (["bounds", "--potential", "coulomb:3"], 3, None),
        (["bounds", "--n", "4", "--mass", "1", "--potential", "coulomb:3"], 3, None),
        (["bounds", "--n", "3", "--mass", "1", "--potential", "power:1,5"], 2, None),
    ],
    ids=["linear-table", "table1", "stability-refusal", "usage-error", "flag-check",
         "bounds-flag-check", "verify-delta-flag-check", "bounds-stability-refusal",
         "massive-bounds-stability-refusal", "massive-bounds-exponent-refusal"],
)
def test_closed_forms_refusals_and_usage_errors_run_without_numpy(argv, code, modules):
    # with numpy blocked, any import of it fails the command; the closed
    # forms load no salbound module beyond the command line's own
    result = run_main(argv, prelude='sys.modules["numpy"] = None')
    assert result[0] == code
    if modules is not None:
        assert result[1] == modules


def run_mains(argvs: list[list[str]], prelude: str = "") -> tuple[list[int], set[str]]:
    """Exit codes of ``cli.main`` on each of ``argvs`` in turn, in one fresh
    interpreter that first runs ``prelude``, and the modules loaded by then."""
    code = (
        "import contextlib, io, json, sys\n"
        f"{prelude}\n"
        "from salbound.cli import main\n"
        "codes = []\n"
        f"for argv in {argvs!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        "        codes.append(main(argv))\n"
        "print(json.dumps([codes, sorted(sys.modules)]))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    codes, modules = json.loads(proc.stdout)
    return codes, set(modules)


MASSLESS_POTENTIALS = ["linear:1.3", "harmonic:0.8", "power:1.1,1.5", "coulomb+linear:0.3,1",
                       "coulomb:0.3"]


@pytest.mark.parametrize("command", ["solve", "bounds"])
def test_massless_solve_and_bounds_run_without_numpy_up_to_the_crossover(command):
    from salbound.cli import PURE_PYTHON_MAX_BASIS

    # with numpy blocked, any import of it fails the command; n = 5 gives
    # massless Coulomb rows four distinct solves
    argvs = [
        [command, *(["--n", "5"] if command == "bounds" else []), "--mass", "0",
         "--potential", potential, "--basis-size", str(size), "--format", fmt]
        for potential in MASSLESS_POTENTIALS
        for size in (2, 24, 40, PURE_PYTHON_MAX_BASIS)
        for fmt in ("text", "json", "csv")
    ]
    codes, loaded = run_mains(argvs, prelude='sys.modules["numpy"] = None')
    assert "salbound.spectrum" in loaded
    assert not loaded & {"salbound.solver", "salbound.quadrature"}
    # the exit codes of the numpy solve: 0, but 5 for two-Gaussian
    # coulomb+linear bounds, whose n2 row lies above the upper bound
    numpy_codes, loaded = run_mains(argvs, prelude="import salbound.cli as c; c.PURE_PYTHON_MAX_BASIS = 0")
    assert "salbound.solver" in loaded
    assert codes == numpy_codes
    assert set(codes) == ({0, 5} if command == "bounds" else {0})


def test_massive_solve_runs_without_numpy_up_to_the_crossover():
    from salbound.cli import PURE_PYTHON_MAX_BASIS

    # with numpy blocked, any import of it fails the command; the kinetic
    # elements sum the trapezoid rule in ln p, whose nodes quadrature builds
    # without numpy
    argvs = [
        ["solve", "--mass", "1", "--potential", potential, "--basis-size", str(size), "--format", fmt]
        for potential in MASSLESS_POTENTIALS
        for size in (2, 24, 40, PURE_PYTHON_MAX_BASIS)
        for fmt in ("text", "json", "csv")
    ]
    codes, loaded = run_mains(argvs, prelude='sys.modules["numpy"] = None')
    assert {"salbound.spectrum", "salbound.quadrature"} <= loaded
    assert "salbound.solver" not in loaded
    numpy_codes, loaded = run_mains(argvs, prelude="import salbound.cli as c; c.PURE_PYTHON_MAX_BASIS = 0")
    assert "salbound.solver" in loaded
    assert codes == numpy_codes == [0] * len(argvs)


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--mass", "0", "--basis-size", "PAST"],
        ["bounds", "--n", "4", "--mass", "0", "--basis-size", "PAST"],
        ["solve", "--mass", "0.5", "--basis-size", "PAST"],
        ["bounds", "--n", "4", "--mass", "0.5", "--basis-size", "2"],
    ],
    ids=["solve-above-crossover", "bounds-above-crossover", "solve-massive", "bounds-massive"],
)
def test_numpy_solves_above_the_crossover_and_at_positive_mass(argv):
    # a massive solve is pure Python up to the crossover, but a massive
    # bounds loads numpy for its upper bound's zoom anyway, so its rows take
    # the numpy solve at every basis size.  The crossover is the massless
    # bounds' one (cli.PURE_PYTHON_MAX_BASIS): one past it, a massive solve
    # would still be faster in pure Python, but it takes numpy too
    from salbound.cli import PURE_PYTHON_MAX_BASIS

    argv = [str(PURE_PYTHON_MAX_BASIS + 1) if a == "PAST" else a for a in argv]
    codes, loaded = run_mains([argv])
    assert codes == [0]
    assert {"numpy", "salbound.solver"} <= loaded
    assert "salbound.spectrum" in loaded  # the result type and the basis rule
    # a solve never loads the bound module, whose import costs a cold call
    assert ("salbound.bounds" in loaded) == (argv[0] == "bounds")


def test_verify_delta_loads_none_of_the_solver_modules():
    # seed 42 flags a state, so the finding document is built too
    argv = ["verify-delta", "--n", "3", "--states", "3", "--samples", "4000", "--seed", "42"]
    code, loaded = run_main(argv)
    assert code == 4
    assert "salbound.delta" in loaded
    assert not loaded & {"salbound.bounds", "salbound.solver", "salbound.quadrature"}


def test_verify_delta_runs_shards_below_one_block_inline():
    # two shards of 2000 samples each, under one 8192-sample block
    statement = (
        "import contextlib, io\n"
        "from salbound.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(['verify-delta', '--n', '4', '--mass', '1', '--states', '2',"
        " '--samples', '4000', '--shards', '2']) == 0"
    )
    loaded = new_modules(statement)
    assert "salbound.delta" in loaded
    assert "concurrent.futures" not in loaded


def test_import_delta_does_not_load_the_solver_modules():
    loaded = new_modules("import salbound.delta")
    assert {m for m in loaded if m.startswith("salbound")} == {"salbound", "salbound.delta"}
    assert "concurrent.futures" not in loaded


def test_delta_expectation_loads_no_reductions():
    # the CLI looks up the regime and writes the findings, so delta never does
    statement = (
        "from salbound.delta import expectation_delta, random_state_corpus\n"
        "state = random_state_corpus(3, 1, 42)[0]\n"
        "expectation_delta(state, 0.0, 100, seed=42)"
    )
    loaded = new_modules(statement)
    assert "salbound.delta" in loaded
    assert "salbound.reductions" not in loaded


def test_package_attribute_loads_only_its_submodule():
    loaded = new_modules("import salbound; salbound.jacobi_matrix")
    assert {m for m in loaded if m.startswith("salbound.")} == {"salbound.delta"}


def test_potentials_run_without_numpy():
    # with numpy blocked, any import of it fails the statement
    statement = (
        'sys.modules["numpy"] = None\n'
        "from salbound.potentials import parse_potential\n"
        "for text in ('linear:1', 'coulomb:0.5', 'harmonic:2', 'coulomb+linear:0.5,1', 'power:2,0.5'):\n"
        "    v = parse_potential(text)\n"
        "    assert parse_potential(v.spec()) == v\n"
        "    v.terms(), v.coulomb_strength()"
    )
    loaded = new_modules(statement)
    assert {m for m in loaded if m.startswith("salbound")} == {"salbound", "salbound.potentials"}


def test_only_solver_and_delta_import_numpy():
    # every import statement of every module, at any level: the run-time
    # checks above block numpy for a few commands, and this one also sees a
    # lazy import in a function that none of them runs
    importers = set()
    for path in pathlib.Path(salbound.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            if any(name.partition(".")[0] == "numpy" for name in names):
                importers.add(path.name)
    assert importers == {"solver.py", "delta.py"}


# --- public API -----------------------------------------------------------------------


@pytest.mark.parametrize("name", salbound.__all__)
def test_export_resolves_to_its_defining_module(name):
    module = importlib.import_module(f"salbound.{salbound._SOURCE[name]}")
    value = getattr(salbound, name)
    assert value is getattr(module, name)
    # the table names where each object is defined, not a module that re-imports it
    if callable(value):
        assert value.__module__ == module.__name__


def test_star_import_and_dir_list_every_export():
    namespace = {}
    exec("from salbound import *", namespace)
    assert set(salbound.__all__) <= set(namespace)
    assert set(salbound.__all__) <= set(dir(salbound))
    assert len(set(salbound.__all__)) == len(salbound.__all__)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        salbound.no_such_name
    assert not hasattr(salbound, "lower_n2")


# --- constructor domains --------------------------------------------------------------

VALID = (
    ReducedHamiltonian(1.0, 1.0, 1.0, 0.5, Linear(1.0)),
    ProblemSpec(3, 0.5, Linear(1.0)),
    SolverConfig(),
)

#: Each potential constructor with valid parameters.
POTENTIALS = (
    (Linear, (1.0,)),
    (Coulomb, (0.5,)),
    (Harmonic, (1.0,)),
    (CoulombPlusLinear, (0.5, 1.0)),
    (PowerLaw, (1.0, 1.5)),
)


def _replaced(obj, field):
    return lambda value: dataclasses.replace(obj, **{field: value})


def _at_position(constructor, valid, position):
    return lambda value: constructor(*valid[:position], value, *valid[position + 1:])


# every numeric dataclass field of VALID, and every parameter position of each
# potential constructor, by the name in its signature
NUMERIC_FIELDS = [
    *(
        pytest.param(_replaced(obj, field.name), field.name, id=f"{type(obj).__name__}.{field.name}")
        for obj in VALID
        for field in dataclasses.fields(obj)
        # the potential is checked by its constructor's cases below
        if isinstance(getattr(obj, field.name), (int, float))
    ),
    *(
        pytest.param(_at_position(constructor, valid, i), name, id=f"{constructor.__name__}.{name}")
        for constructor, valid in POTENTIALS
        for i, name in enumerate(inspect.signature(constructor).parameters)
    ),
]


@pytest.mark.parametrize("build, field", NUMERIC_FIELDS)
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_constructors_reject_non_finite_numbers(build, field, value):
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        build(value)


def test_every_potential_parameter_is_covered():
    # a constructor whose signature lost a parameter name would drop its cases silently
    assert [p.id for p in NUMERIC_FIELDS[-7:]] == [
        "Linear.slope", "Coulomb.strength", "Harmonic.strength", "CoulombPlusLinear.coulomb",
        "CoulombPlusLinear.slope", "PowerLaw.coefficient", "PowerLaw.exponent",
    ]


STATE = SymmetrizedGaussianState(np.ones(1), np.zeros((1, 2, 3)), np.ones((1, 2, 3)))


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: ProblemSpec(2.5, 0.0, Linear(1.0)), "particle count must be a whole number"),
        (lambda: linear_bound_table(2.5), "particle count must be a whole number"),
        (lambda: SolverConfig(basis_size=40.5), "basis_size must be an integer"),
        (lambda: SolverConfig(basis_size=40.0), "basis_size must be an integer"),
        (lambda: expectation_delta(STATE, 0.5, 1000.5, seed=1), "samples must be an integer"),
        (lambda: expectation_delta(STATE, 0.5, 1000, seed=1, shard_count=2.0),
         "shard_count must be an integer"),
        (lambda: sample_momenta(STATE, 10.0, 1), "count must be an integer"),
    ],
    ids=["ProblemSpec.n", "linear_bound_table", "SolverConfig.basis_size",
         "SolverConfig.basis_size-whole-float",
         "expectation_delta.samples", "expectation_delta.shard_count", "sample_momenta.count"],
)
def test_sizes_must_be_whole_numbers(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_whole_sizes_of_other_types_are_accepted():
    # a particle count is a number of bosons, so 3.0 is one; the basis size
    # sets array sizes, so any integer type serves
    assert ProblemSpec(3.0, 0.0, Linear(1.0)).n == 3
    assert SolverConfig(basis_size=np.int64(24)).basis_size == 24
    assert SolverConfig(basis_size=np.int32(12)).basis_size == 12
