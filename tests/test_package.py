"""The package surface: lazy exports, import footprint, constructor domains."""

import dataclasses
import importlib
import json
import math
import subprocess
import sys

import pytest

import salbound
from salbound.bounds import ProblemSpec
from salbound.potentials import Coulomb, CoulombPlusLinear, Harmonic, Linear, PowerLaw
from salbound.solver import ReducedHamiltonian

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
    assert "salbound.solver" in loaded
    lazy = {"salbound.bounds", "salbound.delta", "salbound.jacobi", "concurrent.futures", "csv"}
    assert not loaded & lazy


def test_import_delta_does_not_load_the_solver_modules():
    loaded = new_modules("import salbound.delta")
    assert "salbound.jacobi" in loaded
    assert not loaded & {"salbound.bounds", "salbound.solver", "salbound.potentials",
                         "salbound.quadrature", "concurrent.futures"}


def test_package_attribute_loads_only_its_submodule():
    loaded = new_modules("import salbound; salbound.jacobi_matrix")
    assert {m for m in loaded if m.startswith("salbound.")} == {"salbound.jacobi"}


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
    Linear(1.0),
    Coulomb(0.5),
    Harmonic(1.0),
    CoulombPlusLinear(0.5, 1.0),
    PowerLaw(1.0, 1.5),
)

NUMERIC_FIELDS = [
    pytest.param(obj, field.name, id=f"{type(obj).__name__}.{field.name}")
    for obj in VALID
    for field in dataclasses.fields(obj)
    if field.name != "potential"
]


@pytest.mark.parametrize("obj, field", NUMERIC_FIELDS)
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_constructors_reject_non_finite_numbers(obj, field, value):
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        dataclasses.replace(obj, **{field: value})
