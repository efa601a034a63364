"""Rigorous energy bounds for semirelativistic N-boson systems.

Units: hbar = c = 1 throughout.

The public names below are loaded from their submodule on first access
(PEP 562), so ``import salbound`` loads no submodule and each command of the
CLI loads only the modules it runs.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the public names it defines; each name is listed once
_EXPORTS = {
    "bounds": (
        "BoundResult",
        "BoundSet",
        "ProblemSpec",
        "UpperBoundResult",
        "compute_bounds",
        "conjecture_status",
        "gaussian_upper",
    ),
    "delta": (
        "DeltaStats",
        "SymmetrizedGaussianState",
        "expectation_delta",
        "jacobi_matrix",
        "random_state_corpus",
        "sample_momenta",
    ),
    "potentials": (
        "Coulomb",
        "CoulombPlusLinear",
        "Harmonic",
        "Linear",
        "PairPotential",
        "PotentialParseError",
        "PowerLaw",
        "parse_potential",
    ),
    "reductions": (
        "COULOMB_CRITICAL_COUPLING",
        "ConjectureStatus",
        "LINEAR_GROUND_ENERGY",
        "LinearBoundTable",
        "RatioTable",
        "ReducedHamiltonian",
        "SolverConfig",
        "StabilityError",
        "linear_bound_table",
        "model_status",
        "ratio_table",
    ),
    "solver": ("ground_energy",),
    "spectrum": ("SpectrumResult",),
}

_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_SOURCE)


def __getattr__(name: str):
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
