"""Attractive radial pair potentials.

The solver and the bound formulas dispatch on a closed family of potential
shapes rather than accepting arbitrary callables.  Every shape is a sum of
power terms c r^k, listed by ``terms()``: the solver assembles its matrices
from them, and reads off them the confining term that sets an operator's
natural length and the Coulomb strength behind the stability guard.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cache
from typing import ClassVar


class PotentialParseError(ValueError):
    """A textual potential spec could not be parsed."""


@cache
def _parameters(cls) -> tuple[str, ...]:
    """The field names of a potential class, in order, looked up once."""
    return tuple(f.name for f in fields(cls))


def require_finite(obj, *names: str) -> None:
    """Raise ValueError naming the first of the attributes ``names`` of
    ``obj`` that is infinite, NaN or an integer too large for a float."""
    for name in names:
        value = getattr(obj, name)
        try:
            finite = math.isfinite(value)
        except OverflowError:
            finite = False
        if not finite:
            raise ValueError(f"{name} must be finite, got {value}")


@dataclass(frozen=True)
class PairPotential:
    """Base class of the potential family.

    Subclasses are immutable value objects, safe to share between threads.
    ``terms()`` gives V as its power terms, and ``form`` names the shape in
    the textual spec, whose parameters are the fields in order.  Every
    parameter must be finite.
    """

    form: ClassVar[str]

    def __post_init__(self):
        require_finite(self, *_parameters(type(self)))

    def terms(self) -> tuple[tuple[float, float], ...]:
        """V as a sum of power terms: ((c, k), ...) with V(r) = sum c r^k."""
        raise NotImplementedError

    def coulomb_strength(self) -> float:
        """Coefficient v of an attractive -v/r component (0 if absent)."""
        return sum((-c for c, k in self.terms() if k == -1.0), 0.0)

    def spec(self) -> str:
        """Textual form accepted by :func:`parse_potential`."""
        values = (format(float(getattr(self, name)), "g") for name in _parameters(type(self)))
        return f"{self.form}:" + ",".join(values)


@dataclass(frozen=True)
class Linear(PairPotential):
    """V(r) = b r with slope b > 0 (energy per length)."""

    form = "linear"

    slope: float

    def __post_init__(self):
        super().__post_init__()
        if not self.slope > 0.0:
            raise ValueError("linear slope must be positive")

    def terms(self):
        return ((self.slope, 1.0),)


@dataclass(frozen=True)
class Coulomb(PairPotential):
    """V(r) = -v/r with strength v > 0 (energy times length); always attractive."""

    form = "coulomb"

    strength: float

    def __post_init__(self):
        super().__post_init__()
        if not self.strength > 0.0:
            raise ValueError("coulomb strength must be positive")

    def terms(self):
        return ((-self.strength, -1.0),)


@dataclass(frozen=True)
class Harmonic(PairPotential):
    """V(r) = v r^2 with v > 0 (energy per length squared)."""

    form = "harmonic"

    strength: float

    def __post_init__(self):
        super().__post_init__()
        if not self.strength > 0.0:
            raise ValueError("harmonic strength must be positive")

    def terms(self):
        return ((self.strength, 2.0),)


@dataclass(frozen=True)
class CoulombPlusLinear(PairPotential):
    """V(r) = -v/r + b r with v >= 0 and b > 0."""

    form = "coulomb+linear"

    coulomb: float
    slope: float

    def __post_init__(self):
        super().__post_init__()
        if self.coulomb < 0.0:
            raise ValueError("coulomb part must be nonnegative")
        if not self.slope > 0.0:
            raise ValueError("linear slope must be positive")

    def terms(self):
        if self.coulomb == 0.0:
            return ((self.slope, 1.0),)
        return ((self.slope, 1.0), (-self.coulomb, -1.0))


@dataclass(frozen=True)
class PowerLaw(PairPotential):
    """V(r) = c r^k with c > 0 and k > 0."""

    form = "power"

    coefficient: float
    exponent: float

    def __post_init__(self):
        super().__post_init__()
        if not self.coefficient > 0.0:
            raise ValueError("power-law coefficient must be positive")
        if not self.exponent > 0.0:
            raise ValueError("power-law exponent must be positive")

    def terms(self):
        return ((self.coefficient, self.exponent),)


_FORMS = {cls.form: cls for cls in (Linear, Coulomb, Harmonic, CoulombPlusLinear, PowerLaw)}


def parse_potential(text: str) -> PairPotential:
    """Parse a potential spec such as ``linear:1`` or ``coulomb+linear:0.5,1``.

    Recognized forms: ``linear:<b>``, ``coulomb:<v>``, ``harmonic:<v>``,
    ``coulomb+linear:<v>,<b>``, ``power:<c>,<k>``.
    """
    name, sep, rest = text.partition(":")
    name = name.strip().lower()
    if name not in _FORMS:
        raise PotentialParseError(f"unknown potential form {name!r} in {text!r}")
    cls = _FORMS[name]
    nargs = len(_parameters(cls))
    if not sep:
        raise PotentialParseError(f"missing parameters after {name!r} in {text!r}")
    tokens = [tok.strip() for tok in rest.split(",")]
    if len(tokens) != nargs:
        raise PotentialParseError(
            f"{name!r} takes {nargs} parameter(s), got {len(tokens)} in {text!r}"
        )
    values = []
    for tok in tokens:
        try:
            value = float(tok)
        except ValueError:
            raise PotentialParseError(f"bad number {tok!r} in {text!r}") from None
        if not math.isfinite(value):
            raise PotentialParseError(f"non-finite number {tok!r} in {text!r}")
        values.append(value)
    try:
        return cls(*values)
    except ValueError as exc:
        raise PotentialParseError(f"invalid parameters in {text!r}: {exc}") from None
