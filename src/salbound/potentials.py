"""Attractive radial pair potentials, as one value type.

A :class:`PairPotential` is V as its power terms c r^k (``terms()``): the
solver builds its matrices from them, and every decision about V reads them.
The five spellings are parse forms and constructors of that one type, so
potentials with equal terms are equal; each keeps its spelling for ``spec()``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field


class PotentialParseError(ValueError):
    """A textual potential spec could not be parsed."""


def require_finite(**values: float) -> None:
    """Raise ValueError naming the first of ``values`` that is infinite, NaN
    or an integer too large for a float."""
    for name, value in values.items():
        try:
            finite = math.isfinite(value)
        except OverflowError:
            finite = False
        if not finite:
            raise ValueError(f"{name} must be finite, got {value}")


@dataclass(frozen=True)
class PairPotential:
    """V(r) = sum c r^k, an immutable value that compares and hashes by its
    power terms alone.  ``spelling`` is (form, *parameters) as written, kept
    for :meth:`spec`; a potential built from its terms alone has none."""

    power_terms: tuple[tuple[float, float], ...]
    spelling: tuple = field(default=(), compare=False)

    def terms(self) -> tuple[tuple[float, float], ...]:
        """V as a sum of power terms: ((c, k), ...) with V(r) = sum c r^k."""
        return self.power_terms

    def coulomb_strength(self) -> float:
        """Coefficient v of an attractive -v/r component (0 if absent)."""
        return sum((-c for c, k in self.power_terms if k == -1.0), 0.0)

    def spec(self) -> str:
        """Textual form accepted by :func:`parse_potential`, as spelled."""
        form, *parameters = self.spelling
        return f"{form}:" + ",".join(format(float(x), "g") for x in parameters)


#: Each form's terms builder, then each of its parameters in order as
#: (name, what it is, "positive" or "nonnegative"): the form's one rule.
_FORMS = {
    "linear": (lambda b: ((b, 1.0),), ("slope", "linear slope", "positive")),
    "coulomb": (lambda v: ((-v, -1.0),), ("strength", "coulomb strength", "positive")),
    "harmonic": (lambda v: ((v, 2.0),), ("strength", "harmonic strength", "positive")),
    "coulomb+linear": (lambda v, b: ((b, 1.0), (-v, -1.0)) if v else ((b, 1.0),),
                       ("coulomb", "coulomb part", "nonnegative"), ("slope", "linear slope", "positive")),
    "power": (lambda c, k: ((c, k),), ("coefficient", "power-law coefficient", "positive"),
              ("exponent", "power-law exponent", "positive")),
}


def _spelled(form: str, *parameters: float) -> PairPotential:
    """The potential written ``form`` with ``parameters``; ValueError for the
    first parameter not finite, else for the first that breaks its rule."""
    terms, *rules = _FORMS[form]
    require_finite(**{name: x for (name, _, _), x in zip(rules, parameters)})
    for (_, what, sign), x in zip(rules, parameters):
        if not (x > 0.0 or (x == 0.0 and sign == "nonnegative")):
            raise ValueError(f"{what} must be {sign}")
    return PairPotential(terms(*parameters), (form, *parameters))


def Linear(slope: float) -> PairPotential:
    """V(r) = b r with slope b > 0 (energy per length)."""
    return _spelled("linear", slope)


def Coulomb(strength: float) -> PairPotential:
    """V(r) = -v/r with strength v > 0 (energy times length); always attractive."""
    return _spelled("coulomb", strength)


def Harmonic(strength: float) -> PairPotential:
    """V(r) = v r^2 with v > 0 (energy per length squared)."""
    return _spelled("harmonic", strength)


def CoulombPlusLinear(coulomb: float, slope: float) -> PairPotential:
    """V(r) = -v/r + b r with v >= 0 and b > 0."""
    return _spelled("coulomb+linear", coulomb, slope)


def PowerLaw(coefficient: float, exponent: float) -> PairPotential:
    """V(r) = c r^k with c > 0 and k > 0."""
    return _spelled("power", coefficient, exponent)


def parse_potential(text: str) -> PairPotential:
    """Parse a spec ``linear:<b>``, ``coulomb:<v>``, ``harmonic:<v>``,
    ``coulomb+linear:<v>,<b>`` or ``power:<c>,<k>``, such as ``linear:1``."""
    name, sep, rest = text.partition(":")
    name = name.strip().lower()
    if name not in _FORMS:
        raise PotentialParseError(f"unknown potential form {name!r} in {text!r}")
    nargs = len(_FORMS[name]) - 1  # a terms builder, then one rule per parameter
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
        return _spelled(name, *values)
    except ValueError as exc:
        raise PotentialParseError(f"invalid parameters in {text!r}: {exc}") from None
