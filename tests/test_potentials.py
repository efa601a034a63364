import numpy as np
import pytest

from salbound.potentials import (
    Coulomb,
    CoulombPlusLinear,
    Harmonic,
    Linear,
    PotentialParseError,
    PowerLaw,
    parse_potential,
)

from golden_reference import potential_value


def test_evaluate_definitions():
    assert potential_value(Linear(1.0), 2.0) == 2.0
    assert potential_value(Coulomb(1.0), 0.5) == -2.0
    assert potential_value(CoulombPlusLinear(1.0, 1.0), 1.0) == 0.0
    assert potential_value(Harmonic(0.5), 3.0) == pytest.approx(4.5)
    assert potential_value(PowerLaw(2.0, 1.5), 4.0) == pytest.approx(16.0)


def test_parameter_validation():
    for bad in (Linear, Harmonic, Coulomb):
        with pytest.raises(ValueError):
            bad(0.0)
        with pytest.raises(ValueError):
            bad(-1.0)
    with pytest.raises(ValueError):
        CoulombPlusLinear(-0.1, 1.0)
    with pytest.raises(ValueError):
        CoulombPlusLinear(1.0, 0.0)
    with pytest.raises(ValueError):
        PowerLaw(1.0, 0.0)
    with pytest.raises(ValueError):
        PowerLaw(0.0, 1.0)
    # boundary case allowed: zero Coulomb part
    CoulombPlusLinear(0.0, 1.0)


@pytest.mark.parametrize(
    "potential",
    [Linear(1.3), Coulomb(0.4), Harmonic(2.0), PowerLaw(0.9, 1.7)],
)
def test_homogeneous_scaling(potential):
    ((_, k),) = potential.terms()
    r = np.array([0.3, 1.0, 2.5, 7.0])
    for s in (0.25, 1.0, 3.0, 10.0):
        np.testing.assert_allclose(
            potential_value(potential, s * r), s**k * potential_value(potential, r), rtol=1e-12
        )


@pytest.mark.parametrize(
    "potential",
    [Linear(1.0), Coulomb(1.0), Harmonic(1.0), PowerLaw(2.0, 0.5)],
)
def test_monotone_nondecreasing(potential):
    r = np.linspace(0.1, 10.0, 200)
    values = potential_value(potential, r)
    assert np.all(np.diff(values) >= 0.0)


def test_parse_round_trip():
    for text in ("linear:1", "coulomb:0.5", "harmonic:2", "coulomb+linear:0.5,1", "power:2,0.5"):
        potential = parse_potential(text)
        assert parse_potential(potential.spec()) == potential


def test_parse_errors_name_the_token():
    with pytest.raises(PotentialParseError, match="woods"):
        parse_potential("woods:1")
    with pytest.raises(PotentialParseError, match="'abc'"):
        parse_potential("linear:abc")
    with pytest.raises(PotentialParseError, match="2 parameter"):
        parse_potential("power:1")
    with pytest.raises(PotentialParseError, match="missing parameters"):
        parse_potential("linear")
    with pytest.raises(PotentialParseError, match="slope must be positive"):
        parse_potential("linear:-1")
    for text in ("linear:inf", "coulomb:nan", "power:1,-inf", "coulomb+linear:0.5,inf"):
        with pytest.raises(PotentialParseError, match="non-finite"):
            parse_potential(text)


def test_parse_is_case_insensitive_and_trims():
    assert parse_potential("Linear: 2 ") == Linear(2.0)
    assert parse_potential("COULOMB+LINEAR:0.5, 1") == CoulombPlusLinear(0.5, 1.0)


def test_coulomb_strength_accessor():
    assert Linear(1.0).coulomb_strength() == 0.0
    assert Coulomb(0.7).coulomb_strength() == 0.7
    assert CoulombPlusLinear(0.3, 1.0).coulomb_strength() == 0.3
    assert CoulombPlusLinear(0.0, 1.0).coulomb_strength() == 0.0
    assert Harmonic(2.0).coulomb_strength() == 0.0
    assert PowerLaw(1.0, 1.5).coulomb_strength() == 0.0


def test_terms_list_each_power():
    assert Linear(1.3).terms() == ((1.3, 1.0),)
    assert Coulomb(0.4).terms() == ((-0.4, -1.0),)
    assert Harmonic(2.0).terms() == ((2.0, 2.0),)
    assert PowerLaw(0.9, 1.7).terms() == ((0.9, 1.7),)
    assert CoulombPlusLinear(0.5, 1.2).terms() == ((1.2, 1.0), (-0.5, -1.0))
    assert CoulombPlusLinear(0.0, 1.2).terms() == ((1.2, 1.0),)


@pytest.mark.parametrize(
    "potential",
    [
        Linear(1.3),
        Coulomb(0.4),
        Harmonic(2.0),
        PowerLaw(0.9, 1.7),
        PowerLaw(2.0, 0.5),
        CoulombPlusLinear(0.5, 1.2),
        CoulombPlusLinear(0.0, 1.2),
    ],
)
def test_terms_sum_to_the_potential(potential):
    r = np.geomspace(1e-3, 40.0, 301)
    parts = [c * r**k for c, k in potential.terms()]
    # relative to the size of the terms: b r - v/r cancels near its zero
    scale = np.sum(np.abs(parts), axis=0)
    assert np.all(np.abs(np.sum(parts, axis=0) - potential_value(potential, r)) <= 1e-15 * scale)
