"""Unit tests for unit definitions and canonical forms."""

import pytest

from repro.errors import IncompatibleUnitsError, UnitError
from repro.units import CanonicalUnit, Unit, UnitDefinition


def make(id, *units):
    return UnitDefinition(id, None, list(units))


def test_unit_canonical_simple():
    canonical = Unit("second").canonical()
    assert canonical.factor == 1.0


def test_unit_scale():
    # millisecond = 10^-3 second
    canonical = Unit("second", scale=-3).canonical()
    assert canonical.factor == pytest.approx(1e-3)


def test_unit_multiplier():
    # minute = 60 seconds
    canonical = Unit("second", multiplier=60.0).canonical()
    assert canonical.factor == pytest.approx(60.0)


def test_unit_negative_exponent():
    canonical = Unit("second", exponent=-1).canonical()
    assert canonical.factor == 1.0
    assert sum(canonical.dims) == -1


def test_scale_applies_inside_exponent():
    # (mm)^2 = (10^-3 m)^2 = 10^-6 m^2
    canonical = Unit("metre", exponent=2, scale=-3).canonical()
    assert canonical.factor == pytest.approx(1e-6)


def test_definition_product():
    # micromole per litre
    definition = make(
        "uM", Unit("mole", scale=-6), Unit("litre", exponent=-1)
    )
    canonical = definition.canonical()
    assert canonical.factor == pytest.approx(1e-6 / 1e-3)


def test_per_second_definition():
    definition = make("per_second", Unit("second", exponent=-1))
    assert definition.canonical().factor == 1.0


def test_same_unit_across_spelling():
    molar_a = make("M1", Unit("mole"), Unit("litre", exponent=-1))
    molar_b = make("M2", Unit("mole"), Unit("liter", exponent=-1))
    assert molar_a.same_unit(molar_b)


def test_same_unit_across_scale_vs_multiplier():
    # 10^-3 mole == 0.001 * mole
    a = make("mmol_scale", Unit("mole", scale=-3))
    b = make("mmol_mult", Unit("mole", multiplier=1e-3))
    assert a.same_unit(b)


def test_same_dimensions_but_not_same_unit():
    mol = make("mol", Unit("mole"))
    mmol = make("mmol", Unit("mole", scale=-3))
    assert mol.same_dimensions(mmol)
    assert not mol.same_unit(mmol)


def test_conversion_factor_mmol_to_mol():
    mol = make("mol", Unit("mole"))
    mmol = make("mmol", Unit("mole", scale=-3))
    # value[mmol] * 1e-3 == value[mol]
    assert mmol.conversion_factor(mol) == pytest.approx(1e-3)


def test_conversion_factor_litre_to_cubic_metre():
    litre = make("l", Unit("litre"))
    cubic_metre = make("m3", Unit("metre", exponent=3))
    assert litre.conversion_factor(cubic_metre) == pytest.approx(1e-3)


def test_incompatible_conversion_raises():
    mole = make("mol", Unit("mole"))
    second = make("s", Unit("second"))
    with pytest.raises(IncompatibleUnitsError):
        mole.conversion_factor(second)


def test_mole_vs_item_incompatible():
    # The paper's Fig 6 case: no plain factor converts moles to
    # molecules; it requires Avogadro + context.
    moles = make("mol", Unit("mole"))
    molecules = make("molecules", Unit("item"))
    with pytest.raises(IncompatibleUnitsError):
        moles.conversion_factor(molecules)


def test_canonical_algebra():
    metre = Unit("metre").canonical()
    second = Unit("second").canonical()
    speed = metre / second
    assert speed.dims[0] == 1
    area = metre * metre
    assert area.dims[0] == 2
    assert (metre**3).dims[0] == 3


def test_dimensionless_detection():
    assert CanonicalUnit.dimensionless().is_dimensionless
    ratio = Unit("mole").canonical() / Unit("mole").canonical()
    assert ratio.is_dimensionless


def test_describe_readable():
    text = make("uM", Unit("mole", scale=-6), Unit("litre", -1)).canonical()
    description = text.describe()
    assert "metre" in description
    assert "mole" in description


def test_approx_equal_tolerates_rounding():
    a = CanonicalUnit(0.1 + 0.2, (0,) * 8)
    b = CanonicalUnit(0.3, (0,) * 8)
    assert a.approx_equal(b)


def test_copy_is_independent():
    original = make("x", Unit("mole"))
    duplicate = original.copy()
    duplicate.units.append(Unit("second"))
    assert len(original.units) == 1


def test_zero_factor_under_negative_exponent_is_a_unit_error():
    with pytest.raises(UnitError, match="multiplier 0"):
        Unit("mole", exponent=-1, multiplier=0.0).canonical()
    # Underflow to a zero factor is the same degenerate unit.
    with pytest.raises(UnitError):
        Unit("mole", exponent=-1, scale=-400).canonical()
    with pytest.raises(UnitError, match="'per_mole'"):
        make("per_mole", Unit("mole", exponent=-1, multiplier=0.0)).canonical()


def test_zero_factor_under_positive_exponent_is_canonical():
    assert Unit("second", multiplier=0.0).canonical().factor == 0.0


def test_conversion_into_a_zero_factor_is_a_unit_error():
    nothing = make("nothing", Unit("second", multiplier=0.0))
    second = make("s", Unit("second"))
    with pytest.raises(UnitError, match="factor is zero"):
        second.conversion_factor(nothing)
    # Out of a zero unit is a well-defined (zero) factor.
    assert nothing.conversion_factor(second) == 0.0
