"""The record types: validated types are read-only after construction and keep
their validation errors; result records are named tuples."""

import re

import numpy as np
import pytest

from zetalab import arith, characters as ch, mollifier as mo, vaughan as va, zeta as ze

FIRST_ZEROS = [14.134725141734693, 21.022039638771555, 25.010857580145688]


def _spec():
    return mo.MollifierSpec.from_T_theta(1e4, 0.3)


# (build a valid instance, its fields, a rejected construction, its error message)
VALIDATED = {
    "ArithFnTable": (lambda: arith.ArithFnTable(np.arange(6.0)), ["values"],
                     lambda: arith.ArithFnTable(np.zeros(1)),
                     "values must be 1-D of length >= 2, got shape (1,)"),
    "MollifierPolynomial": (lambda: mo.MollifierPolynomial((1.5, -0.5)), ["coefficients"],
                            lambda: mo.MollifierPolynomial((0.5,)),
                            "P(1) = 0.5 must equal 1 to 1e-12"),
    "MollifierSpec": (_spec, ["theta", "T", "y", "P"],
                      lambda: mo.MollifierSpec(0.7, 100.0, 100.0**0.7, mo.paper_quadratic(0.7)),
                      "theta = 0.7 outside (0, 1/2)"),
    "VaughanConfig": (lambda: va.VaughanConfig(3, 16.0), ["r", "X"],
                      lambda: va.VaughanConfig(0, 16.0), "r must be >= 1, got 0"),
    "ZeroList": (lambda: ze.ZeroList(FIRST_ZEROS, "computed", 31.0, [1j, 2j, 3j]),
                 ["ordinates", "source", "max_height", "zeta_prime"],
                 lambda: ze.ZeroList([15.0, 15.0], "computed", 20.0),
                 "ordinates not strictly increasing at position 1"),
    "CharacterTable": (lambda: ch.character_table(12),
                       ["modulus", "units", "expo", "conductors", "conjugates", "primitive",
                        "roots", "gauss_sums"],
                       lambda: ch.character_table(0), "modulus must be >= 1, got 0"),
    "A2Decomposition": (lambda: va.decompose_a2(_spec(), va.VaughanConfig(3, 16.0), n_cap=64),
                        ["spec", "config", "n_cap", "role_blocks"],
                        lambda: va.decompose_a2(_spec(), va.VaughanConfig(2, 16.0), n_cap=64),
                        "the nine-slot decomposition requires r = 3, got r = 2"),
}


@pytest.mark.parametrize("name", VALIDATED)
def test_validated_types_are_read_only(name):
    """Setting or deleting any field raises AttributeError and leaves the field as it was;
    ``CharacterTable.gauss_sums`` is computed on first use all the same."""
    build, fields, _, _ = VALIDATED[name]
    record = build()
    assert type(record).__name__ == name
    for field in fields:
        before = getattr(record, field)
        with pytest.raises(AttributeError, match="read-only"):
            setattr(record, field, None)
        with pytest.raises(AttributeError, match="read-only"):
            delattr(record, field)
        assert getattr(record, field) is before, field
    with pytest.raises(AttributeError, match="read-only"):
        record.extra = 1


@pytest.mark.parametrize("name", VALIDATED)
def test_validation_errors_are_unchanged(name):
    _, _, reject, message = VALIDATED[name]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        reject()


def test_result_records_are_named_tuples():
    report = arith.coefficient_growth_report(arith.ArithFnTable(np.arange(6.0)), 2.0, 1.0)
    assert report == (8.0, report.max_ratio, report.argmax, ())
    with pytest.raises(AttributeError):
        report.max_ratio = 0.0
    split = va.SplitReport("divisor-splitting", {}, 1, 1e-12, va.SPLIT_TOLERANCE, 9)
    assert split.passed and not split._replace(deviation=1.0).passed
