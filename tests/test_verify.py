"""verify.checks() in the integer working form against the LaurentPoly3
route of conftest.checks_reference, row for row, and under changes that
must each fail exactly one row."""

import pytest

from conftest import checks_reference
from poncelet import classify, verify
from poncelet.polycore import LaurentPoly3


def test_checks_equal_reference_row_for_row():
    reference = checks_reference()
    assert len(reference) == 15 and all(passed for _, passed in reference)
    assert verify.checks() == reference


def _with_factor(monkeypatch, n, index, value):
    row = list(classify.DISCRIMINANT_FACTORS[n])
    row[index] = value
    monkeypatch.setitem(classify.DISCRIMINANT_FACTORS, n, tuple(row))


def _s_power_14_at_7(monkeypatch):
    assert classify.DISCRIMINANT_FACTORS[7][4] == 15
    _with_factor(monkeypatch, 7, 4, 14)


def _c_sign_flipped_at_5(monkeypatch):
    _with_factor(monkeypatch, 5, 2, -classify.DISCRIMINANT_FACTORS[5][2])


def _psi1_coefficient_changed(monkeypatch):
    # the coefficient of x^2 y^4 goes from -2 to -1
    rp = dict(verify.region_polys())
    assert rp["psi1"].terms[0, 2, 4] == -2
    rp["psi1"] = rp["psi1"] + LaurentPoly3.monomial(1, 0, 2, 4)
    monkeypatch.setattr(verify, "region_polys", lambda: rp)


@pytest.mark.parametrize("route", [verify.checks, checks_reference], ids=["checks", "reference"])
@pytest.mark.parametrize("change, row", [
    (_s_power_14_at_7, "discriminant of the 7-gon quartic factors as printed"),
    (_c_sign_flipped_at_5, "discriminant of the 5-gon quadratic factors as printed"),
    (_psi1_coefficient_changed, "discriminant of the 7-gon quartic factors as printed"),
], ids=["S-power-at-7", "c-sign-at-5", "psi1-coefficient"])
def test_a_changed_printed_side_fails_its_own_row(monkeypatch, route, change, row):
    change(monkeypatch)
    results = route()
    assert len(results) == 15
    assert [name for name, passed in results if not passed] == [row]
