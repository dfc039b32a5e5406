"""verify.checks() in the integer working form, its discriminant and
invariant rows on the weight-reduced p-coefficients, against the full
LaurentPoly3 expansions of conftest.checks_reference: row for row, under
changes to a printed side that must each fail exactly one row, and under
changes to a computed locus that both routes must judge alike."""

import pytest

from conftest import checks_reference
from poncelet import LocusPolynomial, classify, verify
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


def _coefficient(a: LaurentPoly3, k: int) -> LaurentPoly3:
    return LaurentPoly3({e: c for e, c in a.terms.items() if e[0] == k})


def _locus_changed(n, change):
    """Patch verify.locus, which checks() and checks_reference() both read,
    so that locus(n).canonical becomes change(locus(n).canonical)."""
    def patch(monkeypatch):
        real = verify.locus

        def changed(m):
            found = real(m)
            if m != n:
                return found
            return LocusPolynomial(found.n, found.divisors_removed, change(found.canonical))

        monkeypatch.setattr(verify, "locus", changed)
    return patch


_LOCUS_ROW = "locus n={} matches the printed polynomial"
_DISC_ROW = "discriminant of the {}-gon {} factors as printed"
_QUARTIC_ROWS = [f"{label} of the 7-gon quartic factors as printed" for label in "PDOR"]


@pytest.mark.parametrize("change, failing", [
    # a_1 of the 7-gon quartic loses its factor S**3, so no S-exponents
    # are taken out; P reads only a_2..a_4 and still holds
    (_locus_changed(7, lambda a: a + LaurentPoly3.monomial(1, 1, 1, 2)),
     [_LOCUS_ROW.format(7), _DISC_ROW.format(7, "quartic"), *_QUARTIC_ROWS[1:]]),
    # a_0 and a_1 gain a factor R: the R-exponents 1, 1, 1, 2, 3 fit
    # 1 + 0*k, which takes R**2 less out of P than it prints, and P holds
    (_locus_changed(7, lambda a: a + (_coefficient(a, 0) + _coefficient(a, 1)) * (verify.R - 1)),
     [_LOCUS_ROW.format(7), _DISC_ROW.format(7, "quartic"), *_QUARTIC_ROWS[1:]]),
    (_locus_changed(7, lambda a: a - _coefficient(a, 2)),
     [_LOCUS_ROW.format(7), _DISC_ROW.format(7, "quartic"), *_QUARTIC_ROWS]),
    (_locus_changed(5, lambda a: a + LaurentPoly3.monomial(1, 0, 1, 1)),
     [_LOCUS_ROW.format(5), _DISC_ROW.format(5, "quadratic")]),
    # a_2 = 4R**2: slope 1 in the R-exponents ties slope 0, and the tie
    # keeps slope 0
    (_locus_changed(5, lambda a: a + _coefficient(a, 2) * (verify.R - 1)),
     [_LOCUS_ROW.format(5), _DISC_ROW.format(5, "quadratic")]),
    # a_1 keeps a factor S after the slope-1 fit of the S-exponents
    (_locus_changed(6, lambda a: a + _coefficient(a, 1) * (verify.S - 1)),
     [_LOCUS_ROW.format(6), _DISC_ROW.format(6, "quadratic")]),
    (_locus_changed(6, lambda a: a + LaurentPoly3.monomial(-1, 2, 0, 2)),
     [_LOCUS_ROW.format(6), _DISC_ROW.format(6, "quadratic")]),
], ids=["p*x*y^2-at-7", "a0-a1-times-R-at-7", "a2-zero-at-7", "x*y-at-5", "a2-times-R-at-5", "a1-times-S-at-6", "p^2*y^2-at-6"])
def test_a_changed_locus_gets_the_reference_verdicts(monkeypatch, change, failing):
    change(monkeypatch)
    reference = checks_reference()
    assert verify.checks() == reference
    assert [name for name, passed in reference if not passed] == failing
