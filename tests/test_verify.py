"""verify.checks() in the integer working form, its discriminant and
invariant rows compared in (p, x, s), against the full (x, y) expansions
of conftest.checks_reference: row for row, under changes to a printed side
that must each fail exactly its own rows, under changes to a computed locus
that both routes must judge alike, and for a locus or a printed side with
no (p, x, s) form, whose factor rows must fail closed.  The printed sides
are built once and kept, and so is each factor row's printed product while
its source and (c, kr, ks) stay; the computed sides are built on every
call."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import checks_reference, pxs
from poncelet import LocusPolynomial, cayley, classify, polycore, verify
from poncelet.polycore import LaurentPoly3, format_poly, parse_poly


def test_checks_equal_reference_row_for_row():
    reference = checks_reference()
    assert len(reference) == 15 and all(passed for _, passed in reference)
    assert verify.checks() == reference


# p, x and s = x^2 + y^2 - 1, in (p, x, s)
P_, X_, S_ = (pxs({e: 1}) for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))


def _with_factor(monkeypatch, n, index, value):
    row = list(classify.DISCRIMINANT_FACTORS[n])
    row[index] = value
    monkeypatch.setitem(classify.DISCRIMINANT_FACTORS, n, tuple(row))


def _s_power_14_at_7(monkeypatch):
    assert classify.DISCRIMINANT_FACTORS[7][4] == 15
    _with_factor(monkeypatch, 7, 4, 14)


def _c_sign_flipped_at_5(monkeypatch):
    _with_factor(monkeypatch, 5, 2, -classify.DISCRIMINANT_FACTORS[5][2])


def _s_power_past_the_quotient_at_5(monkeypatch):
    # S**3 does not divide the discriminant 16 S**2 gamma5, though its
    # undivided value is 16 times this printed side, S**2 gamma5 in (x, s)
    _with_factor(monkeypatch, 5, 4, 3)
    rp = dict(verify.region_polys())
    rp["gamma5"] = (S_**2 * rp["gamma5"]._src).expand_s()
    monkeypatch.setattr(verify, "region_polys", lambda: rp)


def _psi1_coefficient_changed(monkeypatch):
    # the coefficient of x^2 y^4 goes from -2 to -1, in (x, y): the sum
    # keeps no (x, s) form, so checks() fails the row closed
    rp = dict(verify.region_polys())
    assert rp["psi1"].terms[0, 2, 4] == -2
    rp["psi1"] = rp["psi1"] + LaurentPoly3.monomial(1, 0, 2, 4)
    monkeypatch.setattr(verify, "region_polys", lambda: rp)


def _kept_side_changed(name, n):
    """Add 1 to the coefficient of the leading term of verify.name(n), a
    printed side kept after its first build, at the one definition both
    routes read."""
    def change(monkeypatch):
        real = getattr(verify, name)

        def changed(m):
            a = real(m)
            return a + LaurentPoly3.monomial(1, *max(a.terms)) if m == n else a

        monkeypatch.setattr(verify, name, changed)
    return change


def _printed_changed(name):
    """Add 1 to the coefficient of the leading term of the printed region
    polynomial `name` in its (x, s) typing, and expand the sum, which then
    keeps the changed (x, s) form as its source, as region_polys() does."""
    def change(monkeypatch):
        rp = dict(verify.region_polys())
        src = rp[name]._src
        key = max(src._decode())
        rp[name] = (src + pxs({key: 1})).expand_s()
        assert rp[name]._src is not None and rp[name] != verify.region_polys()[name]
        monkeypatch.setattr(verify, "region_polys", lambda: rp)
    return change


_FACTOR_ROWS = {
    "gamma5": "discriminant of the 5-gon quadratic factors as printed",
    "gamma6": "discriminant of the 6-gon quadratic factors as printed",
    "psi1": "discriminant of the 7-gon quartic factors as printed",
    "psi2": "P of the 7-gon quartic factors as printed",
    "psi3": "D of the 7-gon quartic factors as printed",
    "psi4": "O of the 7-gon quartic factors as printed",
    "psi5": "R of the 7-gon quartic factors as printed",
}


_LOCUS_ROW = "locus n={} matches the printed polynomial"
_DISC_ROW = "discriminant of the {}-gon {} factors as printed"
_QUARTIC_ROWS = [f"{label} of the 7-gon quartic factors as printed" for label in "PDOR"]
_HEXAGON_ROW = "hankel(6) / hankel(3) canonicalizes to the 6-gon locus"


@pytest.mark.parametrize("route", [verify.checks, checks_reference], ids=["checks", "reference"])
@pytest.mark.parametrize("change, rows", [
    (_s_power_14_at_7, ["discriminant of the 7-gon quartic factors as printed"]),
    (_c_sign_flipped_at_5, ["discriminant of the 5-gon quadratic factors as printed"]),
    (_s_power_past_the_quotient_at_5, ["discriminant of the 5-gon quadratic factors as printed"]),
    (_psi1_coefficient_changed, ["discriminant of the 7-gon quartic factors as printed"]),
    *((_printed_changed(name), [row]) for name, row in _FACTOR_ROWS.items()),
    # the printed 6-gon locus is the printed side of the hexagon row too
    *((_kept_side_changed("paper_locus", n), [_LOCUS_ROW.format(n)] + [_HEXAGON_ROW] * (n == 6))
      for n in range(3, 8)),
    *((_kept_side_changed("worked_example", n), [f"worked example: {n}-gon locus at p=1/2"]) for n in (3, 4)),
], ids=["S-power-at-7", "c-sign-at-5", "S-power-past-the-quotient-at-5", "psi1-coefficient",
        *(f"{name}-in-x-s" for name in _FACTOR_ROWS),
        *(f"printed-locus-{n}" for n in range(3, 8)), "worked-example-3", "worked-example-4"])
def test_a_changed_printed_side_fails_its_own_row(monkeypatch, route, change, rows):
    route()  # warm: a printed side kept from an earlier call is still read at its definition
    change(monkeypatch)
    results = route()
    assert len(results) == 15
    assert [name for name, passed in results if not passed] == rows


def test_the_printed_sides_are_built_once():
    assert all(verify.paper_locus(n) is verify.paper_locus(n) for n in range(3, 8))
    assert all(verify.worked_example(n) is verify.worked_example(n) for n in (3, 4))
    assert verify.region_polys() is verify.region_polys()


def test_the_printed_sides_keep_their_s_forms_and_equal_their_x_y_typing():
    # the printed loci and worked examples typed again here, as printed, in
    # (x, y): verify's values, typed in (p, x, s), keep that source, and it
    # expands to this typing
    p, x, y = LaurentPoly3.var_p(), LaurentPoly3.var_x(), LaurentPoly3.var_y()
    r = x**2 + y**2
    s = r - 1
    loci = {
        3: r - 1,
        4: r * p + x * s,
        5: 4 * r * p**2 + 4 * x * s * p - s**3,
        6: 4 * r * (r + 1) * p**2 + 4 * x * (2 * r + 1) * s * p + (3 * x**2 - y**2 + 1) * s**2,
        7: (16 * r**3 * p**4 + 48 * x * r**2 * s * p**3 + 4 * r * s**2 * (13 * x**2 + y**2 - 1) * p**2
            + 4 * x * s**3 * (5 * x**2 + y**2 - 1) * p - s**6),
    }
    examples = {3: x**2 + y**2 - 1, 4: x**2 + y**2 + 2 * x * (x**2 + y**2 - 1)}
    values = [(f"locus {n}", verify.paper_locus(n), f) for n, f in loci.items()]
    values += [(f"example {n}", verify.worked_example(n), f) for n, f in examples.items()]
    for name, value, typed in values:
        src = getattr(value, "_src", None)
        assert src is not None and src.vars == polycore._PXS, name
        assert src.expand_s() == value == typed, name


@pytest.mark.parametrize("printed, bad", [(verify.paper_locus, (2, 8)), (verify.worked_example, (2, 5))],
                         ids=["paper_locus", "worked_example"])
def test_a_printed_side_out_of_range_raises_on_every_call(printed, bad):
    # lru_cache keeps no exception: each call raises anew
    for n in bad:
        for _ in range(2):
            with pytest.raises(ValueError):
                printed(n)


def test_importing_verify_builds_no_printed_side():
    code = ("import poncelet.verify as v\n"
            "print(*(f.cache_info().currsize for f in (v.paper_locus, v.worked_example, v.region_polys)),"
            " len(v._products))")
    path = os.pathsep.join(filter(None, [str(Path(verify.__file__).parents[1]), os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["0", "0", "0", "0"]


def _kept_products() -> dict:
    return {name: kept[2] for name, kept in verify._products.items()}


def test_a_warm_call_builds_no_printed_product():
    verify.checks()
    kept = _kept_products()
    assert sorted(kept) == sorted(_FACTOR_ROWS)
    assert all(passed for _, passed in verify.checks())
    assert all(_kept_products()[name] is product for name, product in kept.items())


@pytest.mark.parametrize("name", sorted(_FACTOR_ROWS))
def test_an_equal_new_printed_source_rebuilds_its_product_and_passes(monkeypatch, name):
    # the same (x, s) polynomial as a new object: the kept product is not
    # reused for it, and the product built from it is equal
    verify.checks()
    kept = _kept_products()
    rp = dict(verify.region_polys())
    src = pxs(rp[name]._src._decode())
    assert src == rp[name]._src and src is not rp[name]._src
    rp[name] = src.expand_s()
    monkeypatch.setattr(verify, "region_polys", lambda: rp)
    assert all(passed for _, passed in verify.checks())
    assert verify._products[name][0] is src
    assert all((_kept_products()[other] is product) == (other != name) for other, product in kept.items())
    assert _kept_products()[name] == kept[name]


@pytest.mark.parametrize("index, step", [(2, 1), (3, 1), (4, 1)], ids=["c", "kr", "ks"])
def test_a_changed_factor_rebuilds_its_product_and_fails(monkeypatch, index, step):
    verify.checks()
    kept = _kept_products()["gamma5"]
    row = list(classify.DISCRIMINANT_FACTORS[5])
    _with_factor(monkeypatch, 5, index, row[index] + step)
    results = verify.checks()
    assert [name for name, passed in results if not passed] == [_FACTOR_ROWS["gamma5"]]
    assert verify._products["gamma5"][1] == tuple(classify.DISCRIMINANT_FACTORS[5][2:])
    assert _kept_products()["gamma5"] != kept


@pytest.mark.parametrize("name", sorted(_FACTOR_ROWS))
def test_a_printed_side_without_its_s_form_fails_its_row_closed(monkeypatch, name):
    # the same polynomial read back from its text, which the reference
    # passes, with no (x, s) form to compare in
    rp = dict(verify.region_polys())
    rp[name] = parse_poly(format_poly(rp[name]))
    assert rp[name] == verify.region_polys()[name] and getattr(rp[name], "_src", None) is None
    monkeypatch.setattr(verify, "region_polys", lambda: rp)
    assert all(passed for _, passed in checks_reference())
    results = verify.checks()
    assert len(results) == 15
    assert [row for row, passed in results if not passed] == [_FACTOR_ROWS[name]]


def _coefficient(a: LaurentPoly3, k: int) -> LaurentPoly3:
    """The p**k term of a, whose lowest power of p is p**0."""
    return a.p_coefficients()[k].times_p(k)


def _locus_changed(n, change):
    """Patch verify.locus, which checks() and checks_reference() both read,
    so that locus(n).canonical becomes change(a), a its (p, x, s) form:
    expanded, and so keeping that form, where change(a) is in (p, x, s),
    and as it is where change(a) is in (p, x, y)."""
    def patch(monkeypatch):
        real = verify.locus

        def changed(m):
            found = real(m)
            if m != n:
                return found
            a = change(found.canonical._src)
            if a.vars == polycore._PXS:
                a = a.expand_s()
            return LocusPolynomial(found.n, found.divisors_removed, a)

        monkeypatch.setattr(verify, "locus", changed)
    return patch


@pytest.mark.parametrize("change, failing", [
    # p*x*y^2 = p*x*(s + 1 - x^2): P reads only a_2..a_4 and still holds
    (_locus_changed(7, lambda a: a + P_ * X_ * (S_ + 1 - X_**2)),
     [_LOCUS_ROW.format(7), _DISC_ROW.format(7, "quartic"), *_QUARTIC_ROWS[1:]]),
    # a_0 and a_1 times R: a + (a_0 + a_1) * (R - 1), R - 1 = s
    (_locus_changed(7, lambda a: a + (_coefficient(a, 0) + _coefficient(a, 1)) * S_),
     [_LOCUS_ROW.format(7), _DISC_ROW.format(7, "quartic"), *_QUARTIC_ROWS[1:]]),
    (_locus_changed(7, lambda a: a - _coefficient(a, 2)),
     [_LOCUS_ROW.format(7), _DISC_ROW.format(7, "quartic"), *_QUARTIC_ROWS]),
    # odd in y, so with no (p, x, s) form: the discriminant row fails closed
    (_locus_changed(5, lambda a: a.expand_s() + LaurentPoly3.monomial(1, 0, 1, 1)),
     [_LOCUS_ROW.format(5), _DISC_ROW.format(5, "quadratic")]),
    # a_2 times R, as above
    (_locus_changed(5, lambda a: a + _coefficient(a, 2) * S_),
     [_LOCUS_ROW.format(5), _DISC_ROW.format(5, "quadratic")]),
    # a_1 times S: a + a_1 * (S - 1), S - 1 = s - 1
    (_locus_changed(6, lambda a: a + _coefficient(a, 1) * (S_ - 1)),
     [_LOCUS_ROW.format(6), _DISC_ROW.format(6, "quadratic")]),
    # -p^2*y^2
    (_locus_changed(6, lambda a: a - P_**2 * (S_ + 1 - X_**2)),
     [_LOCUS_ROW.format(6), _DISC_ROW.format(6, "quadratic")]),
    # linear in p, with no printed discriminant: the rows fail, and raise
    # no UnsupportedDegree
    (_locus_changed(5, lambda a: a - _coefficient(a, 2)),
     [_LOCUS_ROW.format(5), _DISC_ROW.format(5, "quadratic")]),
    (_locus_changed(6, lambda a: a - _coefficient(a, 2)),
     [_LOCUS_ROW.format(6), _DISC_ROW.format(6, "quadratic")]),
], ids=["p*x*y^2-at-7", "a0-a1-times-R-at-7", "a2-zero-at-7", "x*y-at-5", "a2-times-R-at-5", "a1-times-S-at-6",
        "p^2*y^2-at-6", "a2-zero-at-5", "a2-zero-at-6"])
def test_a_changed_locus_gets_the_reference_verdicts(monkeypatch, change, failing):
    change(monkeypatch)
    reference = checks_reference()
    assert verify.checks() == reference
    assert [name for name, passed in reference if not passed] == failing


def test_a_locus_without_its_s_form_fails_its_factor_rows_closed(monkeypatch):
    # the 7-gon locus read back from its text: the same polynomial, which
    # the reference passes, with no (p, x, s) form to factor in
    _locus_changed(7, lambda a: parse_poly(format_poly(a.expand_s())))(monkeypatch)
    assert verify.locus(7).canonical == verify.paper_locus(7)
    assert all(passed for _, passed in checks_reference())
    results = verify.checks()
    assert len(results) == 15
    assert [name for name, passed in results if not passed] == [_DISC_ROW.format(7, "quartic"), *_QUARTIC_ROWS]


def test_a_zero_invariant_against_a_printed_side_without_its_s_form_fails(monkeypatch):
    # a_3 = a_2 = 0 makes P = 8 a_4 a_2 - 3 a_3^2 zero; its printed side,
    # read back from its text, has no (x, s) form: the row fails, and
    # checks() judges every row as the reference does
    _locus_changed(7, lambda a: a - _coefficient(a, 3) - _coefficient(a, 2))(monkeypatch)
    rp = dict(verify.region_polys())
    rp["psi2"] = parse_poly(format_poly(rp["psi2"]))
    monkeypatch.setattr(verify, "region_polys", lambda: rp)
    reference = checks_reference()
    assert verify.checks() == reference
    assert _QUARTIC_ROWS[0] in [name for name, passed in reference if not passed]


def test_a_7_gon_locus_of_another_p_degree_fails_its_factor_rows(monkeypatch):
    # a cubic in p has no quartic invariants: the rows fail, and raise
    # nothing, by both routes
    _locus_changed(7, lambda a: a - _coefficient(a, 4))(monkeypatch)
    for route in (verify.checks, checks_reference):
        results = route()
        assert len(results) == 15
        assert [name for name, passed in results if not passed] == [
            _LOCUS_ROW.format(7), _DISC_ROW.format(7, "quartic"), *_QUARTIC_ROWS]


def _quotient_changed(monkeypatch):
    # W_6 + p W_3 over W_3 is the hexagon quotient plus p
    real = verify._ws
    monkeypatch.setattr(verify, "_ws", lambda m: real(m) + P_ * real(3) if m == 6 else real(m))


def _worked_locus_changed(monkeypatch):
    # locus_at_p reads cayley.locus, which the locus rows do not: the 3-gon
    # locus plus p changes the worked example's computed side alone
    real = cayley.locus

    def changed(m):
        found = real(m)
        if m != 3:
            return found
        return LocusPolynomial(found.n, found.divisors_removed, (found.canonical._src + P_).expand_s())

    monkeypatch.setattr(cayley, "locus", changed)


@pytest.mark.parametrize("change, failing", [
    (_locus_changed(7, lambda a: a - _coefficient(a, 2)),
     [_LOCUS_ROW.format(7), _DISC_ROW.format(7, "quartic"), *_QUARTIC_ROWS]),
    (_locus_changed(5, lambda a: a + _coefficient(a, 2) * S_),
     [_LOCUS_ROW.format(5), _DISC_ROW.format(5, "quadratic")]),
    (_worked_locus_changed, ["worked example: 3-gon locus at p=1/2"]),
    (_quotient_changed, [_HEXAGON_ROW]),
], ids=["a2-zero-at-7", "a2-times-R-at-5", "worked-locus-3", "hexagon-quotient"])
def test_a_changed_computed_side_fails_its_rows_after_a_warm_call(monkeypatch, change, failing):
    # only the printed sides are kept: every computed side is built again
    assert all(passed for _, passed in verify.checks())
    change(monkeypatch)
    assert [name for name, passed in verify.checks() if not passed] == failing
