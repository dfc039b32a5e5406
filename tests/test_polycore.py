"""Exact polynomial arithmetic, division, canonical form, real root
isolation, and discriminants."""

import hashlib
import math
import pickle
import random
import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    bisect_refine,
    cauchy_bound,
    cauchy_isolate,
    count_sign_tests,
    det_laplace,
    fraction_count,
    large_height_product,
    make_rng,
    p_coefficients,
    poly_det,
    quartic_D,
    quartic_D_expanded,
    quartic_disc_expanded,
    quartic_O,
    quartic_P,
    quartic_R,
    rand_fraction,
    real_root_profile,
    resultant,
    sign_at,
    sign_variations,
    sturm_isolate,
    time_limit,
)
from conftest import bench_center, canonicalize_reference, format_reference, pxs, specialize_reference
from poncelet import cayley, polycore, verify
from poncelet.cayley import hankel_raw
from poncelet.cayley import locus, locus_at_p
from poncelet.classify import Center, pair_classify
from poncelet.polycore import (
    ROOT_WIDTH,
    LaurentPoly3,
    NegativePExponent,
    NotDivisible,
    PolycoreError,
    UniPolyR,
    UnsupportedDegree,
    ZeroPolynomial,
    canonicalize,
    discriminant,
    format_poly,
    parse_poly,
    poly_div_exact,
    poly_gcd,
    quartic_invariants,
    specialize,
    squarefree_decomposition,
    sturm_chain,
    sturm_real_roots,
)
from poncelet.polycore import (
    _SQUAREFREE_PRIME,
    _horner,
    _int_coeffs,
    _isolate,
    _refine,
    _squarefree_mod,
)

P = LaurentPoly3.var_p()
X = LaurentPoly3.var_x()
Y = LaurentPoly3.var_y()


# -- arithmetic and exact division -------------------------------------------


def test_basic_arithmetic():
    a = P**2 - 2 * X * Y + 3
    b = P**2 + 1
    assert a + b == 2 * P**2 - 2 * X * Y + 4
    assert a - a == LaurentPoly3()
    assert (P + X) * (P - X) == P**2 - X**2
    assert (P + 1) ** 3 == P**3 + 3 * P**2 + 3 * P + 1


def test_laurent_exponents():
    a = LaurentPoly3.var_p(-2) * X
    assert a.evaluate(Fraction(1, 2), 3, 0) == 12
    assert a.min_p_exponent() == -2


def test_exponents_must_be_integers():
    # a float or str exponent raises instead of being truncated: (1.5, 0, 0)
    # would read as p and (0, 0.7, 0) as the constant
    for e in ((1.5, 0, 0), (0, 0.7, 0), (0, 0, 2.0), ("1", 0, 0)):
        with pytest.raises(TypeError):
            LaurentPoly3({e: 1})


def test_evaluate_is_exact_at_an_int_p():
    # W_4 has a term in p**-1: an int p must not turn it into a float
    value = hankel_raw(4).evaluate(2, 1, 1)
    assert type(value) is Fraction and value == Fraction(-5, 4)
    assert hankel_raw(4).evaluate(Fraction(2), 1, 1) == value
    assert type(locus(5).canonical.evaluate(2, 1, 1)) is Fraction


def test_div_exact_roundtrip():
    a = 2 * P**2 * X - Y**3 + 5
    b = LaurentPoly3.var_p(-1) * 3 + X * Y
    assert poly_div_exact(a * b, b) == a


def test_div_exact_rejects_non_divisor():
    with pytest.raises(NotDivisible):
        poly_div_exact(P**2 + 1, P + 1)
    # a quotient term out of degree range
    with pytest.raises(NotDivisible):
        poly_div_exact(X * Y + 1, Y)
    with pytest.raises(NotDivisible):
        poly_div_exact(X, X**2)
    # every quotient term in degree range, but x^2 / (2x) is not integral
    with pytest.raises(NotDivisible):
        poly_div_exact(X**2 + X, 2 * X + 1)


def test_canonicalize_clears_p_and_sign():
    a = LaurentPoly3.var_p(-3) * Fraction(-2, 3) * X - LaurentPoly3.var_p(-2)
    c = canonicalize(a)
    assert c.min_p_exponent() == 0
    _, lead = c.leading_term()
    assert lead > 0
    # primitive integer coefficients
    for coeff in c.terms.values():
        assert coeff.denominator == 1


def _rand_poly(rng, nterms=4):
    a = LaurentPoly3()
    for _ in range(nterms):
        a = a + LaurentPoly3.monomial(
            rand_fraction(rng, 6, 4),
            rng.randint(-2, 3),
            rng.randint(0, 3),
            rng.randint(0, 3),
        )
    return a


def _product_reference(a, b):
    # the term-by-term Fraction double loop
    out = {}
    for (a1, a2, a3), ca in a.terms.items():
        for (b1, b2, b3), cb in b.terms.items():
            e = (a1 + b1, a2 + b2, a3 + b3)
            s = out.get(e, 0) + ca * cb
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


def test_product_matches_fraction_reference():
    # the integer kernel on negative p exponents and non-integer
    # coefficients, with terms that cancel (to 0, or down to 1 - x^3), a
    # zero factor, and exponent sums that need a wider field than either
    # factor (x^3 fits 2-bit fields, x^6 needs 3)
    rng = make_rng(37)
    zero, pinv = LaurentPoly3(), LaurentPoly3.var_p(-1)
    x3 = LaurentPoly3.monomial(1, 0, 3, 0)
    cases = [
        (x3, x3),
        (Fraction(1, 3) * pinv**3 * Y**3 + P, Fraction(2, 5) * pinv * Y**3 - X),
        (P**3 * X**2 + pinv, P**4 * Y + Fraction(1, 2)),
        ((P + X) * pinv, (P - X) * Fraction(3, 7)),
        (1 + X + X**2, 1 - X),
        (zero, P - X),
        (Fraction(1, 2) * pinv - X, zero),
    ]
    for _ in range(200):
        cases.append((_rand_poly(rng, rng.randint(1, 6)), _rand_poly(rng, rng.randint(1, 6))))
    for a, b in cases:
        assert (a * b).terms == _product_reference(a, b), (a, b)
    assert (1 + X + X**2) * (1 - X) == 1 - X**3
    assert (X - P) * (X - P) - (P - X) ** 2 == zero


def test_expand_s_matches_substitution():
    # polynomials in (p, x, s), with cancelling terms and s-degrees past
    # what the input width holds after doubling, expand to the LaurentPoly3
    # substitution s = x^2 + y^2 - 1, keys in descending order
    rng = make_rng(44)
    s = X**2 + Y**2 - 1
    cases = [LaurentPoly3.monomial(1, 0, 0, 9), X**2 * Y**3 - Y**4, 3 * P**2 * Y + 1, Y**20 - X**3 * Y**2]
    cases += [P**2 * _rand_poly(rng, rng.randint(1, 6)) for _ in range(100)]
    for f in filter(None, cases):
        f = canonicalize(f)
        reference = LaurentPoly3()
        for (ep, ex, es), c in f.terms.items():
            reference = reference + LaurentPoly3.monomial(c, ep, ex) * s**es
        e = pxs(f.terms).expand_s()
        assert list(e.q) == sorted(e.q, reverse=True)
        assert e == reference, f


def _laurent_poly(rng, nterms):
    # p-exponents -3..3 with a negative one in most draws, or 0..5
    return LaurentPoly3.var_p(rng.choice((-1, 0, 2))) * _rand_poly(rng, nterms)


def _sum_reference(a, b, sign=1):
    # the term-by-term Fraction sum a + sign * b
    out = dict(a.terms)
    for e, c in b.terms.items():
        s = out.get(e, 0) + sign * c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def _form_of(rng, a):
    # the polynomial a in another form: q times k over den times k, its
    # keys at a wider width, or its lowest power of p left in q
    how = rng.randrange(3)
    if how == 0:
        k = rng.randint(2, 9)
        return a * k * Fraction(1, k)
    if how == 1:
        return a * X**40 / X**40
    return a * P**2 / P**2


def test_ring_matches_fraction_reference():
    # +, -, *, /, ** and == of values at different key widths (x^40 and
    # y^70 need 6 and 7 bits), denominators and p-shifts, negative
    # p-exponents included, against term-by-term Fraction references; equal
    # polynomials in other forms compare and hash alike
    rng = make_rng(43)
    count = Counter()
    wide = [LaurentPoly3.const(1)] * 3 + [X**40, Y**70]
    for _ in range(200):
        a, b, c = (_laurent_poly(rng, rng.randint(0, 5)) * rng.choice(wide) for _ in range(3))
        k, e = rand_fraction(rng, 9, 5), rng.randint(0, 3)
        count["fraction"] += any(t.denominator != 1 for t in a.terms.values())
        count["zero"] += a.is_zero()
        count["widths differ"] += a.w != b.w
        count["dens differ"] += a.den != b.den
        count["shifts differ"] += a.shift != b.shift
        count["negative p"] += any(t[0] < 0 for t in a.terms)
        assert (a + b).terms == _sum_reference(a, b)
        assert (a - b).terms == _sum_reference(a, b, -1)
        assert (a - a).is_zero() and a - a == 0
        assert (a * b).terms == _product_reference(a, b)
        assert (a * b - c).terms == _sum_reference(LaurentPoly3(_product_reference(a, b)), c, -1)
        assert (k * a + b * k).terms == _sum_reference(LaurentPoly3({t: k * v for t, v in a.terms.items()}),
                                                       LaurentPoly3({t: k * v for t, v in b.terms.items()}))
        assert 3 - a + k == LaurentPoly3(_sum_reference(LaurentPoly3.const(3 + k), a, -1))
        power = LaurentPoly3.const(1)
        for _ in range(e):
            power = LaurentPoly3(_product_reference(power, a))
        assert (a**e).terms == power.terms
        if not b.is_zero():
            assert (a * b) / b == a
            if any(t[1:] != (0, 0) for t in b.terms):
                with pytest.raises(NotDivisible):
                    (a * b + 1) / b
        with pytest.raises(ZeroDivisionError):
            a / (b - b)
        twin = _form_of(rng, a)
        count["forms differ"] += (twin.q, twin.den, twin.w, twin.shift) != (a.q, a.den, a.w, a.shift)
        assert twin == a and hash(twin) == hash(a) and twin.terms == a.terms
        assert a == LaurentPoly3({t: Fraction(v) for t, v in a.terms.items()})
        assert a + LaurentPoly3.monomial(Fraction(1, 7), 0, 1, 1) != a
        if a:
            assert list(canonicalize(a).terms.items()) == list(canonicalize_reference(a).terms.items())
    assert min(count.values()) >= 10, count


def test_int_form_equality_cross_multiplies():
    rng = make_rng(44)
    for _ in range(100):
        a = P**2 * _rand_poly(rng, rng.randint(1, 5)) + Fraction(1, 3)
        e = (rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 3))
        changed = a + LaurentPoly3.monomial(Fraction(1, 7), *e)
        half = Fraction(1, 2)
        assert (2 * a) * half == a and a == half * (a * 2)
        assert (a * Fraction(3, 7)) * Fraction(7, 3) == a
        assert changed != a and (2 * changed) * half != a


def test_int_form_division_is_exact():
    # (a*b)/b == a with rational coefficients and content on either side;
    # a remainder raises NotDivisible, the zero polynomial
    # ZeroDivisionError, and the quotient's degree bound is its own largest
    # x- or y-exponent
    rng = make_rng(45)
    count = {"fraction": 0, "content": 0, "laurent": 0}
    for _ in range(100):
        a = _laurent_poly(rng, rng.randint(1, 5))
        b = _laurent_poly(rng, rng.randint(1, 4)) * rand_fraction(rng, 6, 5)
        if a.is_zero() or b.is_zero() or not any(e[1:] != (0, 0) for e in b.terms):
            continue
        count["fraction"] += any(t.denominator != 1 for t in b.terms.values())
        count["content"] += math.gcd(*b.q.values()) > 1
        count["laurent"] += any(t[0] < 0 for t in a.terms) or any(t[0] < 0 for t in b.terms)
        quotient = (a * b) / b
        assert quotient == a
        assert quotient.deg == max(max(ex, ey) for ep, ex, ey in a.terms)
        with pytest.raises(NotDivisible):
            (a * b + 1) / b
        with pytest.raises(ZeroDivisionError):
            a / (b - b)
    assert min(count.values()) >= 10, count


def test_product_past_the_width_re_keys():
    # x^20 fits 5-bit fields; x^40 would carry into the p field, as the raw
    # kernel shows: the product re-keys both factors to 6-bit fields
    x20 = LaurentPoly3.monomial(1, 0, 20, 0)
    assert x20.w == 5
    wrapped = polycore._mul(x20.q, x20.q)
    assert polycore._poly(wrapped, 1, 5, 0).terms == {(1, 8, 0): 1}
    for product, expected in ((x20 * x20, {(0, 40, 0): 1}), (x20**2, {(0, 40, 0): 1}),
                              (x20 * (x20 + Y), {(0, 40, 0): 1, (0, 20, 1): 1})):
        assert product.w == 6 and product.terms == expected
    assert (x20 * x20) / x20 == x20
    # a negative power of p goes into the shift, and back out in terms
    pinv = LaurentPoly3.var_p(-1)
    assert pinv.shift == -1 and dict(pinv.terms) == {(-1, 0, 0): 1}


def test_values_in_s_have_no_terms():
    # a polynomial in (p, x, s) has no terms and no text until expand_s,
    # its repr still returns, and it does not mix with one in (p, x, y)
    fs = pxs({(0, 0, 1): 1})
    assert fs.vars == polycore._PXS
    for read in (lambda: fs.terms, lambda: format_poly(fs), lambda: fs.evaluate(1, 1, 1)):
        with pytest.raises(PolycoreError, match="no terms until expand_s"):
            read()
    assert repr(fs) == "LaurentPoly3('s', in (p, x, s))"
    assert repr(cayley._ws(4)) == "LaurentPoly3('-1/2*s - 1/2 - 1/2*p^-1*x*s', in (p, x, s))"
    s_form = pxs({(0, 1, 2): Fraction(3, 4), (-2, 0, 1): -1, (1, 0, 0): 1, (0, 0, 0): -1})
    assert repr(s_form) == "LaurentPoly3('p + 3/4*x*s^2 - 1 - p^-2*s', in (p, x, s))"
    for mixed in (lambda: Y + fs, lambda: fs + Y, lambda: Y * fs, lambda: Y / fs, lambda: Y == fs, lambda: fs - Y):
        with pytest.raises(PolycoreError, match="do not mix"):
            mixed()
    assert fs * 2 + 1 == pxs({(0, 0, 1): 2, (0, 0, 0): 1})
    assert fs.expand_s() == Y**2 + X**2 - 1
    assert hash(fs) == hash(pxs({(0, 0, 1): Fraction(1)}))
    with pytest.raises(PolycoreError, match="only a polynomial in"):
        Y.expand_s()


def test_terms_is_a_cached_read_only_view():
    a = Fraction(1, 2) * X - 3 * LaurentPoly3.var_p(-1) * Y
    assert a.terms is a.terms
    assert list(a.terms.items()) == [((0, 1, 0), Fraction(1, 2)), ((-1, 0, 1), -3)]
    assert all(type(c) is Fraction for c in a.terms.values())
    assert all(type(c) is int for c in canonicalize(a).terms.values())
    with pytest.raises(TypeError):
        a.terms[(0, 0, 0)] = 1


@pytest.mark.parametrize("method", ["canonical", "expand_s", "reduced"])
def test_int_form_zero_raises_zero_polynomial(method):
    zero = cayley._ws(6) * 0
    assert not zero.q
    with pytest.raises(ZeroPolynomial):
        getattr(zero, method)()


def test_canonical_forms_hold_int_coefficients():
    # A canonical form keeps an int per term, as does any value with
    # denominator 1.  It equals and hashes like its text's parse and like
    # the value with a Fraction per term, and sums and products with
    # Fraction-valued polynomials and scalars stay exact.
    rng = make_rng(23)
    forms = [locus(n).canonical for n in range(3, 13)]
    forms += [locus_at_p(n, p) for n in (3, 5, 8, 12) for p in (Fraction(1, 3), Fraction(-7, 2), Fraction(5))]
    forms += [canonicalize(a) for a in (_rand_poly(rng, rng.randint(1, 7)) for _ in range(40)) if a]
    b = Fraction(1, 2) * X - LaurentPoly3.var_p(-1) * Fraction(2, 3) * Y
    for a in forms:
        assert all(type(c) is int for c in a.terms.values()), a
        twin = parse_poly(format_poly(a))
        assert all(type(c) is int for c in twin.terms.values())
        fractions = LaurentPoly3({e: Fraction(c, 3) for e, c in a.terms.items()}) * 3
        assert all(type(c) is Fraction for c in fractions.terms.values())
        for other in (twin, fractions):
            assert a == other and hash(a) == hash(other)
        for value in (a + b, a * b, a * Fraction(-3, 4), Fraction(5, 7) + a):
            assert all(isinstance(c, (int, Fraction)) for c in value.terms.values())
        assert a + b - b == twin
        assert a * b == twin * b
        assert a * Fraction(-3, 4) * Fraction(-4, 3) == twin
        assert a + Fraction(5, 7) - Fraction(5, 7) == twin


def test_canonicalize_multiplicative():
    rng = make_rng(1)
    for _ in range(150):
        a, b = _rand_poly(rng), _rand_poly(rng)
        if a.is_zero() or b.is_zero():
            continue
        assert canonicalize(a * b) == canonicalize(canonicalize(a) * canonicalize(b))


def test_canonicalize_matches_fraction_reference():
    # the integer normal form on Fraction coefficients, negative p
    # exponents and negative leading coefficients, term order included
    rng = make_rng(41)
    count = {"inputs": 0, "negative p": 0, "negative lead": 0, "fraction": 0}
    for _ in range(400):
        a = _rand_poly(rng, rng.randint(1, 7))
        if a.is_zero():
            continue
        count["inputs"] += 1
        count["negative p"] += a.min_p_exponent() < 0
        count["negative lead"] += a.leading_term()[1] < 0
        count["fraction"] += any(c.denominator != 1 for c in a.terms.values())
        assert list(canonicalize(a).terms.items()) == list(canonicalize_reference(a).terms.items()), a
    assert count["inputs"] >= 300 and min(count.values()) >= 100, count


def test_div_exact_property():
    rng = make_rng(2)
    for _ in range(150):
        a, b = _rand_poly(rng), _rand_poly(rng)
        if b.is_zero():
            continue
        assert poly_div_exact(a * b, b) == a


def test_det_matches_laplace():
    zero = LaurentPoly3()
    # a zero pivot that needs a row swap, and two singular matrices
    cases = [
        [[zero, P, X], [Y, 1, zero], [LaurentPoly3.var_p(-1), X, 2]],
        [[P, X], [2 * P, 2 * X]],
        [[zero, P], [zero, X]],
    ]
    rng = make_rng(6)
    for _ in range(40):
        k = rng.randint(1, 4)
        cases.append([[_rand_poly(rng, rng.randint(0, 3)) for _ in range(k)] for _ in range(k)])
    for m in cases:
        assert poly_det(m) == det_laplace(m)


def test_det_of_empty_matrix_is_one():
    assert poly_det([]) == LaurentPoly3.const(1)


# -- text round trip ----------------------------------------------------------


def test_format_parse_examples():
    q3 = X**2 + Y**2 - 1
    assert format_poly(q3) == "x^2 + y^2 - 1"
    assert parse_poly(format_poly(q3)) == q3


def test_format_poly_past_the_int_str_digit_limit():
    # str refuses ints of more than 4300 digits by default; format_poly
    # splits those itself, and leaves the limit as it was
    limit, c = sys.get_int_max_str_digits(), 10**5000 + 7
    assert format_poly(LaurentPoly3.const(c)) == "1" + "0" * 4999 + "7"
    text = format_poly(LaurentPoly3({(1, 0, 2): Fraction(-c, 3 * 10**4400 + 1)}))
    assert text == "-1" + "0" * 4999 + "7/3" + "0" * 4399 + "1*p*y^2"
    assert sys.get_int_max_str_digits() == limit


def test_long_decimal_is_str_on_both_sides_of_the_limit():
    # seeded ints and fractions from one digit to 20,000, on both sides of
    # the default 4300-digit limit and of the 256-bit split, converted under
    # that limit and compared with str under a raised one
    from poncelet.polycore import _long_decimal

    rng = random.Random("poncelet-long-decimal")
    values = [rng.getrandbits(bits) for bits in (1, 64, 255, 256, 257, 513, 14_000, 14_284, 14_290,
                                                 30_001, 66_439) for _ in range(3)]
    values += [10**k + d for k in (4299, 4300) for d in (-1, 0, 1)] + [0, 1 << 20_000]
    fractions = [Fraction(rng.getrandbits(20_000), rng.getrandbits(15_000) | 1) for _ in range(3)]
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(4300)
        got = [_long_decimal(v) for v in values + fractions]
        sys.set_int_max_str_digits(0)
        assert got == [str(v) for v in values + fractions]
    finally:
        sys.set_int_max_str_digits(limit)


def test_parse_poly_past_the_int_str_digit_limit():
    # parse_poly reads back what format_poly prints past the limit, and
    # leaves the limit as it was
    limit, c = sys.get_int_max_str_digits(), 10**5000 + 7
    for a in (LaurentPoly3.const(c), LaurentPoly3.const(-c),
              LaurentPoly3({(1, 0, 2): Fraction(-c, 3 * 10**4400 + 1), (0, 0, 0): 1})):
        assert parse_poly(format_poly(a)) == a
    assert sys.get_int_max_str_digits() == limit
    with pytest.raises(ValueError):
        parse_poly("1" * 5000 + ".5*x")  # not digits alone: Fraction's own error stands


def test_format_poly_matches_reference():
    edge = ["0", "1", "-1", "p", "-p", "1/2*p^-2", "-3/7*x*y^2", "p^-1 - x + 1/3", "-1 + 1/2*p^-2*x^33 + p*y^40"]
    for text in edge:
        assert format_poly(parse_poly(text)) == format_reference(parse_poly(text)), text
    # int coefficients, from canonicalize: +-1 on a monomial, +-1 and other
    # integer constants, and (shifted back by p**-2) negative p-powers
    canonical = [
        canonicalize(parse_poly(text))
        for text in ("p - x", "-p*x + 3*y", "x - 1", "-x*y - 1", "2*x - 6", "-4", "2/3*p^-2*x - 4/3*p^-1 + 2")
    ]
    canonical += [a.times_p(-2) for a in canonical]
    for a in canonical:
        assert all(type(c) is int for c in a.terms.values()), a
        assert format_poly(a) == format_reference(a), format_reference(a)
    for n in range(3, 13):
        for a in (locus(n).canonical, hankel_raw(n)):
            assert format_poly(a) == format_reference(a), n
    assert any(c.denominator != 1 for c in hankel_raw(12).terms.values())
    assert hankel_raw(12).min_p_exponent() < 0


def test_parse_poly_term_syntax():
    pinv2 = LaurentPoly3.var_p(-2)
    assert parse_poly("x+y") == X + Y
    assert parse_poly("x-y") == X - Y
    assert parse_poly("-x + 2") == 2 - X
    assert parse_poly("+x") == X
    assert parse_poly("p^-2*x - 3") == pinv2 * X - 3
    assert parse_poly("-p^-2*x") == -(pinv2 * X)
    assert parse_poly("y - 1/2*p^-2 + p^-1") == Y - Fraction(1, 2) * pinv2 + LaurentPoly3.var_p(-1)
    assert parse_poly("x-p^-2*y^2") == X - pinv2 * Y**2
    for zero in ("0", "-0", "+0", " 0 ", "x - x", "2*p^-2*y - p^-2*y - p^-2*y"):
        assert parse_poly(zero) == LaurentPoly3()
    assert parse_poly("x + 3 - x - 1") == LaurentPoly3.const(2)
    assert parse_poly("3*x*x*y") == 3 * X**2 * Y
    for bad in ("x^-1", "3*p*y^-2"):  # packed keys would carry across fields
        with pytest.raises(ValueError):
            parse_poly(bad)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(-3, 3),
            st.integers(0, 4),
            st.integers(0, 4),
            st.fractions(min_value=-9, max_value=9, max_denominator=8),
        ),
        min_size=1,
        max_size=6,
    )
)
def test_format_parse_roundtrip(term_data):
    a = LaurentPoly3()
    for ep, ex, ey, c in term_data:
        a = a + LaurentPoly3.monomial(c, ep, ex, ey)
    assert parse_poly(format_poly(a)) == a


@st.composite
def _packed_polys(draw):
    """A LaurentPoly3 whose packed keys come in shuffled order: negative
    powers of p, den > 1, +-1 on monomials and on the constant, and, times
    a second such value, a product re-keyed to fields wider than 5 bits."""
    def one():
        terms = draw(st.dictionaries(
            st.tuples(st.integers(-4, 4), st.integers(0, 7), st.integers(0, 7)) | st.just((0, 0, 0)),
            st.sampled_from([1, -1]) | st.integers(-10**25, 10**25).filter(bool), max_size=7))
        den = draw(st.sampled_from([1, 1, 2, 6, 7**20]))
        items = draw(st.permutations([(e, Fraction(c, den)) for e, c in terms.items()]))
        return LaurentPoly3(dict(items))

    a = one()
    if draw(st.booleans()):
        a = a * (one() + LaurentPoly3.monomial(draw(st.sampled_from([1, -1])), draw(st.integers(-2, 2)),
                                                draw(st.integers(0, 40)), draw(st.integers(20, 40))))
    return a


@settings(max_examples=150, deadline=None)
@given(_packed_polys())
def test_format_poly_from_packed_keys_matches_reference(a):
    # format_poly reads the packed keys, fields by shift and mask: the same
    # text as the reference over the decoded terms, which parses back
    assert format_poly(a) == format_reference(a)
    assert parse_poly(format_poly(a)) == a


# -- specialization -----------------------------------------------------------


def test_specialize():
    a = P**2 * X + P * Y - 1
    f = specialize(a, Fraction(2), Fraction(3))
    assert f == UniPolyR([Fraction(-1), Fraction(3), Fraction(2)])
    assert specialize(LaurentPoly3(), 2, Fraction(1, 3)) == UniPolyR([])
    with pytest.raises(NegativePExponent):
        specialize(LaurentPoly3.var_p(-1) * X + 1, 1, 1)
    with pytest.raises(TypeError):
        specialize(a, 0.5, 1)
    with pytest.raises(TypeError):
        specialize(LaurentPoly3(), 1, 0.5)


def test_specialize_matches_fraction_reference():
    # the cleared-denominator sum on non-integer coefficients and several
    # powers of p, at centers whose x and y denominators differ (a power of
    # 2 against a power of 3), with a zero coordinate and of large height
    rng = make_rng(31)
    for i in range(60):
        terms = {
            (rng.randint(0, 4), rng.randint(0, 5), rng.randint(0, 5)): rand_fraction(rng, 40, 30)
            for _ in range(rng.randint(2, 10))
        }
        lead = Fraction(rng.randint(1, 9), 2 * rng.randint(1, 9) + 1)
        terms[(3, rng.randint(0, 3), rng.randint(0, 3))] = lead
        a = LaurentPoly3(terms)
        top, k = (10**6, 20) if i % 2 else (12, 3)
        x = Fraction(2 * rng.randint(-top, top) + 1, 2 ** rng.randint(1, k))
        y = Fraction(3 * rng.randint(-top, top) + 1, 3 ** rng.randint(1, k))
        for cx, cy in ((x, y), (0, y), (x, 0), (-1, y)):
            assert specialize(a, cx, cy) == specialize_reference(a, cx, cy), (a, cx, cy)


def test_specialize_through_the_source_matches_reference():
    # A locus and a canonical W_n evaluate through their (p, x, s) source, s
    # one number at the center, and agree with the Fraction sum over their
    # terms in (p, x, y), as do their source-less twins (parse_poly, and
    # the twin over den 3 whose terms are Fractions) at the benchmark's
    # three center kinds, at rational points of the unit circle (s = 0) and
    # at the focus.
    rng = make_rng(37)
    centers = [bench_center(rng, kind) for _ in range(3) for kind in ("small", "large", "near")]
    centers += [(Fraction(3, 5), Fraction(4, 5)), (0, -1), (0, 0)]
    for n in range(3, 13):
        for a in (locus(n).canonical, hankel_raw(n).canonical()):
            assert a._src.vars == polycore._PXS and len(a._src.q) < len(a.q), n
            twins = (parse_poly(format_poly(a)), (3 * a) * Fraction(1, 3))
            assert all(getattr(t, "_src", None) is None and t == a for t in twins)
            for x, y in centers:
                want = specialize_reference(a, x, y)
                assert specialize(a, x, y) == want, (n, x, y)
                assert all(specialize(t, x, y) == want for t in twins), (n, x, y)


def test_specialize_shifts_and_zero_on_both_forms():
    # A source with a p-shift of either sign, den > 1, a lowest power of p
    # above 0, NegativePExponent below it, and the zero polynomial.
    s_form = pxs({(0, 1, 2): Fraction(3, 4), (2, 0, 1): -5, (1, 0, 0): Fraction(1, 6)})
    rng = make_rng(38)
    for e in (-2, 0, 3):
        a = s_form.times_p(e)
        b = a.expand_s()
        assert b._src is a and b.den == 12
        for x, y in [bench_center(rng, kind) for kind in ("small", "large", "near")]:
            if e < 0:
                for v in (a, b):
                    with pytest.raises(NegativePExponent):
                        specialize(v, x, y)
                continue
            want = specialize_reference(b, x, y)
            assert want.coeffs[:e] == [0] * e and len(want.coeffs) == e + 3
            assert specialize(b, x, y) == specialize(a, x, y) == want
    zero = locus(7).canonical * 0
    assert not zero.q and specialize(zero, Fraction(1, 3), 2) == UniPolyR([])
    assert specialize(pxs({}), 1, 2) == UniPolyR([])


def test_only_expand_s_and_canonical_carry_a_source():
    # the source rides on expand_s's value and its canonical form alone:
    # sums, products, scalar multiples, shifts, quotients, reductions and
    # p-coefficients of such a value carry none
    a = locus(7).canonical
    src = a._src
    assert src.vars == polycore._PXS and src.den == 1 and src.min_p_exponent() == 0
    assert src.expand_s() == a and a.canonical()._src.q == src.q
    raw = cayley._locus_s(7).expand_s()
    assert raw._src is cayley._locus_s(7) and raw.canonical() == a
    derived = [a + 1, a + a, a * a, a * 2, a * Fraction(1, 3), -a, a - 1, a.times_p(1), a.times_p(0),
               (a * X) / X, a.reduced(), raw.reduced(), *a.p_coefficients()]
    for d in derived:
        assert getattr(d, "_src", None) is None, d


def test_canonicalize_in_s_reads_the_sign_after_the_expansion(monkeypatch):
    # s - x leads with -x in (p, x, s), but its expansion x^2 + y^2 - x - 1
    # leads with +x^2: normalized in (p, x, s) first, the sign still comes
    # from the expansion, and the source follows it, with one expansion
    # whatever the sign; content and a power of p come out in (p, x, s) as
    # in (p, x, y)
    expand, calls = LaurentPoly3.expand_s, []
    monkeypatch.setattr(LaurentPoly3, "expand_s", lambda self: calls.append(self) or expand(self))
    a = pxs({(0, 0, 1): 1, (0, 1, 0): -1})
    for scale in (1, -1, Fraction(-6, 5)):
        for e in (-3, 0, 2):
            calls.clear()
            b = canonicalize((a * scale).times_p(e))
            assert len(calls) == 1
            assert b == X**2 + Y**2 - X - 1 and b.shift == 0 and b.den == 1
            assert list(b.q) == sorted(b.q, reverse=True)
            assert b._src.vars == polycore._PXS and b._src.expand_s() == b
            assert b._src.q == a.q and b._src.shift == 0
            assert b == canonicalize_reference((a * scale).times_p(e).expand_s())


def test_source_leaves_equality_hash_and_pickle_alone():
    # a value with a source compares, hashes and pickles as its source-less
    # twin; the pickle round trip drops the source and keeps the value
    for n in (5, 11, 12):
        a = locus(n).canonical
        twin = parse_poly(format_poly(a))
        back = pickle.loads(pickle.dumps(a))
        assert a == twin == back and hash(a) == hash(twin) == hash(back)
        assert getattr(back, "_src", None) is None
        assert list(back.terms.items()) == list(a.terms.items())
        assert specialize(back, 2, Fraction(1, 3)) == specialize(a, 2, Fraction(1, 3))


def test_specialize_views_agree():
    # specialize keeps a polynomial's integer view and UniPolyR(coeffs) its
    # Fraction view.  On specialize results, shifted, source-less and zero
    # ones too, the two agree in every reading, and is_zero and degree
    # decode no Fraction.
    rng = make_rng(39)
    s_form = pxs({(0, 1, 2): Fraction(3, 4), (2, 0, 1): -5, (1, 0, 0): Fraction(1, 6)})
    values = [locus(n).canonical for n in (3, 4, 5, 7, 12)]
    values += [parse_poly(format_poly(locus(7).canonical)), s_form.times_p(3), s_form.times_p(3).expand_s(),
               locus(5).canonical * 0]
    centers = [bench_center(rng, kind) for kind in ("small", "large", "near")]
    centers += [(Fraction(3, 5), Fraction(4, 5)), (0, 0), (Fraction(1, 2), -3)]
    zeros = 0
    for a in values:
        for x, y in centers:
            f = specialize(a, x, y)
            with fraction_count() as built:
                zero = f.is_zero()
                deg = None if zero else f.degree()
            assert not built, (a, x, y)
            g = UniPolyR(f.coeffs)
            back = pickle.loads(pickle.dumps(f))
            assert f == g == back and hash(f) == hash(g) == hash(back) and repr(f) == repr(g) == repr(back)
            assert g.is_zero() == zero and _int_coeffs(f) == _int_coeffs(g)
            assert zero or g.degree() == deg
            zeros += zero
    assert zeros >= 3


# -- Sturm isolation -----------------------------------------------------------


def test_sturm_simple_quartic():
    # (p^2-1)(p^2-4): roots -2,-1,1,2
    f = UniPolyR([4, 0, -5, 0, 1])
    roots = sturm_real_roots(f)
    assert [m for _, m, _ in roots] == [1, 1, 1, 1]
    vals = roots.values()
    assert vals == pytest.approx([-2.0, -1.0, 1.0, 2.0], abs=1e-11)


def test_sturm_double_root():
    # 2p^2 - p + 1/8 = 2(p - 1/4)^2
    f = UniPolyR([Fraction(1, 8), -1, 2])
    roots = sturm_real_roots(f)
    assert len(roots) == 1
    val, mult, (lo, hi) = next(iter(roots))
    assert mult == 2
    assert val == pytest.approx(0.25, abs=1e-12)
    assert hi - lo <= Fraction(1, 10**12)


def test_sturm_exclude_zero():
    f = UniPolyR([0, 0, -1, 0, 1])  # p^2(p-1)(p+1)
    roots = sturm_real_roots(f, exclude_zero=True)
    assert roots.values() == pytest.approx([-1.0, 1.0], abs=1e-11)


def test_sturm_isolating_intervals_bracket_sign_change():
    rng = make_rng(3)
    for _ in range(60):
        coeffs = [rand_fraction(rng, 8, 4) for _ in range(rng.randint(2, 5))]
        coeffs.append(Fraction(rng.choice([1, 2, -1])))
        f = UniPolyR(coeffs)
        sf = squarefree_decomposition(f)
        for val, mult, (lo, hi) in sturm_real_roots(f):
            # after square-free reduction the factor changes sign across
            # the isolating interval
            g = next(g for g, m in sf if m == mult and g(lo) * g(hi) <= 0)
            assert g(lo) * g(hi) <= 0


def test_sturm_count_matches_variations():
    rng = make_rng(4)
    for _ in range(60):
        coeffs = [rand_fraction(rng, 8, 4) for _ in range(rng.randint(2, 5))]
        coeffs.append(Fraction(1))
        f = UniPolyR(coeffs)
        if any(m > 1 for _, m in squarefree_decomposition(f)):
            continue  # Sturm counting assumes a square-free input
        chain = sturm_chain(f)
        b = 1 + max(abs(c) for c in f.coeffs)
        count = sign_variations(chain, -b) - sign_variations(chain, b)
        assert count == len(sturm_real_roots(f))


def _squarefree_sample(rng):
    """A square-free product of linear factors at small dyadic points
    (often a point of the bisection tree), quadratics with a complex or
    real pair close to one, and two roots closer than ROOT_WIDTH."""
    while True:
        f = UniPolyR([rng.choice([1, 2, 3, -1])])
        for _ in range(rng.randint(1, 5)):
            a = Fraction(rng.randint(-8, 8), 2 ** rng.randint(0, 3))
            kind = rng.random()
            if kind < 0.25:
                e = Fraction(rng.choice([1, -1]), 2 ** rng.randint(2, 12))
                f = f * UniPolyR([a * a + e, -2 * a, 1])
            elif kind < 0.35:
                e = Fraction(1, 10 ** rng.randint(15, 20))
                f = f * UniPolyR([-a, 1]) * UniPolyR([-(a + e), 1])
            else:
                f = f * UniPolyR([-a, 1])
        if all(m == 1 for _, m in squarefree_decomposition(f)):
            return f


def _pair(iv):
    """An interval triple (a, diff, v) of _isolate and _refine as its
    Fraction ends (a/v, (a + diff)/v)."""
    a, diff, v = iv
    return Fraction(a, v), Fraction(a + diff, v)


def _triple(lo, hi):
    """The interval (lo, hi] as a triple over one denominator."""
    v = Fraction(lo).denominator * Fraction(hi).denominator
    a = int(lo * v)
    return a, int(hi * v) - a, v


def test_descartes_isolation_matches_sturm_reference():
    # _isolate must return the nodes that bisection by Sturm counts stops
    # at, including roots at a node's hi end and roots so close that
    # Descartes' bound has to go deeper than Sturm's count
    rng = make_rng(6)
    at_hi = narrow = at_zero = 0
    for _ in range(150):
        f = _squarefree_sample(rng)
        c = _int_coeffs(f)
        ref = sturm_isolate(f)
        assert [_pair(iv) for iv in _isolate(c)] == ref
        at_hi += any(sign_at(c, hi.numerator, hi.denominator) == 0 for _, hi in ref)
        narrow += any(hi - lo < ROOT_WIDTH for lo, hi in ref)
        roots = sturm_real_roots(f)
        assert len(roots) == len(ref) == len(real_root_profile(f))
        kept = [r for r in roots if not (f(0) == 0 and r[2][0] <= 0 <= r[2][1])]
        at_zero += len(kept) < len(roots)
        assert sturm_real_roots(f, exclude_zero=True).roots == kept
    assert at_hi >= 5 and narrow >= 3 and at_zero >= 5


def test_modular_squarefree_test_falls_back_to_yun(monkeypatch):
    q = _SQUAREFREE_PRIME
    calls = []
    yun = polycore.squarefree_decomposition
    monkeypatch.setattr(polycore, "squarefree_decomposition", lambda f: calls.append(f) or yun(f))

    def roots(f):
        # a factor wrongly taken as square-free sends Descartes' bisection
        # down forever next to its repeated root
        with time_limit(5):
            return [(mult, lo, hi) for _, mult, (lo, hi) in sturm_real_roots(f)]

    # square-free mod q: no fallback
    assert [m for m, _, _ in roots(UniPolyR([-2, 0, 1]))] == [1, 1]
    assert calls == []
    # q divides the leading coefficient q**2: mod q the double root -1/q
    # drops out and the gcd is 1, which proves nothing
    (m1, lo1, hi1), (m2, lo2, hi2) = roots(UniPolyR([1, q]) ** 2 * UniPolyR([-2, 1]))
    assert (m1, m2) == (2, 1) and lo1 < Fraction(-1, q) < hi1 and lo2 < 2 < hi2
    assert len(calls) == 1
    # p (p - q) is square-free over Q but has the double root 0 mod q
    (m1, lo1, hi1), (m2, lo2, hi2) = roots(UniPolyR([0, 1]) * UniPolyR([-q, 1]))
    assert (m1, m2) == (1, 1) and lo1 < 0 < hi1 and lo2 < q < hi2
    assert len(calls) == 2


def test_refine_keeps_root_when_left_end_is_a_root():
    # 2p - p^3 vanishes at p = 0, just outside (0, 2], and is positive
    # right of it; its one root in the interval is sqrt(2).
    g = UniPolyR([0, 2, 0, -1])
    lo, hi = _pair(_refine([0, 2, 0, -1], _triple(0, 2), ROOT_WIDTH))
    assert hi - lo < ROOT_WIDTH
    assert g(lo) > 0 > g(hi)
    assert lo * lo < 2 < hi * hi


def test_refine_dyadic_root_hit_by_bisection():
    # bisection of the start interval (-2, 2] lands exactly on p = 1/2
    roots = sturm_real_roots(UniPolyR([-1, 2]))
    (_, _, (lo, hi)), = roots
    assert lo < Fraction(1, 2) < hi
    assert hi - lo < ROOT_WIDTH


def test_refine_raises_without_one_simple_root():
    # g(lo) and g(hi) of one sign: no root in (lo, hi] for p^2 + 1, two for
    # p^2 - 2.  Each must raise; the alarm turns a hang into a failure.
    for c, lo, hi in (([1, 0, 1], 0, 1), ([1, 0, 1], -1, 1), ([-2, 0, 1], -2, 2)):
        with time_limit(5), pytest.raises(PolycoreError, match="does not isolate"):
            _refine(c, _triple(lo, hi), ROOT_WIDTH)


def _dyadic_roots(rng):
    """At least two distinct roots at dyadic points of depth 0..60, some in
    pairs closer than ROOT_WIDTH."""
    roots = set()
    while len(roots) < 2:
        for _ in range(rng.randint(1, 5)):
            r = Fraction(rng.randint(-2**12, 2**12), 2 ** rng.randint(0, 60))
            roots.add(r)
            if rng.random() < 0.2:
                roots.add(r + Fraction(1, 10 ** rng.randint(16, 22)))
    return sorted(roots)


def _bisection_cases():
    """(c, lo, hi, e): square-free products of dyadic roots with their
    isolating intervals, intervals with a root at lo outside, and intervals
    (lo, lo + size] holding their root on their own dyadic grid at depth e."""
    rng = make_rng(10)
    cases = []
    for _ in range(40):
        roots = _dyadic_roots(rng)
        f = UniPolyR([rng.choice([1, -1, 3])])
        for r in roots:
            f = f * UniPolyR([-r, 1])
        c = _int_coeffs(f)
        ivals = [(*_pair(iv), None) for iv in _isolate(c)]
        for r0, r1, r2 in zip(roots, roots[1:], roots[2:] + [roots[-1] + 2]):
            ivals.append((r0, (2 * r1 + r2) / 3, None))
        for r in roots:
            # (lo, lo + size] holds r at lo + size * j / 2**e, j odd, and no
            # other root
            size = min(abs(r - t) for t in roots if t != r) * Fraction(rng.randint(1, 99), 100)
            e = rng.randint(1, 60)
            lo = r - size * Fraction(rng.randrange(1, 2**e, 2), 2**e)
            ivals.append((lo, lo + size, e))
        cases += [(c, lo, hi, e) for lo, hi, e in ivals]
    return cases


def test_refine_matches_bisection():
    # _refine must return bisection's interval, byte for byte: on the
    # isolating intervals (roots at hi, pairs closer than ROOT_WIDTH), with
    # a root at lo outside the interval, and with the root on the interval's
    # own dyadic grid at a depth e above and below bisection's last depth K
    below = above = 0
    for c, lo, hi, e in _bisection_cases():
        for width in (ROOT_WIDTH, (hi - lo) / 4, Fraction(1, 2**70)):
            assert _pair(_refine(c, _triple(lo, hi), width)) == bisect_refine(c, lo, hi, width)
            if e:
                depth = ((hi - lo) * width.denominator // width.numerator).bit_length()
                below += e <= depth
                above += e > depth
    assert below >= 100 and above >= 100


def _random_seed(rng):
    def seed(g, a, diff, v, ha, hb, depth):
        s = rng.randint(1, depth)
        return s, rng.randint(1, (1 << s) - 1)
    return seed


# Stand-ins for polycore._seed: none at all, the worst grid points of the
# last depth (next to either end of the interval), and random ones.
SEED_STAND_INS = {
    "none": lambda rng: lambda *args: None,
    "first": lambda rng: lambda *args: (args[-1], 1),
    "last": lambda rng: lambda *args: (args[-1], (1 << args[-1]) - 1),
    "random": _random_seed,
}


@pytest.mark.parametrize("stand_in", sorted(SEED_STAND_INS))
def test_seed_never_decides(monkeypatch, stand_in):
    # The float seed only picks where refinement tests first.  With any
    # other pick, or none, _refine returns bisection's intervals and the
    # Sturm gate keeps its digest.  Ends are compared as Fractions: an
    # interval centred on an exact hit can come back over a larger
    # denominator, the same interval as another triple.
    seeds = []
    seed = SEED_STAND_INS[stand_in](make_rng(33))
    monkeypatch.setattr(polycore, "_seed", lambda *args: seeds.append(1) or seed(*args))
    for c, lo, hi, _ in _bisection_cases():
        for width in (ROOT_WIDTH, (hi - lo) / 4, Fraction(1, 2**70)):
            assert _pair(_refine(c, _triple(lo, hi), width)) == bisect_refine(c, lo, hi, width)
    h = hashlib.sha256()
    for f, exclude_zero in _gate_inputs():
        h.update(repr(sturm_real_roots(f, exclude_zero=exclude_zero)).encode())
        h.update(b"\n")
    assert h.hexdigest() == STURM_GATE_SHA256
    assert len(seeds) > 1000


def _checked_seeds(monkeypatch):
    """Wrap polycore._seed so that each result must be None or a grid point
    (s, j) of the cell, 1 <= s <= depth and 0 < j < 2**s; the results, in
    order, fill the list returned."""
    seeds = []
    seed = polycore._seed

    def checked(*args):
        out = seed(*args)
        assert out is None or (1 <= out[0] <= args[-1] and 0 < out[1] < 1 << out[0]), out
        seeds.append(out)
        return out

    monkeypatch.setattr(polycore, "_seed", checked)
    return seeds


def _refine_checked(c, ivals):
    """Refine each interval of c, as Fraction ends, and compare with
    bisection."""
    for lo, hi in ivals:
        with time_limit(10):
            assert _pair(_refine(c, _triple(lo, hi), ROOT_WIDTH)) == bisect_refine(c, lo, hi, ROOT_WIDTH)


def test_seed_at_its_edges(monkeypatch):
    # The seed raises nothing and returns None or a grid point of the cell,
    # and the intervals stay those of the references, where its floats are
    # stretched: coefficients past the float range, roots past it, roots on
    # a dyadic grid or closer than ROOT_WIDTH, and the oracle sweep's
    # centers at n = 8..12.
    seeds = _checked_seeds(monkeypatch)
    rng = make_rng(33)
    # coefficients past 2**1024, which no float holds: the floats are all
    # over one power of 2
    for _ in range(5):
        roots = {rand_fraction(rng) for _ in range(rng.randint(2, 6))}
        f = UniPolyR([1])
        for r in roots:
            f = f * UniPolyR([-r, 1])
        c = [x << 1100 for x in _int_coeffs(f)]
        assert max(map(abs, c)) > 2**1024
        ivals = [_pair(iv) for iv in _isolate(c)]
        assert ivals == cauchy_isolate(c) and len(ivals) == len(roots)
        seeds.clear()
        _refine_checked(c, ivals)
        assert all(seeds)
    # roots past the float range: no float for the interval, so no seed
    for c in ([-(10**400), 1], [10**400, 10**400 - 1, -1]):
        ivals = [_pair(iv) for iv in _isolate(c)]
        assert ivals == cauchy_isolate(c)
        seeds.clear()
        _refine_checked(c, ivals)
        assert None in seeds
    # roots on a dyadic grid, some pairs closer than ROOT_WIDTH
    seeds.clear()
    for _ in range(20):
        f = UniPolyR([rng.choice([1, -1, 3])])
        for r in _dyadic_roots(rng):
            f = f * UniPolyR([-r, 1])
        c = _int_coeffs(f)
        ivals = [_pair(iv) for iv in _isolate(c)]
        assert ivals == cauchy_isolate(c)
        _refine_checked(c, ivals)
    # ten oracle-sweep centers, n = 8..12, each kind of center
    for i in range(10):
        n, kind = 8 + i % 5, ("small", "large", "near")[i % 3]
        f = specialize(locus(n).canonical, *bench_center(rng, kind))
        for g, _ in squarefree_decomposition(f):
            c = _int_coeffs(g)
            ivals = [_pair(iv) for iv in _isolate(c)]
            assert ivals == cauchy_isolate(c)
            _refine_checked(c, ivals)
    assert len(seeds) >= 80 and sum(map(bool, seeds)) >= 0.9 * len(seeds)


def test_refine_first_test_is_the_midpoint():
    # An exact hit returns an interval centred on the root that reaches past
    # the isolating interval: here p = 0 is the first midpoint, and 0 +-
    # 2.5e-16 holds the root 1e-22 too.  The overlap loop refines it again;
    # a secant guess first would find 1e-22 instead of re-hitting 0, and the
    # loop would never end.  The intervals are the ones bisection gives.
    with time_limit(5):
        roots = sturm_real_roots(UniPolyR([0, Fraction(-1, 5 * 10**21), 2]))
    assert [iv for _, _, iv in roots] == [
        (Fraction(-1, 67108864000000000000000), Fraction(1, 67108864000000000000000)),
        (Fraction(1, 18889465931478580854784), Fraction(1, 9444732965739290427392)),
    ]


def test_refine_halves_the_horner_count(monkeypatch):
    # Work, not wall clock: over the isolating intervals of the 60 n = 5
    # and 7 gate centers, quadratic interval refinement evaluates g at most
    # half as often as bisection (a tenth from the float seed).
    calls = []
    horner = polycore._horner
    monkeypatch.setattr(polycore, "_horner", lambda *a: calls.append(1) or horner(*a))
    qir = bisect = 0
    for f, _ in _gate_inputs()[:60]:
        c = _int_coeffs(f)
        factors = [c] if _squarefree_mod(c) else [_int_coeffs(g) for g, _ in squarefree_decomposition(f)]
        for c in factors:
            for lo, hi in map(_pair, _isolate(c)):
                calls.clear()
                got = _pair(_refine(c, _triple(lo, hi), ROOT_WIDTH))
                qir += len(calls)
                calls.clear()
                assert got == bisect_refine(c, lo, hi, ROOT_WIDTH)
                bisect += len(calls)
    assert bisect > 2000 and 2 * qir <= bisect


def test_seed_halves_the_sign_tests(monkeypatch):
    # Work, not wall clock: over the isolating intervals of the 60 n = 5
    # and 7 gate centers, refinement from the float seed makes at most half
    # the sign tests per root, exact and filtered, of refinement from the
    # secant guess alone (_seed returning None), which is what it was
    # before the seed: 5.7 against 18.3 tests per root.  A seed that picks
    # worse points costs only steps, so this is the test that sees it.
    tests = count_sign_tests(monkeypatch)
    cases = []
    for f, _ in _gate_inputs()[:60]:
        c = _int_coeffs(f)
        factors = [c] if _squarefree_mod(c) else [_int_coeffs(g) for g, _ in squarefree_decomposition(f)]
        cases += [(c, iv) for c in factors for iv in _isolate(c)]
    seeded = [_pair(_refine(c, iv, ROOT_WIDTH)) for c, iv in cases]
    count = len(tests)
    monkeypatch.setattr(polycore, "_seed", lambda *args: None)
    tests.clear()
    assert [_pair(_refine(c, iv, ROOT_WIDTH)) for c, iv in cases] == seeded
    assert len(cases) == 120 and 2 * count <= len(tests)


def _bench_cases(rng, count):
    """(c, iv): each square-free factor of p_polynomial(n, e) at n = 5 and 7
    and each of its isolating intervals, at `count` benchmark centers of
    each kind."""
    cases = []
    for i in range(3 * count):
        x, y = bench_center(rng, ("small", "large", "near")[i % 3])
        for n in (5, 7):
            f = specialize(locus(n).canonical, x, y)
            c = _int_coeffs(f)
            factors = [c] if _squarefree_mod(c) else [_int_coeffs(g) for g, _ in squarefree_decomposition(f)]
            cases += [(c, iv) for c in factors for iv in _isolate(c)]
    return cases


# Sign tests of _refine over _bench_cases(make_rng(33), 20), 248 roots: the
# seeded count, and the count with _seed returning None.
SEEDED_SIGN_TESTS, SECANT_SIGN_TESTS = 1312, 4216


def test_seed_work_at_benchmark_centers(monkeypatch):
    # Work, not wall clock, where the benchmark's classify batch refines:
    # small, large and near centers (the near ones have clusters of roots
    # that slow Newton).  The counts are pinned: a change to the seed that
    # costs no correctness shows here as a change of work, 5.3 sign tests
    # per root against 17.0 from the secant alone.
    tests = count_sign_tests(monkeypatch)
    cases = _bench_cases(make_rng(33), 20)
    for c, iv in cases:
        _refine(c, iv, ROOT_WIDTH)
    count = len(tests)
    monkeypatch.setattr(polycore, "_seed", lambda *args: None)
    tests.clear()
    for c, iv in cases:
        _refine(c, iv, ROOT_WIDTH)
    assert (len(cases), count, len(tests)) == (248, SEEDED_SIGN_TESTS, SECANT_SIGN_TESTS)


def test_seed_starts_a_bracket_whose_lo_is_a_root(monkeypatch):
    # 2p - p^3 vanishes at lo = 0, outside (0, 2]: still a proper bracket,
    # g(lo) <= 0 < g(hi).  The seed starts Newton at the midpoint, not at
    # the secant point lo, and finds sqrt(2) to within two levels of the
    # last: six sign tests, where the secant alone takes 17.
    seeds = _checked_seeds(monkeypatch)
    tests = count_sign_tests(monkeypatch)
    got = _pair(_refine([0, 2, 0, -1], _triple(0, 2), ROOT_WIDTH))
    assert len(seeds) == 1 and seeds[0] and len(tests) == 6
    assert got == bisect_refine([0, 2, 0, -1], Fraction(0), Fraction(2), ROOT_WIDTH)
    monkeypatch.setattr(polycore, "_seed", lambda *args: None)
    tests.clear()
    assert _pair(_refine([0, 2, 0, -1], _triple(0, 2), ROOT_WIDTH)) == got
    assert len(tests) == 17


def _large_height_samples():
    rng = make_rng(14)
    return [large_height_product(rng) for _ in range(10)]


def _count_calls(monkeypatch, name):
    calls = []
    kernel = getattr(polycore, name)
    monkeypatch.setattr(polycore, name, lambda *a: calls.append(1) or kernel(*a))
    return calls


def test_large_height_roots_match_references():
    # The start node below the root of the tree and the filtered sign tests
    # move no interval, on products whose Cauchy bound lies 2**20 and more
    # above the largest root and whose coefficients reach 500 bits; every
    # interval's denominator is longer than the filter's precision.  A wrong
    # sign can send refinement round forever; the alarm makes that a failure.
    for c in _large_height_samples():
        with time_limit(10):
            ivals = [_pair(iv) for iv in _isolate(c)]
            assert ivals == cauchy_isolate(c)
            assert len(ivals) == len(c) - 1
            for lo, hi in ivals:
                assert _pair(_refine(c, _triple(lo, hi), ROOT_WIDTH)) == bisect_refine(c, lo, hi, ROOT_WIDTH)


def test_isolate_degree_zero():
    assert _isolate([5]) == cauchy_isolate([5]) == []
    assert _isolate([-1]) == []
    assert sturm_real_roots(UniPolyR([Fraction(-3, 7)])).roots == []


@pytest.mark.parametrize("b, d", [(3, 6), (10, 12), (40, 12)])
def test_isolate_root_next_to_start_node_end(b, d):
    # Each |c_(d-i) / lead| = 2**(ib) - 2**-7 lies just under the power of 2
    # that the start bound rounds it up to, so the largest root comes within
    # 1% of h, the end of a start node: one depth deeper would lose it.
    # g(-p) puts it next to -h.
    g = [-(2 ** (7 + (d - j) * b) - 1) for j in range(d)] + [2**7]
    for c in (g, [(-1) ** j * x for j, x in enumerate(g)]):
        # e, k and h as the _isolate docstring defines them
        lb = c[-1].bit_length()
        e = 1 + max(-(-(abs(x).bit_length() - lb + 1) // i) for i, x in enumerate(reversed(c[:-1]), 1))
        bound = cauchy_bound(UniPolyR(c))
        k = max(kk for kk in range(1, 2000) if 2 * bound / 2**kk >= 2**e)
        h = 2 * bound / 2**k
        assert [_pair(iv) for iv in _isolate(c)] == cauchy_isolate(c)
        roots = sturm_real_roots(UniPolyR(c)).values()
        assert max(abs(r) for r in roots) > 0.99 * h


def test_filtered_sign_test_falls_back_at_dyadic_roots(monkeypatch):
    # A root on the dyadic grid of an interval whose denominator is longer
    # than the filter's precision: no fixed-point value can prove a sign
    # there, so the filter must hand the test to exact Horner, which finds
    # the zero where bisection does.
    calls = _count_calls(monkeypatch, "_horner")
    rng = make_rng(15)
    hits = 0
    for _ in range(20):
        c = large_height_product(rng)
        j = rng.randint(0, 40)
        r = Fraction(rng.randrange(-2**12 + 1, 2**12, 2), 2**j)
        if not _horner(c, r.numerator, r.denominator):
            continue
        c = [b * r.denominator - a * r.numerator for a, b in zip(c + [0], [0] + c)]
        sep = min(abs(r - (a + b) / 2) for _, _, (a, b) in sturm_real_roots(UniPolyR(c)) if not a <= r <= b)
        # a 300-bit odd denominator, and r at a depth e of (lo, lo + size]
        # that bisection reaches
        size = sep / 4 * Fraction(2**299, rng.getrandbits(299) | 2**299 | 1)
        e = rng.randint(1, min(40, int(size / ROOT_WIDTH).bit_length()))
        lo = r - size * Fraction(rng.randrange(1, 2**e, 2), 2**e)
        calls.clear()
        with time_limit(10):
            got = _pair(_refine(c, _triple(lo, lo + size), ROOT_WIDTH))
        assert calls and (got[0] + got[1]) / 2 == r
        assert got == bisect_refine(c, lo, lo + size, ROOT_WIDTH)
        hits += 1
    assert hits >= 15


def test_filtered_sign_test_at_its_error_bound(monkeypatch):
    # Positive c_1..c_d (and their mirror at -x) and c_0 leaving
    # 0 <= g(x) < 1: the fixed-point value falls short by up to its error
    # bound E, far more than 2**prec g(x), so its sign is wrong unless the
    # test sees |S| <= E and retries at a higher precision or, past the bits
    # of w, asks exact Horner.  x just below 2**t makes E nearly tight; x in
    # [1.5 * 2**t, 2**(t+1) - 1) needs X = 2**(t+1), not 2**t.  A third kind
    # has g(x) = h(x) / w, too small for the 2**prec scale, which must still
    # come back nonzero.
    calls = _count_calls(monkeypatch, "_horner")
    rng = make_rng(16)
    for i in range(300):
        d, t = rng.randint(1, 8), rng.randint(2, 40)
        w = rng.getrandbits(200) | 1 << 199 | 1
        if i % 3 == 0:
            u = (w << t) - rng.randint(1, w >> 1)
        else:
            u = (3 * w << (t - 1)) + rng.randrange((w << (t - 1)) - w)
        c = [0] + [rng.getrandbits(100) for _ in range(d)]
        if i % 3 < 2:
            c[0] = -(_horner(c, u, w) // w**d)
        elif math.gcd(u, w) == 1:
            q = pow(u, -1, w)
            c = [b * q - a * ((q * u - 1) // w) for a, b in zip(c[1:] + [0], [0] + c[1:])]
        for c, u in ((c, u), ([(-1) ** j * x for j, x in enumerate(c)], -u)):
            exact = _horner(c, u, w)
            got = polycore._filtered_horner(64)(c, u, w)
            assert (got > 0) - (got < 0) == (exact > 0) - (exact < 0)
    assert len(calls) >= 200


# Fractions that pair_classify may build per call beyond the two ends of
# each reported root's isolating interval.
EXTRA_FRACTIONS_PER_CALL = 0


def test_classify_builds_fractions_only_for_interval_ends():
    # Work, not wall clock: at the 60 n = 5 and 7 gate centers, specialize,
    # the square-free test, isolation, refinement, the region label and the
    # float of each root run in integers; a call builds the two Fraction
    # ends of each reported root's interval and EXTRA_FRACTIONS_PER_CALL
    # more.  The route through a Fraction per coefficient built 28 a call.
    cases = [(n, Center(x, y)) for n, x, y in _gate_classify_centers(random.Random(20261018))]
    locus(5), locus(7)
    roots = 0
    for n, e in cases:
        with fraction_count() as built:
            r = pair_classify(n, e)
        assert len(built) <= 2 * len(r.p_roots) + EXTRA_FRACTIONS_PER_CALL, (n, e)
        roots += len(r.p_roots)
    assert roots >= 100


def test_start_node_cuts_taylor_shifts(monkeypatch):
    # Work, not wall clock: Taylor shifts (one per Descartes node and one per
    # split) from the start nodes against the search from the root of the
    # tree, on the n = 8..12 gate centers and the large-height samples.
    # About 36% and 26% of cauchy_isolate's.
    shifts = _count_calls(monkeypatch, "_shift1")
    gate = [_int_coeffs(g) for f, _ in _gate_inputs()[60:72] for g, _ in squarefree_decomposition(f)]
    for inputs in (gate, _large_height_samples()):
        shifts.clear()
        for c in inputs:
            _isolate(c)
        tight = len(shifts)
        shifts.clear()
        for c in inputs:
            cauchy_isolate(c)
        assert 4 * tight <= 3 * len(shifts)


def test_filter_cuts_exact_horner(monkeypatch):
    # Work, not wall clock: exact Horner calls of _refine.  The size rule
    # keeps the small-coefficient n = 5 gate centers exact: 233 calls and no
    # filtered sign test (649 before the float seed, as before the filter).
    # On the large-height samples the filter leaves at most a third of the
    # calls that every test exact takes (a guard longer than any
    # denominator); none at all on the default seed's samples.
    calls = _count_calls(monkeypatch, "_horner")
    filters = _count_calls(monkeypatch, "_filtered_horner")
    for i, (f, _) in enumerate(_gate_inputs()[:60]):
        if i % 2 == 0 and i % 3 != 2:
            c = _int_coeffs(f)
            factors = [c] if _squarefree_mod(c) else [_int_coeffs(g) for g, _ in squarefree_decomposition(f)]
            for c in factors:
                for iv in _isolate(c):
                    _refine(c, iv, ROOT_WIDTH)
    assert len(calls) == 233 and not filters
    cases = [(c, iv) for c in _large_height_samples() for iv in _isolate(c)]
    calls.clear()
    filtered = [_pair(_refine(c, iv, ROOT_WIDTH)) for c, iv in cases]
    count = len(calls)
    monkeypatch.setattr(polycore, "_GUARD_BITS", 10**9)
    calls.clear()
    assert [_pair(_refine(c, iv, ROOT_WIDTH)) for c, iv in cases] == filtered
    assert 3 * count <= len(calls)


def test_sturm_root_on_shared_interval_end_n12():
    # The square-free part of locus 12 at center (-3, 2) has its root
    # p = 0 at the shared end of two isolating intervals.  Refining the
    # right one used to lose its root, and the overlap loop then never
    # stopped; the alarm turns such a hang into a failure.
    f = specialize(locus(12).canonical, -3, 2)
    with time_limit(60):
        roots = sturm_real_roots(f)
    (g, _), = squarefree_decomposition(f)
    ivals = [iv for _, _, iv in roots]
    assert len(ivals) == 4
    assert any(lo < 0 < hi for lo, hi in ivals)
    for lo, hi in ivals:
        assert hi - lo < ROOT_WIDTH
        assert g(lo) * g(hi) < 0
    for (_, hi), (lo, _) in zip(ivals, ivals[1:]):
        assert hi <= lo


def _check_roots(f, known, roots):
    # root count and multiplicities against the Sturm reference, disjoint
    # intervals in order, and each known root in one interval of its own
    assert sorted(m for _, m, _ in roots) == real_root_profile(f)
    assert len(roots) == len(known)
    ivals = [iv for _, _, iv in roots]
    for (_, hi), (lo, _) in zip(ivals, ivals[1:]):
        assert hi <= lo
    for t, m in known.items():
        assert [mult for _, mult, (lo, hi) in roots if lo < t <= hi] == [m], t


def test_overlap_loop_sorts_each_round():
    # The double root -3 is hit exactly and recentred on a symmetric
    # interval that also holds the simple root 1e-22 away; refining moves
    # the pair past each other, and an order sorted only once never clears.
    f = UniPolyR([3, 1]) ** 2 * UniPolyR([1, 1]) * UniPolyR([3 - Fraction(1, 10**22), 1])
    with time_limit(5):
        roots = sturm_real_roots(f)
    _check_roots(f, {Fraction(-3): 2, Fraction(-1): 1, Fraction(1, 10**22) - 3: 1}, roots)


def test_overlap_loop_near_double_roots():
    # A double root at a dyadic point and a simple root within 1e-22 of it,
    # in the other square-free factor, with up to two more simple roots.
    rng = make_rng(12)
    for _ in range(200):
        r = Fraction(rng.randint(-2**12, 2**12), 2 ** rng.randint(0, 40))
        known = {r: 2, r + rng.choice([1, -1]) * Fraction(rng.randint(1, 10**6), 10**28): 1}
        for _ in range(rng.randint(0, 2)):
            known.setdefault(rand_fraction(rng), 1)
        f = UniPolyR([rng.choice([1, -2, 3])])
        for t, m in known.items():
            f = f * UniPolyR([-t, 1]) ** m
        with time_limit(5):
            roots = sturm_real_roots(f)
        _check_roots(f, known, roots)


def _sign(x):
    return (x > 0) - (x < 0)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=9),
    st.integers(-10**9, 10**9),
    st.integers(1, 10**9),
    st.integers(1, 50),
)
def test_integer_sign_matches_fraction_horner(coeffs, u, v, k):
    # Unreduced denominators (k * u) / (k * v), negative points and points
    # anywhere on the number line.
    at = Fraction(u, v)
    assert sign_at(coeffs, k * u, k * v) == _sign(UniPolyR(coeffs)(at))
    assert _horner(coeffs, k * u, k * v) == (k * v) ** (len(coeffs) - 1) * UniPolyR(coeffs)(at)
    # an exact root: g * (v p - u) vanishes at u / v
    g = UniPolyR(coeffs) * UniPolyR([-u, v])
    assert sign_at([int(c) for c in g.coeffs] or [0], k * u, k * v) == 0


# SHA-256 of the isolating intervals, multiplicities and float values that
# sturm_real_roots returns on the inputs below, captured from the Fraction
# implementation the integer one replaced.  Any change to a bisection point
# changes it.
STURM_GATE_SHA256 = "c7d31deb181eb99a61a0c1a98050bf4f03c8e72d2679f6f0f14383e9a7a6bba2"


def _gate_center(rng, big):
    while True:
        if big:
            x = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))
            y = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))
        else:
            x = Fraction(rng.randint(-12, 12), rng.randint(1, 6))
            y = Fraction(rng.randint(-12, 12), rng.randint(1, 6))
        if x * x + y * y not in (0, 1):
            return x, y


def _gate_poly(rng):
    f = UniPolyR([Fraction(rng.choice([1, -2, 3]), rng.randint(1, 4))])
    for _ in range(rng.randint(1, 4)):
        if rng.random() < 0.3:
            factor = UniPolyR([
                Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
                Fraction(rng.randint(-9, 9), rng.randint(1, 3)),
                1,
            ])
        elif rng.random() < 0.2:
            factor = UniPolyR([0, 1])
        else:
            factor = UniPolyR([Fraction(rng.randint(-9, 9), rng.randint(1, 7)), 1])
        f = f * factor ** rng.choice([1, 1, 2, 3])
    return f


def _gate_classify_centers(rng):
    """The gate's 60 (n, x, y) at n = 5 and 7, drawn from rng."""
    return [(5 + 2 * (i % 2), *_gate_center(rng, big=i % 3 == 2)) for i in range(60)]


def _gate_inputs():
    """(f, exclude_zero) pairs: 60 centers at n = 5 and 7, 10 at n = 8..12,
    the root p = 0 case at n = 12, and 80 products of random factors with
    repeats.  Fixed seed, so PONCELET_SEED does not move the digest."""
    rng = random.Random(20261018)
    out = [(specialize(locus(n).canonical, x, y), True) for n, x, y in _gate_classify_centers(rng)]
    for i in range(10):
        x, y = _gate_center(rng, big=i % 3 == 2)
        out.append((specialize(locus(8 + i % 5).canonical, x, y), True))
    f = specialize(locus(12).canonical, -3, 2)
    out += [(f, True), (f, False)]
    for i in range(80):
        out.append((_gate_poly(rng), i % 2 == 0))
    return out


def test_sturm_root_intervals_byte_identical():
    inputs = _gate_inputs()
    assert sum(any(m > 1 for _, m in squarefree_decomposition(f)) for f, _ in inputs) >= 40
    h = hashlib.sha256()
    for f, exclude_zero in inputs:
        h.update(repr(sturm_real_roots(f, exclude_zero=exclude_zero)).encode())
        h.update(b"\n")
    assert h.hexdigest() == STURM_GATE_SHA256


def test_squarefree_structure():
    # p^3 (p-1)^2 (p+2)
    f = UniPolyR([0, 0, 0, 1]) * UniPolyR([1, -2, 1]) * UniPolyR([2, 1])
    sf = squarefree_decomposition(f)
    by_mult = {m: g for g, m in sf}
    assert by_mult[3] == UniPolyR([0, 1])
    assert by_mult[2] == UniPolyR([-1, 1])
    assert by_mult[1] == UniPolyR([2, 1])


def test_poly_gcd():
    a = UniPolyR([-1, 0, 1]) * UniPolyR([3, 1])
    b = UniPolyR([-1, 1]) * UniPolyR([5, 1])
    assert poly_gcd(a, b) == UniPolyR([-1, 1])


def test_divmod_property():
    # q*b + r == a and deg r < deg b, for dividends of lower degree, with
    # zero inner coefficients, and for non-monic and constant divisors
    rng = make_rng(8)
    cases = [
        (UniPolyR([1, 2]), UniPolyR([1, 0, 3])),
        (UniPolyR([5, 0, 0, 0, 0, 1]), UniPolyR([-1, 0, 2])),
        (UniPolyR([0, 0, 7]), UniPolyR([Fraction(-3, 2)])),
        (UniPolyR([]), UniPolyR([1, 4])),
    ]

    def sparse(k):
        return [rand_fraction(rng, 9, 5) if rng.random() < 0.6 else 0 for _ in range(k)]

    for _ in range(300):
        lead = rand_fraction(rng, 9, 5) or 3
        cases.append((UniPolyR(sparse(rng.randint(0, 9))), UniPolyR(sparse(rng.randint(0, 5)) + [lead])))
    for a, b in cases:
        q, r = a.divmod(b)
        assert q * b + r == a
        assert r.is_zero() or r.degree() < b.degree()
        if a.is_zero() or a.degree() < b.degree():
            assert q.is_zero() and r == a
    with pytest.raises(ZeroDivisionError):
        UniPolyR([1, 1]).divmod(UniPolyR([]))


def test_power_edge_exponents():
    f = UniPolyR([Fraction(1, 2), 0, -3])
    assert f**0 == UniPolyR([1])
    assert f**1 == f
    assert f**5 == f * f * f * f * f
    a = LaurentPoly3.var_p(-1) * X - Y
    assert a**0 == LaurentPoly3.const(1)
    assert a**1 == a
    assert a**5 == a * a * a * a * a
    for base in (f, a, UniPolyR([]), LaurentPoly3()):
        with pytest.raises(ValueError, match="negative"):
            base**-1
    assert UniPolyR([]) ** 0 == UniPolyR([1])
    assert LaurentPoly3() ** 3 == LaurentPoly3()


def test_power_starts_at_lowest_set_bit(monkeypatch):
    # No product has the constant 1 as a factor: a**5 = a * (a^2)^2 takes
    # three products, a**1 and a**0 none.
    mul, count = LaurentPoly3.__mul__, [0]

    def counted(self, other):
        count[0] += 1
        return mul(self, other)

    monkeypatch.setattr(LaurentPoly3, "__mul__", counted)
    a = LaurentPoly3.var_p(-1) * X - Y
    for n, products in ((5, 3), (1, 0), (0, 0), (2, 1), (6, 3), (8, 3)):
        count[0] = 0
        a**n
        assert count[0] == products, n


# -- discriminants -------------------------------------------------------------


def test_discriminant_examples():
    assert discriminant(UniPolyR([4, 0, -5, 0, 1])) == 5184
    assert discriminant(UniPolyR([0, -1, 1])) == 1
    assert discriminant(UniPolyR([1, 0, 0, 1])) == -27


def test_discriminant_rejects_wrong_degree():
    with pytest.raises(UnsupportedDegree):
        discriminant(UniPolyR([1, 1]))
    with pytest.raises(UnsupportedDegree):
        discriminant(UniPolyR([1, 0, 0, 0, 0, 1]))


def test_resultant_of_coprime_and_shared_root():
    f = UniPolyR([-1, 0, 1])
    g = UniPolyR([-1, 1])
    assert resultant(f, g) == 0
    h = UniPolyR([2, 1])
    assert resultant(g, h) == 3


def test_quartic_disc_double_route_agreement():
    # the closed formula of discriminant() against Res(f, f')/lc, the
    # Sylvester determinant, over many random quartics
    rng = make_rng(5)
    for _ in range(1000):
        coeffs = [rand_fraction(rng, 9, 5) for _ in range(4)]
        lead = Fraction(0)
        while lead == 0:
            lead = rand_fraction(rng, 9, 5)
        f = UniPolyR(coeffs + [lead])
        d = discriminant(f)
        assert d == resultant(f, f.derivative()) / lead
        # sanity: a detected double root forces discriminant 0
        if any(m > 1 for _, m in squarefree_decomposition(f)):
            assert d == 0


def test_discriminant_low_degree_double_route_agreement():
    # discriminant() at degrees 2 and 3 (the cubic as the quartic with
    # A = 0 over B^2) against (-1)**(d (d - 1) / 2) Res(f, f') / lc, the
    # Sylvester determinant, on Fraction entries; at degree 3 also on
    # LaurentPoly3 entries, against the same determinant evaluated at a
    # point, so the exact division by B^2 runs in that ring too
    rng = make_rng(6)
    for d in (2, 3):
        for _ in range(300):
            lead = Fraction(0)
            while lead == 0:
                lead = rand_fraction(rng, 9, 5)
            f = UniPolyR([rand_fraction(rng, 9, 5) for _ in range(d)] + [lead])
            sign = -1 if d * (d - 1) // 2 % 2 else 1
            disc = discriminant(f)
            assert disc == sign * resultant(f, f.derivative()) / lead
            assert type(disc) is Fraction
            assert polycore._discriminant(f.coeffs) == disc
    for _ in range(30):
        c = [_rand_poly(rng, rng.randint(1, 3)) for _ in range(3)] + [_rand_poly(rng, rng.randint(1, 3))]
        if c[3].is_zero():
            continue
        disc = polycore._discriminant(c)
        assert isinstance(disc, LaurentPoly3)
        for _ in range(2):
            p, x, y = (rand_fraction(rng, 7, 4) for _ in range(3))
            if p == 0:
                continue
            f = UniPolyR([v.evaluate(p, x, y) for v in c])
            if f.degree() == 3:
                assert disc.evaluate(p, x, y) == -resultant(f, f.derivative()) / f.coeffs[3]


def _locus7_quartic():
    coeffs = p_coefficients(locus(7).canonical)
    return [coeffs.get(k, LaurentPoly3()) for k in (4, 3, 2, 1, 0)]


def test_quartic_invariants_match_expansions():
    # the I, J form of the discriminant and the P, I form of D against
    # their expanded terms, over Q with zero coefficients (A = 0 included)
    # and over LaurentPoly3
    rng = make_rng(7)
    quartics = [
        [Fraction(0) if rng.random() < 0.2 else rand_fraction(rng, 30, 7) for _ in range(5)]
        for _ in range(1200)
    ]
    assert sum(q[0] == 0 for q in quartics) >= 100
    quartics += [_locus7_quartic()]
    quartics += [[_rand_poly(rng, rng.randint(0, 3)) for _ in range(5)] for _ in range(20)]
    for q in quartics:
        disc, _, D, _, _ = quartic_invariants(*q)
        assert disc == quartic_disc_expanded(*q)
        assert D == quartic_D(*q) == quartic_D_expanded(*q)
    assert quartic_invariants(1, 0, -5, 0, 4)[0] == 5184
    assert isinstance(quartic_D(1, 0, -5, 0, 4), Fraction)


def _five_formulas(q):
    # each on its own, none through polycore
    return quartic_disc_expanded(*q), quartic_P(*q), quartic_D(*q), quartic_O(*q), quartic_R(*q)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-10**6, 10**6), min_size=5, max_size=5)
       | st.lists(st.fractions(max_denominator=10**4).filter(lambda v: abs(v) < 10**6), min_size=5, max_size=5))
def test_quartic_invariants_equal_the_five_formulas(q):
    # disc, P, D, O and R from shared products, against each formula alone;
    # the undivided forms are 27 disc, P, 3 D, O and R.  Types: int entries
    # give ints from _quartic_forms, and a Fraction disc and D (the ring
    # must hold 1/27 and 1/3) with int P, O and R from quartic_invariants
    alone = _five_formulas(q)
    shared = quartic_invariants(*q)
    forms = tuple(polycore._quartic_forms(*q))
    assert shared == alone
    assert forms == (27 * alone[0], alone[1], 3 * alone[2], *alone[3:])
    if all(type(v) is int for v in q):
        assert [type(v) for v in forms] == [int] * 5
        assert [type(v) for v in shared] == [Fraction, int, Fraction, int, int]
    else:
        assert [type(v) for v in forms] == [type(v) for v in shared] == [Fraction] * 5


def test_quartic_invariants_on_the_7_gon_quartic_in_x_s():
    # the p-coefficients of locus(7)'s (p, x, s) form, a4 first, as
    # verify.checks() reads them
    quartic = locus(7).canonical._src.p_coefficients()[::-1]
    assert len(quartic) == 5
    assert quartic_invariants(*quartic) == _five_formulas(quartic)


class _CountingInt(int):
    """An int whose products are counted; its arithmetic returns the class,
    so every product downstream of one is counted too."""

    products = 0

    def __mul__(self, other):
        _CountingInt.products += 1
        return _CountingInt(int(self) * int(other))

    __rmul__ = __mul__

    def __add__(self, other):
        return _CountingInt(int(self) + int(other))

    __radd__ = __add__

    def __sub__(self, other):
        return _CountingInt(int(self) - int(other))

    def __rsub__(self, other):
        return _CountingInt(int(other) - int(self))


def test_quartic_discriminant_sign_makes_only_the_discriminants_products():
    # 27 disc = 4 I^3 - J^2 alone: B B, A E, B D, C C; 12 A E and 3 B D in
    # I; 72 A E, 9 B D, 2 C C, C (..), A D, (A D) D, E B B and 27 (..) in
    # J; 4 I, its two more factors of I, and J J.  P, 3 D and R would add
    # 11 more, made and dropped on every 7-gon label
    rng = make_rng(38)
    for _ in range(20):
        c = [_CountingInt(rng.randint(-10**6, 10**6)) for _ in range(5)]
        _CountingInt.products = 0
        sign = polycore._discriminant_sign(c)
        assert _CountingInt.products == 4 + 2 + 8 + 4
        disc = quartic_disc_expanded(*map(int, c[::-1]))
        assert sign == (disc > 0) - (disc < 0)


def test_over_s_divides_out_powers_of_s_and_of_s_plus_1():
    # f * s**k * (s + 1)**r over s**k and (s + 1)**r is f; one more power
    # of s than the least s-exponent, or of s + 1 where f is not 0 at
    # s = -1, does not divide
    rng = make_rng(34)
    s = pxs({(0, 0, 1): 1})
    for _ in range(40):
        f = pxs(_rand_poly(rng, rng.randint(1, 5)).terms)
        k, r = rng.randint(0, 4), rng.randint(0, 8)
        a = f * s**k * (s + 1) ** r
        assert polycore._over_s(a, k, r) == f
        with pytest.raises(NotDivisible):
            polycore._over_s(a, min(e for _, _, e in a._decode()) + 1, r)
        at_minus_1 = Counter()
        for (ep, ex, es), c in f._decode().items():
            at_minus_1[ep, ex] += c * (-1) ** es
        if any(at_minus_1.values()):
            with pytest.raises(NotDivisible):
                polycore._over_s(a, k, r + 1)
    assert polycore._over_s(pxs({}), 3, 2).is_zero()


def test_quartic_invariants_and_warm_checks_term_pairs(kernel_calls):
    # Work, not wall clock: term pairs len(a) len(b) in the integer
    # kernel's products.  Measured 25220 for quartic_invariants on the
    # 7-gon quartic (24292 for the discriminant alone) against 102481 for
    # the expansion.  A warm verify.checks() measured 37733 with the
    # invariants of the full p-coefficients in (x, y), 1210 with those in
    # (x, s), 1053 with the invariants sharing their products and 619 with
    # the printed sides built once and kept; the lower bound catches a
    # checks() that makes its products outside polycore._mul.
    quartic = _locus7_quartic()
    verify.checks()
    counts = []
    for run in (lambda: quartic_invariants(*quartic), lambda: quartic_disc_expanded(*quartic), verify.checks):
        kernel_calls["mul"].clear()
        run()
        counts.append(sum(a * b for a, b, _ in kernel_calls["mul"]))
    invariant, expanded, checks = counts
    assert invariant <= 0.3 * expanded
    assert 540 <= checks <= 619


def test_warm_checks_product_work(kernel_calls):
    # The discriminant and invariant rows are compared in (p, x, s): each
    # locus's p-coefficients are split once, the 7-gon quartic's five
    # invariants share their products (quartic_invariants), powers of S
    # leave by an exponent shift and powers of R by one exact division, by
    # a sum of powers of s built with no product, and no quotient or
    # printed side is expanded to (x, y).  The printed sides are built on
    # the first call and kept, so a warm call makes only the computed ones.
    # Measured 22 products (619 term pairs), 6 exact divisions (592 =
    # the sum of len(a) len(b)), one per row with a power of R and one for
    # the hexagon, and one expand_s, for the hexagon quotient, against 75
    # products (1053 pairs) with the five printed loci and the two worked
    # examples rebuilt on every call, and 91 products (1210 pairs), 8
    # divisions (599 pairs) and 8 expand_s calls with the quotients
    # expanded to (x, y) and each invariant alone.  The lower bounds catch
    # a checks() that multiplies or divides outside polycore._mul and
    # polycore._idiv, which the upper bounds alone would let pass at 0.
    verify.checks()
    for calls in kernel_calls.values():
        calls.clear()
    verify.checks()
    mul, div = kernel_calls["mul"], kernel_calls["div"]
    assert 19 <= len(mul) <= 22
    assert 540 <= sum(a * b for a, b, _ in mul) <= 619
    assert len(div) == 6
    assert 500 <= sum(a * b for a, b, _ in div) <= 592
    assert len(kernel_calls["expand"]) == 1


def test_root_beyond_float_range_is_named():
    # the exact interval exists, but its midpoint has no float; the error
    # names the root's power of 2 rather than a float-division failure
    for f in (UniPolyR([-(10**400), 1]), UniPolyR([10**400, 1]) * UniPolyR([-1, 1])):
        with pytest.raises(PolycoreError, match=r"2\*\*1328 is beyond the float range"):
            sturm_real_roots(f)
    assert sturm_real_roots(UniPolyR([-(10**300), 1])).values() == [1e300]


def test_zero_polynomial_guards():
    with pytest.raises(ZeroPolynomial):
        sturm_real_roots(UniPolyR([]))
    with pytest.raises(ZeroPolynomial):
        UniPolyR([]).degree()
