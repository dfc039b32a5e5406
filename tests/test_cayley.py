"""Pencil coefficients, the series recursion, the doubling formulas for
the Hankel determinants against the Somos-4 recurrence, the Hankel matrix
and the group law on the pencil's cubic, and canonical locus polynomials."""

import hashlib
import json
import math
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import pytest

from conftest import (
    det_laplace,
    division_values,
    fraction_det,
    hankel_matrix,
    int_evaluator,
    jordan_j2,
    locus_reference,
    make_rng,
    poly_det,
    pxs,
    rand_fraction,
    series_at,
    series_sqrt,
    somos4,
    time_limit,
)
from poncelet import cayley, polycore
from poncelet.cayley import (
    DegenerateParabola,
    atilde_sequence,
    hankel_raw,
    locus,
    locus_at_p,
    pencil_coeffs,
    proper_divisors,
)
from poncelet.polycore import LaurentPoly3, canonicalize, format_poly, poly_div_exact
from poncelet.verify import paper_locus

P = LaurentPoly3.var_p()
X = LaurentPoly3.var_x()
Y = LaurentPoly3.var_y()


def test_pencil_coefficients():
    # typed in (p, x, s): each field keeps that source, and it expands to
    # the field's typing in (x, y), as printed
    pc = pencil_coeffs()
    typed = {"delta1": LaurentPoly3.const(-1), "theta1": -(P**2) - 2 * P * X + Y**2 - 1,
             "theta2": -2 * P**2 - 2 * P * X, "delta2": -(P**2)}
    for name, f in typed.items():
        value = getattr(pc, name)
        src = getattr(value, "_src", None)
        assert src is not None and src.vars == polycore._PXS, name
        assert src.expand_s() == value == f, name


def test_pencil_coefficients_at_point():
    pc = pencil_coeffs()
    vals = tuple(
        c.evaluate(Fraction(1, 2), Fraction(1), Fraction(0))
        for c in (pc.delta1, pc.theta1, pc.theta2, pc.delta2)
    )
    assert vals == (-1, Fraction(-9, 4), Fraction(-3, 2), Fraction(-1, 4))


def test_first_three_entries():
    seq = atilde_sequence(3)
    assert seq[0] == -(P**2) - P * X
    assert seq[1] == X**2 + Y**2 - 1
    # entry 3 is genuinely Laurent in p
    pinv = LaurentPoly3.var_p(-1)
    q4 = (X**2 + Y**2) * P + X * (X**2 + Y**2 - 1)
    assert seq[2] == -3 * pinv * q4
    assert seq[2].min_p_exponent() == -1


def test_entry_recursion_start_values():
    pc = pencil_coeffs()
    seq = atilde_sequence(3)
    assert seq[1] == pc.theta1 - poly_div_exact(seq[0] * seq[0], pc.delta2)
    assert seq[2] == 3 * pc.delta1 - 3 * poly_div_exact(seq[0] * seq[1], pc.delta2)


def test_entry_symmetries():
    # entries are even in y and invariant under (p,x) -> (-p,-x)
    for k in range(1, 9):
        a = atilde_sequence(k)[k - 1]
        flip_y = LaurentPoly3(
            {(ep, ex, ey): (-c if ey % 2 else c) for (ep, ex, ey), c in a.terms.items()}
        )
        flip_px = LaurentPoly3(
            {(ep, ex, ey): (-c if (ep + ex) % 2 else c) for (ep, ex, ey), c in a.terms.items()}
        )
        assert flip_y == a
        assert flip_px == a


GOLDEN = {
    3: "x^2 + y^2 - 1",
    4: "p*x^2 + p*y^2 + x^3 + x*y^2 - x",
}


def test_golden_loci_match_reference():
    for n in range(3, 8):
        assert locus(n).canonical == paper_locus(n)


def test_locus_text_small_cases():
    from poncelet.polycore import format_poly, parse_poly

    for n, text in GOLDEN.items():
        assert locus(n).canonical == parse_poly(text)


def test_raw_hankel_scalar_normalizations():
    # the raw determinants equal the canonical loci up to an explicit
    # monomial scalar (and the divisor factor for n=6)
    assert 2 * hankel_raw(3) == paper_locus(3)
    assert -2 * P * hankel_raw(4) == paper_locus(4)
    assert -16 * P**2 * hankel_raw(5) == paper_locus(5)
    assert 64 * P**4 * hankel_raw(6) == paper_locus(3) * paper_locus(6)
    assert -512 * P**6 * hankel_raw(7) == paper_locus(7)


def test_divisibility_structure():
    for n, k in ((6, 3), (8, 4), (9, 3)):
        q = poly_div_exact(hankel_raw(n), hankel_raw(k))
        assert not q.is_zero()
    # quotient of the 6-gon determinant by the triangle factor is the
    # hexagon locus
    assert canonicalize(poly_div_exact(hankel_raw(6), hankel_raw(3))) == paper_locus(6)


def test_divisors_removed_bookkeeping():
    assert proper_divisors(12) == [3, 4, 6]
    assert locus(12).divisors_removed == (3, 4, 6)
    assert locus(7).divisors_removed == ()
    for n in range(8, 13):
        can = locus(n).canonical
        assert can.min_p_exponent() == 0
        _, lead = can.leading_term()
        assert lead > 0


def test_locus_p_degree_is_jordan_j2_over_12():
    # the degree law: the p-degree of the n-gon locus counts the points of
    # exact order n in E[n] (Silverman, III.6), twelve to one
    degrees = [max(e[0] for e in locus(n).canonical.terms) for n in range(4, 13)]
    assert [jordan_j2(n) for n in (1, 2, 3, 4, 6, 12)] == [1, 3, 8, 12, 24, 96]
    assert degrees == [jordan_j2(n) // 12 for n in range(4, 13)]
    assert degrees == [1, 2, 2, 4, 4, 6, 6, 10, 8]
    assert all(jordan_j2(n) % 12 == 0 for n in range(4, 13))


def test_locus_xy_degree_is_jordan_j2_over_4():
    # the companion law: the total degree of the n-gon locus in the center
    # (x, y) is J_2(n)/4, three times its p-degree for n >= 4
    degrees = [max(ex + ey for _, ex, ey in locus(n).canonical.terms) for n in range(3, 13)]
    assert degrees == [jordan_j2(n) // 4 for n in range(3, 13)]
    assert degrees == [2, 3, 6, 6, 12, 12, 18, 18, 30, 24]


# SHA-256 of format_poly(hankel_raw(n)), pinned from the Fraction-based
# cofactor/Bareiss determinant the integer kernel replaced.
HANKEL_RAW_SHA256 = {
    3: "419243be334f6d1f430bca65283a568d0215374bffeaeacd962c53c379b28e9f",
    4: "2c450bdfd011e2daa4fe8d9b313804c96735f24b2e6782146ca55b553f094bb5",
    5: "69053e4aa779fc5fb460e77f210d08935450543a2f838eac8437e462f5fb1627",
    6: "a7a05004c30105d760ce82eb3b2b9da68bfb2b99613fe872e57ed1e7b31cc6cd",
    7: "7e3defca83041193b6f38c9c3dc690244ff78f893ff992550b77aff41f632f04",
    8: "be336aa879638a186b60c68ee39d8c4c177a5a545a8402c3efca08832640864d",
    9: "53fd6ab6b659390e1b0d30773953270a79de07d5c3fa0eece6983c2db6c4b788",
    10: "e7d6ef3665b364c9e273efaf86f2135fb19c95881339d57ad164dccea056ee20",
    11: "12c52c4ef0976c6c09c646e4591ff93f46e6ec690ae58b7cab97a41ae009151a",
    12: "d8c68de896fa8ac66cf626c4e99cec119ada36c21ff59c2f5d36dbdbc78ead91",
}


def _sha256(a: LaurentPoly3) -> str:
    return hashlib.sha256(format_poly(a).encode()).hexdigest()


def test_golden_digests_n3_to_12():
    golden_file = Path(__file__).resolve().parents[1] / "perfbench" / "golden.json"
    golden = json.loads(golden_file.read_text())["format_poly_sha256"]
    for n in range(3, 13):
        assert _sha256(locus(n).canonical) == golden[str(n)], n
        assert _sha256(hankel_raw(n)) == HANKEL_RAW_SHA256[n], n
    for n in range(3, 10):
        m = hankel_matrix(n)
        assert poly_det(m) == det_laplace(m) == hankel_raw(n), n


def test_s_form_seeds():
    # The seeds, typed in (p, x, s), s = x^2 + y^2 - 1, are the closed forms
    # W_3 = s/2 and W_4 = -((s + 1) p + x s) / (2p).  Expanded to (p, x, y),
    # they and hankel_raw(3), hankel_raw(4) are the series' A_k = atilde_k / k!,
    # which stays their reference.
    S = LaurentPoly3.var_y()  # the third variable of an s-form
    half = Fraction(1, 2)
    one = LaurentPoly3.const(1)
    closed = tuple(pxs(f.terms) for f in [one, one, half * S, -half * ((S + 1) + LaurentPoly3.var_p(-1) * X * S)])
    assert all(f.vars == polycore._PXS for f in cayley._W_S)
    assert cayley._W_S[:2] == closed[:2]
    assert cayley._W_S[2] == closed[2]
    assert cayley._W_S[3] == closed[3]
    a = atilde_sequence(3)
    series = [one, one, a[1] * Fraction(1, 2), a[2] * Fraction(1, 6)]  # A_k = atilde_k / k!
    for j in range(4):
        assert cayley._W_S[j].expand_s() == series[j], j
    assert hankel_raw(3) == series[2]
    assert hankel_raw(4) == series[3]


def test_hankel_raw_matches_group_law_to_n16():
    # W_n, n = 3..16, at 20 seeded rational points against the division
    # values of P = (0, p) on the pencil's cubic, by chord and tangent
    # (conftest.division_values): a reference with no Hankel matrix, no
    # recurrence and no doubling formula.
    rng = make_rng(22)
    points = []
    while len(points) < 20:
        p, x, y = (rand_fraction(rng) for _ in range(3))
        w = division_values(p, x, y, 16) if p else None
        if w:
            points.append(((p, x, y), w))
    for n in range(3, 17):
        at = int_evaluator(hankel_raw(n))
        for point, w in points:
            assert at(*point) == w[n - 1], (n, point)


def _point_hankel_dets(rng, n_max: int):
    """A seeded rational point off every locus n = 3..n_max, with the
    Fraction Hankel determinants of the series there: w[j - 1] = W_j."""
    while True:
        p, x, y = (rand_fraction(rng) for _ in range(3))
        if not p:
            continue
        c = series_at(p, x, y, n_max - 1)
        ref = [fraction_det(hankel_matrix(n, c.__getitem__)) for n in range(3, n_max + 1)]
        if all(ref):  # on a locus the recurrence would divide by zero
            return (p, x, y), [Fraction(1)] * 2 + ref


def test_recurrence_matches_hankel_determinants_to_n24():
    # The reference recurrence's start values and coefficients, evaluated
    # at seeded rational points and iterated there, equal the Fraction
    # Hankel determinants of the series at the point for every n = 3..24.
    rng = make_rng(11)
    for _ in range(3):
        (p, x, y), ref = _point_hankel_dets(rng, 24)
        at = lambda v: v.evaluate(p, x, y) if isinstance(v, LaurentPoly3) else v
        assert somos4(24, at) == ref, (p, x, y)


def test_hankel_raw_equals_recurrence_to_n14():
    w = somos4(14)
    for n in range(3, 15):
        assert hankel_raw(n) == w[n - 1], n


def test_doubling_formulas_match_hankel_determinants_to_n24():
    # The doubling formulas of hankel_raw, on Fraction Hankel determinants
    # at seeded rational points, give the determinant of every n = 5..24;
    # hankel_raw itself, evaluated at the first point, does too up to n = 16.
    rng = make_rng(12)
    e = lambda j, m: (j % 2 == 0) - (m - 1)
    for i in range(3):
        (p, x, y), W = _point_hankel_dets(rng, 24)
        d2 = pencil_coeffs().delta2.evaluate(p, x, y)
        w = lambda j: W[j - 1]
        for n in range(5, 25):
            m = n // 2
            if n % 2 == 0:
                got = (2 * d2) ** (2 - m) * w(m) * (w(m + 2) * w(m - 1) ** 2 - w(m - 2) * w(m + 1) ** 2)
            else:
                got = Fraction(1, 2 ** (m - 1)) * (
                    d2 ** e(m, m) * w(m + 2) * w(m) ** 3 - d2 ** e(m + 1, m) * w(m - 1) * w(m + 1) ** 3
                )
            assert got == w(n), (n, p, x, y)
        if i == 0:
            for n in range(3, 17):
                assert hankel_raw(n).evaluate(p, x, y) == w(n), (n, p, x, y)


def _clear_caches():
    for f in (cayley._doubling, cayley._ws, cayley._locus_s, cayley.hankel_raw, cayley.locus):
        f.cache_clear()


def test_cold_loci_kernel_work(kernel_calls):
    # Work, not wall clock: term pairs in the integer kernel for a cold
    # locus(3..12).  Products count len(a) len(b) per _mul, division
    # len(quotient) len(divisor) per _idiv.  Measured 1790 and 203 in
    # (p, x, s); the same route in (p, x, y) made 43278 and 2650, dividing
    # the whole W_n by every divisor's locus 60391 and 20475, the Somos-4
    # quotient 622912 and 244337.
    _clear_caches()
    try:
        for n in range(3, 13):
            locus(n)
    finally:
        _clear_caches()
    work = {"mul": sum(a * b for a, b, _ in kernel_calls["mul"]),
            "div": sum(q * b for _, b, q in kernel_calls["div"])}
    assert 0 < work["mul"] <= 2_100, work
    assert 0 < work["div"] <= 220, work


def test_locus_equals_fraction_reference():
    # the (p, x, s) route equals the (p, x, y) route, coefficients and term
    # order (descending) alike
    for n in range(3, 13):
        assert list(locus(n).canonical.terms.items()) == list(locus_reference(n).terms.items()), n


def test_cold_loci_expand_once_and_decode_no_terms(monkeypatch):
    # A cold locus(3..12) stays in one integer form from the seeds, typed at
    # import, to the canonical polynomial: it decodes no terms view, and
    # each locus(n), n = 3..12, is expanded to (p, x, y) once and divides by
    # its divisors' loci in (p, x, s); with seeds kept in (p, x, y) for
    # n = 3, 4 it made 8 expansions.  With two polynomial types it packed
    # 58 LaurentPoly3s in 12 calls and built 16 views; the Fraction route
    # made 15 unpacks and 7 poly_div_exact calls.  Its text reads the
    # packed keys, so format_poly decodes nothing either.
    calls = {"decode": 0, "expand": 0, "div": 0}
    decode, expand, div = LaurentPoly3._decode, LaurentPoly3.expand_s, polycore.poly_div_exact

    def counted_decode(self):
        calls["decode"] += 1
        return decode(self)

    def counted_expand(self):
        calls["expand"] += 1
        return expand(self)

    def counted_div(a, b):
        calls["div"] += 1
        return div(a, b)

    monkeypatch.setattr(LaurentPoly3, "_decode", counted_decode)
    monkeypatch.setattr(LaurentPoly3, "expand_s", counted_expand)
    monkeypatch.setattr(polycore, "poly_div_exact", counted_div)
    monkeypatch.setattr(cayley, "poly_div_exact", counted_div)
    _clear_caches()
    try:
        for n in range(3, 13):
            polycore.format_poly(locus(n).canonical)
        found = {n: (locus(n).canonical, cayley._locus_s(n)) for n in range(3, 13)}
    finally:
        _clear_caches()
    assert calls == {"decode": 0, "expand": 10, "div": 0}
    # The normal form comes out in (p, x, s), before the one expansion, and
    # is the one the (p, x, y) route gives, key order, widths and shifts
    # too; its source, which specialize and the gates read, is the quotient
    # in (p, x, s) at the same scale, with the same keys.
    for n, (a, raw) in found.items():
        reference = locus_reference(n)
        assert list(a.q.items()) == list(reference.q.items()), n
        assert (a.w, a.shift, a.den) == (reference.w, reference.shift, 1) == (5, 0, 1), n
        (ep, ex, ey), c = reference.leading_term()
        scale = c / raw.expand_s().terms[ep + raw.min_p_exponent(), ex, ey] / raw.den
        src = a._src
        assert list(src.q.items()) == [(k, c * scale) for k, c in raw.q.items()], n
        assert (src.w, src.shift, src.den) == (raw.w, -(min(raw.q) >> 2 * raw.w), 1) == (5, 0, 1), n


def test_library_path_runs_no_series():
    # A fresh interpreter imports poncelet, builds locus(3..12) and
    # hankel_raw(3..12) and runs verify.checks() without one call into the
    # series: the seeds are typed.  Derived from atilde_sequence(3) at
    # import, they left 3 entries in its cache.
    code = ("import poncelet\nfrom poncelet import cayley, verify\n"
            "for n in range(3, 13):\n    cayley.locus(n)\n    cayley.hankel_raw(n)\n"
            "assert all(ok for _, ok in verify.checks())\nprint(cayley._atilde.cache_info().currsize)")
    path = os.pathsep.join(filter(None, [str(Path(cayley.__file__).parents[1]), os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["0"]


def test_ladder_forms_are_reduced():
    # Each W_n in the doubling ladder is kept reduced: gcd(content, den) = 1
    # and its lowest power of p in the shift, so coefficients do not grow
    # with the doubling depth.  Unreduced, W_8 keeps a factor 2 common to
    # its content and den, and W_16 a factor 4.
    _clear_caches()
    for n in range(5, 13):
        f = cayley._ws(n)
        assert f.vars == polycore._PXS, n
        assert math.gcd(f.den, *f.q.values()) == 1, n
        assert min(k >> 2 * f.w for k in f.q) == 0, n


def test_cold_loci_double_each_w_once(monkeypatch):
    # A cold locus(3..12) doubles each W_n, n = 5..12, once: W_5..W_8 serve
    # both their own locus and the formulas of n = 9..12, which read them in
    # (p, x, s).  The (p, x, y) route doubled W_5..W_8 twice, once for
    # locus(n) and once for the hankel_raw(n) the formulas read.
    counts = Counter()
    body = cayley._doubling.__wrapped__

    def counted(n):
        counts[n] += 1
        return body(n)

    _clear_caches()
    monkeypatch.setattr(cayley, "_doubling", lru_cache(maxsize=None)(counted))
    try:
        for n in range(3, 13):
            locus(n)
    finally:
        monkeypatch.undo()
        _clear_caches()
    assert counts == {n: 1 for n in range(5, 13)}, counts


def test_cold_loci_build_no_high_hankel_and_divide_twice(monkeypatch):
    # A cold locus(3..12) builds no W_n in (p, x, y): raw_hankel is computed
    # on access, and the doubling formulas read W_1..W_8 in (p, x, s).  Even
    # n divides only the cofactor X_m, by the loci of the divisors that do
    # not divide m, so the only divisions are by locus(3) at n = 9 and by
    # locus(4) at n = 12, each through its s-form: s and (s + 1) p + x s.
    raw, read, divisors = [], [], []
    raw_hankel, ws, divide = cayley.hankel_raw, cayley._ws, LaurentPoly3.__truediv__

    def counted_raw(n):
        raw.append(n)
        return raw_hankel(n)

    def counted_ws(n):
        read.append(n)
        return ws(n)

    def counted_divide(a, b):
        divisors.append(b)
        return divide(a, b)

    _clear_caches()
    monkeypatch.setattr(cayley, "hankel_raw", counted_raw)
    monkeypatch.setattr(cayley, "_ws", counted_ws)
    monkeypatch.setattr(LaurentPoly3, "__truediv__", counted_divide)
    try:
        loci = {n: locus(n) for n in range(3, 13)}
    finally:
        monkeypatch.undo()
    assert raw == [] and set(read) == set(range(1, 9)), (raw, read)
    assert len(divisors) == 2
    S = LaurentPoly3.var_y()  # the third variable of an s-form
    for k, b, s_form in zip((3, 4), divisors, (S, (S + 1) * P + X * S)):
        assert b == pxs(s_form.terms), k
        assert b.expand_s().canonical() == locus(k).canonical, k
    for n, loc in loci.items():
        assert loc.raw_hankel == hankel_raw(n), n
        assert _sha256(loc.raw_hankel) == HANKEL_RAW_SHA256[n], n


def test_locus_names_a_divisor_that_does_not_divide(monkeypatch):
    divisors = cayley.proper_divisors
    monkeypatch.setattr(cayley, "proper_divisors", lambda n: [5] if n == 12 else divisors(n))
    _clear_caches()
    try:
        with pytest.raises(polycore.NotDivisible, match=r"W_12 .*locus\(5\)"):
            locus(12)
    finally:
        _clear_caches()


def test_locus_names_a_divisor_that_does_not_divide_odd_n(monkeypatch):
    divisors = cayley.proper_divisors
    monkeypatch.setattr(cayley, "proper_divisors", lambda n: [4] if n == 9 else divisors(n))
    _clear_caches()
    try:
        with pytest.raises(polycore.NotDivisible, match=r"W_9 .*locus\(4\)"):
            locus(9)
    finally:
        _clear_caches()


def test_cold_hankel_raw_16_in_bounded_time():
    # The Somos-4 quotient took about 19 s (2-vCPU x86-64, CPython 3.11);
    # W_16 reads W_6..W_10, which need no W_n above 10.
    _clear_caches()
    try:
        with time_limit(3):
            assert len(hankel_raw(16).terms) > len(hankel_raw(12).terms)
    finally:
        _clear_caches()


def test_hankel_raw_bounds():
    with pytest.raises(ValueError):
        hankel_raw(2)


def test_locus_bounds():
    with pytest.raises(ValueError):
        locus(2)
    with pytest.raises(ValueError):
        locus(13)


def test_locus_at_p():
    assert locus_at_p(3, Fraction(1, 2)) == X**2 + Y**2 - 1
    assert locus_at_p(3, Fraction(7)) == X**2 + Y**2 - 1
    q = locus_at_p(4, Fraction(1, 2))
    expected = canonicalize(X**2 + Y**2 + 2 * X * (X**2 + Y**2 - 1))
    assert q == expected
    with pytest.raises(DegenerateParabola):
        locus_at_p(3, Fraction(0))


def _substitute_p_reference(a: LaurentPoly3, p: Fraction) -> LaurentPoly3:
    """a at p term by term in Fractions: the route locus_at_p replaced."""
    out: dict = {}
    for (ep, ex, ey), c in a.terms.items():
        out[(0, ex, ey)] = out.get((0, ex, ey), 0) + c * p**ep
    return LaurentPoly3(out)


def test_locus_at_p_matches_fraction_substitution():
    # the integer restriction against canonicalize of the Fraction sums, at
    # p across the range and signs, integer and not
    rng = make_rng(18)
    ps = [s * Fraction(10) ** e for s in (1, -1) for e in (200, -200)]
    ps += [Fraction(-5, 2), Fraction(1, 3), Fraction(-7, 10**30)]
    ps += [rand_fraction(rng, 10**6, 10**6) or Fraction(1) for _ in range(10)]
    for n in range(3, 13):
        canonical = locus(n).canonical
        for p in ps:
            assert locus_at_p(n, p) == canonicalize(_substitute_p_reference(canonical, p)), (n, p)


def test_locus_at_p_reads_the_packed_form(monkeypatch):
    # locus_at_p sums the canonical form's packed p-coefficients: it reads
    # no terms view, the locus's or its own
    for n in range(3, 13):
        locus(n)
    monkeypatch.setattr(LaurentPoly3, "terms", property(lambda self: pytest.fail("read a terms view")))
    for n in range(3, 13):
        assert locus_at_p(n, Fraction(-3, 7)).q


def test_numeric_evaluation_consistency():
    """The exact Hankel determinants agree with determinants of numerically
    computed sqrt-series coefficients (convolution route), up to the scalar
    power of the leading coefficient."""
    import cmath

    pc = pencil_coeffs()
    rng = make_rng(10)
    h5, h7, h6 = hankel_raw(5), hankel_raw(7), hankel_raw(6)
    for _ in range(100):
        p = Fraction(rng.randint(1, 40), rng.randint(1, 20)) * rng.choice([1, -1])
        x = Fraction(rng.randint(-20, 20), rng.randint(1, 10))
        y = Fraction(rng.randint(-20, 20), rng.randint(1, 10))
        d = [
            complex(c.evaluate(p, x, y))
            for c in (pc.delta2, pc.theta2, pc.theta1, pc.delta1)
        ]
        s = series_sqrt(d, 6)
        a0 = cmath.sqrt(complex(d[0]))
        px, xx, yx = float(p), float(x), float(y)

        det5 = s[2] * s[4] - s[3] ** 2
        ref5 = h5.evaluate(px, xx, yx) / a0**2
        assert abs(det5 - ref5) <= 1e-9 * max(1.0, abs(ref5))

        det6 = s[3] * s[5] - s[4] ** 2
        ref6 = h6.evaluate(px, xx, yx) / a0**2
        assert abs(det6 - ref6) <= 1e-9 * max(1.0, abs(ref6))

        det7 = (
            s[2] * (s[4] * s[6] - s[5] ** 2)
            - s[3] * (s[3] * s[6] - s[4] * s[5])
            + s[4] * (s[3] * s[5] - s[4] ** 2)
        )
        ref7 = h7.evaluate(px, xx, yx) / a0**3
        assert abs(det7 - ref7) <= 1e-9 * max(1.0, abs(ref7))
