"""Poncelet-pair counting, quartic root-shape classification, region labels,
and isoperiodicity detection."""

import cmath
import hashlib
import json
import math
import pickle
import random
from fractions import Fraction

import pytest

from conftest import (
    bench_center,
    bisect_refine,
    cauchy_isolate,
    jordan_j2,
    make_rng,
    rand_center_off_sigma,
    rand_quartic,
    real_root_profile,
    region_value,
)
from poncelet import cayley, classify, polycore, verify
from poncelet.classify import (
    AtFocus,
    Center,
    ExcludedCenter,
    NotQuartic,
    OnLatusRectumLine,
    OnUnitCircle,
    closed_form_roots,
    isoperiodic_n,
    p_polynomial,
    pair_classify,
    rees_classify,
    unique_p_for_4,
)
from poncelet.polycore import RootList, UniPolyR, specialize, sturm_real_roots

F = Fraction


# -- p_polynomial ---------------------------------------------------------------


def test_p_polynomial_examples():
    f = p_polynomial(4, Center(F(2), F(0)))
    # canonical scaling of 4p + 6
    assert f.degree() == 1
    assert -f.coeffs[0] / f.coeffs[1] == F(-3, 2)

    assert p_polynomial(3, Center(F(3, 5), F(4, 5))).is_zero()

    f7 = p_polynomial(7, Center(F(0), F(1, 2)))
    ref = UniPolyR([F(-729, 4096), 0, F(-27, 64), 0, F(1, 4)])
    # equal up to scalar
    scale = f7.coeffs[-1] / ref.coeffs[-1]
    assert f7 == ref.scale(scale)


def test_p_polynomial_degree_is_jordan_j2_over_12_at_centers():
    # The p-degree law holds at every center but the focus: p_polynomial(n, e)
    # has degree J_2(n)/12 for n = 4..12 at 120 seeded centers of the
    # benchmark's three kinds and at rational points of the unit circle,
    # where the n = 3 polynomial vanishes.
    rng = make_rng(41)
    centers = [bench_center(rng, kind) for _ in range(40) for kind in ("small", "large", "near")]
    circle = [(F(3, 5), F(4, 5)), (F(-5, 13), F(12, 13)), (F(8, 17), F(-15, 17)), (F(0), F(-1))]
    for x, y in centers + circle:
        e = Center(x, y)
        for n in range(4, 13):
            assert p_polynomial(n, e).degree() == jordan_j2(n) // 12, (n, x, y)
    assert all(p_polynomial(3, Center(x, y)).is_zero() for x, y in circle)


def test_cold_p_polynomial_decodes_no_terms(monkeypatch):
    # Work, not wall clock: from cold caches, p_polynomial(n, e) for
    # n = 5..12 builds each locus and evaluates it through its (p, x, s)
    # source without decoding one terms view; the (p, x, y) route decoded
    # one per locus.
    decoded = []
    decode = polycore.LaurentPoly3._decode
    monkeypatch.setattr(polycore.LaurentPoly3, "_decode", lambda self: decoded.append(self) or decode(self))
    caches = (cayley._doubling, cayley._ws, cayley._locus_s, cayley.hankel_raw, cayley.locus)
    for f in caches:
        f.cache_clear()
    try:
        e = Center(F(3, 7), F(-2, 5))
        for n in range(5, 13):
            assert not p_polynomial(n, e).is_zero()
    finally:
        for f in caches:
            f.cache_clear()
    assert decoded == []


def test_p_polynomial_degree_bounds():
    # works through n = 12
    f = p_polynomial(12, Center(F(1, 3), F(1, 5)))
    assert not f.is_zero()


# -- quartic classification ------------------------------------------------------


def test_rees_worked_examples():
    s = rees_classify(1, 0, -5, 0, 4)
    assert s.tag == "FourRealSimple"
    s = rees_classify(1, 0, 0, 0, 1)
    assert s.tag == "TwoComplexPairs"
    s = rees_classify(1, 0, 0, 0, 0)
    assert s.tag == "RealQuadruple"


def _quartic(lead, *factors):
    """Coefficients a4..a0 of lead times the product of the factors, each a
    list of coefficients from the constant term up."""
    f = UniPolyR([lead])
    for c in factors:
        f = f * UniPolyR(c)
    return list(reversed(f.coeffs))


@pytest.mark.parametrize("coeffs, tag, d_sign", [
    # every Rees case with disc = 0, from products of its roots
    (_quartic(3, [-F(1, 2), 1], [-F(1, 2), 1], [-F(1, 2), 1], [-F(1, 2), 1]), "RealQuadruple", 0),
    (_quartic(-2, [-1, 1], [-1, 1], [3, 1], [3, 1]), "TwoRealDoubles", 0),
    (_quartic(5, [2, -2, 1], [2, -2, 1]), "ComplexDoublePair", 0),  # (p - 1 -+ i)^2
    # a real double r and p^2 + bp + c with 4c = 3b^2 + 8br + 8r^2: D = 0
    (_quartic(1, [0, 1], [0, 1], [3, 2, 1]), "RealDoubleComplexPair", 0),
    (_quartic(-7, [-1, 1], [-1, 1], [F(19, 4), 1, 1]), "RealDoubleComplexPair", 0),
    (_quartic(2, [-1, 1], [-1, 1], [1, 0, 1]), "RealDoubleComplexPair", 1),
    (_quartic(1, [-2, 1], [-2, 1], [-2, 1], [5, 1]), "RealTripleRealSimple", -1),
    (_quartic(4, [1, 1], [1, 1], [-2, 1], [-F(1, 3), 1]), "RealDoubleTwoRealSimple", -1),
])
def test_rees_every_case_with_a_multiple_root(coeffs, tag, d_sign):
    shape = rees_classify(*coeffs)
    assert (shape.tag, shape.disc_sign, shape.d_sign) == (tag, 0, d_sign)


def test_rees_constructed_shapes():
    # (p-1)^2 (p-2)(p-3)
    coeffs = list(reversed((UniPolyR([-1, 1]) ** 2 * UniPolyR([-2, 1]) * UniPolyR([-3, 1])).coeffs))
    assert rees_classify(*coeffs).tag == "RealDoubleTwoRealSimple"
    # (p-1)^2 (p^2+1)
    coeffs = list(reversed((UniPolyR([-1, 1]) ** 2 * UniPolyR([1, 0, 1])).coeffs))
    assert rees_classify(*coeffs).tag == "RealDoubleComplexPair"
    # (p-1)^3 (p-2)
    coeffs = list(reversed((UniPolyR([-1, 1]) ** 3 * UniPolyR([-2, 1])).coeffs))
    assert rees_classify(*coeffs).tag == "RealTripleRealSimple"
    # (p-1)^2 (p+1)^2
    coeffs = list(reversed((UniPolyR([-1, 1]) ** 2 * UniPolyR([1, 1]) ** 2).coeffs))
    assert rees_classify(*coeffs).tag == "TwoRealDoubles"
    # (p^2+1)^2
    coeffs = list(reversed((UniPolyR([1, 0, 1]) ** 2).coeffs))
    assert rees_classify(*coeffs).tag == "ComplexDoublePair"
    # two real simple + complex pair
    coeffs = list(reversed((UniPolyR([-1, 1]) * UniPolyR([1, 1]) * UniPolyR([1, 0, 1])).coeffs))
    assert rees_classify(*coeffs).tag == "TwoRealTwoComplex"


def test_rees_rejects_degenerate_leading_coefficient():
    with pytest.raises(NotQuartic):
        rees_classify(0, 1, 1, 1, 1)


def test_rees_matches_sturm_ground_truth():
    rng = make_rng(20)
    for _ in range(1000):
        f = rand_quartic(rng)
        shape = rees_classify(*reversed(f.coeffs))
        assert shape.real_root_profile() == real_root_profile(f), f.coeffs


# -- closed-form roots ------------------------------------------------------------


def test_unique_p_for_4():
    assert unique_p_for_4(Center(F(2), F(0))) == F(-3, 2)
    # inside the circle: -x(r-1)/r with r = 1/4
    assert unique_p_for_4(Center(F(1, 2), F(0))) == F(3, 2)
    with pytest.raises(OnLatusRectumLine):
        unique_p_for_4(Center(F(0), F(2)))
    with pytest.raises(AtFocus):
        unique_p_for_4(Center(F(0), F(0)))
    with pytest.raises(OnUnitCircle):
        unique_p_for_4(Center(F(3, 5), F(4, 5)))


def test_roots_5_closed_form_examples():
    a, b = sorted(closed_form_roots(5, Center(F(0), F(2))), key=lambda v: v.real if isinstance(v, complex) else v)
    ref = 3 * math.sqrt(3) / 4
    assert a == pytest.approx(-ref, abs=1e-12)
    assert b == pytest.approx(ref, abs=1e-12)

    a, b = closed_form_roots(5, Center(F(1, 2), F(1, 2)))
    assert a == pytest.approx(0.25, abs=1e-12)
    assert b == pytest.approx(0.25, abs=1e-12)

    a, b = closed_form_roots(5, Center(F(0), F(1, 4)))
    assert isinstance(a, complex) and abs(a.imag) > 0
    assert isinstance(b, complex) and abs(b.imag) > 0

    with pytest.raises(ExcludedCenter):
        closed_form_roots(5, Center(F(0), F(0)))


def test_roots_6_closed_form_examples():
    a, b = sorted(closed_form_roots(6, Center(F(2), F(0))))
    assert a == pytest.approx(-39 / 20, abs=1e-12)
    assert b == pytest.approx(-3 / 4, abs=1e-12)

    a, b = closed_form_roots(6, Center(F(0), F(1, 2)))
    assert isinstance(a, complex) and abs(a.imag) > 0

    with pytest.raises(ExcludedCenter):
        closed_form_roots(6, Center(F(3, 5), F(4, 5)))
    for n in (4, 7):
        with pytest.raises(ValueError):
            closed_form_roots(n, Center(F(2), F(0)))


def test_closed_form_keeps_degenerate_p0():
    # at (1, 2) the 6-gon constant term (3x^2 - y^2 + 1) S^2 vanishes: the
    # closed form keeps p = 0, pair_classify drops it and counts one parabola
    e = Center(F(1), F(2))
    zero, p = closed_form_roots(6, e)
    assert zero == 0.0 and p == pytest.approx(-22 / 15, abs=1e-12)
    r = pair_classify(6, e)
    assert r.count == 1 and r.p_roots.values() == [pytest.approx(-22 / 15, abs=1e-12)]
    # so it does far out on that hyperbola, where b has no exact float
    e = Center(F(2107560), F(3650401))
    zero, p = closed_form_roots(6, e)
    assert zero == 0.0 and p == pytest.approx(pair_classify(6, e).p_roots.values()[0], rel=1e-15)


def test_closed_form_beyond_float_range_coefficients():
    # far out, a, b or the discriminant of the quadratic has no float while
    # both roots do; a root with none raises the named error, as Sturm does
    for e in (Center(F(10**100), F(3)), Center(F(10**80), F(1, 3))):
        for n in (5, 6):
            got, want = sorted(closed_form_roots(n, e)), pair_classify(n, e).p_roots.values()
            assert len(want) == 2 and all(abs(g - w) <= 1e-12 * abs(w) for g, w in zip(got, want)), (n, e)
    with pytest.raises(polycore.PolycoreError, match="beyond the float range"):
        closed_form_roots(5, Center(F(10**200), F(3)))


def test_closed_form_matches_the_float_quadratic_formula():
    # in the float range the integer form gives the roots of the quadratic
    # formula on p_polynomial's coefficients, to 1e-12
    rng = make_rng(21)
    centers = [(F(0), F(2)), (F(1, 2), F(1, 2)), (F(0), F(1, 4)), (F(2), F(0)), (F(0), F(1, 2)), (F(1), F(2))]
    for x, y in centers + [rand_center_off_sigma(rng) for _ in range(50)]:
        for n in (5, 6):
            c0, c1, c2 = p_polynomial(n, Center(x, y)).coeffs
            s = cmath.sqrt(float(c1 * c1 - 4 * c2 * c0))
            b, a = float(c1), float(c2)
            want = ((-b + s) / (2 * a), (-b - s) / (2 * a))
            for g, w in zip(closed_form_roots(n, Center(x, y)), want):
                assert abs(g - w) <= 1e-12 * max(1, abs(w)), (n, x, y)


def test_closed_form_agrees_with_sturm():
    rng = make_rng(21)
    for _ in range(200):
        x, y = rand_center_off_sigma(rng)
        e = Center(x, y)
        for n in (5, 6):
            f = p_polynomial(n, e)
            roots = sturm_real_roots(f, exclude_zero=True)
            vals = closed_form_roots(n, e)
            real_vals = sorted(
                float(v.real if isinstance(v, complex) else v)
                for v in vals
                if not (isinstance(v, complex) and abs(v.imag) > 1e-15)
                and abs(v) > 1e-12  # p = 0 is a degenerate parabola, excluded
            )
            if real_vals:
                got = sorted(set(roots.values()))
                want = sorted(set(real_vals))
                assert len(got) == len(want)
                for g, w in zip(got, want):
                    assert g == pytest.approx(w, abs=1e-9)
            else:
                assert len(roots) == 0


def test_closed_form_matches_printed_radicands():
    # the quadratic formula on p_polynomial's coefficients against the
    # printed forms (-x +- sqrt(gamma5)) S / 2R and
    # (-x (2R + 1) +- sqrt(gamma6)) S / 2R(R + 1), S = R - 1
    rng = make_rng(26)
    for _ in range(300):
        x, y = rand_center_off_sigma(rng)
        r = x * x + y * y
        for n, lin, den in ((5, -x, 2 * r), (6, -x * (2 * r + 1), 2 * r * (r + 1))):
            s = cmath.sqrt(float(region_value(f"gamma{n}", x, y)))
            scale = float((r - 1) / den)
            want = sorted(((float(lin) + s) * scale, (float(lin) - s) * scale), key=lambda v: (v.real, v.imag))
            got = sorted(map(complex, closed_form_roots(n, Center(x, y))), key=lambda v: (v.real, v.imag))
            for g, w in zip(got, want):
                assert abs(g - w) <= 1e-12 * max(1, abs(w)), (n, x, y)


# -- psi values and regions --------------------------------------------------------


def test_psi_examples():
    assert region_value("psi2", F(0), F(0)) == 2  # x^2 - 2y^2 + 2 at the origin
    # psi5 vanishes on the ellipse 2x^2 + y^2 = 1
    assert region_value("psi5", F(2, 3), F(1, 3)) == 0
    assert region_value("psi1", F(0), F(1, 2)) == F(-27, 64)


def test_region_value_matches_polynomial_evaluation():
    # the integer sum against Fraction evaluation of the same polynomial,
    # on centers with unequal denominators and of large height
    rng = make_rng(24)
    polys = verify.region_polys()
    for i in range(40):
        top = 10**6 if i % 2 else 12
        x = F(rng.randint(-top, top), rng.randint(1, top // 2))
        y = F(rng.randint(-top, top), rng.randint(1, top // 2))
        for name, q in polys.items():
            assert region_value(name, x, y) == q.evaluate(0, x, y), (name, x, y)


# The label carried by the sign of each printed region polynomial.
REGION_LABELS = {5: ("Gamma5", "gamma5"), 6: ("Gamma6", "gamma6"), 7: ("R1", "psi1")}


def _psi1_crossings():
    """Pairs of centers within 2**-80 of the curve psi1 = 0, one on each
    side, by exact bisection along x = 1/5 and x = 2/5 between an R1+ and an
    R1- center.  A search of small height found no rational point of the
    curve off Sigma."""
    out = []
    for x in (F(1, 5), F(2, 5)):
        for lo, hi in ((F(0), F(1, 5)), (F(4, 5), F(1))):
            side = region_value("psi1", x, lo) > 0
            assert side != (region_value("psi1", x, hi) > 0)
            for _ in range(80):
                mid = (lo + hi) / 2
                if (region_value("psi1", x, mid) > 0) == side:
                    lo = mid
                else:
                    hi = mid
            out += [(x, lo), (x, hi)]
    return out


def test_region_label_is_the_sign_of_the_printed_polynomial():
    # pair_classify reads the label from the discriminant of the polynomial
    # in p; the reference evaluates the printed polynomial at the center.
    rng = make_rng(25)
    centers = [(F(1, 2), F(1, 2))] + _psi1_crossings()
    for i in range(210):
        top = 10**6 if i % 3 == 2 else 12
        x = F(rng.randint(-top, top), rng.randint(1, top // 2))
        y = F(rng.randint(-top, top), rng.randint(1, top // 2))
        if x * x + y * y not in (0, 1):
            centers.append((x, y))
    assert len(centers) >= 200
    seen = set()
    for x, y in centers:
        for n, (label, name) in REGION_LABELS.items():
            v = region_value(name, x, y)
            want = label + {1: "+", 0: "", -1: "-"}[(v > 0) - (v < 0)]
            assert pair_classify(n, Center(x, y)).region == want, (n, x, y)
            seen.add(want)
    assert {"Gamma5", "Gamma5+", "Gamma5-", "Gamma6+", "Gamma6-", "R1+", "R1-"} <= seen
    # psi1 vanishes at these centers of Sigma, which are excluded
    for x, y in ((F(0), F(0)), (F(0), F(1)), (F(0), F(-1))):
        assert region_value("psi1", x, y) == 0
        assert pair_classify(7, Center(x, y)).region == "Excluded"


def test_pair_classify_specializes_once(monkeypatch):
    # one polynomial per center: the label reads no second polynomial
    calls = [0]

    def counted(a, x, y):
        calls[0] += 1
        return specialize(a, x, y)

    monkeypatch.setattr(classify, "specialize", counted)
    monkeypatch.setattr(polycore, "specialize", counted)
    for n in (5, 6, 7):
        for e in (Center(F(0), F(2)), Center(F(1, 2), F(1, 2)), Center(F(1, 5), F(1, 5)), Center(F(0), F(0))):
            calls[0] = 0
            pair_classify(n, e)
            assert calls[0] == 1, (n, e)


def test_pair_classification_is_a_value():
    # two classifications of one center, and a pickle round trip, are equal
    # and hash alike: p_roots compares its roots, not its identity
    a, b = pair_classify(5, Center(F(0), F(2))), pair_classify(5, Center(F(0), F(2)))
    assert a is not b and a.p_roots is not b.p_roots
    for other in (b, pickle.loads(pickle.dumps(a))):
        assert other == a and hash(other) == hash(a) and other.p_roots == a.p_roots
    roots = a.p_roots.roots
    assert a.p_roots == RootList(list(roots)) and a.p_roots != RootList(roots[1:])
    assert a.p_roots != roots and a.p_roots.__eq__(roots) is NotImplemented
    assert a != pair_classify(5, Center(F(0), F(3)))


def test_roots_match_references_at_benchmark_centers():
    # End to end at the benchmark's three center kinds and n = 5..12: the
    # reported roots are those of Descartes isolation from the root of the
    # Cauchy tree and of plain bisection (conftest), with the p = 0 root
    # dropped and the float of the midpoint.  A polynomial whose reference
    # intervals touch is left out: there the overlap rounds refine further.
    rng = make_rng(41)
    roots = skipped = 0
    for kind in ("small", "large", "near"):
        for _ in range(5):
            e = Center(*bench_center(rng, kind))
            for n in range(5, 13):
                f = p_polynomial(n, e)
                c = polycore._int_coeffs(f)
                assert polycore._squarefree_mod(c), (n, e)
                ivals = [bisect_refine(c, lo, hi, polycore.ROOT_WIDTH) for lo, hi in cauchy_isolate(c)]
                if any(hi > lo for (_, hi), (lo, _) in zip(ivals, ivals[1:])):
                    skipped += 1
                    continue
                want = [(float((lo + hi) / 2), 1, (lo, hi)) for lo, hi in ivals if c[0] or not lo <= 0 <= hi]
                assert sturm_real_roots(f, exclude_zero=True).roots == want, (n, e)
                roots += len(want)
    assert roots >= 300 and skipped <= 2


def test_pair_classify_examples():
    r = pair_classify(5, Center(F(0), F(2)))
    assert r.count == 2
    assert r.region == "Gamma5+"
    ref = 3 * math.sqrt(3) / 4
    assert sorted(v for v, _, _ in r.p_roots) == pytest.approx([-ref, ref], abs=1e-9)

    r = pair_classify(5, Center(F(1, 2), F(1, 2)))
    assert r.count == 1
    assert r.region == "Gamma5"
    (val, mult, _) = next(iter(r.p_roots))
    assert mult == 2 and val == pytest.approx(0.25, abs=1e-10)

    r = pair_classify(7, Center(F(0), F(1, 2)))
    assert r.count == 2
    assert r.region == "R1-"
    assert sorted(abs(v) for v, _, _ in r.p_roots) == pytest.approx(
        [1.42724, 1.42724], abs=1e-4
    )

    r = pair_classify(4, Center(F(2), F(0)))
    assert r.count == 1
    assert not r.isoperiodic

    r = pair_classify(3, Center(F(3, 5), F(4, 5)))
    assert r.isoperiodic
    assert r.count == 0

    r = pair_classify(5, Center(F(0), F(0)))
    assert r.region == "Excluded"


def test_pair_classify_json_schema():
    d = pair_classify(5, Center(F(0), F(2))).to_dict()
    assert d["n"] == 5
    assert d["center"] == ["0/1", "2/1"]
    assert d["count"] == 2
    assert d["isoperiodic"] is False
    assert all(set(r) == {"p", "multiplicity"} for r in d["roots"])


def test_latus_rectum_centers_have_no_4_pair():
    for t in (F(1, 2), F(2), F(-3), F(7, 5)):
        f = p_polynomial(4, Center(F(0), t))
        if f.is_zero():
            pytest.fail("unexpected isoperiodic center")
        roots = sturm_real_roots(f, exclude_zero=True)
        assert len(roots) == 0


# -- isoperiodicity ----------------------------------------------------------------


def test_isoperiodic_examples():
    assert isoperiodic_n(Center(F(3, 5), F(4, 5))) == 3
    assert isoperiodic_n(Center(F(0), F(0))) == 4
    assert isoperiodic_n(Center(F(0), F(1, 2))) is None
    assert isoperiodic_n(Center(F(2), F(0))) is None


def test_isoperiodic_consistency_with_polynomials():
    rng = make_rng(22)
    # on the unit circle: the 3-locus vanishes identically
    for m, k in ((2, 1), (3, 2), (4, 1), (5, 2), (7, 4)):
        den = m * m + k * k
        e = Center(F(m * m - k * k, den), F(2 * m * k, den))
        assert e.on_unit_circle()
        assert isoperiodic_n(e) == 3
        assert p_polynomial(3, e).is_zero()
    # off Sigma nothing vanishes identically
    for _ in range(25):
        x, y = rand_center_off_sigma(rng)
        e = Center(x, y)
        assert isoperiodic_n(e) is None
        for n in (5, 6, 7):
            assert not p_polynomial(n, e).is_zero()


# -- region coverage for the 7-gon ---------------------------------------------------


def test_lemma_d_negative_off_sigma():
    rng = make_rng(23)
    from conftest import quartic_D, quartic_disc_expanded, quartic_P

    for _ in range(100):
        x, y = rand_center_off_sigma(rng)
        f = p_polynomial(7, Center(x, y))
        assert f.degree() == 4
        A, B, C, D, E = reversed(f.coeffs)
        assert quartic_D(A, B, C, D, E) < 0
        if quartic_disc_expanded(A, B, C, D, E) >= 0:
            assert quartic_P(A, B, C, D, E) < 0


def test_seven_gon_region_counts():
    # scan a rational grid; exact signs decide the predicted count
    hits = {2: 0, 4: 0}
    for ix in range(-6, 7):
        for iy in range(0, 7):
            e = Center(F(ix, 7), F(iy, 7))
            if e.in_sigma():
                continue
            psi1 = region_value("psi1", e.x, e.y)
            if psi1 == 0:
                continue
            inside = e.norm2() < 1
            f = p_polynomial(7, e)
            roots = sturm_real_roots(f, exclude_zero=True)
            distinct = len(roots)
            if psi1 > 0 and inside:
                assert distinct == 4, (e.x, e.y)
                hits[4] += 1
            else:
                assert distinct == 2, (e.x, e.y)
                hits[2] += 1
    assert hits[4] >= 3
    assert hits[2] >= 30


# -- output gate -----------------------------------------------------------------

# SHA-256 of the JSON that pair_classify gives at n = 3..7 on the centers
# below, captured before the region polynomials had one definition.  Any
# change to a region label, root value, multiplicity or count changes it.
CLASSIFY_GATE_SHA256 = "11f6ac83c5c09efff738e4fdea1841f62cae4cf003caf851e1b063c46793686a"


def _classify_gate_centers():
    """The Gamma5 = 0 point, the psi5 ellipse, the focus, the unit circle,
    the worked points, a grid that crosses R1+, and seeded random centers, a
    third of them of large height.  Fixed seed, so PONCELET_SEED does not
    move the digest."""
    out = [
        (F(1, 2), F(1, 2)), (F(2, 3), F(1, 3)), (F(0), F(0)), (F(1), F(0)),
        (F(3, 5), F(4, 5)), (F(0), F(1, 2)), (F(0), F(2)), (F(2), F(0)),
    ]
    out += [(F(ix, 5), F(iy, 5)) for ix in range(-5, 6) for iy in range(0, 6)]
    rng = random.Random(20261019)
    for i in range(30):
        top = 10**6 if i % 3 == 2 else 12
        out.append((
            F(rng.randint(-top, top), rng.randint(1, top // 2)),
            F(rng.randint(-top, top), rng.randint(1, top // 2)),
        ))
    return out


def test_pair_classify_json_byte_identical():
    h = hashlib.sha256()
    regions = set()
    for x, y in _classify_gate_centers():
        for n in range(3, 8):
            d = pair_classify(n, Center(x, y)).to_dict()
            regions.add(d["region"])
            h.update(json.dumps(d).encode())
            h.update(b"\n")
    # every label but Gamma6 and R1, which no center here lies on
    assert regions == {
        "S1", "offS1", "focus", "latus-rectum", "generic", "Excluded",
        "Gamma5+", "Gamma5", "Gamma5-", "Gamma6+", "Gamma6-", "R1+", "R1-",
    }
    assert h.hexdigest() == CLASSIFY_GATE_SHA256
