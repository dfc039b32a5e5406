"""Acceptance gate: the end-to-end criteria for the library, each printing a
single pass/fail line.  Run with `pytest -v tests/test_acceptance.py` (add -s
to see the lines as they print)."""

import math
from fractions import Fraction

import pytest

from conftest import (
    ACCEPTANCE_REPORT,
    make_rng,
    quartic_D,
    quartic_disc_expanded,
    quartic_P,
    rand_center_off_sigma,
    rand_quartic,
    real_root_profile,
    region_value,
)
from poncelet import verify
from poncelet.cayley import hankel_raw, locus, locus_at_p
from poncelet.classify import Center, p_polynomial, rees_classify
from poncelet.geometry import Circle, Parabola, closes_after
from poncelet.painleve import (
    hitchin_residual,
    n4_relation_residual,
    okamoto,
    solution_n3,
    solution_n4,
)
from poncelet.polycore import (
    LaurentPoly3,
    canonicalize,
    poly_div_exact,
    sturm_real_roots,
)

F = Fraction
X = LaurentPoly3.var_x()
Y = LaurentPoly3.var_y()


def report(name: str, ok: bool) -> None:
    line = f"{'PASS' if ok else 'FAIL'}: {name}"
    print(line)
    ACCEPTANCE_REPORT.append(line)
    assert ok, name


def test_criterion_01_golden_locus_identities():
    ok = all(locus(n).canonical == verify.paper_locus(n) for n in range(3, 8))
    report("criterion 1: golden locus identities n=3..7 (exact)", ok)


def test_criterion_02_half_p_specializations():
    q3 = locus_at_p(3, F(1, 2))
    q4 = locus_at_p(4, F(1, 2))
    ok = q3 == X**2 + Y**2 - 1 and q4 == canonicalize(
        X**2 + Y**2 + 2 * X * (X**2 + Y**2 - 1)
    )
    report("criterion 2: specializations at p=1/2 (exact)", ok)


def test_criterion_03_hexagon_factorization():
    quotient = poly_div_exact(hankel_raw(6), hankel_raw(3))
    ok = canonicalize(quotient) == verify.paper_locus(6)
    report("criterion 3: 6-gon determinant factors through the triangle locus", ok)


def test_criterion_04_discriminant_identities():
    results = dict(verify.checks())
    prefixes = ("discriminant of", "P of", "D of", "O of", "R of")
    names = [k for k in results if k.startswith(prefixes)]
    ok = len(names) == 7 and all(results[k] for k in names)
    report("criterion 4: discriminant/invariant factorizations (exact)", ok)


def test_criterion_05_oracle_cross_validation():
    rng = make_rng(100)
    confirmed = 0
    ok = True
    for _ in range(100):
        x, y = rand_center_off_sigma(rng)
        circle = Circle((float(x), float(y)))
        for n in (3, 4, 5, 6):
            f = p_polynomial(n, Center(x, y))
            if f.is_zero() or f.degree() == 0:
                continue
            for val in sturm_real_roots(f, exclude_zero=True).values():
                if not closes_after(circle, Parabola(val), n):
                    ok = False
                confirmed += 1
    # non-root samples must fail to close
    rejected = 0
    while rejected < 100:
        x, y = rand_center_off_sigma(rng)
        n = rng.choice([3, 4, 5, 6])
        p = F(rng.randint(3, 25), 10) * rng.choice([1, -1])
        q = locus(n).canonical
        if abs(q.evaluate(float(p), float(x), float(y))) < 1e-3:
            continue
        if closes_after(Circle((float(x), float(y))), Parabola(float(p)), n):
            ok = False
        rejected += 1
    report(
        f"criterion 5: oracle/Cayley agreement ({confirmed} roots closed, "
        f"{rejected} non-roots rejected)",
        ok and confirmed > 0,
    )


def test_criterion_06_isoperiodicity():
    ok = True
    p_set = [F(1, 2), F(-1, 2), F(1), F(-1), F(3), F(-3)]
    pyth = []
    m, k = 2, 1
    while len(pyth) < 20:
        if math.gcd(m, k) == 1 and (m - k) % 2 == 1:
            den = m * m + k * k
            pyth.append(Center(F(m * m - k * k, den), F(2 * m * k, den)))
            pyth.append(Center(F(2 * m * k, den), F(m * m - k * k, den)))
        k += 1
        if k >= m:
            m, k = m + 1, 1
    for e in pyth[:20]:
        if not e.on_unit_circle() or not p_polynomial(3, e).is_zero():
            ok = False
        circle = Circle((float(e.x), float(e.y)))
        for p in p_set:
            if not closes_after(circle, Parabola(float(p)), 3):
                ok = False
    # the focus is 4-isoperiodic
    if not p_polynomial(4, Center(F(0), F(0))).is_zero():
        ok = False
    for p in p_set:
        if not closes_after(Circle((0.0, 0.0)), Parabola(float(p)), 4):
            ok = False
    # no isoperiodicity for n = 5, 6, 7 off Sigma
    rng = make_rng(101)
    for _ in range(50):
        x, y = rand_center_off_sigma(rng)
        for n in (5, 6, 7):
            if p_polynomial(n, Center(x, y)).is_zero():
                ok = False
    report("criterion 6: isoperiodicity (3-gon on S1, 4-gon at focus, none else)", ok)


def test_criterion_07_closed_form_roots():
    ok = True
    # E = (2,0): unique 4-gon parabola p = -3/2
    roots = sturm_real_roots(p_polynomial(4, Center(F(2), F(0))), exclude_zero=True)
    vals = roots.values()
    ok &= len(vals) == 1 and abs(vals[0] + 1.5) < 1e-9
    ok &= closes_after(Circle((2.0, 0.0)), Parabola(-1.5), 4)
    # E = (0,2): 5-gon parabolas +-3*sqrt(3)/4
    ref = 3 * math.sqrt(3) / 4
    roots = sturm_real_roots(p_polynomial(5, Center(F(0), F(2))), exclude_zero=True)
    vals = sorted(roots.values())
    ok &= len(vals) == 2 and abs(vals[0] + ref) < 1e-9 and abs(vals[1] - ref) < 1e-9
    ok &= closes_after(Circle((0.0, 2.0)), Parabola(ref), 5)
    ok &= closes_after(Circle((0.0, 2.0)), Parabola(-ref), 5)
    # E = (1/2,1/2): tangential double root p = 1/4
    roots = sturm_real_roots(
        p_polynomial(5, Center(F(1, 2), F(1, 2))), exclude_zero=True
    )
    entries = list(roots)
    ok &= len(entries) == 1 and entries[0][1] == 2 and abs(entries[0][0] - 0.25) < 1e-9
    ok &= closes_after(Circle((0.5, 0.5)), Parabola(0.25), 5)
    report("criterion 7: closed-form roots confirmed by Sturm and the oracle", ok)


def test_criterion_08_rees_classifier():
    rng = make_rng(102)
    ok = rees_classify(1, 0, -5, 0, 4).tag == "FourRealSimple"
    ok &= rees_classify(1, 0, 0, 0, 1).tag == "TwoComplexPairs"
    ok &= rees_classify(1, 0, 0, 0, 0).tag == "RealQuadruple"
    agree = 0
    for _ in range(1000):
        f = rand_quartic(rng)
        shape = rees_classify(*reversed(f.coeffs))
        if shape.real_root_profile() == real_root_profile(f):
            agree += 1
        else:
            ok = False
    report(f"criterion 8: quartic shape classifier ({agree}/1000 agree with Sturm)", ok)


def test_criterion_09_seven_gon_global_signs():
    rng = make_rng(103)
    ok = True
    for _ in range(500):
        x, y = rand_center_off_sigma(rng)
        f = p_polynomial(7, Center(x, y))
        if f.degree() != 4:
            ok = False
            continue
        E_, D_, C_, B_, A_ = f.coeffs
        if quartic_D(A_, B_, C_, D_, E_) >= 0:
            ok = False
        if quartic_disc_expanded(A_, B_, C_, D_, E_) >= 0 and quartic_P(A_, B_, C_, D_, E_) >= 0:
            ok = False
    report("criterion 9: 7-gon quartic has D < 0 (and P < 0 when Disc >= 0)", ok)


def test_criterion_10_painleve_families():
    ok = True
    for p in (1.0, 2.0, 5.0, -5.0, -6.0):
        pt = solution_n3(p)
        ok &= pt.residual_y0 < 1e-7 and pt.residual_y < 1e-7
        ok &= hitchin_residual(pt.x, pt.y) < 1e-8
        ok &= abs(okamoto(pt.y0, -p / 3, pt.x) - pt.y) < 1e-9
    for p in (2.5, 3.0, 4.0, -3.0):
        pt = solution_n4(p)
        ok &= pt.residual_y0 < 1e-7 and pt.residual_y < 1e-7
        ok &= n4_relation_residual(pt.x, pt.y) < 1e-9
        ok &= abs(okamoto(pt.y0, p * p / 2, pt.x) - pt.y) < 1e-9
    report("criterion 10: Painleve VI residuals, algebraic relations, Okamoto", ok)


def test_criterion_11_seven_gon_region_counts():
    ok = True
    two = four = 0
    for ix in range(-5, 6):
        for iy in range(0, 6):
            e = Center(F(ix, 5), F(iy, 5))
            if e.in_sigma():
                continue
            psi1 = region_value("psi1", e.x, e.y)
            if psi1 == 0:
                continue
            distinct = len(sturm_real_roots(p_polynomial(7, e), exclude_zero=True))
            if psi1 > 0 and e.norm2() < 1:
                four += 1
                if distinct != 4:
                    ok = False
            else:
                two += 1
                if distinct != 2:
                    ok = False
    ok &= four >= 5 and two >= 20
    # the worked point E=(0,1/2)
    vals = sorted(
        sturm_real_roots(
            p_polynomial(7, Center(F(0), F(1, 2))), exclude_zero=True
        ).values()
    )
    ok &= len(vals) == 2
    ok &= abs(abs(vals[0]) - 1.42724) < 1e-4 and abs(abs(vals[1]) - 1.42724) < 1e-4
    report(
        f"criterion 11: 7-gon root counts by region ({four} quad, {two} pair centers)",
        ok,
    )
