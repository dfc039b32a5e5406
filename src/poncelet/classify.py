"""Pair-existence decisions for a center E and n: root counting and
location in p, region labels, Rees quartic classification, isoperiodicity.

Every answer at a center is read from the n-gon polynomial in p there
(`p_polynomial`): its roots are the parabolas, its discriminant's sign is
the region label through the factorizations in `DISCRIMINANT_FACTORS`,
its coefficients give the closed forms, and it vanishes identically at the
isoperiodic centers.  All region and sign decisions are exact; floats
appear only in reported root values.
"""

from __future__ import annotations

import math
from fractions import Fraction

from ._record import record
from .cayley import locus
from .polycore import (
    RootList,
    UniPolyR,
    _as_fraction,
    _discriminant,
    _discriminant_sign,
    _int_coeffs,
    _quartic_forms,
    _root_float,
    specialize,
    sturm_real_roots,
)

Scalar = Fraction | int


class ClassifyError(Exception):
    pass


class NotQuartic(ClassifyError):
    pass


class ExcludedCenter(ClassifyError):
    pass


class OnLatusRectumLine(ClassifyError):
    pass


class OnUnitCircle(ClassifyError):
    pass


class AtFocus(ClassifyError):
    pass


@record
class Center:
    """A rational center; x and y must be int or Fraction (TypeError
    otherwise), so no float or text reaches an exact decision."""

    x: Fraction
    y: Fraction

    def __init__(self, x: Scalar, y: Scalar):
        object.__setattr__(self, "x", _as_fraction(x))
        object.__setattr__(self, "y", _as_fraction(y))

    def norm2(self) -> Fraction:
        return self.x * self.x + self.y * self.y

    def _s_num(self) -> int:
        """S = x^2 + y^2 - 1 times the positive square of the product of
        the denominators, in integers: S's sign, 0 on the unit circle."""
        a, b, c, d = self.x.numerator, self.x.denominator, self.y.numerator, self.y.denominator
        return (a * d) ** 2 + (c * b) ** 2 - (b * d) ** 2

    def on_unit_circle(self) -> bool:
        return not self._s_num()

    def is_focus(self) -> bool:
        return self.x == 0 and self.y == 0

    def in_sigma(self) -> bool:
        """Sigma = unit circle around the focus, plus the focus itself."""
        return self.on_unit_circle() or self.is_focus()


def p_polynomial(n: int, e: Center) -> UniPolyR:
    """The locus polynomial specialized at the center; may be zero."""
    return specialize(locus(n).canonical, e.x, e.y)


# -- Rees quartic classification ---------------------------------------------

@record
class QuarticShape:
    tag: str
    disc_sign: int
    p_sign: int
    d_sign: int
    r_sign: int
    o_sign: int

    def real_root_profile(self) -> list[int]:
        """Multiplicities of the real roots, sorted ascending."""
        return {
            "FourRealSimple": [1, 1, 1, 1],
            "TwoRealTwoComplex": [1, 1],
            "TwoComplexPairs": [],
            "RealDoubleTwoRealSimple": [1, 1, 2],
            "RealDoubleComplexPair": [2],
            "RealTripleRealSimple": [1, 3],
            "TwoRealDoubles": [2, 2],
            "ComplexDoublePair": [],
            "RealQuadruple": [4],
        }[self.tag]


def _sign(v: Fraction) -> int:
    return (v > 0) - (v < 0)


def rees_classify(a4: Scalar, a3: Scalar, a2: Scalar, a1: Scalar, a0: Scalar) -> QuarticShape:
    """Root structure of a real quartic from exact signs of its discriminant
    and the auxiliary quantities P, D, R, O (`_quartic_forms`: 27 disc, 3 D)."""
    A, B, C, D, E = (Fraction(v) for v in (a4, a3, a2, a1, a0))
    if A == 0:
        raise NotQuartic("leading coefficient must be nonzero")
    disc, P, Dq, O, R = _quartic_forms(A, B, C, D, E)
    signs = (_sign(disc), _sign(P), _sign(Dq), _sign(R), _sign(O))
    if disc < 0:
        return QuarticShape("TwoRealTwoComplex", *signs)
    if disc > 0:
        if P < 0 and Dq < 0:
            return QuarticShape("FourRealSimple", *signs)
        return QuarticShape("TwoComplexPairs", *signs)
    # disc == 0: a multiple zero exists.
    if Dq == 0:
        if O == 0:
            return QuarticShape("RealQuadruple", *signs)
        if P < 0:
            return QuarticShape("TwoRealDoubles", *signs)
        if P > 0 and R == 0:
            return QuarticShape("ComplexDoublePair", *signs)
        if P > 0 and O > 0 and R != 0:
            return QuarticShape("RealDoubleComplexPair", *signs)
        raise ClassifyError("quartic escaped the Rees case table")
    if P < 0 and O == 0:
        return QuarticShape("RealTripleRealSimple", *signs)
    if P < 0 and Dq < 0 and O > 0:
        return QuarticShape("RealDoubleTwoRealSimple", *signs)
    if (P <= 0 and Dq > 0) or (P > 0 and O > 0 and (Dq < 0 or R != 0)):
        return QuarticShape("RealDoubleComplexPair", *signs)
    raise ClassifyError("quartic escaped the Rees case table")


# -- closed-form roots --------------------------------------------------------


def unique_p_for_4(e: Center) -> Fraction:
    """The single parabola parameter pairing with the circle for n = 4: the
    root of the linear p_polynomial(4, e)."""
    if e.is_focus():
        raise AtFocus("every parabola pairs with the focus-centered circle")
    if e.x == 0:
        raise OnLatusRectumLine("no 4-Poncelet pair off the focus on x = 0")
    if e.on_unit_circle():
        raise OnUnitCircle("centers on the unit circle admit only 3-gons")
    c0, c1 = p_polynomial(4, e).coeffs
    return -c0 / c1


def closed_form_roots(n: int, e: Center) -> tuple[complex | float, complex | float]:
    """Both parabola parameters for n = 5 or 6, (-b + sqrt(d)) / 2a and
    (-b - sqrt(d)) / 2a for the quadratic p_polynomial(n, e) = a p^2 + b p + c
    of discriminant d; complex where d < 0.  Where c vanishes the pair keeps
    the degenerate p = 0, which `pair_classify` drops from its roots and
    count: at n = 6, c = (3x^2 - y^2 + 1) S^2 with S = x^2 + y^2 - 1, so at
    (1, 2) the pair is (0.0, -22/15) and the count is 1."""
    if n not in (5, 6):
        raise ValueError("the quadratic closed form covers n = 5 and 6")
    if e.in_sigma():
        raise ExcludedCenter("center in Sigma is excluded for n >= 5")
    c = _int_coeffs(p_polynomial(n, e))
    b, a, d = c[1], c[2], _discriminant(c)
    # sqrt(d) is the one float, taken on d / 4**k, which has one.  q adds two
    # terms of one sign, so neither root q / a nor c / q cancels: p = 0 stays 0.
    k = max(0, abs(d).bit_length() // 2 - 500)
    s = Fraction(math.sqrt(abs(d) / 4**k)) * 2**k
    if d < 0:
        re, im = _root_float(Fraction(-b, 2 * a)), _root_float(s / (2 * a))
        return complex(re, im), complex(re, -im)
    q = -(b + (s if b >= 0 else -s)) / 2
    near, far = c[0] / q if q else q, q / a
    return tuple(map(_root_float, (near, far) if b >= 0 else (far, near)))


def isoperiodic_n(e: Center) -> int | None:
    """The n whose polynomial in p vanishes identically at the center, so
    that every parabola pairs with the circle: 3 on the unit circle, 4 at
    the focus, None otherwise.  The paper proves that no other n admits an
    isoperiodic family, so only n = 3 and 4 are tried."""
    return next((n for n in (3, 4) if p_polynomial(n, e).is_zero()), None)


# -- classification driver ----------------------------------------------------


@record
class PairClassification:
    n: int
    center: Center
    p_roots: RootList
    region: str
    count: int
    isoperiodic: bool

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "center": [
                f"{self.center.x.numerator}/{self.center.x.denominator}",
                f"{self.center.y.numerator}/{self.center.y.denominator}",
            ],
            "region": self.region,
            "roots": [
                {"p": value, "multiplicity": mult} for value, mult, _ in self.p_roots
            ],
            "count": self.count,
            "isoperiodic": self.isoperiodic,
        }


# The n that pair_classify and the region labels cover.
CLASSIFY_N = range(3, 8)

# For n = 5..7, (label, name, c, r, s): the discriminant of the n-gon
# polynomial in p is c * R**r * S**s times the printed region polynomial
# `name`, R = x^2 + y^2 and S = R - 1, whose sign the label carries.
# verify checks each factorization; the labels read it backwards.
DISCRIMINANT_FACTORS = {
    5: ("Gamma5", "gamma5", 16, 0, 2),
    6: ("Gamma6", "gamma6", 16, 0, 2),
    7: ("R1", "psi1", -65536, 6, 15),
}


def _region_label(n: int, e: Center, f: UniPolyR) -> str:
    s = e._s_num()  # S's sign, computed once
    if n == 3:
        return "offS1" if s else "S1"
    if n == 4:
        if e.is_focus():
            return "focus"
        if e.x == 0:
            return "latus-rectum"
        return "generic" if s else "S1"
    if not s or e.is_focus():
        return "Excluded"
    # Off Sigma R > 0, S != 0 and the leading coefficient 4R, 4R(R + 1) or
    # 16R^3 is not 0.  f's integer form is f times a positive scale, which
    # multiplies the discriminant by a positive power of it.
    label, _, c, _, k = DISCRIMINANT_FACTORS[n]
    sign = _discriminant_sign(_int_coeffs(f)) * _sign(c) * _sign(s) ** k
    return label + {1: "+", 0: "", -1: "-"}[sign]


def pair_classify(n: int, e: Center) -> PairClassification:
    """Count and locate the parabolas pairing with the circle at center e.

    A double root counts as one parabola.  For n = 5..7 the region label is
    read from the discriminant of the polynomial whose roots are counted.
    """
    if n not in CLASSIFY_N:
        raise ValueError(f"pair_classify covers n = {CLASSIFY_N[0]}..{CLASSIFY_N[-1]}")
    f = p_polynomial(n, e)
    region = _region_label(n, e, f)
    if f.is_zero():
        return PairClassification(n, e, RootList([]), region, 0, True)
    roots = sturm_real_roots(f, exclude_zero=True)
    return PairClassification(n, e, roots, region, len(roots), False)
