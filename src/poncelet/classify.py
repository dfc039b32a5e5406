"""Pair-existence decisions for a center E and n: root counting and
location in p, region labels, Rees quartic classification, isoperiodicity.

All region and sign decisions use exact rational arithmetic; floats appear
only in reported root values.  The region polynomials (gamma5, gamma6 and
psi1..psi5) are defined once, in `region_polys`; region labels, the
closed-form radicands and the identities in `verify` all use that
definition.  The locus polynomial and the region polynomials are both
evaluated at the center by `polycore.specialize`, the one exact evaluator
at a rational point.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType
from typing import Mapping

from .cayley import locus
from .polycore import (
    LaurentPoly3,
    RootList,
    UniPolyR,
    quartic_D,
    quartic_O,
    quartic_P,
    quartic_R,
    quartic_disc,
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


@dataclass(frozen=True)
class Center:
    x: Fraction
    y: Fraction

    def __post_init__(self):
        object.__setattr__(self, "x", Fraction(self.x))
        object.__setattr__(self, "y", Fraction(self.y))

    def norm2(self) -> Fraction:
        return self.x * self.x + self.y * self.y

    def on_unit_circle(self) -> bool:
        return self.norm2() == 1

    def is_focus(self) -> bool:
        return self.x == 0 and self.y == 0

    def in_sigma(self) -> bool:
        """Sigma = unit circle around the focus, plus the focus itself."""
        return self.on_unit_circle() or self.is_focus()


def p_polynomial(n: int, e: Center) -> UniPolyR:
    """The locus polynomial specialized at the center; may be zero."""
    return specialize(locus(n).canonical, e.x, e.y)


@lru_cache(maxsize=None)
def region_polys() -> Mapping[str, LaurentPoly3]:
    """The polynomials in (x, y) whose signs split the plane of centers, as
    printed: gamma5 and gamma6 are the center-dependent factors of the
    discriminants of the 5- and 6-gon quadratics in p; psi1..psi5 those of
    the discriminant and of the invariants P, D, O, R of the 7-gon quartic.

    Built on first use: building them costs milliseconds, which importing
    the package should not.
    """
    x2, y2 = LaurentPoly3.var_x() ** 2, LaurentPoly3.var_y() ** 2
    r = x2 + y2
    return MappingProxyType({
        "gamma5": r**2 - y2,
        "gamma6": r**3 - y2,
        "psi1": (
            16 * r**6
            - x2**5 - 71 * x2**4 * y2 + x2**4 - 247 * x2**3 * y2**2
            + 43 * x2**3 * y2 - 325 * x2**2 * y2**3 + 108 * x2**2 * y2**2
            - 23 * x2**2 * y2 - 188 * x2 * y2**4 + 91 * x2 * y2**3
            - 2 * x2 * y2**2 + 3 * x2 * y2 - 40 * y2**5 + 25 * y2**4
            + 5 * y2**3 - 5 * y2**2 - y2
        ),
        "psi2": x2 - 2 * y2 + 2,
        "psi3": 4 * r**3 - 7 * r**2 + 2 * r + 3 * x2**2 + 1,
        # 12*x^2, not 12*y^2: forced by the O invariant of the n=7 quartic.
        "psi4": 12 * r**2 - 13 * r + 12 * x2 + 1,
        "psi5": 2 * x2 + y2 - 1,
    })


def region_value(name: str, e: Center) -> Fraction:
    """Exact value of the named region polynomial at the center."""
    coeffs = specialize(region_polys()[name], e.x, e.y).coeffs
    return coeffs[0] if coeffs else Fraction(0)


# -- Rees quartic classification ---------------------------------------------

@dataclass(frozen=True)
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
    and the auxiliary quantities P, D, R, O."""
    A, B, C, D, E = (Fraction(v) for v in (a4, a3, a2, a1, a0))
    if A == 0:
        raise NotQuartic("leading coefficient must be nonzero")
    disc = quartic_disc(A, B, C, D, E)
    P = quartic_P(A, B, C, D, E)
    Dq = quartic_D(A, B, C, D, E)
    R = quartic_R(A, B, C, D, E)
    O = quartic_O(A, B, C, D, E)
    signs = dict(
        disc_sign=_sign(disc), p_sign=_sign(P), d_sign=_sign(Dq),
        r_sign=_sign(R), o_sign=_sign(O),
    )
    if disc < 0:
        return QuarticShape("TwoRealTwoComplex", **signs)
    if disc > 0:
        if P < 0 and Dq < 0:
            return QuarticShape("FourRealSimple", **signs)
        return QuarticShape("TwoComplexPairs", **signs)
    # disc == 0: a multiple zero exists.
    if Dq == 0:
        if O == 0:
            return QuarticShape("RealQuadruple", **signs)
        if P < 0:
            return QuarticShape("TwoRealDoubles", **signs)
        if P > 0 and R == 0:
            return QuarticShape("ComplexDoublePair", **signs)
        if P > 0 and O > 0 and R != 0:
            return QuarticShape("RealDoubleComplexPair", **signs)
        raise ClassifyError("quartic escaped the Rees case table")
    if P < 0 and O == 0:
        return QuarticShape("RealTripleRealSimple", **signs)
    if P < 0 and Dq < 0 and O > 0:
        return QuarticShape("RealDoubleTwoRealSimple", **signs)
    if (P <= 0 and Dq > 0) or (P > 0 and O > 0 and (Dq < 0 or R != 0)):
        return QuarticShape("RealDoubleComplexPair", **signs)
    raise ClassifyError("quartic escaped the Rees case table")


# -- closed-form roots --------------------------------------------------------


def unique_p_for_4(e: Center) -> Fraction:
    """The single parabola parameter pairing with the circle for n = 4."""
    if e.is_focus():
        raise AtFocus("every parabola pairs with the focus-centered circle")
    if e.x == 0:
        raise OnLatusRectumLine("no 4-Poncelet pair off the focus on x = 0")
    if e.on_unit_circle():
        raise OnUnitCircle("centers on the unit circle admit only 3-gons")
    return -e.x * (e.norm2() - 1) / e.norm2()


def _sqrt_signed(v) -> complex | float:
    """Square root of an exact or float quantity as float (v >= 0) or complex."""
    f = float(v)
    if v >= 0:
        return math.sqrt(f)
    return cmath.sqrt(complex(f))


def roots_5_closed_form(e: Center) -> tuple[complex | float, complex | float]:
    """Both parabola parameters for n = 5; complex when the center lies in
    the region where the discriminant is negative."""
    if e.in_sigma():
        raise ExcludedCenter("center in Sigma is excluded for n >= 5")
    r = e.norm2()
    s = _sqrt_signed(region_value("gamma5", e))
    scale = float(r - 1) / (2 * float(r))
    return ((-float(e.x) + s) * scale, (-float(e.x) - s) * scale)


def roots_6_closed_form(e: Center) -> tuple[complex | float, complex | float]:
    """Both parabola parameters for n = 6."""
    if e.in_sigma():
        raise ExcludedCenter("center in Sigma is excluded for n >= 5")
    r = e.norm2()
    s = _sqrt_signed(region_value("gamma6", e))
    denom = 2 * float(r) * float(r + 1)
    lin = -float(e.x) * float(2 * r + 1)
    scale = float(r - 1) / denom
    return ((lin + s) * scale, (lin - s) * scale)


def isoperiodic_n(e: Center) -> int | None:
    """3 when the circle passes through the focus, 4 at the focus itself,
    None otherwise; no other n admits an isoperiodic family."""
    if e.on_unit_circle():
        return 3
    if e.is_focus():
        return 4
    return None


# -- classification driver ----------------------------------------------------


@dataclass(frozen=True)
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
_CLASSIFY_N = range(3, 8)

# The region polynomial whose sign labels the regions for n, and the label.
_GOVERNING = {5: ("gamma5", "Gamma5"), 6: ("gamma6", "Gamma6"), 7: ("psi1", "R1")}


def _region_label(n: int, e: Center) -> str:
    if n == 3:
        return "S1" if e.on_unit_circle() else "offS1"
    if n == 4:
        if e.is_focus():
            return "focus"
        if e.x == 0:
            return "latus-rectum"
        if e.on_unit_circle():
            return "S1"
        return "generic"
    if e.in_sigma():
        return "Excluded"
    name, label = _GOVERNING[n]
    return label + {1: "+", 0: "", -1: "-"}[_sign(region_value(name, e))]


def pair_classify(n: int, e: Center) -> PairClassification:
    """Count and locate the parabolas pairing with the circle at center e.

    A double root counts as one parabola.  Region labels come from exact
    sign evaluation of the governing polynomials.
    """
    if n not in _CLASSIFY_N:
        raise ValueError(f"pair_classify covers n = {_CLASSIFY_N[0]}..{_CLASSIFY_N[-1]}")
    f = p_polynomial(n, e)
    region = _region_label(n, e)
    if f.is_zero():
        return PairClassification(n, e, RootList([]), region, 0, True)
    roots = sturm_real_roots(f, exclude_zero=True)
    return PairClassification(n, e, roots, region, len(roots), False)
