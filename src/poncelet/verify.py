"""Golden polynomial identities: the printed locus polynomials, the worked
p = 1/2 example, the divisor factorization, and the symbolic discriminant
factorizations.  All comparisons are exact.  The printed sides are typed
here once; the discriminants' factors come from
`classify.DISCRIMINANT_FACTORS`, the table the region labels read."""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType
from typing import Mapping

from .cayley import hankel_raw, locus, locus_at_p
from .classify import DISCRIMINANT_FACTORS
from .polycore import (
    LaurentPoly3,
    PolycoreError,
    _discriminant,
    canonicalize,
    poly_div_exact,
    quartic_D,
    quartic_O,
    quartic_P,
    quartic_R,
)

P = LaurentPoly3.var_p()
X = LaurentPoly3.var_x()
Y = LaurentPoly3.var_y()
R = X**2 + Y**2  # squared distance of the center from the focus
S = R - 1  # vanishes when the circle passes through the focus


def paper_locus(n: int) -> LaurentPoly3:
    """The locus polynomials exactly as printed, n = 3..7."""
    if n == 3:
        return R - 1
    if n == 4:
        return R * P + X * S
    if n == 5:
        return 4 * R * P**2 + 4 * X * S * P - S**3
    if n == 6:
        return (
            4 * R * (R + 1) * P**2
            + 4 * X * (2 * R + 1) * S * P
            + (3 * X**2 - Y**2 + 1) * S**2
        )
    if n == 7:
        return (
            16 * R**3 * P**4
            + 48 * X * R**2 * S * P**3
            + 4 * R * S**2 * (13 * X**2 + Y**2 - 1) * P**2
            + 4 * X * S**3 * (5 * X**2 + Y**2 - 1) * P
            - S**6
        )
    raise ValueError("printed loci cover n = 3..7")


@lru_cache(maxsize=None)
def region_polys() -> Mapping[str, LaurentPoly3]:
    """The polynomials in (x, y) whose signs split the plane of centers, as
    printed: gamma5 and gamma6 are the center-dependent factors of the
    discriminants of the 5- and 6-gon quadratics in p; psi1..psi5 those of
    the discriminant and of the invariants P, D, O, R of the 7-gon quartic.

    Built on first use: building them costs milliseconds, which importing
    the package should not.
    """
    x2, y2 = X**2, Y**2
    return MappingProxyType({
        "gamma5": R**2 - y2,
        "gamma6": R**3 - y2,
        "psi1": (
            16 * R**6
            - x2**5 - 71 * x2**4 * y2 + x2**4 - 247 * x2**3 * y2**2
            + 43 * x2**3 * y2 - 325 * x2**2 * y2**3 + 108 * x2**2 * y2**2
            - 23 * x2**2 * y2 - 188 * x2 * y2**4 + 91 * x2 * y2**3
            - 2 * x2 * y2**2 + 3 * x2 * y2 - 40 * y2**5 + 25 * y2**4
            + 5 * y2**3 - 5 * y2**2 - y2
        ),
        "psi2": x2 - 2 * y2 + 2,
        "psi3": 4 * R**3 - 7 * R**2 + 2 * R + 3 * x2**2 + 1,
        # 12*x^2, not 12*y^2: forced by the O invariant of the n=7 quartic.
        "psi4": 12 * R**2 - 13 * R + 12 * x2 + 1,
        "psi5": 2 * x2 + y2 - 1,
    })


def p_coefficients(a: LaurentPoly3) -> dict[int, LaurentPoly3]:
    """Split a polynomial into its coefficients with respect to p."""
    out: dict[int, dict] = {}
    for (ep, ex, ey), c in a.terms.items():
        out.setdefault(ep, {})[(0, ex, ey)] = c
    return {ep: LaurentPoly3(terms) for ep, terms in out.items()}


def checks() -> list[tuple[str, bool]]:
    """Each identity as (name, computed == printed), in a fixed order."""
    rows: list[tuple[str, LaurentPoly3 | None, LaurentPoly3]] = [
        (f"locus n={n} matches the printed polynomial", locus(n).canonical, paper_locus(n))
        for n in range(3, 8)
    ]

    half = Fraction(1, 2)
    rows += [
        ("worked example: 3-gon locus at p=1/2", locus_at_p(3, half), X**2 + Y**2 - 1),
        ("worked example: 4-gon locus at p=1/2",
         locus_at_p(4, half), X**2 + Y**2 + 2 * X * (X**2 + Y**2 - 1)),
    ]

    raw6, raw3 = hankel_raw(6), hankel_raw(3)
    try:
        quotient = canonicalize(poly_div_exact(raw6, raw3))
    except PolycoreError:
        quotient = None  # an inexact division fails the row
    rows.append(("hankel(6) / hankel(3) canonicalizes to the 6-gon locus", quotient, paper_locus(6)))

    # c * R**r * S**s * the region polynomial, with no product by a power 0
    rp = region_polys()
    for n, (_, name, printed, r, s) in DISCRIMINANT_FACTORS.items():
        for base, k in ((R, r), (S, s)):
            if k:
                printed = printed * base**k
        coeffs = p_coefficients(locus(n).canonical)
        shape = {2: "quadratic", 4: "quartic"}[max(coeffs)]
        rows.append((f"discriminant of the {n}-gon {shape} factors as printed",
                     _discriminant([coeffs.get(k, LaurentPoly3()) for k in range(max(coeffs) + 1)]),
                     printed * rp[name]))

    coeffs = p_coefficients(locus(7).canonical)
    quartic = [coeffs.get(k, LaurentPoly3()) for k in (4, 3, 2, 1, 0)]
    for label, formula, printed in (
        ("P", quartic_P, -256 * R**4 * S**2 * rp["psi2"]),
        ("D", quartic_D, -65536 * R**8 * S**4 * rp["psi3"]),
        ("O", quartic_O, -16 * R**2 * S**5 * rp["psi4"]),
        ("R", quartic_R, -4096 * X * R**6 * S**3 * rp["psi5"]),
    ):
        rows.append((f"{label} of the 7-gon quartic factors as printed", formula(*quartic), printed))

    return [(name, computed == printed) for name, computed, printed in rows]
