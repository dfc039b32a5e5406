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
    _IntForm,
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
    return _printed_locus(n, P, X, Y, R, S)


def _printed_locus(n: int, P, X, Y, R, S):
    """paper_locus(n) over the generators P, X, Y, R, S of any ring."""
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
    """Each identity as (name, computed == printed), in a fixed order.

    Every computed side is packed once into one integer form (`_IntForm`),
    and every printed side and formula is built in that form, with no
    Fraction per term.  Its width fits a product of 6 packed sides, the
    degree of the quartic discriminant in its coefficients; a product beyond
    it raises."""
    try:
        quotient = canonicalize(poly_div_exact(hankel_raw(6), hankel_raw(3)))
    except PolycoreError:
        quotient = LaurentPoly3()  # never canonical: an inexact division fails the row
    half = Fraction(1, 2)
    rp = region_polys()
    p, x, y, r, s, quotient, at3, at4, *rest = _IntForm.pack(
        [P, X, Y, R, S, quotient, locus_at_p(3, half), locus_at_p(4, half),
         *(locus(n).canonical for n in range(3, 8)), *rp.values()], 6)
    loci, rp = dict(zip(range(3, 8), rest)), dict(zip(rp, rest[5:]))

    rows: list[tuple[str, _IntForm, _IntForm]] = [
        (f"locus n={n} matches the printed polynomial", loci[n], _printed_locus(n, p, x, y, r, s))
        for n in range(3, 8)
    ]
    rows += [
        ("worked example: 3-gon locus at p=1/2", at3, x**2 + y**2 - 1),
        ("worked example: 4-gon locus at p=1/2", at4, x**2 + y**2 + 2 * x * (x**2 + y**2 - 1)),
        ("hankel(6) / hankel(3) canonicalizes to the 6-gon locus", quotient, _printed_locus(6, p, x, y, r, s)),
    ]

    # c * R**r * S**s * the region polynomial, with no product by a power 0
    for n, (_, name, printed, kr, ks) in DISCRIMINANT_FACTORS.items():
        for base, k in ((r, kr), (s, ks)):
            if k:
                printed = printed * base**k
        coeffs = loci[n].p_coefficients()
        shape = {3: "quadratic", 5: "quartic"}[len(coeffs)]
        rows.append((f"discriminant of the {n}-gon {shape} factors as printed",
                     _discriminant(coeffs), printed * rp[name]))

    quartic = loci[7].p_coefficients()[::-1]
    for label, formula, printed in (
        ("P", quartic_P, -256 * r**4 * s**2 * rp["psi2"]),
        ("D", quartic_D, -65536 * r**8 * s**4 * rp["psi3"]),
        ("O", quartic_O, -16 * r**2 * s**5 * rp["psi4"]),
        ("R", quartic_R, -4096 * x * r**6 * s**3 * rp["psi5"]),
    ):
        rows.append((f"{label} of the 7-gon quartic factors as printed", formula(*quartic), printed))

    return [(name, computed == printed) for name, computed, printed in rows]
