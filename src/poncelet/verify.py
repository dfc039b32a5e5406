"""Golden polynomial identities: the printed locus polynomials, the worked
p = 1/2 example, the divisor factorization, and the symbolic discriminant
factorizations.  All comparisons are exact."""

from __future__ import annotations

from fractions import Fraction

from .cayley import hankel_raw, locus, locus_at_p
from .classify import region_polys
from .polycore import (
    LaurentPoly3,
    PolycoreError,
    canonicalize,
    poly_div_exact,
    quartic_D,
    quartic_O,
    quartic_P,
    quartic_R,
    quartic_disc,
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

    rp = region_polys()
    for n in (5, 6):
        coeffs = p_coefficients(locus(n).canonical)
        A, B, C = (coeffs.get(k, LaurentPoly3()) for k in (2, 1, 0))
        rows.append((f"discriminant of the {n}-gon quadratic factors as printed",
                     B * B - 4 * A * C, 16 * S**2 * rp[f"gamma{n}"]))

    coeffs = p_coefficients(locus(7).canonical)
    quartic = [coeffs.get(k, LaurentPoly3()) for k in (4, 3, 2, 1, 0)]
    for label, formula, printed in (
        ("discriminant", quartic_disc, -65536 * R**6 * S**15 * rp["psi1"]),
        ("P", quartic_P, -256 * R**4 * S**2 * rp["psi2"]),
        ("D", quartic_D, -65536 * R**8 * S**4 * rp["psi3"]),
        ("O", quartic_O, -16 * R**2 * S**5 * rp["psi4"]),
        ("R", quartic_R, -4096 * X * R**6 * S**3 * rp["psi5"]),
    ):
        rows.append((f"{label} of the 7-gon quartic factors as printed", formula(*quartic), printed))

    return [(name, computed == printed) for name, computed, printed in rows]
