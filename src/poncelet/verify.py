"""Golden polynomial identities: the printed locus polynomials, the worked
p = 1/2 example, the divisor factorization, and the symbolic discriminant
factorizations.  All comparisons are exact.  The printed sides are typed
here once; the discriminants' factors come from
`classify.DISCRIMINANT_FACTORS`, the table the region labels read.  The
factorizations are checked on each locus's (p, x, s) form, s = x^2 + y^2 -
1, where their powers of R = s + 1 and S = s divide out exactly."""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType
from typing import Mapping

from .cayley import _ws, locus, locus_at_p
from .classify import DISCRIMINANT_FACTORS
from .polycore import (
    LaurentPoly3,
    PolycoreError,
    _discriminant,
    _pxs,
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


# The invariants of A t^4 + B t^3 + C t^2 + D t + E as functions of the
# coefficients constant first, as `_discriminant` takes them.
_QUARTIC_INVARIANTS = {
    label: (lambda a, f=f: f(*a[::-1]))
    for label, f in zip("PDOR", (quartic_P, quartic_D, quartic_O, quartic_R))
}


def _factored(formula, poly: LaurentPoly3, kr: int, ks: int) -> LaurentPoly3 | None:
    """formula(a) / (R**kr * S**ks) in (x, y), a the p-coefficients of
    poly, or None where that is 0 or not a polynomial, or poly has no
    (p, x, s) form.  Computed on that form, where R = s + 1 and S = s:
    putting s = x**2 + y**2 - 1 is an injective ring map that commutes with
    the formula, so the quotient exists there exactly when it does in
    (x, y), and expands to it."""
    src = getattr(poly, "_src", None)
    if src is None:
        return None
    # R**kr * S**ks is the sum of C(kr, j) s**(ks + j)
    factor = _pxs({(0, 0, ks + j): math.comb(kr, j) for j in range(kr + 1)})
    try:
        return (formula(src.p_coefficients()) / factor).expand_s()
    except PolycoreError:  # NotDivisible, or ZeroPolynomial for a zero quotient
        return None


def checks() -> list[tuple[str, bool]]:
    """Each identity as (name, computed == printed), in a fixed order.

    Every side is a LaurentPoly3, the integer form the loci are built in:
    the computed sides as cayley returns them, and every printed side and
    formula built there, with no Fraction per term.

    The discriminant and invariant rows check formula(a) == c * R**kr *
    S**ks * printed as formula(a) / (R**kr * S**ks) == c * printed, the
    quotient taken in (p, x, s) (`_factored`), where R and S are powers of
    one variable.  A locus with no (p, x, s) form fails these rows."""
    try:  # W_6 / W_3 in (p, x, s), expanded and normalized once
        quotient = (_ws(6) / _ws(3)).expand_s().canonical()
    except PolycoreError:
        quotient = LaurentPoly3()  # never canonical: an inexact division fails the row
    half = Fraction(1, 2)
    loci = {n: locus(n).canonical for n in range(3, 8)}

    printed_loci = {n: paper_locus(n) for n in range(3, 8)}
    rows: list[tuple[str, LaurentPoly3 | None, LaurentPoly3]] = [
        (f"locus n={n} matches the printed polynomial", loci[n], printed_loci[n]) for n in range(3, 8)
    ]
    rows += [
        ("worked example: 3-gon locus at p=1/2", locus_at_p(3, half), X**2 + Y**2 - 1),
        ("worked example: 4-gon locus at p=1/2", locus_at_p(4, half), X**2 + Y**2 + 2 * X * (X**2 + Y**2 - 1)),
        ("hankel(6) / hankel(3) canonicalizes to the 6-gon locus", quotient, printed_loci[6]),
    ]

    rp = region_polys()
    for n, (_, name, c, kr, ks) in DISCRIMINANT_FACTORS.items():
        shape = {3: "quadratic", 5: "quartic"}[len(printed_loci[n].p_coefficients())]
        rows.append((f"discriminant of the {n}-gon {shape} factors as printed",
                     _factored(_discriminant, loci[n], kr, ks), c * rp[name]))

    for label, printed, kr, ks in (
        ("P", -256 * rp["psi2"], 4, 2),
        ("D", -65536 * rp["psi3"], 8, 4),
        ("O", -16 * rp["psi4"], 2, 5),
        ("R", -4096 * X * rp["psi5"], 6, 3),
    ):
        rows.append((f"{label} of the 7-gon quartic factors as printed",
                     _factored(_QUARTIC_INVARIANTS[label], loci[7], kr, ks), printed))

    return [(name, computed == printed) for name, computed, printed in rows]
