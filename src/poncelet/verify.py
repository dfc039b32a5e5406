"""Golden polynomial identities: the printed locus polynomials, the worked
p = 1/2 example, the divisor factorization, and the symbolic discriminant
factorizations.  All comparisons are exact."""

from __future__ import annotations

from fractions import Fraction

from .cayley import hankel_raw, locus, locus_at_p
from .classify import region_polys
from .polycore import (
    LaurentPoly3,
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


def _quadratic_disc_identity(n: int, rhs: LaurentPoly3) -> bool:
    coeffs = p_coefficients(locus(n).canonical)
    A = coeffs.get(2, LaurentPoly3())
    B = coeffs.get(1, LaurentPoly3())
    C = coeffs.get(0, LaurentPoly3())
    return B * B - 4 * A * C == rhs


def checks() -> list[tuple[str, bool]]:
    results: list[tuple[str, bool]] = []

    for n in range(3, 8):
        results.append((
            f"locus n={n} matches the printed polynomial",
            locus(n).canonical == paper_locus(n),
        ))

    half = Fraction(1, 2)
    results.append((
        "worked example: 3-gon locus at p=1/2",
        locus_at_p(3, half) == X**2 + Y**2 - 1,
    ))
    results.append((
        "worked example: 4-gon locus at p=1/2",
        locus_at_p(4, half) == X**2 + Y**2 + 2 * X * (X**2 + Y**2 - 1),
    ))

    raw6, raw3 = hankel_raw(6), hankel_raw(3)
    try:
        quotient = poly_div_exact(raw6, raw3)
        results.append((
            "hankel(6) / hankel(3) canonicalizes to the 6-gon locus",
            canonicalize(quotient) == paper_locus(6),
        ))
    except Exception:
        results.append(("hankel(6) / hankel(3) canonicalizes to the 6-gon locus", False))

    rp = region_polys()
    results.append((
        "discriminant of the 5-gon quadratic factors as printed",
        _quadratic_disc_identity(5, 16 * S**2 * rp["gamma5"]),
    ))
    results.append((
        "discriminant of the 6-gon quadratic factors as printed",
        _quadratic_disc_identity(6, 16 * S**2 * rp["gamma6"]),
    ))

    coeffs = p_coefficients(locus(7).canonical)
    A, B, C, D, E = (coeffs.get(k, LaurentPoly3()) for k in (4, 3, 2, 1, 0))
    results.append((
        "discriminant of the 7-gon quartic factors as printed",
        quartic_disc(A, B, C, D, E) == -65536 * R**6 * S**15 * rp["psi1"],
    ))
    results.append((
        "P of the 7-gon quartic factors as printed",
        quartic_P(A, B, C, D, E) == -256 * R**4 * S**2 * rp["psi2"],
    ))
    results.append((
        "D of the 7-gon quartic factors as printed",
        quartic_D(A, B, C, D, E) == -65536 * R**8 * S**4 * rp["psi3"],
    ))
    results.append((
        "O of the 7-gon quartic factors as printed",
        quartic_O(A, B, C, D, E) == -16 * R**2 * S**5 * rp["psi4"],
    ))
    results.append((
        "R of the 7-gon quartic factors as printed",
        quartic_R(A, B, C, D, E) == -4096 * X * R**6 * S**3 * rp["psi5"],
    ))
    return results


def run_all(verbose: bool = False) -> bool:
    ok = True
    for name, passed in checks():
        ok = ok and passed
        if verbose:
            print(f'{"PASS" if passed else "FAIL"}  {name}')
    return ok
