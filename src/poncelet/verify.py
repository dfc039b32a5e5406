"""Golden polynomial identities: the printed locus polynomials, the worked
p = 1/2 example, the divisor factorization, and the symbolic discriminant
factorizations.  All comparisons are exact.  The printed sides are typed
here once; the discriminants' factors come from
`classify.DISCRIMINANT_FACTORS`, the table the region labels read."""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType
from typing import Mapping, Sequence

from .cayley import _ws, locus, locus_at_p
from .classify import DISCRIMINANT_FACTORS
from .polycore import (
    LaurentPoly3,
    NotDivisible,
    PolycoreError,
    _discriminant,
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


# The invariants of A t^4 + B t^3 + C t^2 + D t + E as functions of the
# coefficients constant first, as `_discriminant` takes them.
_QUARTIC_INVARIANTS = {
    label: (lambda a, f=f: f(*a[::-1]))
    for label, f in zip("PDOR", (quartic_P, quartic_D, quartic_O, quartic_R))
}


@lru_cache(maxsize=None)
def _degree_weight(formula, d: int) -> tuple[int, int]:
    """(deg, w) of a formula in the coefficients a_0..a_d, constant first,
    that is homogeneous of degree deg and isobaric of weight w: each of its
    monomials a_k1 ... a_kdeg has k1 + ... + kdeg = w.  Read off its value
    at a_k = p**k * x**(d - k), which is then one term c * p**w *
    x**(d*deg - w); any other value raises ValueError."""
    value = formula([LaurentPoly3.monomial(1, k, d - k) for k in range(d + 1)])
    if len(value.terms) == 1:
        (w, v, _), = value.terms
        deg, odd = divmod(w + v, d)
        if not odd:
            return deg, w
    raise ValueError(f"not homogeneous and isobaric in {d + 1} coefficients: {value}")


def _divide_out(a: list[LaurentPoly3], base: LaurentPoly3,
                weight: Sequence[int]) -> tuple[list[LaurentPoly3], int, int]:
    """(b, c, l) with a_k = base**(c + l*weight[k]) * b_k for every k.

    How often base divides each a_k is counted by exact trial division.  The
    exponents c + l*weight[k] are the affine ones under those counts with the
    largest sum, for l in 0..the largest count, ties to the smaller l; a zero
    a_k bounds nothing.  b_k is read off the trial quotients, or is
    a_k * base**-e where the exponent e is negative."""
    chains = []
    for ak in a:
        chain = [ak]
        if ak:
            try:
                while True:
                    chain.append(chain[-1] / base)
            except NotDivisible:
                pass
        chains.append(chain)
    counts = [(t, len(chain) - 1) for t, chain in zip(weight, chains) if chain[0]]

    def low(l: int) -> int:
        return min((v - l * t for t, v in counts), default=0)

    total = sum(weight)
    l = max(range(max((v for _, v in counts), default=0) + 1), key=lambda j: len(a) * low(j) + j * total)
    c = low(l)
    b = []
    for t, chain in zip(weight, chains):
        e = c + l * t if chain[0] else 0  # a zero a_k stays 0
        b.append(chain[e] if e >= 0 else chain[0] * base**-e)
    return b, c, l


def checks() -> list[tuple[str, bool]]:
    """Each identity as (name, computed == printed), in a fixed order.

    Every side is a LaurentPoly3, the integer form the loci are built in:
    the computed sides as cayley returns them, and every printed side and
    formula built there, with no Fraction per term.

    The discriminant and invariant rows run their formula on the
    weight-reduced p-coefficients.  Each locus n = 5, 6, 7 is split once
    into a_0..a_d and written a_k = R**(c + l*k) * S**(c' + m*(d - k)) * b_k
    (`_divide_out`).  A formula F homogeneous of degree deg and isobaric of
    weight w (`_degree_weight`) then has F(a) = R**(deg*c + w*l) *
    S**(deg*c' + (d*deg - w)*m) * F(b), so F(a) == rest * R**kr * S**ks is
    checked as F(b) == rest with the common powers of R and S cancelled: the
    larger of each pair of exponents keeps the difference.  R and S are not
    zero, so the comparison is exact and equivalent to that of the full
    F(a), for any locus."""
    try:  # W_6 / W_3 in (p, x, s), expanded and normalized once
        quotient = (_ws(6) / _ws(3)).expand_s().canonical()
    except PolycoreError:
        quotient = LaurentPoly3()  # never canonical: an inexact division fails the row
    half = Fraction(1, 2)
    rp = region_polys()
    loci = {n: locus(n).canonical for n in range(3, 8)}

    printed_loci = {n: _printed_locus(n, P, X, Y, R, S) for n in range(3, 8)}
    rows: list[tuple[str, LaurentPoly3, LaurentPoly3]] = [
        (f"locus n={n} matches the printed polynomial", loci[n], printed_loci[n]) for n in range(3, 8)
    ]
    rows += [
        ("worked example: 3-gon locus at p=1/2", locus_at_p(3, half), X**2 + Y**2 - 1),
        ("worked example: 4-gon locus at p=1/2", locus_at_p(4, half), X**2 + Y**2 + 2 * X * (X**2 + Y**2 - 1)),
        ("hankel(6) / hankel(3) canonicalizes to the 6-gon locus", quotient, printed_loci[6]),
    ]

    def times(f: LaurentPoly3, i: int, j: int) -> LaurentPoly3:
        # f * R**i * S**j for the positive exponents, with no product by a power 0
        for base, k in ((R, i), (S, j)):
            if k > 0:
                f = f * base**k
        return f

    reduced = {}
    for n in DISCRIMINANT_FACTORS:
        a = loci[n].p_coefficients()
        d = len(a) - 1
        b, c, l = _divide_out(a, R, range(d + 1))
        b, c2, m = _divide_out(b, S, range(d, -1, -1))
        reduced[n] = b, c, l, c2, m

    def row(n: int, formula, printed: LaurentPoly3, kr: int, ks: int) -> tuple[LaurentPoly3, LaurentPoly3]:
        b, c, l, c2, m = reduced[n]
        d = len(b) - 1
        deg, w = _degree_weight(formula, d)
        er, es = deg * c + w * l, deg * c2 + (d * deg - w) * m
        return times(formula(b), er - kr, es - ks), times(printed, kr - er, ks - es)

    for n, (_, name, c, kr, ks) in DISCRIMINANT_FACTORS.items():
        shape = {3: "quadratic", 5: "quartic"}[len(reduced[n][0])]
        rows.append((f"discriminant of the {n}-gon {shape} factors as printed",
                     *row(n, _discriminant, c * rp[name], kr, ks)))

    for label, printed, kr, ks in (
        ("P", -256 * rp["psi2"], 4, 2),
        ("D", -65536 * rp["psi3"], 8, 4),
        ("O", -16 * rp["psi4"], 2, 5),
        ("R", -4096 * X * rp["psi5"], 6, 3),
    ):
        rows.append((f"{label} of the 7-gon quartic factors as printed",
                     *row(7, _QUARTIC_INVARIANTS[label], printed, kr, ks)))

    return [(name, computed == printed) for name, computed, printed in rows]
