"""Golden polynomial identities: the printed locus polynomials, the worked
p = 1/2 examples, the divisor factorization, and the symbolic discriminant
factorizations.  All comparisons are exact.  The printed sides are typed
here once, as printed, over polycore's (p, x, s) variables with R = s + 1,
S = s and y^2 = R - x^2, and built on first use and kept as the sources of
their expansions (`paper_locus`, `worked_example`, `region_polys`): a warm
`checks()` computes only the library's side.  The discriminants' factors
come from `classify.DISCRIMINANT_FACTORS`, the table the region labels
read.  The factorizations are checked in (x, s), on the (p, x, s) forms
the loci and the printed region polynomials keep, where the powers of R
and S divide out: no side is expanded to (x, y)."""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType
from typing import Mapping

from .cayley import _ws, locus, locus_at_p
from .classify import DISCRIMINANT_FACTORS
from .polycore import (
    P,
    R,
    S,
    X,
    Y2,
    LaurentPoly3,
    NotDivisible,
    PolycoreError,
    _discriminant,
    _over_s,
    canonicalize,
    quartic_invariants,
)


@lru_cache(maxsize=None)
def paper_locus(n: int) -> LaurentPoly3:
    """The locus polynomials exactly as printed, n = 3..7, typed over R, S
    and y^2 in (p, x, s) and returned as their `expand_s`, which keeps that
    source.  Built on first use and kept, as `region_polys()` is: they are
    constants, and rebuilding them checks nothing new.  ValueError outside
    3..7, on every call (lru_cache keeps no exception)."""
    if n == 3:
        f = R - 1
    elif n == 4:
        f = R * P + X * S
    elif n == 5:
        f = 4 * R * P**2 + 4 * X * S * P - S**3
    elif n == 6:
        f = 4 * R * (R + 1) * P**2 + 4 * X * (2 * R + 1) * S * P + (3 * X**2 - Y2 + 1) * S**2
    elif n == 7:
        f = (
            16 * R**3 * P**4
            + 48 * X * R**2 * S * P**3
            + 4 * R * S**2 * (13 * X**2 + Y2 - 1) * P**2
            + 4 * X * S**3 * (5 * X**2 + Y2 - 1) * P
            - S**6
        )
    else:
        raise ValueError("printed loci cover n = 3..7")
    return f.expand_s()


@lru_cache(maxsize=None)
def worked_example(n: int) -> LaurentPoly3:
    """The worked examples' loci at p = 1/2 exactly as printed, n = 3 and
    4, typed and kept as `paper_locus` is."""
    if n not in (3, 4):
        raise ValueError("printed worked examples cover n = 3 and 4")
    return (X**2 + Y2 - 1 if n == 3 else X**2 + Y2 + 2 * X * (X**2 + Y2 - 1)).expand_s()


@lru_cache(maxsize=None)
def region_polys() -> Mapping[str, LaurentPoly3]:
    """The polynomials in (x, y) whose signs split the plane of centers, as
    printed: gamma5 and gamma6 are the center-dependent factors of the
    discriminants of the 5- and 6-gon quadratics in p; psi1..psi5 those of
    the discriminant and of the invariants P, D, O, R of the 7-gon quartic.

    Typed once, textually as printed, over x, R = s + 1 and y^2 = s + 1 -
    x^2 in (x, s), and returned as their `expand_s`, so each value keeps
    that (x, s) form as its source, as `locus(n).canonical` does: checks()
    compares against the source.  Built on first use: building them costs
    milliseconds, which importing the package should not.
    """
    x2, y2 = X**2, Y2
    return MappingProxyType({name: f.expand_s() for name, f in {
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
    }.items()})


def _factored(value: LaurentPoly3 | None, kr: int, ks: int) -> LaurentPoly3 | None:
    """value / (R**kr * S**ks) in (p, x, s) (`polycore._over_s`), or None
    where value is None or the quotient is not a polynomial.  Putting
    s = x**2 + y**2 - 1 is an injective ring map, so the quotient exists
    there exactly when it does in (x, y), and expands to it."""
    try:
        return None if value is None else _over_s(value, ks, kr)
    except NotDivisible:
        return None


def checks() -> list[tuple[str, bool]]:
    """Each identity as (name, computed == printed), in a fixed order.

    Every side is a LaurentPoly3, the integer form the loci are built in:
    the computed sides as cayley returns them, and every printed side and
    formula built there, with no Fraction per term.  The computed sides are
    built on every call; the printed sides once, on first use.

    The discriminant and invariant rows check formula(a) == c * R**kr *
    S**ks * printed as formula(a) / (R**kr * S**ks) == c * printed, all in
    (p, x, s) (`_factored`): a the p-coefficients of the locus's (p, x, s)
    form, taken once per locus, the 7-gon quartic's five invariants from
    one `quartic_invariants`, and printed the (x, s) source that
    `region_polys` keeps.  A None side, from a locus or a printed side with
    no (x, s) form or a locus not of the printed p-degree, fails its row."""
    try:  # W_6 / W_3 in (p, x, s), normalized and expanded once
        quotient = canonicalize(_ws(6) / _ws(3))
    except PolycoreError:
        quotient = LaurentPoly3()  # never canonical: an inexact division fails the row
    half = Fraction(1, 2)
    loci = {n: locus(n).canonical for n in range(3, 8)}

    rows: list[tuple[str, LaurentPoly3 | None, LaurentPoly3 | None]] = [
        (f"locus n={n} matches the printed polynomial", loci[n], paper_locus(n)) for n in range(3, 8)
    ]
    rows += [(f"worked example: {n}-gon locus at p=1/2", locus_at_p(n, half), worked_example(n)) for n in (3, 4)]
    rows.append(("hankel(6) / hankel(3) canonicalizes to the 6-gon locus", quotient, paper_locus(6)))

    src = {name: getattr(f, "_src", None) for name, f in region_polys().items()}
    a = {n: form.p_coefficients() for n in (5, 6, 7) if (form := getattr(loci[n], "_src", None)) is not None}
    quartic = quartic_invariants(*a[7][::-1]) if len(a.get(7, ())) == 5 else (None,) * 5
    discs = {n: _discriminant(c) for n, c in a.items() if n < 7 and len(c) == 3} | {7: quartic[0]}
    factors = [(f"discriminant of the {n}-gon {'quartic' if n == 7 else 'quadratic'}", discs.get(n), *row[1:])
               for n, row in DISCRIMINANT_FACTORS.items()]
    factors += [
        ("P of the 7-gon quartic", quartic[1], "psi2", -256, 4, 2),
        ("D of the 7-gon quartic", quartic[2], "psi3", -65536, 8, 4),
        ("O of the 7-gon quartic", quartic[3], "psi4", -16, 2, 5),
        ("R of the 7-gon quartic", quartic[4], "psi5", -4096 * X, 6, 3),
    ]
    for label, value, name, c, kr, ks in factors:
        printed = None if src[name] is None else c * src[name]
        rows.append((f"{label} factors as printed", _factored(value, kr, ks), printed))

    return [(name, computed is not None and printed is not None and computed == printed)
            for name, computed, printed in rows]
