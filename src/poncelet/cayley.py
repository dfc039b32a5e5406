"""Pencil coefficients, the Cayley series, the Hankel determinants W_n and
canonical locus polynomials for the circle/parabola pencil.

W_n = hankel_raw(n) comes from typed seeds, W_1 = W_2 = 1 and Cayley's
criterion at n = 3 and 4 (Griffiths and Harris, 1978), by the doubling
formulas of elliptic divisibility sequences, products alone.  Every W_n is
even in y, so the seeds, the formulas and locus's exact divisions are in
(p, x, s), s = x^2 + y^2 - 1, where W_n has about 9 times fewer terms, as
`LaurentPoly3` values in those variables; each public result
(`hankel_raw(n)`, `locus(n).canonical`) is expanded to (p, x, y) once.
The pencil and the seeds are typed over polycore's (p, x, s) variables,
the one set every hand-typed polynomial of the library is written over.
The series (`atilde_sequence`) is off the library's path, the seeds'
reference; the Hankel matrix, with its Bareiss determinant, the Somos-4
recurrence and the group law on the pencil's cubic survive in the tests
as references."""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb

from . import polycore
from ._record import record
from .geometry import DegenerateParabola
from .polycore import P, S, X, Y2, LaurentPoly3, ZeroPolynomial, canonicalize, poly_div_exact

MAX_N = 12


@record
class PencilCoeffs:
    """The four characteristic-polynomial coefficients of the pencil
    det(lambda*circle + parabola) for a unit circle centered at (x, y)."""

    delta1: LaurentPoly3
    theta1: LaurentPoly3
    theta2: LaurentPoly3
    delta2: LaurentPoly3


def pencil_coeffs() -> PencilCoeffs:
    """The pencil's coefficients, typed in (p, x, s) and returned as their
    `expand_s`, which keeps that source; read by the series alone: nothing
    on the library's path calls it."""
    return PencilCoeffs(*(f.expand_s() for f in (
        -(P**0),  # delta1
        -(P**2) - 2 * P * X + Y2 - 1,  # theta1
        -2 * P**2 - 2 * P * X,  # theta2
        -(P**2),  # delta2
    )))


def atilde_sequence(K: int) -> tuple[LaurentPoly3, ...]:
    """Entries 1..K of the scaled coefficient recursion, computed exactly:
    entry k - 1 of the tuple holds k! * A0 * A_k.

    Only A0^2 = delta2 ever enters the recursion, so no square root (and no
    branch choice) appears in exact computation.  The reference for the
    seeds, W_3 = A_2 and W_4 = A_3 with A_k = entry k / k!, and for the
    tests' Hankel matrix: nothing on the library's path calls it.
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    return tuple(_atilde(k) for k in range(1, K + 1))


@lru_cache(maxsize=None)
def _atilde(k: int) -> LaurentPoly3:
    """Entry k >= 1 of atilde_sequence, off the library's path.  That
    function asks for the entries in increasing order, so the recursion
    finds each earlier one cached."""
    pc = pencil_coeffs()
    if k == 1:
        return pc.theta2 * Fraction(1, 2)
    s = LaurentPoly3()
    for l in range(1, k):
        s = s + comb(k - 1, l) * _atilde(l) * _atilde(k - l)
    # f is cubic: f'(0) = theta2, f''(0) = 2*theta1, f'''(0) = 6*delta1,
    # and all higher derivatives vanish.
    half_fderiv = {2: pc.theta1, 3: 3 * pc.delta1}
    return half_fderiv.get(k, 0) - poly_div_exact(s, pc.delta2)


# The seeds W_1..W_4 in (p, x, s): 1, 1, s/2 and -((s + 1) p + x s) / (2p).
_W_S = (P**0, P**0, S / 2, -((S + 1) * P + X * S) / (2 * P))


@lru_cache(maxsize=None)
def _doubling(n: int) -> tuple[LaurentPoly3, ...]:
    """W_n, n >= 5, in (p, x, s) by a doubling formula of `hankel_raw`, as
    factors whose product is W_n: (W_n,) for odd n, and (W_m, X'_m) for even
    n = 2m, with the cofactor X'_m = (2 delta2)^-(m-2) X_m kept apart: `_ws`
    multiplies the two, `_locus_s` reads X'_m alone.  Cached, so each n is
    doubled once for both."""
    m, odd = divmod(n, 2)
    # W_n is (2 delta2)^-k times a form of degree 4 in the W_j and delta2;
    # k >= 1 for even n, so W_0 is never read.
    k = m - 2 + odd
    W = {j: _ws(j) for j in range(k, m + 3)}
    d2 = lambda f, e: f.times_p(2 * e) * (-1) ** (e & 1)  # f * delta2**e, delta2 = -p**2: no product
    if odd:
        t, v = W[m + 2] * W[m] ** 3, W[m - 1] * W[m + 1] ** 3
        forms = [d2(t, 1 - m % 2) - d2(v, m % 2)]
    else:
        forms = [W[m], W[m + 2] * W[m - 1] ** 2 - W[m - 2] * W[m + 1] ** 2]
    forms[-1] = d2(forms[-1], -k) * Fraction(1, 2**k)  # (2 delta2)^-k
    return tuple(forms)


@lru_cache(maxsize=None)
def _ws(n: int) -> LaurentPoly3:
    """W_n in (p, x, s), n >= 1: a seed, or the product of `_doubling`'s
    factors, reduced, kept once per n for the formulas of higher n."""
    if n <= 4:
        return _W_S[n - 1]
    forms = _doubling(n)
    return (forms[0] * forms[1] if len(forms) == 2 else forms[0]).reduced()


@lru_cache(maxsize=None)
def hankel_raw(n: int) -> LaurentPoly3:
    """W_n, whose vanishing is the n-gon condition, by a doubling formula.

    Hankel determinants of the square root of a cubic satisfy Somos-4
    recurrences (van der Poorten, J. Integer Sequences 8, 2005; Hone, Bull.
    LMS 37, 2005), here W_k+2 W_k-2 = a_k W_k+1 W_k-1 + b W_k^2 and W_0 = 0,
    a_k = 1/2 (k odd) or 1/(2 delta2) (k even), b = -W_3 / (2 delta2).  With
    W_n = g_n h_n, g_n = B^(n-1) u^[n even], B^2 = 2 delta2, u^4 = 1/delta2,
    it is Ward's addition law h_m+n h_m-n = h_m+1 h_m-1 h_n^2 - h_n+1 h_n-1
    h_m^2 at n = 2 (Amer. J. Math. 70, 1948): h is an elliptic divisibility
    sequence, so W_d | W_n when d | n, as `locus` relies on.  At (m+1, m-1)
    and (m+1, m) the law gives h_2m h_2 = h_m (h_m+2 h_m-1^2 - h_m-2 h_m+1^2)
    and h_2m+1 = h_m+2 h_m^3 - h_m-1 h_m+1^3 (Shipsey, thesis, 2000).  Both
    products of a formula carry one factor, g_2m / (h_2 g_m g_m+2 g_m-1^2) =
    B^(4-2m), or g_2m+1 / (g_j g_j'^3) = B^(2-2m) u^(-4[j' even]) for
    W_j W_j'^3, so

      W_2m = (2 delta2)^-(m-2) W_m X_m,  X_m = W_m+2 W_m-1^2 - W_m-2 W_m+1^2,
      W_2m+1 = (2 delta2)^-(m-1) (delta2^[m even] W_m+2 W_m^3 - delta2^[m odd] W_m-1 W_m+1^3).

    Every W_n is even in y, so the formulas run in (p, x, s) with
    s = x^2 + y^2 - 1, where W_n has about 9 times fewer terms (`_doubling`),
    from seeds typed in closed form, not the series' A_2 and A_3: W_3 = s/2
    and W_4 = -((s + 1) p + x s) / (2p).  For every n >= 3 the result is
    expanded to (p, x, y) once."""
    if n < 3:
        raise ValueError("n must be >= 3")
    return _ws(n).expand_s()


@record
class LocusPolynomial:
    """Canonical locus of circle centers forming an n-Poncelet pair with the
    parabola of parameter p, with its Hankel provenance."""

    n: int
    divisors_removed: tuple[int, ...]
    canonical: LaurentPoly3

    @property
    def raw_hankel(self) -> LaurentPoly3:
        """W_n = hankel_raw(n), computed on access (and cached there):
        `locus` builds the canonical polynomial from forms in (p, x, s) and
        never needs it."""
        return hankel_raw(self.n)


def proper_divisors(n: int) -> list[int]:
    return [k for k in range(3, n) if n % k == 0]


@lru_cache(maxsize=None)
def _locus_s(n: int) -> LaurentPoly3:
    """locus(n) in (p, x, s) before normalization.

    For n <= 4 it is the seed.  For odd n, W_n is divided by the locus of
    every proper divisor.  For even n = 2m, W_n = W_m X'_m, and W_m already
    holds every divisor of m: W_m = c p^a prod(locus(d), d | m, d >= 3),
    since normalizing strips only content and a power of p.  Only the
    cofactor X'_m is kept, divided by the loci of the proper divisors of n
    that do not divide m.  Up to n = 12, locus(6), locus(8) and locus(10)
    divide nothing and locus(12) divides X'_6 by locus(4) alone."""
    if n <= 4:
        return _ws(n)
    q = _doubling(n)[-1]
    # Divide by each divisor's locus, not its raw Hankel determinant: the
    # raw determinant of a composite divisor already contains its own
    # divisor factors, which would otherwise be stripped twice.  Each is
    # divided out through its canonical s-form, so the quotient stays
    # integral.
    for k in proper_divisors(n):
        if n % 2 == 0 and (n // 2) % k == 0:  # a factor of W_m, never multiplied in
            continue
        try:
            q = q / _locus_s(k).canonical()
        except polycore.NotDivisible as exc:
            raise polycore.NotDivisible(f"W_{n} is not divisible by locus({k}): {exc}") from None
    return q


@lru_cache(maxsize=None)
def locus(n: int) -> LocusPolynomial:
    """Canonical locus polynomial: W_n with the lower-period divisor factors
    removed by exact division.

    The division runs in (p, x, s), s = x^2 + y^2 - 1 (`_locus_s`), where
    the quotient is normalized and then expanded to (p, x, y) once
    (`canonicalize`); the result keeps its (p, x, s) form, which
    `specialize` sums at a center."""
    if not 3 <= n <= MAX_N:
        raise ValueError(f"n must be in 3..{MAX_N}")
    return LocusPolynomial(n, tuple(proper_divisors(n)), canonicalize(_locus_s(n)))


def locus_at_p(n: int, p: Fraction) -> LaurentPoly3:
    """The locus curve in (x, y) at a fixed parabola parameter p = a/b, d its
    degree in p: the sum of a**e * b**(d - e) times the packed p**e coefficient."""
    p = Fraction(p)
    if p == 0:
        raise DegenerateParabola("p = 0 is a degenerate parabola")
    canonical = locus(n).canonical
    parts = canonical.p_coefficients()[-canonical.shift:]  # p**0 .. p**d
    a, b, d = p.numerator, p.denominator, len(parts) - 1
    curve = sum((c * (a**e * b ** (d - e)) for e, c in enumerate(parts)), LaurentPoly3())
    if curve.is_zero():
        raise ZeroPolynomial(f"locus for n={n} vanished at p={p}")
    return canonicalize(curve)
