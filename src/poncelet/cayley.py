"""Pencil coefficients, the Cayley series recursion, Hankel determinants,
and canonical locus polynomials for the circle/parabola pencil."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

from .geometry import DegenerateParabola
from .polycore import (
    LaurentPoly3,
    ZeroPolynomial,
    canonicalize,
    poly_det,
    poly_div_exact,
)

MAX_N = 12

_P = LaurentPoly3.var_p()
_X = LaurentPoly3.var_x()
_Y = LaurentPoly3.var_y()


@dataclass(frozen=True)
class PencilCoeffs:
    """The four characteristic-polynomial coefficients of the pencil
    det(lambda*circle + parabola) for a unit circle centered at (x, y)."""

    delta1: LaurentPoly3
    theta1: LaurentPoly3
    theta2: LaurentPoly3
    delta2: LaurentPoly3


def pencil_coeffs() -> PencilCoeffs:
    return PencilCoeffs(
        delta1=LaurentPoly3.const(-1),
        theta1=-(_P**2) - 2 * _P * _X + _Y**2 - 1,
        theta2=-2 * _P**2 - 2 * _P * _X,
        delta2=-(_P**2),
    )


def atilde_sequence(K: int) -> tuple[LaurentPoly3, ...]:
    """Entries 1..K of the scaled coefficient recursion, computed exactly:
    entry k - 1 of the tuple holds k! * A0 * A_k.

    Only A0^2 = delta2 ever enters the recursion, so no square root (and no
    branch choice) appears in exact computation.
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    return tuple(_atilde(k) for k in range(1, K + 1))


@lru_cache(maxsize=None)
def _atilde(k: int) -> LaurentPoly3:
    """Entry k >= 1 of atilde_sequence.  That function asks for the entries
    in increasing order, so the recursion finds each earlier one cached."""
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


def _hankel_matrix(n: int) -> list[list[LaurentPoly3]]:
    """The Hankel matrix in the series coefficients A_k = seq[k - 1] / k!."""
    if n < 3:
        raise ValueError("n must be >= 3")
    m = n // 2
    # odd n: A_{i+j}, i, j = 1..m; even n: A_{i+j+1}, i, j = 1..m-1
    first, size = (2, m) if n % 2 else (3, m - 1)
    seq = atilde_sequence(first + 2 * (size - 1))
    return [
        [seq[k - 1] * Fraction(1, factorial(k)) for k in range(first + i, first + i + size)]
        for i in range(size)
    ]


@lru_cache(maxsize=None)
def hankel_raw(n: int) -> LaurentPoly3:
    """The raw Hankel determinant whose vanishing is the n-gon condition."""
    return poly_det(_hankel_matrix(n))


@dataclass(frozen=True)
class LocusPolynomial:
    """Canonical locus of circle centers forming an n-Poncelet pair with the
    parabola of parameter p, with its Hankel provenance."""

    n: int
    raw_hankel: LaurentPoly3
    divisors_removed: tuple[int, ...]
    canonical: LaurentPoly3


def proper_divisors(n: int) -> list[int]:
    return [k for k in range(3, n) if n % k == 0]


@lru_cache(maxsize=None)
def locus(n: int) -> LocusPolynomial:
    """Canonical locus polynomial: raw Hankel determinant with the
    lower-period divisor factors removed by exact division."""
    if not 3 <= n <= MAX_N:
        raise ValueError(f"n must be in 3..{MAX_N}")
    raw = hankel_raw(n)
    q = raw
    removed = proper_divisors(n)
    # Divide by the *canonical* locus of each proper divisor, not its raw
    # Hankel determinant: the raw determinant of a composite divisor (e.g.
    # 6) already contains its own divisor factors, which would otherwise be
    # stripped twice.
    for k in removed:
        q = poly_div_exact(q, locus(k).canonical)
    return LocusPolynomial(
        n=n,
        raw_hankel=raw,
        divisors_removed=tuple(removed),
        canonical=canonicalize(q),
    )


def locus_at_p(n: int, p: Fraction) -> LaurentPoly3:
    """The locus curve in (x, y) for a fixed parabola parameter p."""
    p = Fraction(p)
    if p == 0:
        raise DegenerateParabola("p = 0 is a degenerate parabola")
    curve = locus(n).canonical.substitute_p(p)
    if curve.is_zero():
        raise ZeroPolynomial(f"locus for n={n} vanished at p={p}")
    return canonicalize(curve)
