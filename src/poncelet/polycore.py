"""Exact arithmetic kernel: trivariate Laurent polynomials, univariate
polynomials over Q, real root isolation, discriminants.

A trivariate polynomial, `LaurentPoly3`, is one integer form,
p**shift * q / den with q an integer dict keyed by packed exponents, so its
products, exact division, normal form and `specialize` (the one exact
evaluator at a rational center, for the locus and region polynomials; a
locus is summed in (p, x, s), where s = x**2 + y**2 - 1 is one number) run
over integers, denominators cleared once, and its text is read from the
packed keys.  Its `terms` hold an `int` coefficient where den is 1, as in
the canonical forms, and a `fractions.Fraction` otherwise.
A univariate polynomial, `UniPolyR`, is one value with two views, each
built on first read: a Fraction per coefficient, and a primitive integer
list times a positive rational content.  `specialize` fills the integer
view from its sums and the root finder reads it; an isolating interval is
the integer triple (a, diff, v), (a/v, (a + diff)/v], and Fractions are
built only for the two ends of each reported root.
The root finder proves square-freeness by a gcd modulo a prime (Yun's
decomposition is the fallback), isolates by Descartes' rule of signs on
integer Taylor shifts (Collins and Akritas, 1976; Rouillier and Zimmermann,
2004) from the nodes of the Cauchy-bound tree that a power-of-2 Fujiwara
bound picks, and refines each root to the dyadic cell that bisection
reaches, by quadratic interval refinement (Abbott, 2014): a float Newton
seed and then secant guesses (Kerber and Sagraloff, 2011), each checked
by exact integer signs, on long operands by a fixed-point Horner
with a rigorous error bound (Kobel, Rouillier and Sagraloff, 2016) and by
exact Horner where it does not decide.  Polynomials in the three variables
(p, x, y) allow negative exponents in p only; x and y exponents are always
nonnegative.  The library types every polynomial it writes by hand over one
set of (p, x, s) variables, defined here (`P`, `X`, `S`, `R`, `Y2`).  One
undivided definition, `_quartic_forms`, gives the quartic's discriminant and
invariants, and the cubic's discriminant as the quartic's at A = 0 over B^2."""

from __future__ import annotations

import heapq
import math
import operator
import re
from fractions import Fraction
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Sequence, Union

Scalar = Union[int, Fraction]
Expo = tuple[int, int, int]  # (e_p, e_x, e_y)

# Interval width for reported roots.  Tighter than the 1e-9 tolerance of the
# numeric closure oracle by a wide margin: near-degenerate parabolas amplify
# root error by ~1e4 in the traced closure residual.
ROOT_WIDTH = Fraction(1, 10**15)


class PolycoreError(Exception):
    pass


class NotDivisible(PolycoreError):
    pass


class ZeroPolynomial(PolycoreError):
    pass


class NegativePExponent(PolycoreError):
    pass


class UnsupportedDegree(PolycoreError):
    pass


def _as_fraction(c) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"expected int or Fraction, got {type(c).__name__}")


# -- trivariate polynomials ---------------------------------------------------
#
# A polynomial in three variables is p**shift * q / den for a dict
# q = {key: int}.  A key packs three exponents, all >= 0, as
# (e_1 << 2w) | (e_2 << w) | e_3, so int order is lex order and adding keys
# multiplies monomials as long as the second and third exponents stay below
# 2**w; the first has the high bits to itself.  _mul and _idiv work on
# such dicts.

_PXY, _PXS = "(p, x, y)", "(p, x, s)"


def _den_lcm(coeffs: Iterable[Scalar]) -> int:
    return math.lcm(1, *(c.denominator for c in coeffs))


# The narrowest field: polynomials of low degree then share one width, and
# a product of two of them needs no re-keying.
_MIN_WIDTH = 5


def _width(bound: int) -> int:
    """Bits per exponent field so that exponents up to `bound` fit."""
    return max(_MIN_WIDTH, bound.bit_length())


def _mul(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    """a*b in integer form."""
    out: dict[int, int] = {}
    get = out.get
    for ka, ca in a.items():
        for kb, cb in b.items():
            k = ka + kb
            out[k] = get(k, 0) + ca * cb
    return {k: v for k, v in out.items() if v}


def _idiv(a: dict[int, int], b: dict[int, int], w: int) -> dict[int, int]:
    """Exact quotient a / b over Z in integer form; raises NotDivisible.

    Leading terms are removed in descending key order, from a heap.  A
    quotient term whose exponents fall outside 0..deg(a) - deg(b) in some
    variable, or whose coefficient is not an integer, means b does not
    divide a.  Within those limits no sum of keys overflows a field.
    """
    if not a:
        return {}
    mask = (1 << w) - 1
    lb = max(b)
    lc = b[lb]
    rest = [(k, c) for k, c in b.items() if k != lb]
    bp, bx, by = lb >> 2 * w, (lb >> w) & mask, lb & mask
    dp = (max(a) >> 2 * w) - bp
    dx = max((k >> w) & mask for k in a) - max((k >> w) & mask for k in b)
    dy = max(k & mask for k in a) - max(k & mask for k in b)
    rem = dict(a)
    heap = [-k for k in rem]
    heapq.heapify(heap)
    push, pop = heapq.heappush, heapq.heappop
    q: dict[int, int] = {}
    while heap:
        k = -pop(heap)
        c = rem.pop(k)
        if not c:
            continue
        qp, qx, qy = (k >> 2 * w) - bp, ((k >> w) & mask) - bx, (k & mask) - by
        if not (0 <= qp <= dp and 0 <= qx <= dx and 0 <= qy <= dy):
            raise NotDivisible("leading term outside the quotient's degree range")
        qc, r = divmod(c, lc)
        if r:
            raise NotDivisible("inexact integer coefficient")
        qk = k - lb
        q[qk] = qc
        for kb, cb in rest:
            kk = qk + kb
            v = rem.get(kk)
            if v is None:
                rem[kk] = -qc * cb
                push(heap, -kk)
            else:
                rem[kk] = v - qc * cb
    return q


def _top(q: dict[int, int], w: int) -> int:
    """The largest second or third exponent in q at w-bit fields."""
    mask = (1 << w) - 1
    return max(max((k >> w) & mask for k in q), max(k & mask for k in q)) if q else 0


def _rekey(q: dict[int, int], v: int, w: int, up: int = 0, m: int = 1) -> dict[int, int]:
    """q at v-bit fields as a dict at w-bit fields, which must fit its
    exponents, times p**up and the int m."""
    if v == w:
        if not up and m == 1:
            return q
        up <<= 2 * w
        return {k + up: c * m for k, c in q.items()}
    mask = (1 << v) - 1
    return {((((k >> 2 * v) + up) << w | ((k >> v) & mask)) << w) | (k & mask): c * m for k, c in q.items()}


class LaurentPoly3:
    """Polynomial in (p, x, y) over Q, Laurent in p: p**shift * q / den for
    an integer dict q keyed by packed exponents at w-bit fields, with no
    zero value and every exponent of a key >= 0, a positive int den, and
    deg bounding the x- and y-exponents (below 2**w).  Instances are
    treated as immutable.

    `terms` is {(e_p, e_x, e_y): coefficient}, in q's order, decoded on
    first read and kept as a read-only view: an int coefficient where den
    is 1 and a Fraction otherwise, which compare and hash alike.  A ring
    under +, - and * (by a polynomial, an int or a Fraction), ** (`_power`)
    and exact / (NotDivisible when a remainder is left): a product is one
    `_mul` and a quotient one `_idiv`, each on both operands re-keyed
    to one width that fits the result.  A polynomial has many such forms;
    == and hash compare the polynomials, and `reduced` and `canonical` pick
    one form.

    Privately, a value may be in (p, x, s), s = x**2 + y**2 - 1 (`P`, `X`,
    `S`), its third exponent that of s: such a value has no `terms` until
    `expand_s`, and does not mix with one in (p, x, y).  The value that
    `expand_s` returns (and so `canonicalize` of a (p, x, s) value) keeps
    that form of itself in `_src`, which `specialize` reads; the slot is
    unset on every other value, so no other operation builds one.
    """

    __slots__ = ("q", "den", "w", "deg", "shift", "vars", "_terms", "_src")

    def __init__(self, terms: Mapping[Expo, Scalar] | None = None):
        clean: dict[Expo, Fraction] = {}
        if terms:
            for e, c in terms.items():
                ep, ex, ey = map(operator.index, e)  # TypeError for 1.5 or "1", not truncation
                if ex < 0 or ey < 0:
                    raise ValueError("x and y exponents must be nonnegative")
                c = _as_fraction(c)
                if c:
                    clean[(ep, ex, ey)] = c
        shift = min((e[0] for e in clean), default=0)
        deg = max((max(ex, ey) for _, ex, ey in clean), default=0)
        den, w = _den_lcm(clean.values()), _width(deg)
        q = {((((ep - shift) << w) | ex) << w) | ey: c.numerator * (den // c.denominator)
             for (ep, ex, ey), c in clean.items()}
        self.q, self.den, self.w, self.deg, self.shift, self.vars, self._terms = q, den, w, deg, shift, _PXY, None

    # -- constructors ------------------------------------------------------

    @staticmethod
    def const(c: Scalar) -> "LaurentPoly3":
        return LaurentPoly3({(0, 0, 0): c})

    @staticmethod
    def monomial(c: Scalar, ep: int = 0, ex: int = 0, ey: int = 0) -> "LaurentPoly3":
        return LaurentPoly3({(ep, ex, ey): c})

    @staticmethod
    def var_p(power: int = 1) -> "LaurentPoly3":
        return LaurentPoly3({(power, 0, 0): 1})

    @staticmethod
    def var_x() -> "LaurentPoly3":
        return LaurentPoly3({(0, 1, 0): 1})

    @staticmethod
    def var_y() -> "LaurentPoly3":
        return LaurentPoly3({(0, 0, 1): 1})

    # -- basic queries -----------------------------------------------------

    @property
    def terms(self) -> Mapping[Expo, Scalar]:
        if self._terms is None:
            if self.vars != _PXY:
                raise PolycoreError(f"a polynomial in {self.vars} has no terms until expand_s")
            self._terms = MappingProxyType(self._decode())
        return self._terms

    def _decode(self) -> dict[Expo, Scalar]:
        w, shift, den = self.w, self.shift, self.den
        mask = (1 << w) - 1
        q = self.q if den == 1 else {k: Fraction(c, den) for k, c in self.q.items()}
        return {((k >> 2 * w) + shift, (k >> w) & mask, k & mask): c for k, c in q.items()}

    def is_zero(self) -> bool:
        return not self.q

    def min_p_exponent(self) -> int:
        if not self.q:
            raise ZeroPolynomial("zero polynomial has no p-degree")
        return self.shift + (min(self.q) >> 2 * self.w)

    def leading_term(self) -> tuple[Expo, Scalar]:
        """Leading term in lexicographic order p > x > y."""
        if not self.q:
            raise ZeroPolynomial("zero polynomial has no leading term")
        e = max(self.terms)
        return e, self.terms[e]

    def __bool__(self) -> bool:
        return bool(self.q)

    def __hash__(self) -> int:
        return hash(frozenset((self.terms if self.vars == _PXY else self._decode()).items()))

    def __reduce__(self):
        return _poly, (self.q, self.den, self.w, self.deg, self.shift, self.vars)

    # -- ring operations ---------------------------------------------------

    def _lift(self, other) -> "LaurentPoly3 | None":
        """other, a polynomial in this one's variables or a scalar, as a
        polynomial; None for anything else."""
        if isinstance(other, LaurentPoly3):
            if other.vars != self.vars:
                raise PolycoreError(f"polynomials in {self.vars} and {other.vars} do not mix")
            return other
        if isinstance(other, (int, Fraction)):
            return _poly({0: other.numerator} if other else {}, other.denominator, self.w, 0, 0, self.vars)
        return None

    def _aligned(self, other: "LaurentPoly3") -> tuple[int, int, int, dict[int, int], dict[int, int]]:
        """(w, shift, den, a, b) with a and b the q of self and other at one
        w-bit width, over one p**shift and over one den."""
        w, shift, den = max(self.w, other.w), min(self.shift, other.shift), math.lcm(self.den, other.den)
        return (w, shift, den, _rekey(self.q, self.w, w, self.shift - shift, den // self.den),
                _rekey(other.q, other.w, w, other.shift - shift, den // other.den))

    def __eq__(self, other) -> bool:
        other = self._lift(other)
        if other is None:
            return NotImplemented
        *_, a, b = self._aligned(other)
        return a == b

    def __add__(self, other) -> "LaurentPoly3":
        other = self._lift(other)
        if other is None:
            return NotImplemented
        w, shift, den, a, b = self._aligned(other)
        out = dict(a)
        for k, c in b.items():
            s = out.get(k, 0) + c
            if s:
                out[k] = s
            else:
                del out[k]
        return _poly(out, den, w, max(self.deg, other.deg), shift, self.vars)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly3":
        return _poly({k: -c for k, c in self.q.items()}, self.den, self.w, self.deg, self.shift, self.vars)

    def __sub__(self, other) -> "LaurentPoly3":
        other = self._lift(other)
        return NotImplemented if other is None else self + -other

    def __rsub__(self, other) -> "LaurentPoly3":
        other = self._lift(other)
        return NotImplemented if other is None else other + -self

    def __mul__(self, other) -> "LaurentPoly3":
        if isinstance(other, (int, Fraction)):  # a scalar costs no product
            num = other.numerator
            q = self.q if num == 1 else {k: c * num for k, c in self.q.items()} if num else {}
            return _poly(q, self.den * other.denominator, self.w, self.deg, self.shift, self.vars)
        other = self._lift(other)
        if other is None:
            return NotImplemented
        deg, w = self.deg + other.deg, max(self.w, other.w)
        if deg >> w:
            w = _width(deg)
        q = _mul(_rekey(self.q, self.w, w), _rekey(other.q, other.w, w))
        return _poly(q, self.den * other.den, w, deg, self.shift + other.shift, self.vars)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentPoly3":
        return _power(self, n, self._lift(1))

    def __truediv__(self, other) -> "LaurentPoly3":
        # the divisor's lowest power of p moves into the shift, so the
        # quotient needs no negative one, and its content into den, so the
        # integer step divides by a primitive polynomial: exact over Q means
        # exact over Z (Gauss's lemma)
        other = self._lift(other)
        if other is None:
            return NotImplemented
        if not other.q:
            raise ZeroDivisionError("division by the zero polynomial")
        w = max(self.w, other.w)
        g, low = math.gcd(*other.q.values()), min(other.q) >> 2 * other.w
        q = _idiv(_rekey(self.q, self.w, w), _rekey(other._strip(g, low), other.w, w), w)
        return _poly({k: c * other.den for k, c in q.items()} if other.den > 1 else q, self.den * g,
                     w, _top(q, w), self.shift - other.shift - low, self.vars)

    # -- normal forms --------------------------------------------------------

    def times_p(self, e: int) -> "LaurentPoly3":
        """p**e times the polynomial: the shift moves, and no product is made."""
        return _poly(self.q, self.den, self.w, self.deg, self.shift + e, self.vars)

    def _strip(self, g: int, low: int) -> dict[int, int]:
        """q over g, which divides its content, and over p**low."""
        if g == 1 and not low:
            return self.q
        off = low << 2 * self.w
        return {k - off: c // g for k, c in self.q.items()}

    def reduced(self) -> "LaurentPoly3":
        """The same polynomial with gcd(content, den) divided out of q and
        den, and q's lowest power of p moved into the shift."""
        if not self.q:
            raise ZeroPolynomial("cannot reduce the zero polynomial")
        g, low = math.gcd(self.den, *self.q.values()), min(self.q) >> 2 * self.w
        q = self._strip(g, low)
        return _poly(q, self.den // g, self.w, _top(q, self.w), self.shift + low, self.vars)

    def canonical(self) -> "LaurentPoly3":
        """The normal form of a nonzero polynomial, as `canonicalize`
        defines it: q over its content, negated where its leading term is
        negative, den 1, and the shift that makes the lowest power of p 0.
        Terms keep q's order.  A value with a (p, x, s) source (`expand_s`)
        has the normal form `canonicalize` gives that source."""
        if not self.q:
            raise ZeroPolynomial("cannot canonicalize the zero polynomial")
        if getattr(self, "_src", None) is not None:
            return canonicalize(self._src)
        g = math.gcd(*self.q.values())
        if self.q[max(self.q)] < 0:
            g = -g
        return _poly(self._strip(g, 0), 1, self.w, self.deg, -(min(self.q) >> 2 * self.w), self.vars)

    def p_coefficients(self) -> list["LaurentPoly3"]:
        """The coefficients of p**shift .. p**(shift + d), each a polynomial
        in the other two variables alone."""
        shift = 2 * self.w
        low = (1 << shift) - 1
        split: dict[int, dict[int, int]] = {}
        for k, c in self.q.items():
            split.setdefault(k >> shift, {})[k & low] = c
        parts = [split.get(e, {}) for e in range(max(split, default=-1) + 1)]
        return [_poly(a, self.den, self.w, _top(a, self.w), 0, self.vars) for a in parts]

    def expand_s(self) -> "LaurentPoly3":
        """A polynomial in (p, x, s) as one in (p, x, y), keys in descending
        order, by two binomial expansions summed on lists: s = r - 1 takes
        c s**k to (-1)**(k - j) C(k, j) c r**j, per (p, x) row, and
        r = x**2 + y**2 takes c x**b r**j to C(j, i) c x**(b + 2j - 2i) y**(2i),
        per p and b + 2j.  The change is unimodular over Z, so den, shift,
        content and lowest p-power stay.  The result keeps this polynomial as
        its source, for `canonical` and `specialize`."""
        if self.vars != _PXS:
            raise PolycoreError("only a polynomial in (p, x, s) expands")
        if not self.q:
            raise ZeroPolynomial("cannot expand the zero polynomial")
        q, w, mask = self.q, self.w, (1 << self.w) - 1
        deg = max(((k >> w) & mask) + 2 * (k & mask) for k in q)
        w2 = _width(deg)
        top = max(k & mask for k in q) + 1
        binom = [[1]]  # C(k, 0..k)
        for _ in range(top - 1):
            binom.append([a + b for a, b in zip(binom[-1] + [0], [0] + binom[-1])])
        signed = [[-m if (k - j) & 1 else m for j, m in enumerate(row)] for k, row in enumerate(binom)]
        rows: dict[int, list[int]] = {}  # (p, x) row: coefficients of r**0..
        for key, c in q.items():
            row = rows.setdefault(key >> w, [0] * top)
            for j, m in enumerate(signed[key & mask]):
                row[j] += c * m
        sums: dict[int, list[int]] = {}  # keys of x**(b + 2j) at width w2: y**(2i) coefficients
        for px, row in rows.items():
            base = ((px >> w) << 2 * w2) | ((px & mask) << w2)
            for j, c in enumerate(row):
                if c:
                    acc = sums.setdefault(base + (j << w2 + 1), [0] * top)
                    for i, m in enumerate(binom[j]):
                        acc[i] += c * m
        out: dict[int, int] = {}
        step = (2 << w2) - 2  # one more y**2, one less x**2
        for key, acc in sums.items():
            for c in acc:
                if c:
                    out[key] = c
                key -= step
        a = _poly({k: out[k] for k in sorted(out, reverse=True)}, self.den, w2, deg, self.shift, _PXY)
        a._src = self
        return a

    # -- evaluation --------------------------------------------------------

    def evaluate(self, p, x, y):
        """Numeric or exact evaluation; works for Fraction, float, complex.
        With int or Fraction inputs the value is an exact Fraction."""
        exact = all(isinstance(v, (int, Fraction)) for v in (p, x, y))
        if exact:
            p = Fraction(p)  # an int p to a negative power would be a float
        total = Fraction(0) if exact else 0.0
        for (ep, ex, ey), c in self.terms.items():
            coeff = c if exact else float(c)
            total = total + coeff * p**ep * x**ex * y**ey
        return total

    def __repr__(self) -> str:
        where = "" if self.vars == _PXY else f", in {self.vars}"
        return f"LaurentPoly3({_text(self)!r}{where})"


_ZERO = Fraction(0)


def _poly(q: dict[int, int], den: int, w: int, deg: int, shift: int = 0, vars=_PXY) -> LaurentPoly3:
    """The LaurentPoly3 p**shift * q / den, q at w-bit fields with x- and
    y-exponents (s-exponents in _PXS) at most deg."""
    a = LaurentPoly3.__new__(LaurentPoly3)
    a.q, a.den, a.w, a.deg, a.shift, a.vars, a._terms = q, den, w, deg, shift, vars, None
    return a


# The (p, x, s) variables, S = s = x**2 + y**2 - 1, with R = S + 1 and
# Y2 = y**2 = R - x**2, built with no Fraction: every polynomial the library
# types by hand is written over them, and `expand_s` gives it in (p, x, y).
P = _poly({1 << 2 * _MIN_WIDTH: 1}, 1, _MIN_WIDTH, 0, 0, _PXS)
X, S = (_poly({k: 1}, 1, _MIN_WIDTH, 1, 0, _PXS) for k in (1 << _MIN_WIDTH, 1))
R, Y2 = S + 1, S + 1 - X * X


def _over_s(a: LaurentPoly3, k: int, r: int = 0) -> LaurentPoly3:
    """a / (s**k * (s + 1)**r) for a in (p, x, s): s**k by lowering every
    s-exponent by k, with no product, and (s + 1)**r by one exact division
    by the sum of C(r, j) s**j, built in integer form.  NotDivisible where
    the quotient is not a polynomial.  The least s-exponent of a's keys is
    the largest k that divides."""
    mask = (1 << a.w) - 1
    if any(key & mask < k for key in a.q):
        raise NotDivisible(f"s**{k} does not divide")
    a = _poly({key - k: c for key, c in a.q.items()} if k else a.q, a.den, a.w, a.deg, a.shift, _PXS)
    return a / _poly({j: math.comb(r, j) for j in range(r + 1)}, 1, _width(r), r, 0, _PXS) if r else a


def _power(base, n: int, one):
    """base**n by repeated squaring, for either polynomial class; no factor is `one`."""
    if n < 0:
        raise ValueError("negative powers not supported; divide explicitly")
    result = None
    while n:
        if n & 1:
            result = base if result is None else result * base
        n >>= 1
        if n:
            base = base * base
    return one if result is None else result


def poly_div_exact(a: LaurentPoly3, b: LaurentPoly3) -> LaurentPoly3:
    """Exact quotient a / b; raises NotDivisible when the remainder is
    nonzero and ZeroDivisionError when b is zero.  Division by pure
    p-powers always succeeds (p is invertible)."""
    return a / b


def canonicalize(a: LaurentPoly3) -> LaurentPoly3:
    """Unique scalar * p-power normal form.

    The result is a true polynomial in (p, x, y) whose lowest p-degree is
    zero, with int coefficients of content 1 and a positive leading
    coefficient in lex order p > x > y.  A value in (p, x, s) stands for
    its `expand_s`, normalized before that one expansion (content and lowest
    power of p are alike in both forms) but for the sign, read after it.
    """
    if a.vars == _PXY:
        return a.canonical()
    out = a.canonical().expand_s()
    if out.q[next(iter(out.q))] < 0:  # negated with its source, not expanded again
        out, out._src = -out, -out._src
    return out


def specialize(a: LaurentPoly3, x: Scalar, y: Scalar) -> "UniPolyR":
    """Substitute a rational center (x, y), leaving a polynomial in p.

    The sum runs over the packed keys of a's (p, x, s) source where it has
    one (`expand_s`), 4 to 14 times fewer terms for a locus, with the one
    number s = x**2 + y**2 - 1, and over a's own keys otherwise.  With
    x = u/v and the third variable m/t (y, or s over (v t)**2),
    den * v**dx * t**dz times each coefficient is a sum of integers (dx, dz
    the degrees in x and the third variable).  Those sums over their gcd
    are the result's integer view (`UniPolyR`), so no Fraction is built.
    """
    x = _as_fraction(x)
    y = _as_fraction(y)
    a = getattr(a, "_src", a)
    q, w, shift = a.q, a.w, a.shift
    if not q:
        return UniPolyR([])
    ww, mask = 2 * w, (1 << w) - 1
    if shift + (min(q) >> ww) < 0:
        raise NegativePExponent("canonicalize before specializing")
    dx, dz = max(map((mask << w).__and__, q)) >> w, max(map(mask.__and__, q))
    u, v = x.numerator, x.denominator
    m, t = y.numerator, y.denominator
    if a.vars == _PXS:
        m, t = (u * t) ** 2 + (m * v) ** 2 - (v * t) ** 2, (v * t) ** 2
        g = math.gcd(m, t)
        m, t = m // g, t // g
    xs = [u**i * v ** (dx - i) for i in range(dx + 1)]
    zs = [m**j * t ** (dz - j) for j in range(dz + 1)]
    sums = [0] * ((max(q) >> ww) + 1)
    for k, c in q.items():
        sums[k >> ww] += c * xs[(k >> w) & mask] * zs[k & mask]
    return _uni(sums[-shift:] if shift < 0 else [0] * shift + sums, a.den * v**dx * t**dz)


# -- text form -------------------------------------------------------------


def format_poly(a: LaurentPoly3) -> str:
    """Canonical text form: terms sorted lex p > x > y descending, each as
    its sign, abs(coefficient) unless that is 1 on a monomial, and the
    powers p^k, x^k, y^k, joined by "*"; a leading "+" is dropped."""
    if a.vars != _PXY:
        raise PolycoreError(f"a polynomial in {a.vars} has no terms until expand_s")
    return _text(a)


def _text(a: LaurentPoly3) -> str:
    """format_poly of a in its own variables, from the packed keys (int order
    is lex order) and a Fraction per term only where den > 1."""
    q, w, den = a.q, a.w, a.den
    if not q:
        return "0"
    keys, ww, mask = sorted(q, reverse=True), 2 * w, (1 << w) - 1
    # the text of each power, "*" first, by field value
    p1, p2, p3 = ([f"*{n}" if e == 1 else f"*{n}^{e}" if e else "" for e in range(lo, hi)]
                  for n, lo, hi in zip(a.vars.strip("()").split(", "), (a.shift, 0, 0),
                                       (a.shift + (keys[0] >> ww) + 1, a.deg + 1, a.deg + 1)))
    parts = []
    for k in keys:
        c = q[k]
        sign = " - " if c < 0 else " + "
        c = Fraction(abs(c), den) if den > 1 else abs(c)
        powers = p1[k >> ww] + p2[(k >> w) & mask] + p3[k & mask]
        # str of an int or a Fraction is its text here: "3", "1/2"
        try:
            parts.append(sign + powers[1:] if c == 1 and powers else f"{sign}{c}{powers}")
        except ValueError:  # more digits than str may convert
            parts.append(sign + _long_decimal(c) + powers)
    text = "".join(parts)
    return text[3:] if text[1] == "+" else "-" + text[3:]


def _long_decimal(c: Fraction | int) -> str:
    """str(c) for c >= 0 past the interpreter's int-to-str digit limit, in
    subquadratic time.  Each int is split into binary halves, whose exact
    `decimal` values are joined as hi * 2^w + lo: libmpdec multiplies large
    numbers in subquadratic time, where splitting at a power of ten costs
    CPython 3.11's quadratic divmod.  `decimal` is imported only here."""
    if c.denominator != 1:
        return f"{_long_decimal(c.numerator)}/{_long_decimal(c.denominator)}"
    c = int(c)
    try:
        return str(c)
    except ValueError:
        pass
    import decimal

    powers: dict[int, decimal.Decimal] = {}  # 2^h, each h once

    def exact(v: int, w: int) -> decimal.Decimal:  # 0 <= v < 2^w
        if w <= 256:
            return decimal.Decimal(v)
        h = w >> 1
        hi = v >> h
        if h not in powers:
            powers[h] = decimal.Decimal(2) ** h
        return exact(hi, w - h) * powers[h] + exact(v - (hi << h), h)

    with decimal.localcontext() as ctx:
        ctx.prec, ctx.Emax = decimal.MAX_PREC, decimal.MAX_EMAX
        ctx.traps[decimal.Inexact] = True
        return str(exact(c, c.bit_length()))


def _long_int(digits: str) -> int:
    """int(digits) for a string of decimal digits past the interpreter's
    int-to-str digit limit, the inverse of _long_decimal: the string is
    split in halves until int converts the parts."""
    try:
        return int(digits)
    except ValueError:
        k = len(digits) // 2
        return _long_int(digits[:-k]) * 10**k + _long_int(digits[-k:])


def _parse_rational(text: str) -> Fraction:
    """Fraction(text), and for a signed `num` or `num/den` in decimal digits
    past the int-to-str digit limit, the same value by _long_int."""
    try:
        return Fraction(text)
    except ValueError:
        m = re.fullmatch(r"([-+]?)([0-9]+)(?:/([0-9]+))?", text)
        if not m:
            raise
        value = Fraction(_long_int(m[2]), _long_int(m[3] or "1"))
        return -value if m[1] == "-" else value


def parse_poly(text: str) -> LaurentPoly3:
    """Inverse of format_poly (accepts any ordering of the same term syntax)."""
    # Split at each sign but an exponent's, as in p^-2: [term, sign, term, ...]
    parts = re.split(r"(?<!\^)([+-])", text)
    terms: dict[Expo, Fraction] = {}
    for sign, tok in zip(["+"] + parts[1::2], parts[::2]):
        tok = tok.strip()
        if not tok:
            continue
        coeff = Fraction(1)
        expo = [0, 0, 0]
        for factor in tok.split("*"):
            if factor and factor[0] in "pxy":
                idx = "pxy".index(factor[0])
                expo[idx] += int(factor[2:]) if "^" in factor else 1
            else:
                coeff *= _parse_rational(factor)
        e = (expo[0], expo[1], expo[2])
        if expo[1] < 0 or expo[2] < 0:
            raise ValueError(f"x and y exponents must be nonnegative: {tok}")
        c = terms.get(e, _ZERO) + (-coeff if sign == "-" else coeff)
        if c:
            terms[e] = c
        else:
            terms.pop(e, None)
    return LaurentPoly3(terms)


# -- univariate polynomials over Q ------------------------------------------


class UniPolyR:
    """Dense univariate polynomial over Q; index = degree in p.

    One value with two views, each built on first read and kept: `coeffs`,
    a Fraction per coefficient, and `_int_form()`, (prim, num, den) for the
    primitive integer list prim (lowest degree first, [] for zero) times
    the content num/den, positive but 0 for zero.  The constructor fills
    `coeffs` and `specialize` the integer view (`_uni`); == compares
    integer views, and hash, repr and pickling read `coeffs`.
    """

    __slots__ = ("_coeffs", "_ints")

    def __init__(self, coeffs: Iterable[Scalar]):
        cs = [_as_fraction(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self._coeffs, self._ints = cs, None

    @property
    def coeffs(self) -> list[Fraction]:
        if self._coeffs is None:
            prim, num, den = self._ints
            self._coeffs = [Fraction(c * num, den) for c in prim]
        return self._coeffs

    def _int_form(self) -> tuple[list[int], int, int]:
        if self._ints is None:
            den = _den_lcm(self._coeffs)
            self._ints = _primitive([c.numerator * (den // c.denominator) for c in self._coeffs], den)
        return self._ints

    def _len(self) -> int:
        return len(self._coeffs if self._ints is None else self._ints[0])

    def is_zero(self) -> bool:
        return not self._len()

    def degree(self) -> int:
        if self.is_zero():
            raise ZeroPolynomial("zero polynomial has no degree")
        return self._len() - 1

    def __eq__(self, other) -> bool:
        if not isinstance(other, UniPolyR):
            return NotImplemented
        return self._int_form() == other._int_form()

    def __hash__(self):
        return hash(tuple(self.coeffs))

    def __reduce__(self):
        return UniPolyR, (self.coeffs,)

    def __call__(self, v):
        total = 0 if isinstance(v, (int, Fraction)) else type(v)(0)
        for c in reversed(self.coeffs):
            total = total * v + (c if isinstance(v, (int, Fraction)) else float(c))
        return total

    def __add__(self, other: "UniPolyR") -> "UniPolyR":
        n = max(len(self.coeffs), len(other.coeffs))
        a = self.coeffs + [_ZERO] * (n - len(self.coeffs))
        b = other.coeffs + [_ZERO] * (n - len(other.coeffs))
        return UniPolyR([x + y for x, y in zip(a, b)])

    def __sub__(self, other: "UniPolyR") -> "UniPolyR":
        return self + other.scale(-1)

    def __mul__(self, other: "UniPolyR") -> "UniPolyR":
        if self.is_zero() or other.is_zero():
            return UniPolyR([])
        out = [_ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return UniPolyR(out)

    def __pow__(self, n: int) -> "UniPolyR":
        return _power(self, n, UniPolyR([1]))

    def scale(self, c: Scalar) -> "UniPolyR":
        c = _as_fraction(c)
        return UniPolyR([a * c for a in self.coeffs])

    def derivative(self) -> "UniPolyR":
        return UniPolyR([i * c for i, c in enumerate(self.coeffs)][1:])

    def monic(self) -> "UniPolyR":
        if self.is_zero():
            return self
        return self.scale(1 / self.coeffs[-1])

    def divmod(self, other: "UniPolyR") -> tuple["UniPolyR", "UniPolyR"]:
        if other.is_zero():
            raise ZeroDivisionError
        d = other.degree()
        lc = other.coeffs[-1]
        r = list(self.coeffs)
        q = [_ZERO] * max(0, len(r) - d)
        # q[k] cancels r[k + d], which lies above the remainder: left as is.
        for k in range(len(q) - 1, -1, -1):
            q[k] = f = r[k + d] / lc
            for i, c in enumerate(other.coeffs[:-1]):
                r[k + i] -= f * c
        return UniPolyR(q), UniPolyR(r[:d])

    def __repr__(self):
        return f"UniPolyR({self.coeffs!r})"


def _primitive(c: list[int], den: int) -> tuple[list[int], int, int]:
    """c / den, den > 0 and c without a trailing zero, as `_int_form`."""
    g = math.gcd(*c)
    h = math.gcd(g, den)
    return [x // g for x in c] if g > 1 else c, g // h, den // h


def _uni(c: list[int], den: int) -> UniPolyR:
    """The UniPolyR c / den for integers c and den > 0, integer view kept."""
    while c and not c[-1]:
        c.pop()
    f = UniPolyR.__new__(UniPolyR)
    f._coeffs, f._ints = None, _primitive(c, den)
    return f


def poly_gcd(a: UniPolyR, b: UniPolyR) -> UniPolyR:
    while not b.is_zero():
        a, b = b, a.divmod(b)[1]
    return a.monic() if not a.is_zero() else a


def squarefree_decomposition(f: UniPolyR) -> list[tuple[UniPolyR, int]]:
    """Yun's algorithm: returns [(g_i, i)] with f = lc * prod g_i^i."""
    if f.is_zero():
        raise ZeroPolynomial("zero polynomial")
    f = f.monic()
    if f.degree() == 0:
        return []
    d = f.derivative()
    a = poly_gcd(f, d)
    b = f.divmod(a)[0]
    c = d.divmod(a)[0] - b.derivative()
    out = []
    i = 1
    while b.degree() > 0:
        g = poly_gcd(b, c)
        if g.degree() > 0:
            out.append((g.monic(), i))
        b = b.divmod(g)[0]
        c = c.divmod(g)[0] - b.derivative()
        i += 1
    return out


def sturm_chain(f: UniPolyR) -> list[UniPolyR]:
    chain = [f, f.derivative()]
    while not chain[-1].is_zero() and chain[-1].degree() > 0:
        rem = chain[-2].divmod(chain[-1])[1]
        if rem.is_zero():
            break
        chain.append(rem.scale(-1))
    if chain[-1].is_zero():
        chain.pop()
    return chain


# -- real roots on integer coefficients ---------------------------------------
#
# Root isolation and refinement decide by signs only, so each polynomial is
# scaled once by a positive rational to a primitive integer coefficient
# list (lowest degree first), and a point u/v, v > 0, is never built as a
# Fraction: v**d * g(u/v) = sum c_i u**i v**(d - i) (_horner) has the sign
# of g(u/v); refinement's secant guess also reads its value.

# The prime of the square-free test.  Any prime that does not divide the
# leading coefficient proves square-freeness when the gcd mod q is 1; a
# large one makes a false alarm (a square-free g with a double root mod q)
# rare.
_SQUAREFREE_PRIME = 2**61 - 1


def _int_coeffs(g: UniPolyR) -> list[int]:
    """g's kept primitive integer list, [0] for zero; not to be changed."""
    return g._int_form()[0] or [0]


def _horner(c: Sequence[int], u: int, v: int) -> int:
    """v**d g(u/v) for the integer coefficients c of g, d = len(c) - 1."""
    total = c[-1]
    w = 1
    for ci in reversed(c[:-1]):
        w *= v
        total = total * u + ci * w
    return total


# Fractional bits of the filtered sign test beyond those of the width, where
# the test starts; see _filtered_horner.
_GUARD_BITS = 128


def _filtered_horner(prec: int):
    """A sign test at u/w, w > 0, for integer coefficients c: fixed-point
    Horner on the exact c_i, S <- floor(S x~ / 2**P) + c_i 2**P
    with x~ = floor(u 2**P / w).  For X = 2**t >= |u/w| and |x~ / 2**P|,
    |S - 2**P g(u/w)| <= E with E_i = E_(i+1) X + A_(i+1) + 1, A Horner on
    |c_i| at X.  S is returned on the scale 2**prec when |S| > E proves its
    sign; otherwise P, from prec on, doubles for this test and later ones,
    and once P passes the bits of w, _horner gives the exact value on that
    scale, which finds every zero."""
    work = prec  # P

    def sign_test(c: Sequence[int], u: int, w: int) -> int:
        nonlocal work
        while work <= w.bit_length():
            x = (u << work) // w
            t = ((abs(x) >> work) + 1).bit_length()
            total, big, bound = c[-1] << work, abs(c[-1]), 0
            for ci in reversed(c[:-1]):
                total = (total * x >> work) + (ci << work)
                bound, big = (bound << t) + big + 1, (big << t) + abs(ci)
            if abs(total) > bound:
                return (total >> (work - prec)) or 1
            work *= 2
        exact = _horner(c, u, w)
        size = (abs(exact) << prec) // w ** (len(c) - 1) or 1
        return size if exact > 0 else -size if exact else 0

    return sign_test


def _squarefree_mod(c: Sequence[int]) -> bool:
    """True when gcd(g mod q, g' mod q) = 1 over GF(q), q = _SQUAREFREE_PRIME,
    for the integer coefficients c of g, and q does not divide the leading
    coefficient.  Then g is square-free over Q; False proves nothing."""
    q = _SQUAREFREE_PRIME
    if c[-1] % q == 0:
        return False
    a = [x % q for x in c]
    b = [i * x % q for i, x in enumerate(c)][1:]
    while b:
        # a, b = b, a mod b; b's leading coefficient is nonzero mod q
        inv, n = pow(b[-1], -1, q), len(b) - 1
        while len(a) > n:
            f, k = a.pop() * inv % q, len(a) - n
            for j in range(n):
                a[k + j] = (a[k + j] - f * b[j]) % q
            while a and not a[-1]:
                a.pop()
        a, b = b, a
    return len(a) == 1


class RootList:
    """Real roots of a rational polynomial, with multiplicities and
    pairwise-disjoint isolating intervals."""

    __slots__ = ("roots",)

    def __init__(self, roots: list[tuple[float, int, tuple[Fraction, Fraction]]]):
        self.roots = roots

    def values(self) -> list[float]:
        return [r[0] for r in self.roots]

    def __iter__(self) -> Iterator[tuple[float, int, tuple[Fraction, Fraction]]]:
        return iter(self.roots)

    def __len__(self) -> int:
        return len(self.roots)

    def __repr__(self):
        return f"RootList({self.roots!r})"

    def __eq__(self, other):
        return self.roots == other.roots if type(other) is RootList else NotImplemented

    def __hash__(self):
        return hash(tuple(self.roots))


def _shift1(c: list[int], cap: int = 0) -> int:
    """Shift c in place from the coefficients of P to those of P(x + 1).

    Pass i finishes c[i] (the last pass adds nothing), so they are finished
    from index 0 upward.  With cap > 0 the sign variations among the
    finished coefficients are counted, and the shift stops once there are
    cap of them, c then only partly shifted.  Returns that count, 0 where
    cap is 0."""
    n = len(c)
    count = last = 0
    for i in range(n):
        for j in range(n - 2, i - 1, -1):
            c[j] += c[j + 1]
        ci = c[i]
        if ci and cap:
            if last and (ci ^ last) < 0:  # opposite signs
                count += 1
                if count == cap:
                    return count
            last = ci
    return count


def _descartes(p: Sequence[int]) -> int:
    """Sign variations of (x + 1)^d P(1/(x + 1)), counted up to 2: an upper
    bound, of the same parity, on the number of roots of P in (0, 1).
    `_isolate` asks only whether it is 0, 1 or more."""
    return _shift1(p[::-1], 2)


def _isolate(g: list[int]) -> list[tuple[int, int, int]]:
    """Isolating intervals (lo, hi] for all real roots of square-free g,
    given by its integer coefficients, by Descartes' rule of signs; each as
    the integer triple (a, diff, v), lo = a/v and hi = (a + diff)/v.

    The dyadic tree is that of (-B, B], B = 1 + max|c|/|lead|; the node at
    depth k and index i is (lo, hi] = (-B + 2iB/2**k, -B + 2(i + 1)B/2**k].
    A node keeps P(x) = g(lo + (hi - lo) x) times a positive integer; its
    roots in (0, 1) are bounded by _descartes, and P(1) = 0 adds the root at
    hi.  The left child is 2**d P(x/2), the right child that polynomial
    shifted by 1.  The search starts at the nodes (-h, 0] and (0, h],
    h = 2B/2**k, at the largest depth k >= 1 with h >= 2**e, where every
    root has |z| < 2**e by Fujiwara's bound with each ratio |c_(d-i)/lead|
    rounded up to a power of 2.
    """
    d = len(g) - 1
    lead = abs(g[-1])
    top = lead + max(abs(c) for c in g)
    r = math.gcd(top, lead)
    top, den = top // r, lead // r  # B = top/den
    # |c_(d-i)/lead| < 2**(bits(c_(d-i)) - bits(lead) + 1), so |z| < 2**e
    drop = [lead.bit_length() - 1 - abs(c).bit_length() for c in reversed(g[:-1])]
    e = 1 - min((x // i for i, x in enumerate(drop, 1)), default=0)
    k = max(1, (top // den).bit_length() - e)
    r = math.gcd(top, den << (k - 1))
    hn, hd = top // r, (den << (k - 1)) // r  # h = hn/hd
    # P(x) = g(h x) times hd**d, and P(x - 1), which is Q(x + 1) at -x for
    # Q(x) = P(-x)
    right = [c * hn**j * hd ** (d - j) for j, c in enumerate(g)]
    left = [-c if j % 2 else c for j, c in enumerate(right)]
    _shift1(left)
    left = [-c if j % 2 else c for j, c in enumerate(left)]
    leaves: list[tuple[int, int]] = []  # (depth, index) of nodes with one root
    stack = [(k, 1 << (k - 1), right), (k, (1 << (k - 1)) - 1, left)]
    while stack:
        k, i, p = stack.pop()
        n = _descartes(p) + (not sum(p))
        if n == 1:
            leaves.append((k, i))
        elif n > 1:
            left = [c << (d - j) for j, c in enumerate(p)]
            right = left[:]
            _shift1(right)
            stack.append((k + 1, 2 * i + 1, right))
            stack.append((k + 1, 2 * i, left))
    # Report each root on the largest node that holds no other root, however
    # deep Descartes' bound went: _refine returns an interval already
    # narrower than ROOT_WIDTH (roots closer than that) as it is, so its
    # result depends on where isolation stopped.  A leaf's ancestor at depth
    # m < k has index i >> (k - m); two leaves part one level below their
    # last common ancestor.
    out = []
    for j, (k, i) in enumerate(leaves):
        depth = 0
        for k2, i2 in leaves[max(j - 1, 0):j] + leaves[j + 1:j + 2]:
            m = min(k, k2)
            depth = max(depth, m + 1 - ((i >> (k - m)) ^ (i2 >> (k2 - m))).bit_length())
        out.append((top * (2 * (i >> (k - depth)) - (1 << depth)), 2 * top, den << depth))
    return out


def _refine(g: Sequence[int], iv: tuple[int, int, int], width: Fraction) -> tuple[int, int, int]:
    """Refine the half-open isolating interval (lo, hi] of square-free g,
    given by its integer coefficients, to the interval bisection gives: the
    dyadic cell at the first depth K narrower than `width`, or a symmetric
    interval about a bisection point where g vanishes.  Both intervals are
    integer triples (a, diff, v) as `_isolate` returns them.

    Quadratic interval refinement (Abbott, 2014) takes the cell at depth k
    as m = 2**s cells of depth k + s, tests the grid point nearest the
    secant root and its neighbour on the root's side, and on success moves
    to the cell between them and doubles s; otherwise s halves, and s never
    passes K - k.  As in approximate QIR (Kerber and Sagraloff, 2011),
    floats may choose where to test but never decide: a proper bracket,
    g(lo) <= 0 < g(hi) once g's sign is set, starts at the level and grid
    point of _seed's float Newton estimate, and the secant guess picks
    every later test (and the first where there is no seed).  Any other
    interval, one centred on a root as an exact hit returns, starts at
    s = 1, so its first test is the midpoint.  Signs are exact: from
    _filtered_horner when v (below) is longer than
    prec = _GUARD_BITS + log2(1/width) bits, else _horner.  An interval
    with g(lo) and g(hi) of one nonzero sign raises PolycoreError unless
    its midpoint is a root."""
    # lo = a/v and hi = (a + diff)/v over one denominator v, which a cell at
    # depth k multiplies by 2**k; diff stays fixed.  Over their gcd, v is the
    # lcm of the denominators of lo and hi in lowest terms.
    a, diff, v = iv
    r = math.gcd(a, diff, v)
    if r > 1:
        a, diff, v = a // r, diff // r, v // r
    a0, v0 = a, v
    wn, wd = width.numerator, width.denominator
    # The secant guess reads w**d g(u/w) from _horner, so an end value kept
    # for a finer cell is multiplied by m**d, or ~2**prec g(u/w), filtered.
    prec = _GUARD_BITS + (wd // wn).bit_length()
    horner, scale = (_filtered_horner(prec), 0) if v.bit_length() > prec else (_horner, len(g) - 1)
    hb = horner(g, a + diff, v)
    if not hb:
        # Root hit exactly; recenter a symmetric interval around it.
        return _centred(a + diff, v, wn, wd)
    if hb < 0:
        g, hb = [-c for c in g], -hb
    # The one root in (lo, hi] is simple, so g < 0 just right of lo and
    # g(lo) <= 0, with 0 when lo is a root outside, and hb > 0.  Only an
    # interval centred on a root, as an exact hit returns and the overlap
    # loop refines again, may have g(lo) > 0; the first test, at its
    # midpoint, must hit that root.
    ha = horner(g, a, v)
    depth = (diff * wd // (wn * v)).bit_length()
    k, s, guess = 0, 1, 0
    if ha <= 0 < depth:
        s, guess = _seed(g, a, diff, v, ha, hb, depth) or (1, 0)
    while k < depth:
        s = min(s, depth - k)
        m, vm = 1 << s, v << s
        if guess:
            j, guess = guess, 0
        else:
            # the grid point nearest the secant root, strictly inside the
            # cell; a poor guess costs a step, never the result
            den = ha - hb
            j = min(max((2 * m * ha + den) // (2 * den), 1), m - 1) if ha <= 0 else 1
        h = horner(g, a * m + j * diff, vm)
        n = j - 1 if h > 0 else j + 1  # the neighbour on the root's side
        if h and 0 < n < m:
            hn = horner(g, a * m + n * diff, vm)
            if not hn:
                j, h = n, 0
        else:
            hn = (ha if n == 0 else hb) << (s * scale)
        if not h:
            # Grid point j is a root.  Bisection hits it at its coarsest
            # depth e = k + s - (trailing zeros of j) and returns it with
            # eps from the half cell there, diff / (v * 2**(e - k)).
            half = v << (s + 1 - (j & -j).bit_length())
            return _centred(a * m + j * diff, vm, *((wn, wd) if wn * half <= diff * wd else (diff, half)))
        if ha > 0:
            lo, hi = Fraction(a0, v0), Fraction(a0 + diff, v0)
            raise PolycoreError(f"({lo}, {hi}] does not isolate one simple root")
        if (hn > 0) != (h > 0):
            # the root lies in the cell between j and n
            a, v, k, s = a * m + min(j, n) * diff, vm, k + s, 2 * s
            ha, hb = (h, hn) if j < n else (hn, h)
        else:
            # ha <= 0 < hb holds here, so a test at s = 1, whose neighbour
            # is an end, always moves: s never reaches 0.
            s //= 2
    return a, diff, v


# Float Newton steps of _seed at most, and the unit roundoff of a float.
_SEED_STEPS = 24
_UNIT_ROUNDOFF = 2.0**-53


def _seed(g: Sequence[int], a: int, diff: int, v: int, ha: int, hb: int, depth: int) -> tuple[int, int] | None:
    """Where _refine first tests in (lo, hi] = (a/v, (a + diff)/v), for
    integer coefficients g with g(lo) <= 0 < g(hi), ha and hb on one
    positive scale: (s, j), grid point j of the cell's 2**s parts nearest a
    float estimate of the root, at the deepest level s <= depth whose cells
    are at least twice as wide as the estimate's error bound.  None where a
    value is not finite or s would be 0.

    The estimate is safeguarded Newton on g's coefficients as floats, all
    over one power of 2 where one would overflow, from the secant point (the
    midpoint where ha is 0).  A step that leaves the float bracket, or does
    not halve the last one, bisects it, by the geometric mean where it lies
    on one side of 0; past _SEED_STEPS the bracket's middle stands.  The
    error bound is twice the last step (dx**3 / step**2 once the steps shrink
    quadratically), the rounding of the estimate, and 2 (d + 1) unit
    roundoffs of the Horner sum of |c_i| over |g'|, which also ends the
    steps where |g| is no larger.  j is read exactly from the float, and no
    Fraction is built.  The seed only chooses where to test: _refine tests j
    and its neighbour by exact signs, so a wrong seed costs steps, never the
    result."""
    try:
        try:
            top, *rest = map(float, reversed(g))
        except OverflowError:
            unit = 1 << max(map(abs, g)).bit_length()
            top, *rest = [c / unit for c in reversed(g)]
        roundoff = 2 * len(g) * _UNIT_ROUNDOFF
        lo, hi = a / v, (a + diff) / v
        width = hi - lo
        cell = math.ldexp(width, -depth - 4)  # a sixteenth of the last cell
        x = lo + width * (ha / (ha - hb) or 0.5)
        step = math.inf
        for _ in range(_SEED_STEPS):
            p, dp = top, 0.0
            for c in rest:
                dp = dp * x + p
                p = p * x + c
            if p < 0:
                lo = x
            elif p > 0:
                hi = x
            y = x - p / dp if dp else lo
            dx = abs(y - x)
            if not dx:
                break
            if lo < y < hi and dx <= step / 2:
                # Newton converges: stop where the next step would be
                # below a sixteenth of a last cell or 4 ulps
                if step < math.inf and dx * dx * dx <= max(cell, 4 * math.ulp(y)) * step * step:
                    dx = dx * dx * dx / (step * step)
                    break
            else:
                # stop where p is within its rounding error, else bisect
                size, ax = abs(top), abs(x)
                for c in rest:
                    size = size * ax + abs(c)
                if abs(p) <= roundoff * size:
                    y, dx = x, abs(p / dp)
                    break
                y = (math.sqrt(lo) * math.sqrt(hi) if lo > 0 else -math.sqrt(-lo) * math.sqrt(-hi) if hi < 0
                     else lo + 0.5 * (hi - lo))
                dx = math.inf
            step, x = dx, y
        else:
            y, dx = lo + 0.5 * (hi - lo), 0.5 * (hi - lo)
        size, ax = abs(top), abs(x)
        for c in rest:
            size = size * ax + abs(c)
        err = 2 * dx + roundoff * size / abs(dp) + math.ulp(y)
        if not math.isfinite(err):
            return None
        s = min(depth, math.frexp(width / (2 * err))[1] - 1)
        if s < 1:
            return None
        # the grid point nearest y = yn/yd: round((y - a/v) 2**s v / diff)
        yn, yd = y.as_integer_ratio()
        j = ((yn * v - a * yd << (s + 1)) + diff * yd) // (2 * diff * yd)
        return s, min(max(j, 1), (1 << s) - 1)
    except (OverflowError, ZeroDivisionError):
        return None


def _centred(u: int, w: int, en: int, ed: int) -> tuple[int, int, int]:
    """The interval about u/w, w > 0, of half-width en/(4 ed) as a triple."""
    return 4 * ed * u - en * w, 2 * en * w, 4 * ed * w


def sturm_real_roots(f: UniPolyR, exclude_zero: bool = False) -> RootList:
    """All real roots with multiplicities and isolating intervals refined
    below 1e-15 width.

    The root search reads f's integer view, its primitive integer
    coefficients.  When a modular gcd with its derivative proves it
    square-free (_squarefree_mod), that list is isolated as it is;
    otherwise Yun's square-free decomposition splits it first.  Each
    square-free factor is isolated by Descartes' rule of signs on integer
    Taylor shifts from a Fujiwara start node (_isolate) and refined by
    quadratic interval refinement with filtered signs (_refine) to the
    interval bisection from (-B, B] would give; a float Newton estimate
    (_seed) picks its first test, and exact signs decide every step, so
    the intervals do not depend on the floats.  Intervals stay integer
    triples; the two Fraction ends of each reported root are the only
    Fractions built, and its float is one int true division."""
    if f.is_zero():
        raise ZeroPolynomial("zero polynomial")
    c = _int_coeffs(f)
    if _squarefree_mod(c):
        factors = [(c, 1)]
    else:
        factors = [(_int_coeffs(g), mult) for g, mult in squarefree_decomposition(f)]
    # (a, diff, v, mult, c): the interval (a/v, (a + diff)/v] of a root of
    # multiplicity mult of the square-free factor c
    found = [(*_refine(c, iv, ROOT_WIDTH), mult, c) for c, mult in factors for iv in _isolate(c)]
    # Roots of distinct square-free factors are distinct; shrink any
    # intervals that still overlap.  A refined interval can move past its
    # neighbour, so each round sorts again.  One factor's intervals come in
    # order, so a round runs only where two roots lie within ROOT_WIDTH or
    # Yun's split gave several factors.
    changed = any((a + d) * w > b * v for (a, d, v, *_), (b, _, w, *_) in zip(found, found[1:]))
    while changed:
        changed = False
        found.sort(key=lambda r: Fraction(2 * r[0] + r[1], r[2]))
        for i in range(len(found) - 1):
            (a, d, v, mult, c), (b, e, w, mult2, c2) = found[i], found[i + 1]
            if (a + d) * w > b * v:
                found[i] = (*_refine(c, (a, d, v), Fraction(d, 4 * v)), mult, c)
                found[i + 1] = (*_refine(c2, (b, e, w), Fraction(e, 4 * w)), mult2, c2)
                changed = True
    roots = []
    for a, d, v, mult, c in found:
        if exclude_zero and not c[0] and a <= 0 <= a + d:
            continue
        try:
            value = (2 * a + d) / (2 * v)  # correctly rounded, as float(Fraction) is
        except OverflowError:
            value = _root_float(Fraction(2 * a + d, 2 * v))
        roots.append((value, mult, (Fraction(a, v), Fraction(a + d, v))))
    return RootList(roots)


def _root_float(v: Fraction) -> float:
    """float(v) for a reported root value, or a named error where v has none."""
    try:
        return float(v)
    except OverflowError:
        bits = abs(v.numerator).bit_length() - v.denominator.bit_length()
        raise PolycoreError(f"a root of magnitude about 2**{bits} is beyond the float range") from None


# -- discriminants -----------------------------------------------------------


def _quartic_forms(A, B, C, D, E):
    """Yields 27 disc, P, 3 D, O, R of A t^4 + B t^3 + C t^2 + D t + E in
    that order, typed once and undivided, so int entries give ints, and
    27 disc before any product of the rest (Cremona, 1999): 27 disc =
    4 I^3 - J^2 with O = I = C^2 + 12 A E - 3 B D and J = C (72 A E + 9 B D
    - 2 C^2) - 27 (A D^2 + E B^2), P = 8 A C - 3 B^2, 3 D = 16 A^2 I - P^2
    and R = B^3 + 8 A^2 D - 4 A B C, over any ring."""
    BB, AE, BD, CC = B * B, A * E, B * D, C * C
    I = CC + 12 * AE - 3 * BD
    J = C * (72 * AE + 9 * BD - 2 * CC) - 27 * (A * D * D + E * BB)
    yield 4 * I * I * I - J * J
    AA, AC = A * A, A * C
    P = 8 * AC - 3 * BB
    yield from (P, 16 * AA * I - P * P, I, B * (BB - 4 * AC) + 8 * AA * D)


def quartic_invariants(A, B, C, D, E):
    """(disc, P, D, O, R) of A t^4 + B t^3 + C t^2 + D t + E: `_quartic_forms`
    with 27 disc over 27 and 3 D over 3.  Over any commutative ring that
    holds 1/27; int entries give a Fraction disc and D."""
    disc27, P, D3, O, R = _quartic_forms(A, B, C, D, E)
    return disc27 * Fraction(1, 27), P, D3 * Fraction(1, 3), O, R


def discriminant(f: UniPolyR) -> Fraction:
    """Exact discriminant for degrees 2-4: B^2 - 4 A C, and the cubic and
    the quartic from the quartic's formulas (`quartic_invariants`)."""
    if f.is_zero():
        raise ZeroPolynomial("zero polynomial")
    return _discriminant(f.coeffs)


def _discriminant(c: Sequence):
    """discriminant() of the coefficients c, constant first, in any ring; the
    cubic's is Disc_4(0, B, C, D, E) / B^2, as that is B^2 Disc_3(B, C, D, E)."""
    deg = len(c) - 1
    if deg == 2:
        return c[1] * c[1] - 4 * c[2] * c[0]
    if deg == 3:
        return quartic_invariants(0, *c[::-1])[0] / (c[3] * c[3])
    if deg == 4:
        return quartic_invariants(*c[::-1])[0]
    raise UnsupportedDegree(f"degree {deg} not supported")


def _discriminant_sign(c: Sequence[int]) -> int:
    """The sign of _discriminant(c) for integer c, with no Fraction: at
    degree 4 it is read from 27 times the discriminant."""
    d = next(_quartic_forms(*c[::-1])) if len(c) == 5 else _discriminant(c)
    return (d > 0) - (d < 0)
