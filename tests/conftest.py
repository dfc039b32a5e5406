"""Shared helpers for the test suite.

Randomized drivers are seeded; set PONCELET_SEED to re-run them with a
different seed.
"""

import math
import operator
import os
import random
import signal
from contextlib import contextmanager
from fractions import Fraction

import pytest

from poncelet import classify, polycore, verify
from poncelet.cayley import atilde_sequence, hankel_raw, locus_at_p, pencil_coeffs, proper_divisors
from poncelet.polycore import (
    LaurentPoly3,
    UniPolyR,
    poly_div_exact,
    specialize,
    squarefree_decomposition,
    sturm_chain,
)

DEFAULT_SEED = 20260826


def make_rng(salt: int = 0) -> random.Random:
    seed = int(os.environ.get("PONCELET_SEED", str(DEFAULT_SEED)))
    return random.Random(seed + salt)


def pxs(terms) -> LaurentPoly3:
    """The polynomial with these terms {(e_p, e_x, e_s): c} in (p, x, s),
    s = x^2 + y^2 - 1, built from the terms as typed."""
    a = LaurentPoly3(terms)
    a.vars = polycore._PXS
    return a


def rand_fraction(rng: random.Random, num: int = 12, den: int = 6) -> Fraction:
    return Fraction(rng.randint(-num, num), rng.randint(1, den))


def rand_center_off_sigma(rng: random.Random) -> tuple[Fraction, Fraction]:
    """A random rational center avoiding the unit circle and the origin."""
    while True:
        x = rand_fraction(rng)
        y = rand_fraction(rng)
        r2 = x * x + y * y
        if r2 != 0 and r2 != 1:
            return x, y


def bench_center(rng: random.Random, kind: str) -> tuple[Fraction, Fraction]:
    """A center of one of the benchmark's three kinds: "small" (numerators
    up to 12, denominators up to 6), "large" (numerators and denominators
    around 10**6) and "near" (a rational point of the unit circle moved
    radially by 1/k, k in 20..2000); never the focus or the unit circle."""
    while True:
        if kind == "small":
            x, y = rand_fraction(rng), rand_fraction(rng)
        elif kind == "large":
            dx, dy = rng.randint(500_000, 1_000_000), rng.randint(500_000, 1_000_000)
            x, y = Fraction(rng.randint(-2 * dx, 2 * dx), dx), Fraction(rng.randint(-2 * dy, 2 * dy), dy)
        else:
            t = Fraction(rng.randint(-12, 12), rng.randint(1, 12))
            s = 1 + Fraction(rng.choice((-1, 1)), rng.randint(20, 2000))
            x, y = (1 - t * t) / (1 + t * t) * s, 2 * t / (1 + t * t) * s
        if x * x + y * y not in (0, 1):
            return x, y


def jordan_j2(n: int) -> int:
    """Jordan's totient J_2(n) = n^2 prod(1 - 1/q^2) over the primes q | n."""
    out, m, q = n * n, n, 2
    while m > 1:
        if m % q == 0:
            out = out // (q * q) * (q * q - 1)
            while m % q == 0:
                m //= q
        q += 1
    return out


def specialize_reference(a: LaurentPoly3, x, y) -> UniPolyR:
    """specialize(a, x, y) from a's terms in (p, x, y): one Fraction product
    per term, summed per power of p."""
    coeffs = {}
    for (ep, ex, ey), c in a.terms.items():
        coeffs[ep] = coeffs.get(ep, 0) + c * Fraction(x) ** ex * Fraction(y) ** ey
    return UniPolyR([coeffs.get(k, 0) for k in range(max(coeffs, default=-1) + 1)])


def region_value(name: str, x: Fraction, y: Fraction) -> Fraction:
    """Exact value at (x, y) of the printed region polynomial `name`, the
    reference the region labels of `pair_classify` are checked against."""
    coeffs = specialize(verify.region_polys()[name], x, y).coeffs
    return coeffs[0] if coeffs else Fraction(0)


@contextmanager
def time_limit(seconds):
    """Turn a call that never returns (a root search looping forever) into
    a failure after `seconds`."""
    def stop(signum, frame):
        raise TimeoutError(f"did not return within {seconds} s")

    old = signal.signal(signal.SIGALRM, stop)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


@contextmanager
def fraction_count():
    """Count the Fractions built in the block: a list that grows by one per
    call of Fraction.__new__, which every constructor and every arithmetic
    result of CPython 3.11's fractions module goes through."""
    new = vars(Fraction)["__new__"]
    built = []

    def counting(cls, *args, **kwargs):
        built.append(1)
        return new.__func__(cls, *args, **kwargs)

    Fraction.__new__ = staticmethod(counting)
    try:
        yield built
    finally:
        Fraction.__new__ = new


@pytest.fixture
def kernel_calls(monkeypatch) -> dict[str, list[tuple[int, ...]]]:
    """The integer kernel's calls in a test, by size: "mul" gets
    (len(a), len(b), len(product)) per polycore._mul, "div"
    (len(a), len(b), len(quotient)) per polycore._idiv and "expand"
    (len(q) in (p, x, s), len(q) in (p, x, y)) per LaurentPoly3.expand_s.
    A test clears the lists to measure one step and reads the measure it
    pins."""
    calls = {"mul": [], "div": [], "expand": []}
    mul, idiv, expand_s = polycore._mul, polycore._idiv, LaurentPoly3.expand_s

    def counted_mul(a, b):
        out = mul(a, b)
        calls["mul"].append((len(a), len(b), len(out)))
        return out

    def counted_idiv(a, b, w):
        out = idiv(a, b, w)
        calls["div"].append((len(a), len(b), len(out)))
        return out

    def counted_expand_s(self):
        out = expand_s(self)
        calls["expand"].append((len(self.q), len(out.q)))
        return out

    monkeypatch.setattr(polycore, "_mul", counted_mul)
    monkeypatch.setattr(polycore, "_idiv", counted_idiv)
    monkeypatch.setattr(LaurentPoly3, "expand_s", counted_expand_s)
    return calls


def count_sign_tests(monkeypatch) -> list:
    """A list that grows by one per sign test of polycore._refine: each
    exact _horner call and each call of a _filtered_horner closure, whose
    own fall back to exact Horner is not counted again."""
    tests, inside = [], []
    horner, filtered = polycore._horner, polycore._filtered_horner

    def counted_horner(*args):
        if not inside:
            tests.append(1)
        return horner(*args)

    def counted_filtered(prec):
        sign_test = filtered(prec)

        def counted(*args):
            tests.append(1)
            inside.append(1)
            try:
                return sign_test(*args)
            finally:
                inside.pop()

        return counted

    monkeypatch.setattr(polycore, "_horner", counted_horner)
    monkeypatch.setattr(polycore, "_filtered_horner", counted_filtered)
    return tests


def cauchy_bound(g: UniPolyR) -> Fraction:
    lead = g.coeffs[-1]
    return 1 + max(abs(c / lead) for c in g.coeffs)


def sign_at(c, u: int, v: int) -> int:
    """Sign of g(u/v) for the integer coefficients c of g and v > 0, by the
    library's one evaluator (looked up on the module, so that a test that
    counts its calls counts these too)."""
    total = polycore._horner(c, u, v)
    return (total > 0) - (total < 0)


def _variations(chain, u: int, v: int) -> int:
    """Sign variations of an integer-coefficient chain at u/v, v > 0."""
    count, last = 0, 0
    for c in chain:
        s = sign_at(c, u, v)
        if s:
            if s == -last:
                count += 1
            last = s
    return count


def sign_variations(chain, at) -> int:
    """Sign variations of a Sturm chain of UniPolyR at the rational `at`:
    the reference root count, independent of the Descartes isolation in
    sturm_real_roots."""
    at = Fraction(at)
    return _variations([g.prim for g in chain], at.numerator, at.denominator)


def sturm_isolate(g: UniPolyR) -> list[tuple[Fraction, Fraction]]:
    """Isolating intervals (lo, hi] of the real roots of square-free g:
    bisect (-B, B], B = cauchy_bound(g), until each node's Sturm count
    V(lo) - V(hi) is 0 or 1.  The reference for polycore._isolate, which
    must return the same nodes."""
    chain = [h.prim for h in sturm_chain(g)]
    bound = cauchy_bound(g)
    top, den = bound.numerator, bound.denominator
    out = []
    stack = [(-top, top, den)]
    while stack:
        a, b, v = stack.pop()
        n = _variations(chain, a, v) - _variations(chain, b, v)
        if n == 1:
            out.append((Fraction(a, v), Fraction(b, v)))
        elif n > 1:
            mid, v = a + b, 2 * v
            stack += [(mid, 2 * b, v), (2 * a, mid, v)]
    return sorted(out)


def cauchy_isolate(g: list[int]) -> list[tuple[Fraction, Fraction]]:
    """Isolating intervals (lo, hi] of the real roots of square-free g,
    given by its integer coefficients, by Descartes' rule of signs from the
    root of the dyadic tree of (-B, B], B = 1 + max|c|/|lead|: the node at
    depth k and index i is (-B + 2iB/2**k, -B + 2(i + 1)B/2**k].  A node
    keeps P(x) = g(lo + (hi - lo) x) scaled to integers; its roots in (0, 1)
    are bounded by _descartes, and P(1) = 0 adds the root at hi.  The left
    child is 2**d P(x/2), the right child that polynomial shifted by 1.
    Each root is reported on the largest node that holds no other root.
    The reference for polycore._isolate, which starts below the root node
    and must return the same nodes; its kernels are looked up on the module,
    so that a test that counts their calls counts these too."""
    d = len(g) - 1
    lead = abs(g[-1])
    bound = Fraction(lead + max(abs(c) for c in g), lead)
    top, den = bound.numerator, bound.denominator
    # den**d g((2 top x - top)/den), by Horner
    p = [g[-1]]
    for j in range(d - 1, -1, -1):
        p = [2 * top * b - top * a for a, b in zip(p + [0], [0] + p)]
        p[0] += g[j] * den ** (d - j)
    leaves: list[tuple[int, int]] = []  # (depth, index) of nodes with one root
    stack = [(0, 0, p)]
    while stack:
        k, i, p = stack.pop()
        n = polycore._descartes(p) + (not sum(p))
        if n == 1:
            leaves.append((k, i))
        elif n > 1:
            left = [c << (d - j) for j, c in enumerate(p)]
            right = left[:]
            polycore._shift1(right)
            stack.append((k + 1, 2 * i + 1, right))
            stack.append((k + 1, 2 * i, left))
    # A leaf's ancestor at depth m < k has index i >> (k - m); two leaves
    # part one level below their last common ancestor.
    out = []
    for j, (k, i) in enumerate(leaves):
        depth = 0
        for k2, i2 in leaves[max(j - 1, 0):j] + leaves[j + 1:j + 2]:
            m = min(k, k2)
            depth = max(depth, m + 1 - ((i >> (k - m)) ^ (i2 >> (k2 - m))).bit_length())
        a, v = top * (2 * (i >> (k - depth)) - (1 << depth)), den << depth
        out.append((Fraction(a, v), Fraction(a + 2 * top, v)))
    return out


def quartic_disc_expanded(A, B, C, D, E):
    """The discriminant of A t^4 + B t^3 + C t^2 + D t + E as its 16
    expanded terms: the reference for the discriminant that
    polycore._quartic_forms builds from the invariants I and J."""
    return (
        B * B * C * C * D * D
        - 4 * A * C * C * C * D * D
        - 4 * B * B * B * D * D * D
        + 18 * A * B * C * D * D * D
        - 27 * A * A * D * D * D * D
        - 4 * B * B * C * C * C * E
        + 16 * A * C * C * C * C * E
        + 18 * B * B * B * C * D * E
        - 80 * A * B * C * C * D * E
        - 6 * A * B * B * D * D * E
        + 144 * A * A * C * D * D * E
        - 27 * B * B * B * B * E * E
        + 144 * A * B * B * C * E * E
        - 128 * A * A * C * C * E * E
        - 192 * A * A * B * D * E * E
        + 256 * A * A * A * E * E * E
    )


def quartic_D_expanded(A, B, C, D, E):
    """The quartic's invariant D as its 5 expanded terms: the reference for
    quartic_D, which builds it from P and I."""
    return (
        -3 * B * B * B * B
        - 16 * A * A * C * C
        + 64 * A * A * A * E
        + 16 * A * B * B * C
        - 16 * A * A * B * D
    )


# The invariants P, D, O and R of A t^4 + B t^3 + C t^2 + D t + E, each on
# its own: the references for polycore._quartic_forms and
# quartic_invariants, which make the five invariants from shared products.


def quartic_P(A, B, C, D, E):
    return 8 * A * C - 3 * B * B


def quartic_D(A, B, C, D, E):
    """The invariant D = (16 A^2 I - P^2) / 3 of the quartic, with
    I = quartic_O and P = quartic_P.

    Works over any commutative ring that holds 1/3; int entries give a
    Fraction.
    """
    P = quartic_P(A, B, C, D, E)
    return (16 * A * A * quartic_O(A, B, C, D, E) - P * P) * Fraction(1, 3)


def quartic_R(A, B, C, D, E):
    return B * B * B + 8 * A * A * D - 4 * A * B * C


def quartic_O(A, B, C, D, E):
    return C * C + 12 * A * E - 3 * B * D


def large_height_product(rng: random.Random) -> list[int]:
    """Integer coefficients of a square-free product of 5 to 9 linear
    factors q p - s 2**t, q and s of 100 bits and t in 0..30, and 1 to 3
    dyadic roots m / 2**j, |m| < 2**12, j <= 40: coefficients of 500 bits
    and more, and a Cauchy bound at least 2**20 times the largest root,
    like the large-height centers' locus polynomials."""
    def big():
        return rng.getrandbits(100) | 1 << 99

    while True:
        f = [rng.choice([1, -1])]
        roots = set()
        factors = [(big(), rng.choice([1, -1]) * big() << rng.randint(0, 30)) for _ in range(rng.randint(5, 9))]
        factors += [(1 << rng.randint(0, 40), rng.randint(-2**12, 2**12)) for _ in range(rng.randint(1, 3))]
        for q, s in factors:
            roots.add(Fraction(s, q))
            f = [b * q - a * s for a, b in zip(f + [0], [0] + f)]
        largest = max(abs(r) for r in roots)
        if (len(roots) == len(factors) and max(abs(c) for c in f).bit_length() >= 500
                and cauchy_bound(UniPolyR(f)) >= largest * 2**20):
            return f


def bisect_refine(g, lo: Fraction, hi: Fraction, width: Fraction) -> tuple[Fraction, Fraction]:
    """Bisect the half-open isolating interval (lo, hi] of square-free g,
    given by its integer coefficients, to an interval narrower than `width`:
    one sign test per bit.  The reference for polycore._refine, which must
    return the same interval."""
    # lo = a/v and hi = b/v over one denominator v, which each bisection
    # doubles; b - a stays fixed.
    v = math.lcm(lo.denominator, hi.denominator)
    a = lo.numerator * (v // lo.denominator)
    b = hi.numerator * (v // hi.denominator)
    shi = sign_at(g, b, v)
    if not shi:
        # Root hit exactly; recenter a symmetric interval around it.
        eps = width / 4
        return hi - eps, hi + eps
    # The one root in (lo, hi] is simple, so g has the opposite sign of
    # g(hi) just right of lo, even when g(lo) == 0 (a root outside).
    diff, wn, wd = b - a, width.numerator, width.denominator
    while diff * wd >= wn * v:
        mid, v = a + b, 2 * v
        s = sign_at(g, mid, v)
        if not s:
            mid, lo, hi = Fraction(mid, v), Fraction(2 * a, v), Fraction(2 * b, v)
            eps = min(width, hi - mid, mid - lo) / 4
            return mid - eps, mid + eps
        if s == shi:
            a, b = 2 * a, mid
        else:
            a, b = mid, 2 * b
    return Fraction(a, v), Fraction(b, v)


class FractionPoly:
    """A polynomial over Q as a Fraction per coefficient, lowest degree
    first, with the ring operations over Fraction that `UniPolyR` runs on
    its integer form: the reference its results are checked against.  Its
    repr is that of the UniPolyR with the same coefficients."""

    def __init__(self, coeffs):
        cs = [Fraction(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = cs

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __add__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        a = self.coeffs + [Fraction(0)] * (n - len(self.coeffs))
        b = other.coeffs + [Fraction(0)] * (n - len(other.coeffs))
        return FractionPoly([x + y for x, y in zip(a, b)])

    def __sub__(self, other):
        return self + other.scale(-1)

    def __mul__(self, other):
        if self.is_zero() or other.is_zero():
            return FractionPoly([])
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return FractionPoly(out)

    def __pow__(self, n: int):
        out = FractionPoly([1])
        for _ in range(n):
            out = out * self
        return out

    def scale(self, c):
        return FractionPoly([a * c for a in self.coeffs])

    def derivative(self):
        return FractionPoly([i * c for i, c in enumerate(self.coeffs)][1:])

    def monic(self):
        return self if self.is_zero() else self.scale(1 / self.coeffs[-1])

    def divmod(self, other):
        d, lc = other.degree(), other.coeffs[-1]
        r = list(self.coeffs)
        q = [Fraction(0)] * max(0, len(r) - d)
        for k in range(len(q) - 1, -1, -1):
            q[k] = f = r[k + d] / lc
            for i, c in enumerate(other.coeffs[:-1]):
                r[k + i] -= f * c
        return FractionPoly(q), FractionPoly(r[:d])

    def __repr__(self):
        return f"UniPolyR({self.coeffs!r})"


def fraction_gcd(a: FractionPoly, b: FractionPoly) -> FractionPoly:
    """The monic gcd by Euclid's algorithm over Fraction."""
    while not b.is_zero():
        a, b = b, a.divmod(b)[1]
    return a.monic()


def fraction_squarefree(f: FractionPoly) -> list[tuple[FractionPoly, int]]:
    """Yun's square-free decomposition over Fraction, [(g_i, i)] with
    f = lc * prod g_i^i, each g_i monic."""
    f = f.monic()
    if f.degree() == 0:
        return []
    d = f.derivative()
    a = fraction_gcd(f, d)
    b = f.divmod(a)[0]
    c = d.divmod(a)[0] - b.derivative()
    out, i = [], 1
    while b.degree() > 0:
        g = fraction_gcd(b, c)
        if g.degree() > 0:
            out.append((g.monic(), i))
        b = b.divmod(g)[0]
        c = c.divmod(g)[0] - b.derivative()
        i += 1
    return out


def fraction_sturm_chain(f: FractionPoly) -> list[FractionPoly]:
    """f, f' and the negated remainders over Fraction, to the last nonzero."""
    chain = [f, f.derivative()]
    while not chain[-1].is_zero() and chain[-1].degree() > 0:
        rem = chain[-2].divmod(chain[-1])[1]
        if rem.is_zero():
            break
        chain.append(rem.scale(-1))
    if chain[-1].is_zero():
        chain.pop()
    return chain


def real_root_profile(f: UniPolyR) -> list[int]:
    """Sorted multiplicities of the real roots of f, via square-free
    factors and Sturm counting only (no refinement)."""
    profile = []
    for g, mult in squarefree_decomposition(f):
        chain = sturm_chain(g)
        b = cauchy_bound(g)
        count = sign_variations(chain, -b) - sign_variations(chain, b)
        profile.extend([mult] * count)
    return sorted(profile)


def rand_quartic(rng: random.Random) -> UniPolyR:
    """A random rational quartic; 40% of the time built from an explicit
    root structure so multiple roots actually occur."""
    if rng.random() < 0.6:
        coeffs = [rand_fraction(rng, 9, 5) for _ in range(4)]
        lead = Fraction(0)
        while lead == 0:
            lead = rand_fraction(rng, 9, 5)
        return UniPolyR(coeffs + [lead])
    f = UniPolyR([rng.choice([1, 2, -1, 3])])
    deg = 0
    while deg < 4:
        if deg <= 2 and rng.random() < 0.4:
            b = rand_fraction(rng, 4, 2)
            c = rand_fraction(rng, 4, 2)
            f = f * UniPolyR([c, b, 1])  # real or complex pair
            deg += 2
        else:
            r = rand_fraction(rng, 4, 3)
            mult = min(rng.choice([1, 1, 2, 2, 3]), 4 - deg)
            f = f * UniPolyR([-r, 1]) ** mult
            deg += mult
    return f


def poly_det(m) -> LaurentPoly3:
    """Exact determinant by fraction-free Bareiss elimination: each entry
    of a minor is (pivot * entry - lead * top) / previous pivot, an exact
    LaurentPoly3 quotient.  The determinant route of `hankel_matrix`."""
    k = len(m)
    if not k:
        return LaurentPoly3.const(1)
    mat = [[v if isinstance(v, LaurentPoly3) else LaurentPoly3.const(v) for v in row] for row in m]
    if any(len(row) != k for row in mat):
        raise ValueError("matrix must be square")
    sign = 1
    prev = LaurentPoly3.const(1)
    for i in range(k - 1):
        if not mat[i][i]:
            for r in range(i + 1, k):
                if mat[r][i]:
                    mat[i], mat[r] = mat[r], mat[i]
                    sign = -sign
                    break
            else:
                return LaurentPoly3()
        piv, top = mat[i][i], mat[i]
        for r in range(i + 1, k):
            row, lead = mat[r], mat[r][i]
            for c in range(i + 1, k):
                row[c] = (piv * row[c] - lead * top[c]) / prev
        prev = piv
    return mat[k - 1][k - 1] * sign


def det_laplace(m: list[list[LaurentPoly3]]) -> LaurentPoly3:
    """Determinant by Laplace expansion along the first row: a slow
    reference for poly_det that shares none of its code."""
    if len(m) == 1:
        return m[0][0]
    total = LaurentPoly3()
    for j, a in enumerate(m[0]):
        term = a * det_laplace([row[:j] + row[j + 1:] for row in m[1:]])
        total = total + term if j % 2 == 0 else total - term
    return total


def resultant(f: UniPolyR, g: UniPolyR) -> Fraction:
    """Res(f, g): the determinant of the Sylvester matrix, whose entries
    are constants, by `fraction_det`; the reference for `discriminant`."""
    n, m = f.degree(), g.degree()
    fc, gc = f.coeffs[::-1], g.coeffs[::-1]
    rows = [[0] * i + fc + [0] * (m - 1 - i) for i in range(m)]
    rows += [[0] * i + gc + [0] * (n - 1 - i) for i in range(n)]
    return fraction_det([[Fraction(v) for v in row] for row in rows])


def hankel_matrix(n: int, coeff=None) -> list[list]:
    """The Hankel matrix whose determinant is W_n = hankel_raw(n), in the
    series coefficients coeff(k) = A0 * A_k of the square root of the
    pencil's cubic: A_{i+j}, i, j = 1..m, for odd n = 2m + 1 and
    A_{i+j+1}, i, j = 1..m - 1, for even n = 2m.  By default the trivariate
    coefficients atilde_k / k!: with poly_det, the determinant route that
    hankel_raw's doubling formulas replace, kept as the independent reference."""
    if coeff is None:
        coeff = lambda k: atilde_sequence(k)[k - 1] * Fraction(1, math.factorial(k))
    m = n // 2
    first, size = (2, m) if n % 2 else (3, m - 1)
    return [[coeff(k) for k in range(first + i, first + i + size)] for i in range(size)]


def somos4(n_max: int, at=None) -> list:
    """W_1..W_n_max by the Somos-4 recurrence W_k+2 W_k-2 = a_k W_k+1 W_k-1
    + b W_k^2, a_k = 1/2 for odd k and 1/(2 delta2) for even k, b = -W_3 /
    (2 delta2), from W_1 = W_2 = 1, W_3 = A_2 and W_4 = A_3: the route that
    hankel_raw's doubling formulas replace, kept as a reference.  With
    `at`, the start values and coefficients are first mapped by it (say,
    evaluated at a point), and the recurrence runs on the images."""
    pc = pencil_coeffs()
    A = lambda k: atilde_sequence(k)[k - 1] * Fraction(1, math.factorial(k))
    a = (poly_div_exact(LaurentPoly3.const(Fraction(1, 2)), pc.delta2), Fraction(1, 2))  # a[k % 2] = a_k
    b = -A(2) * a[0]
    w = [LaurentPoly3.const(1)] * 2 + [A(2), A(3)]  # w[j - 1] = W_j
    div = poly_div_exact
    if at is not None:
        w, a, b, div = [at(v) for v in w], [at(v) for v in a], at(b), operator.truediv
    for k in range(3, n_max - 1):
        w.append(div(a[k % 2] * w[k] * w[k - 2] + b * w[k - 1] ** 2, w[k - 3]))
    return w[:n_max]


def pencil_cubic(p: Fraction, x: Fraction, y: Fraction) -> tuple[Fraction, Fraction, Fraction]:
    """(a2, a4, a6) of the curve E: mu^2 = t^3 + a2 t^2 + a4 t + a6 =
    -det(t C + D) at a rational point, for the printed conics: the unit
    circle (X - x)^2 + (Y - y)^2 = 1 and the parabola Y^2 = 2pX + p^2,
    C and D their symmetric matrices.  The pencil's cubic is read off its
    values at t = 0, 1 and -1 (its leading coefficient det C is -1), with
    no use of `pencil_coeffs`."""
    def g(t):
        (a, b, c), (d, e, f), (h, i, j) = (
            (t, 0, -t * x - p), (0, t + 1, -t * y), (-t * x - p, -t * y, t * (x * x + y * y - 1) - p * p)
        )
        return -(a * (e * j - f * i) - b * (d * j - f * h) + c * (d * i - e * h))

    a6 = g(0)
    return (g(1) + g(-1)) / 2 - a6, (g(1) - g(-1)) / 2 - 1, a6


def division_values(p: Fraction, x: Fraction, y: Fraction, n_max: int) -> list[Fraction] | None:
    """W_1..W_n_max at a rational point from the group law on E
    (`pencil_cubic`) with P = (0, p), which lies on E since a6 = p^2: by
    Cayley's criterion the n-gon closes iff nP = O, and the W_n are a
    division sequence of (E, P) (Ward 1948), with
    x(nP) = c_n W_n-1 W_n+1 / W_n^2, c_n = 2 for even n and -2p^2 for odd
    n.  So W_1 = W_2 = 1 and each W_n+1 follows from x(nP), nP by chord
    and tangent.  None where some W_n vanishes, n < n_max, since then
    nP = O and the recurrence stops."""
    a2, a4, _ = pencil_cubic(p, x, y)
    px, py = Fraction(0), p
    lam = a4 / (2 * py)  # the tangent at P: 2 mu dmu = (3t^2 + 2 a2 t + a4) dt at t = 0
    w = [Fraction(1), Fraction(1)]
    qx = lam * lam - a2 - 2 * px
    qy = lam * (px - qx) - py
    for n in range(2, n_max):  # (qx, qy) = nP
        w.append(qx * w[-1] ** 2 / ((2 if n % 2 == 0 else -2 * p * p) * w[-2]))
        if not w[-1]:
            return None
        lam = (qy - py) / (qx - px)  # qx = px would make (n + 1)P or (n - 1)P = O
        t = lam * lam - a2 - qx - px
        qx, qy = t, lam * (px - t) - py
    return w


def int_evaluator(f: LaurentPoly3):
    """A function giving f at rational points (p, x, y), Laurent in p, each
    as one integer sum: a variable a/b with exponents lo..hi gives
    a^e / b^e = a^(e - lo) b^(hi - e) times a^lo / b^hi, and the
    denominators of f are cleared once, by their lcm."""
    den = math.lcm(1, *(c.denominator for c in f.terms.values()))
    terms = [(*e, c.numerator * (den // c.denominator)) for e, c in f.terms.items()]
    ranges = [(min(e[i] for e in f.terms), max(e[i] for e in f.terms)) for i in range(3)]

    def at(*point: Fraction) -> Fraction:
        scale, (tp, tx, ty) = Fraction(1, den), [[], [], []]
        for (lo, hi), v, table in zip(ranges, point, (tp, tx, ty)):
            a, b = v.numerator, v.denominator
            table += [a ** (e - lo) * b ** (hi - e) for e in range(lo, hi + 1)]
            scale *= Fraction(a) ** lo / Fraction(b) ** hi
        lp, lx, ly = (lo for lo, _ in ranges)
        return scale * sum(c * tp[ep - lp] * tx[ex - lx] * ty[ey - ly] for ep, ex, ey, c in terms)

    return at


def canonicalize_reference(a: LaurentPoly3) -> LaurentPoly3:
    """The Fraction normal form: a times p**-min_p_exponent times one
    rational scale (denominator lcm over numerator gcd, negated when the
    largest term's coefficient is negative), term by term in a's order.
    The reference for polycore.canonicalize, which works in integer form."""
    shift = -a.min_p_exponent()
    terms = {(ep + shift, ex, ey): c for (ep, ex, ey), c in a.terms.items()}
    scale = Fraction(math.lcm(1, *(c.denominator for c in terms.values())),
                     math.gcd(*(c.numerator for c in terms.values())))
    if terms[max(terms)] < 0:
        scale = -scale
    return LaurentPoly3({e: c * scale for e, c in terms.items()})


def locus_reference(n: int) -> LaurentPoly3:
    """The canonical n-locus by the (p, x, y) route: hankel_raw(n) divided
    by poly_div_exact by each proper divisor's reference locus, then
    canonicalize_reference, which scales term by term in Fractions.  The
    reference for cayley.locus, which divides in (p, x, s) only what the
    doubling formulas leave and normalizes in integers."""
    q = hankel_raw(n)
    for k in proper_divisors(n):
        q = poly_div_exact(q, locus_reference(k))
    return canonicalize_reference(q)


def p_coefficients(a: LaurentPoly3) -> dict[int, LaurentPoly3]:
    """Split a polynomial into its coefficients with respect to p."""
    out: dict[int, dict] = {}
    for (ep, ex, ey), c in a.terms.items():
        out.setdefault(ep, {})[(0, ex, ey)] = c
    return {ep: LaurentPoly3(terms) for ep, terms in out.items()}


def checks_reference() -> list[tuple[str, bool]]:
    """verify.checks() by the expanded route: every discriminant and
    invariant expanded on the full p-coefficients, and the printed sides
    multiplied out, in (x, y).  The reference for verify.checks, which
    divides those rows by their powers of R and S in (p, x, s).  It reads
    the loci, the printed sides and the factor table through verify and
    classify, so a test that patches one of them changes both routes, and
    it reads no (p, x, s) form.  The hexagon row
    divides the public hankel_raw(6) by hankel_raw(3), where checks divides
    W_6 by W_3 in (p, x, s): the two routes differ there.  Its R and S are
    its own, typed in (x, y)."""
    X, Y = LaurentPoly3.var_x(), LaurentPoly3.var_y()
    R = X**2 + Y**2
    S = R - 1
    rows = [
        (f"locus n={n} matches the printed polynomial", verify.locus(n).canonical, verify.paper_locus(n))
        for n in range(3, 8)
    ]
    half = Fraction(1, 2)
    rows += [
        (f"worked example: {n}-gon locus at p=1/2", locus_at_p(n, half), verify.worked_example(n)) for n in (3, 4)
    ]
    try:
        quotient = polycore.canonicalize(polycore.poly_div_exact(hankel_raw(6), hankel_raw(3)))
    except polycore.PolycoreError:
        quotient = None
    rows.append(("hankel(6) / hankel(3) canonicalizes to the 6-gon locus", quotient, verify.paper_locus(6)))

    rp = verify.region_polys()
    for n, (_, name, printed, r, s) in classify.DISCRIMINANT_FACTORS.items():
        printed = printed * R**r * S**s * rp[name]
        coeffs = p_coefficients(verify.locus(n).canonical)
        # the shape the paper prints, whatever the p-degree of the locus: a
        # locus of another p-degree has no printed discriminant, and fails
        shape, degree = ("quartic", 4) if n == 7 else ("quadratic", 2)
        disc = None if max(coeffs) != degree else polycore._discriminant(
            [coeffs.get(k, LaurentPoly3()) for k in range(degree + 1)])
        rows.append((f"discriminant of the {n}-gon {shape} factors as printed", disc, printed))

    coeffs = p_coefficients(verify.locus(7).canonical)
    quartic = [coeffs.get(k, LaurentPoly3()) for k in (4, 3, 2, 1, 0)]
    for label, formula, printed in (
        ("P", quartic_P, -256 * R**4 * S**2 * rp["psi2"]),
        ("D", quartic_D, -65536 * R**8 * S**4 * rp["psi3"]),
        ("O", quartic_O, -16 * R**2 * S**5 * rp["psi4"]),
        ("R", quartic_R, -4096 * X * R**6 * S**3 * rp["psi5"]),
    ):
        rows.append((f"{label} of the 7-gon quartic factors as printed", formula(*quartic), printed))
    return [(name, computed == printed) for name, computed, printed in rows]


def format_reference(a: LaurentPoly3) -> str:
    """Text of a, terms in descending lex order p > x > y, each coefficient
    formatted from abs(c): the reference for polycore.format_poly."""
    def frac(c: Fraction) -> str:
        return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"

    if a.is_zero():
        return "0"
    parts = []
    for e in sorted(a.terms, reverse=True):
        c = a.terms[e]
        factors = [name if k == 1 else f"{name}^{k}" for name, k in zip("pxy", e) if k]
        if abs(c) != 1 or not factors:
            factors.insert(0, frac(abs(c)))
        parts.append((" - " if c < 0 else " + ") + "*".join(factors))
    out = "".join(parts)
    return ("-" if out[1] == "-" else "") + out[3:]


def series_at(p: Fraction, x: Fraction, y: Fraction, order: int) -> list[Fraction]:
    """A0 * A_k, k = 0..order, at a rational point: the series of
    sqrt(delta2 + theta2 t + theta1 t^2 + delta1 t^3) by convolution,
    2 A0 A_k = f_k - sum_{0<i<k} (A0 A_i)(A0 A_{k-i}) / delta2, which uses
    only A0^2 = delta2."""
    pc = pencil_coeffs()
    f = [c.evaluate(p, x, y) for c in (pc.delta2, pc.theta2, pc.theta1, pc.delta1)]
    c = [f[0]]
    for k in range(1, order + 1):
        acc = sum(c[i] * c[k - i] for i in range(1, k))
        c.append(((f[k] if k < len(f) else 0) - acc / f[0]) / 2)
    return c


def fraction_det(m: list[list[Fraction]]) -> Fraction:
    """Determinant over Q by Gaussian elimination with row swaps."""
    m = [list(row) for row in m]
    det = Fraction(1)
    for i in range(len(m)):
        r = next((r for r in range(i, len(m)) if m[r][i]), None)
        if r is None:
            return Fraction(0)
        if r != i:
            m[i], m[r], det = m[r], m[i], -det
        det *= m[i][i]
        for row in m[i + 1:]:
            f = row[i] / m[i][i]
            for j in range(i, len(m)):
                row[j] -= f * m[i][j]
    return det


def series_sqrt(d: list[complex], order: int) -> list[complex]:
    """Taylor coefficients of sqrt(d0 + d1 t + d2 t^2 + ...) up to the given
    order, by coefficient convolution (independent of the exact recursion)."""
    import cmath

    s = [cmath.sqrt(d[0])]
    for k in range(1, order + 1):
        acc = sum(s[i] * s[k - i] for i in range(1, k))
        dk = d[k] if k < len(d) else 0.0
        s.append((dk - acc) / (2 * s[0]))
    return s


# Acceptance-criterion pass/fail lines collected by tests/test_acceptance.py.
# Echoed in the terminal summary so they are visible even with output capture.
ACCEPTANCE_REPORT: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_REPORT:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_REPORT:
            terminalreporter.write_line(line)
