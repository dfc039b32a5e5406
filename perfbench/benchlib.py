"""Pure helpers of the benchmark: seeded inputs, percentile rules, spans and
self time, and the exact Horner evaluation used by the root check.

Nothing here imports `poncelet`, so the rules can be tested without
building any locus polynomial.
"""

from __future__ import annotations

import gc
import math
import random
import signal
import time
from bisect import bisect_left, bisect_right
from fractions import Fraction
from statistics import fmean

# Percentiles tried for the tail, highest first.  The reported tail is the
# highest one that still has at least TAIL_MIN_BEYOND samples above it.
TAIL_QUANTILES = (0.999, 0.99, 0.95, 0.9)
TAIL_MIN_BEYOND = 10

CENTER_KINDS = ("small", "large", "near")


# -- seeded inputs ------------------------------------------------------------


def _small(rng: random.Random) -> tuple[Fraction, Fraction]:
    # The test suite's range: numerators up to 12, denominators up to 6.
    return (Fraction(rng.randint(-12, 12), rng.randint(1, 6)),
            Fraction(rng.randint(-12, 12), rng.randint(1, 6)))


def _large(rng: random.Random) -> tuple[Fraction, Fraction]:
    # Numerators and denominators around 1e6, |x|, |y| <= 2: these drive
    # coefficient growth in the specialized polynomial and in Sturm.
    dx, dy = rng.randint(500_000, 1_000_000), rng.randint(500_000, 1_000_000)
    return (Fraction(rng.randint(-2 * dx, 2 * dx), dx),
            Fraction(rng.randint(-2 * dy, 2 * dy), dy))


def _near(rng: random.Random) -> tuple[Fraction, Fraction]:
    # A rational point of the unit circle moved radially by 1/k, k in
    # 20..2000: the roots in p run to large |p|.
    t = Fraction(rng.randint(-12, 12), rng.randint(1, 12))
    s = 1 + Fraction(rng.choice((-1, 1)), rng.randint(20, 2000))
    den = 1 + t * t
    return (1 - t * t) / den * s, 2 * t / den * s


_MAKERS = {"small": _small, "large": _large, "near": _near}


def centers(seed: int, stream: int = 0):
    """Endless stream of (kind, x, y) rational centers, cycling through the
    three kinds; never the focus and never on the unit circle.

    The same (seed, stream) always yields the same centers."""
    rng = random.Random(f"poncelet-bench:{seed}:{stream}")
    i = 0
    while True:
        kind = CENTER_KINDS[i % len(CENTER_KINDS)]
        x, y = _MAKERS[kind](rng)
        r2 = x * x + y * y
        if r2 != 0 and r2 != 1:
            yield kind, x, y
            i += 1


def passes(size: int, seconds: float, clock=time.perf_counter):
    """(operation number, input index) pairs: the indices 0..size-1 in
    order, pass after pass, until `seconds` have gone and at least one
    whole pass is done.

    Every input of a run is thus attempted whatever the host's speed, and
    which inputs a run checks depends only on the seed."""
    deadline = clock() + seconds
    i = 0
    while i < size or clock() < deadline:
        yield i, i % size
        i += 1


# -- percentiles --------------------------------------------------------------


def nearest_rank(sorted_vals, q: float):
    """The q-quantile by the nearest-rank rule (sorted input)."""
    if not sorted_vals:
        raise ValueError("no samples")
    rank = max(1, math.ceil(q * len(sorted_vals)))
    return sorted_vals[rank - 1]


def tail_quantile(count: int) -> float | None:
    """The highest quantile of TAIL_QUANTILES with at least TAIL_MIN_BEYOND
    of `count` samples above its rank, or None if there is none."""
    for q in TAIL_QUANTILES:
        if count - math.ceil(q * count) >= TAIL_MIN_BEYOND:
            return q
    return None


def summarize(vals) -> dict:
    """Median and rule-chosen tail of a list of samples."""
    s = sorted(vals)
    out = {"n": len(s), "p50": nearest_rank(s, 0.5) if s else None,
           "tail_q": None, "tail": None}
    q = tail_quantile(len(s))
    if q is not None:
        out["tail_q"] = q
        out["tail"] = nearest_rank(s, q)
    return out


# -- spans ----------------------------------------------------------------------


class Tracer:
    """In-memory spans: (name, start, end, parent index, op id, n).

    `op(op_id)` opens the root span of one operation; `span(name, n)` opens
    a child of the innermost open span.  Spans are written out by the caller
    when the run ends."""

    on = True

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op = None

    def op(self, op_id):
        self._op = op_id
        return self.span("op")

    def span(self, name: str, n: int | None = None):
        return _Span(self, name, n)


class _Span:
    __slots__ = ("tracer", "name", "n", "idx")

    def __init__(self, tracer: Tracer, name: str, n):
        self.tracer, self.name, self.n = tracer, name, n

    def __enter__(self):
        t = self.tracer
        parent = t._stack[-1] if t._stack else None
        self.idx = len(t.spans)
        t.spans.append([self.name, time.perf_counter(), None, parent, t._op, self.n])
        t._stack.append(self.idx)
        return self

    def __exit__(self, *exc):
        t = self.tracer
        t.spans[self.idx][2] = time.perf_counter()
        t._stack.pop()
        return False

    def rename(self, name: str) -> None:
        self.tracer.spans[self.idx][0] = name


class _NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


class NullTracer:
    """Tracing off: spans cost one method call and record nothing."""

    on = False
    spans: list = []
    _null = _NullSpan()

    def op(self, op_id):
        return self._null

    def span(self, name: str, n: int | None = None):
        return self._null


def self_times(spans) -> list[float]:
    """Self time of every span: its duration minus the part of its interval
    covered by its children (overlapping children are counted once)."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent, *_ in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (name, start, end, *_) in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered)
    return out


# -- host speed -------------------------------------------------------------------

# Times are reported at the host speed where ref_kernel() takes this long.
REF_KERNEL_S = 0.002
# Numerators and denominators of up to 180 bits, as in the specialized
# polynomials and Sturm sequences of the library.  With small coefficients
# the kernel slowed more than the library did when the host was busy, and
# scaled times then read too fast.
_KERNEL_COEFFS = tuple(Fraction((3 * i + 1) ** 37 + i, (7 * i + 2) ** 31 + 1)
                       for i in range(9))


def ref_kernel() -> float:
    """Seconds taken by a fixed stdlib-only workload of the same kind as the
    library's (Fraction Horner steps on a degree-8 polynomial with large
    coefficients at 28 dyadic points), with the garbage collector off so
    the heap the program keeps does not change it."""
    was_on = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        v = Fraction(1, 3)
        for j in range(28):
            x = Fraction(2 * j + 1, 2 ** (j % 17 + 40)) - v
            total = Fraction(0)
            for c in _KERNEL_COEFFS:
                total = total * x + c
        return time.perf_counter() - t0
    finally:
        if was_on:
            gc.enable()


class HostSpeed:
    """Samples of ref_kernel(), taken every `every_s` of the process's CPU
    time by a SIGVTALRM handler, so that they land inside long library
    calls as well as between them.

    The host's CPU speed can shift by tens of percent for minutes at a time;
    scaled() reports a measured interval at the reference speed."""

    def __init__(self, every_s: float = 0.5, reps: int = 5):
        self.every_s, self.reps = every_s, reps
        self.starts: list[float] = []
        self.samples: list[tuple[float, float]] = []  # (end, median kernel seconds)

    def sample(self, *_signal_args) -> None:
        t0 = time.perf_counter()
        times = sorted(ref_kernel() for _ in range(self.reps))
        self.samples.append((time.perf_counter(), times[self.reps // 2]))
        self.starts.append(t0)

    def start(self) -> None:
        signal.signal(signal.SIGVTALRM, self.sample)
        self.sample()
        signal.setitimer(signal.ITIMER_VIRTUAL, self.every_s, self.every_s)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)
        self.sample()

    def scaled(self, t0: float, t1: float) -> float:
        """The interval [t0, t1] less the kernel runs inside it, times
        REF_KERNEL_S over the mean sample inside it and next to it.  Without
        samples (sampling never started) the raw length."""
        if not self.samples:
            return t1 - t0
        lo, hi = bisect_left(self.starts, t0), bisect_right(self.starts, t1)
        busy = sum(min(end, t1) - max(start, t0) for start, (end, _)
                   in zip(self.starts[lo:hi], self.samples[lo:hi]))
        near = self.samples[max(lo - 1, 0):hi + 1]
        return (t1 - t0 - busy) * REF_KERNEL_S / fmean(k for _, k in near)


# -- exact evaluation for the root check -----------------------------------------


def horner(coeffs, v: Fraction) -> Fraction:
    """Exact value of sum(coeffs[i] * v**i) by Horner's rule on Fractions."""
    total = Fraction(0)
    for c in reversed(coeffs):
        total = total * v + c
    return total


def coeff_bits(coeffs) -> int:
    """Largest bit length of any numerator or denominator."""
    return max((max(abs(c.numerator).bit_length(), c.denominator.bit_length())
                for c in coeffs), default=0)
