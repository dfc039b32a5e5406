"""Tests of the benchmark's own rules: self time, the tail percentile, seeded
inputs and the exact Horner evaluation.  They do not run a workload."""

import time
from fractions import Fraction
from itertools import islice

import pytest

import benchlib


def span(name, start, end, parent, op=0):
    return [name, start, end, parent, op, None]


def test_self_time_on_hand_built_tree():
    spans = [
        span("op", 0.0, 10.0, None),         # 0
        span("a", 1.0, 4.0, 0),              # 1
        span("a.child", 2.0, 3.0, 1),        # 2
        span("b", 5.0, 8.0, 0),              # 3
        span("b.x", 5.0, 6.5, 3),            # 4  overlaps b.y:
        span("b.y", 6.0, 7.0, 3),            # 5  covered once, 5.0..7.0
        span("op", 10.0, 12.0, None, op=1),  # 6  no children
    ]
    got = benchlib.self_times(spans)
    assert got == pytest.approx([4.0, 2.0, 1.0, 1.0, 1.5, 1.0, 2.0])


def test_self_time_clips_children_to_their_parent():
    spans = [span("op", 0.0, 1.0, None), span("late", 0.5, 2.0, 0)]
    assert benchlib.self_times(spans)[0] == pytest.approx(0.5)


def test_tracer_nests_spans_and_null_tracer_records_nothing():
    tr = benchlib.Tracer()
    with tr.op(3):
        with tr.span("outer", 5):
            with tr.span("inner"):
                pass
    names = [(s[0], s[3], s[4], s[5]) for s in tr.spans]
    assert names == [("op", None, 3, None), ("outer", 0, 3, 5), ("inner", 1, 3, None)]
    assert all(s[1] <= s[2] for s in tr.spans)
    null = benchlib.NullTracer()
    with null.op(0), null.span("x"):
        pass
    assert null.spans == []


@pytest.mark.parametrize("count, q", [
    (0, None), (19, None), (99, None),
    (100, 0.9), (199, 0.9),
    (200, 0.95), (999, 0.95),
    (1000, 0.99), (9999, 0.99),
    (10000, 0.999),
])
def test_tail_is_the_highest_percentile_with_ten_samples_beyond(count, q):
    assert benchlib.tail_quantile(count) == q
    if q is not None:
        beyond = count - benchlib.nearest_rank(list(range(1, count + 1)), q)
        assert beyond >= benchlib.TAIL_MIN_BEYOND


def test_summarize_reports_median_and_tail():
    s = benchlib.summarize([float(v) for v in range(1, 201)])
    assert s["n"] == 200 and s["p50"] == 100.0
    assert s["tail_q"] == 0.95 and s["tail"] == 190.0
    assert benchlib.summarize([1.0, 2.0, 3.0])["tail"] is None


def test_same_seed_same_centers_other_seed_other_centers():
    a = list(islice(benchlib.centers(7), 60))
    assert a == list(islice(benchlib.centers(7), 60))
    assert a != list(islice(benchlib.centers(8), 60))
    assert a != list(islice(benchlib.centers(7, stream=1), 60))
    assert [k for k, _, _ in a[:6]] == ["small", "large", "near"] * 2


def test_centers_avoid_the_focus_and_the_unit_circle():
    for kind, x, y in islice(benchlib.centers(1), 600):
        assert isinstance(x, Fraction) and isinstance(y, Fraction)
        r2 = x * x + y * y
        assert r2 != 0 and r2 != 1
        if kind == "large":
            assert max(x.denominator, y.denominator, abs(x.numerator), abs(y.numerator)) > 10**4
        if kind == "near":
            assert abs(r2 - 1) <= Fraction(1, 9)


def test_horner_is_exact():
    coeffs = [Fraction(-3), Fraction(0), Fraction(1, 7), Fraction(2)]
    v = Fraction(5, 3)
    assert benchlib.horner(coeffs, v) == sum(c * v**i for i, c in enumerate(coeffs))
    assert benchlib.horner([], v) == 0
    assert benchlib.coeff_bits([Fraction(1, 1024), Fraction(-7)]) == 11


def test_host_speed_scales_an_interval_by_the_samples_in_and_next_to_it():
    ref = benchlib.REF_KERNEL_S
    speed = benchlib.HostSpeed()
    assert speed.scaled(1.0, 3.0) == 2.0  # no samples taken: raw
    speed.starts = [0.0, 2.0, 5.0]
    speed.samples = [(0.1, ref), (2.1, 2 * ref), (5.1, 4 * ref)]
    # The sample run at 2.0..2.1 is not counted; all three samples average.
    assert speed.scaled(1.0, 3.0) == pytest.approx(1.9 / (7 / 3))
    # No sample inside: the neighbours on either side average.
    assert speed.scaled(2.5, 4.0) == pytest.approx(1.5 / 3)


def test_host_speed_samples_inside_a_long_computation():
    speed = benchlib.HostSpeed(every_s=0.05)
    speed.start()
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < 0.3:
        sum(i * i for i in range(1000))
    speed.stop()
    assert len(speed.samples) >= 4
    assert all(k > 0 for _, k in speed.samples)
    assert speed.starts == sorted(speed.starts)


def test_passes_finish_the_first_pass_then_stop_when_time_is_up():
    now = [0.0]

    def clock():
        now[0] += 1.0  # every check of the clock takes one second
        return now[0]

    # Time runs out long before the first pass ends: it is finished anyway.
    got = list(benchlib.passes(5, 1.0, clock))
    assert got == [(i, i) for i in range(5)]
    # With time to spare the inputs repeat, in the same order.
    now[0] = 0.0
    got = list(benchlib.passes(3, 5.0, clock))
    assert [k for _, k in got] == [0, 1, 2, 0, 1, 2, 0]
    assert [i for i, _ in got] == list(range(7))
