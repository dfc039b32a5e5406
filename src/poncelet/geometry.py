"""Numeric Poncelet-closure oracle.

Traces tangent-chord polygons in complex coordinates: vertices live on the
(complexified) unit circle, edges are tangent lines of the parabola
y^2 = 2px + p^2.  One private step, `_step`, on bare coordinates moves a
vertex along its tangent line to the circle's other point; `next_vertex`
and `poncelet_trace` both take it.  `closes_after` traces from a fixed
table of starts, the draws of random.Random(7_654_321).  Shares no code
path with the exact Cayley machinery.
"""

from __future__ import annotations

import cmath
import random
from functools import lru_cache

from ._record import record

CLOSURE_TOL = 1e-9
ON_CIRCLE_TOL = 1e-10
ON_LINE_TOL = 1e-9
DEGENERATE_TOL = 1e-14

Point = tuple[complex, complex]


class GeometryError(Exception):
    pass


class NotOnCircle(GeometryError):
    pass


class NotOnLine(GeometryError):
    pass


class DegenerateStep(GeometryError):
    pass


class DegenerateParabola(GeometryError):
    pass


def _off_circle(wx: complex, wy: complex) -> float:
    """|wx^2 + wy^2 - 1|: how far the point at offset (wx, wy) from a
    center is off the unit circle about it."""
    return abs(wx ** 2 + wy ** 2 - 1.0)


@record
class Circle:
    """The unit circle about `center`."""

    center: Point

    def __init__(self, center: Point):
        cx, cy = center
        object.__setattr__(self, "center", (complex(cx), complex(cy)))

    def residual(self, pt: Point) -> float:
        cx, cy = self.center
        return _off_circle(pt[0] - cx, pt[1] - cy)


def _tangency(t: complex, y2: complex, px2: complex, pp: float) -> complex:
    """t^2 - 2yt + 2px + p^2, from y2 = 2y, px2 = 2p*x and pp = p^2: zero iff
    the tangent at parameter t passes through (x, y)."""
    return t * t - y2 * t + px2 + pp


@record
class Parabola:
    """y^2 = 2px + p^2, focus at the origin, directrix x = -p."""

    p: float

    def __init__(self, p: float):
        if p == 0:
            raise DegenerateParabola("p must be nonzero")
        if not cmath.isfinite(p * p):
            raise ValueError(f"p must be finite with a finite square, not {p!r}")
        object.__setattr__(self, "p", p)

    def contact_point(self, t: complex) -> Point:
        return ((t * t - self.p**2) / (2 * self.p), t)

    def line_residual(self, t: complex, pt: Point) -> float:
        x, y = pt
        return abs(_tangency(t, 2 * y, 2 * self.p * x, self.p**2)) / 2


def _tangent_coeffs(y: complex, px2: complex, pp: float) -> tuple[complex, complex]:
    """(b, c) of t^2 + b*t + c = _tangency(t, 2y, px2, pp)."""
    return -2 * y, px2 + pp


def tangent_params(point: Point, par: Parabola) -> tuple[complex, complex]:
    """Parameters (contact-point y-coordinates) of the two parabola tangents
    through the point; complex solutions allowed."""
    x0, y0 = complex(point[0]), complex(point[1])
    return _solve_quadratic(1.0, *_tangent_coeffs(y0, 2 * par.p * x0, par.p**2))


def _solve_quadratic(a: complex, b: complex, c: complex) -> tuple[complex, complex]:
    disc = b * b - 4 * a * c
    s = cmath.sqrt(disc)
    if (b.conjugate() * s).real < 0:
        s = -s
    q = -(b + s) / 2
    r1 = q / a
    r2 = c / q if q != 0 else -b / a - r1
    return r1, r2


def _chord_quadratic(dx: complex, dy: complex, dxx: complex, wx: complex,
                     wy: complex) -> tuple[complex, complex, complex]:
    """Coefficients (a, b, c) of a*s^2 + b*s + c, whose roots s are where the
    line center + (wx, wy) + s*(dx, dy) meets the circle; dxx is dx*dx.  An
    isotropic direction (a = 0) raises DegenerateStep: the other
    intersection is at infinity."""
    a = dxx + dy * dy  # bilinear, not Hermitian: complex circle
    if abs(a) < 1e-12:
        raise DegenerateStep("isotropic chord: the other intersection is at infinity")
    b = 2 * (dx * wx + dy * wy)
    c = wx * wx + wy * wy - 1.0
    return a, b, c


def _renormalize(cx: complex, cy: complex, x: complex, y: complex) -> Point:
    """Project a near-circle point radially back onto the circle about
    (cx, cy) (bilinear norm, so complex points are handled); suppresses
    drift over many steps."""
    wx, wy = x - cx, y - cy
    nrm = cmath.sqrt(wx * wx + wy * wy)
    if abs(nrm) < 1e-6:
        return (x, y)  # (near-)isotropic radius: leave untouched
    return (cx + wx / nrm, cy + wy / nrm)


def _residual_message(residual: float, p: complex) -> str:
    if cmath.isfinite(residual):
        return f"residual {residual:.3e}"
    return f"residual {residual}: the float trace overflows at p = {p!r}"


def _step(cx: complex, cy: complex, p: float, pp: float, pc: complex, t: complex,
          x: complex, y: complex, px2: complex, y2: complex) -> Point:
    """next_vertex on bare coordinates: the circle's center (cx, cy), p with
    pp = p**2 and pc = complex(p), the vertex (x, y) with px2 = 2*p*x and
    y2 = 2*y."""
    wx, wy = x - cx, y - cy
    # both guards are relative: coordinates grow like p^2 for steep
    # tangents, and the residuals scale with them; written as `not <=` so
    # that a NaN residual fails them
    scale = max(1.0, abs(wx) ** 2 + abs(wy) ** 2)
    residual = _off_circle(wx, wy)
    if not residual <= ON_CIRCLE_TOL * 10 * scale:
        raise NotOnCircle(_residual_message(residual, p))
    tt = t * t
    scale = max(1.0, abs(p * x), abs(t * y), abs(tt + p * p) / 2)
    residual = abs(_tangency(t, y2, px2, pp)) / 2
    if not residual <= ON_LINE_TOL * scale:
        raise NotOnLine(_residual_message(residual, p))
    # (x, y) is the root near s = 0; keeping the small residual c in the
    # solve corrects for it being slightly off the circle.
    r1, r2 = _solve_quadratic(*_chord_quadratic(t, pc, tt, wx, wy))
    s = r1 if abs(r1) >= abs(r2) else r2
    return _renormalize(cx, cy, x + s * t, y + s * pc)


def next_vertex(circle: Circle, par: Parabola, t: complex, current: Point) -> Point:
    """The other intersection with the circle of the parabola's tangent line
    at parameter t; returns `current` itself when the line is tangent to the
    circle, and raises DegenerateStep when the line is isotropic, so the
    other intersection is at infinity."""
    cx, cy = circle.center
    p = par.p
    x, y = current
    return _step(cx, cy, p, p**2, complex(p), t, x, y, 2 * p * x, 2 * y)


@record
class TraceResult:
    vertices: tuple[Point, ...]
    tangency_params: tuple[complex, ...]
    closure_residual: float
    closed: bool
    steps: int


def _start_vertex(circle: Circle, par: Parabola, start_t: complex) -> Point:
    bx, by = par.contact_point(start_t)
    cx, cy = circle.center
    dx, dy = start_t, complex(par.p)
    v1, v2 = [(bx + s * dx, by + s * dy)
              for s in _solve_quadratic(*_chord_quadratic(dx, dy, dx * dx, bx - cx, by - cy))]
    # Convention: larger real part, then larger imaginary part.
    k1, k2 = [(v[0].real, v[0].imag, v[1].real, v[1].imag) for v in (v1, v2)]
    return v1 if k1 >= k2 else v2


def poncelet_trace(circle: Circle, par: Parabola, start_t: complex, n: int) -> TraceResult:
    """Iterate the tangent-chord map n steps from the tangent line at
    start_t; reports closure and the minimal period."""
    if n < 3:
        raise ValueError("n must be >= 3")
    cx, cy = circle.center
    p = par.p
    pp, p2, pc = p**2, 2 * p, complex(p)
    x0, y0 = x, y = _renormalize(cx, cy, *_start_vertex(circle, par, start_t))
    vertices = [(x, y)]
    t = complex(start_t)
    params = [t]
    x, y = _step(cx, cy, p, pp, pc, t, x, y, p2 * x, 2 * y)
    steps = n
    for k in range(1, n):
        vertices.append((x, y))
        y2, px2 = 2 * y, p2 * x
        r1, r2 = _solve_quadratic(1.0, *_tangent_coeffs(y, px2, pp))
        if abs(r1 - r2) < DEGENERATE_TOL * max(1.0, abs(r1)):
            raise DegenerateStep("vertex lies on the parabola")
        # leave along the tangent that is not the one we arrived on
        d1, d2 = abs(r1 - t), abs(r2 - t)
        t = r1 if d1 >= d2 else r2
        if d1 == d2:
            t = max(r1, r2, key=lambda z: (z.real, z.imag))
        # two Newton steps on _tangency at this vertex
        for _ in range(2):
            dg = 2 * t - y2
            if abs(dg) < DEGENERATE_TOL:
                raise DegenerateStep("tangency parameters collide (vertex on parabola)")
            t = t - _tangency(t, y2, px2, pp) / dg
        params.append(t)
        # Minimal-period detection: same vertex and same outgoing tangent.
        if (k >= 3 and steps == n and abs(x - x0) + abs(y - y0) < CLOSURE_TOL
                and abs(t - params[0]) < 1e-6):
            steps = k
        x, y = _step(cx, cy, p, pp, pc, t, x, y, px2, y2)
    residual = abs(x - x0) + abs(y - y0)
    closed = residual < CLOSURE_TOL
    return TraceResult(tuple(vertices), tuple(params), residual, closed, steps if closed else n)


@lru_cache(maxsize=4)
def _starts(count: int) -> tuple[complex, ...]:
    """The first `count` draws of closes_after's starts from
    random.Random(7_654_321), kept for the last few counts asked; a longer
    table begins with every shorter one."""
    rng = random.Random(7_654_321)
    return tuple([complex(rng.uniform(0.2, 2.5), rng.uniform(-0.4, 0.4)) for _ in range(count)])


def closes_after(circle: Circle, par: Parabola, n: int, num_starts: int = 8) -> bool:
    """True iff the tangent-chord trace closes after exactly n steps for all
    sampled starts (Poncelet porism: closure is start-independent).

    Closure at a proper divisor period (a k-gon traversed n/k times) does not
    count as an n-gon.
    """
    if num_starts < 3:
        raise ValueError("need at least 3 starts")
    clean = 0
    for t in _starts(num_starts * 4):
        if clean == num_starts:
            break
        try:
            result = poncelet_trace(circle, par, t, n)
        except DegenerateStep:
            continue
        clean += 1
        if not result.closed or result.steps != n:
            return False
    if clean < 3:
        raise DegenerateStep("fewer than 3 clean starts")
    return True
