"""Numeric Poncelet-closure oracle.

Traces tangent-chord polygons in complex coordinates: vertices live on the
(complexified) unit circle, edges are tangent lines of the parabola
y^2 = 2px + p^2.  One private loop, `_trace`, on bare coordinates moves a
vertex along its tangent line to the circle's other point and turns to the
other tangent there, step after step; `next_vertex` runs one step of it,
`poncelet_trace` keeps its vertices, and `closes_after` runs it from a
fixed table of starts, the draws of random.Random(7_654_321).  Shares no
code path with the exact Cayley machinery.
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


@record
class Circle:
    """The unit circle about `center`."""

    center: Point

    def __init__(self, center: Point):
        cx, cy = center
        object.__setattr__(self, "center", (complex(cx), complex(cy)))

    def residual(self, pt: Point) -> float:
        cx, cy = self.center
        wx, wy = pt[0] - cx, pt[1] - cy
        return abs(wx ** 2 + wy ** 2 - 1.0)


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
        """|t^2 - 2yt + 2px + p^2| / 2 at pt = (x, y): zero iff the tangent
        at parameter t passes through pt."""
        x, y = pt
        return abs(t * t - 2 * y * t + 2 * self.p * x + self.p**2) / 2


def tangent_params(point: Point, par: Parabola) -> tuple[complex, complex]:
    """Parameters (contact-point y-coordinates) of the two parabola tangents
    through the point; complex solutions allowed."""
    x0, y0 = complex(point[0]), complex(point[1])
    return _solve_quadratic(1.0, -2 * y0, 2 * par.p * x0 + par.p**2)


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


def _residual_message(residual: float, p: complex) -> str:
    if cmath.isfinite(residual):
        return f"residual {residual:.3e}"
    return f"residual {residual}: the float trace overflows at p = {p!r}"


def _trace(cx: complex, cy: complex, p: float, t: complex, x: complex, y: complex,
           n: int, keep: list | None) -> tuple[complex, complex, int]:
    """n tangent-chord steps from (x, y) on the circle about (cx, cy) along the
    tangent at t: the last vertex and minimal period (n if none); keep[k] = (k-th
    vertex, outgoing t) if keep is a list.  No call per step but abs, max and
    sqrt; the float operations are _solve_quadratic's and _chord_quadratic's."""
    pp, p2, pc, p_sq = p**2, 2 * p, complex(p), p * p
    pc_sq, sqrt = pc * pc, cmath.sqrt
    circle_tol, line_tol, degenerate_tol = ON_CIRCLE_TOL * 10, ON_LINE_TOL, DEGENERATE_TOL
    x0, y0, t0, steps = x, y, t, n
    for k in range(n):
        y2, px2 = 2 * y, p2 * x
        if k:
            # tangents through (x, y): _solve_quadratic(1.0, b, c), t^2 + bt + c
            b, c = -2 * y, px2 + pp
            s = sqrt(b * b - 4.0 * c)
            if b.real * s.real + b.imag * s.imag < 0:  # (b.conjugate() * s).real
                s = -s
            q = -(b + s) / 2
            r1 = q / 1.0  # not q: the division turns a -0.0 or inf part
            r2 = c / q if q != 0 else -b / 1.0 - r1
            if abs(r1 - r2) < degenerate_tol * max(1.0, abs(r1)):
                raise DegenerateStep("vertex lies on the parabola")
            # leave along the tangent that is not the one we arrived on
            d1, d2 = abs(r1 - t), abs(r2 - t)
            if d1 == d2:  # max(r1, r2, key=lambda z: (z.real, z.imag))
                t = r2 if (r2.real, r2.imag) > (r1.real, r1.imag) else r1
            else:
                t = r1 if d1 > d2 else r2
            for _ in (0, 1):  # two Newton steps on the tangency at this vertex
                dg = 2 * t - y2
                if abs(dg) < degenerate_tol:
                    raise DegenerateStep("tangency parameters collide (vertex on parabola)")
                t = t - (t * t - y2 * t + px2 + pp) / dg
            # minimal-period detection: same vertex and same outgoing tangent
            if (k >= 3 and steps == n and abs(x - x0) + abs(y - y0) < CLOSURE_TOL
                    and abs(t - t0) < 1e-6):
                steps = k
        if keep is not None:
            keep[k] = ((x, y), t)
        wx, wy = x - cx, y - cy
        # both guards are relative (coordinates grow like p^2 for steep
        # tangents) and written as `not <=`, so that a NaN residual fails them
        scale = abs(wx) ** 2 + abs(wy) ** 2
        scale = scale if scale > 1.0 else 1.0  # max(1.0, scale)
        residual = abs(wx ** 2 + wy ** 2 - 1.0)  # Circle.residual
        if not residual <= circle_tol * scale:
            raise NotOnCircle(_residual_message(residual, p))
        tt = t * t
        scale = max(1.0, abs(p * x), abs(t * y), abs(tt + p_sq) / 2)
        residual = abs(tt - y2 * t + px2 + pp) / 2
        if not residual <= line_tol * scale:
            raise NotOnLine(_residual_message(residual, p))
        # _chord_quadratic(t, pc, tt, wx, wy): (x, y) is its root near s = 0,
        # and keeping the small c corrects for (x, y) being off the circle
        a = tt + pc_sq
        if abs(a) < 1e-12:
            raise DegenerateStep("isotropic chord: the other intersection is at infinity")
        b = 2 * (t * wx + pc * wy)
        c = wx * wx + wy * wy - 1.0
        s = sqrt(b * b - 4 * a * c)  # _solve_quadratic(a, b, c)
        if b.real * s.real + b.imag * s.imag < 0:
            s = -s
        q = -(b + s) / 2
        r1 = q / a
        r2 = c / q if q != 0 else -b / a - r1
        s = r1 if abs(r1) >= abs(r2) else r2
        x, y = x + s * t, y + s * pc
        # back onto the circle, as _start_vertex projects
        wx, wy = x - cx, y - cy
        nrm = sqrt(wx * wx + wy * wy)
        if not abs(nrm) < 1e-6:
            x, y = cx + wx / nrm, cy + wy / nrm
    return x, y, steps


def next_vertex(circle: Circle, par: Parabola, t: complex, current: Point) -> Point:
    """The other intersection with the circle of the parabola's tangent line
    at parameter t; returns `current` itself when the line is tangent to the
    circle, and raises DegenerateStep when the line is isotropic, so the
    other intersection is at infinity."""
    cx, cy = circle.center
    x, y = current
    return _trace(cx, cy, par.p, t, x, y, 1, None)[:2]


@record
class TraceResult:
    vertices: tuple[Point, ...]
    tangency_params: tuple[complex, ...]
    closure_residual: float
    closed: bool
    steps: int


def _start_vertex(circle: Circle, par: Parabola, start_t: complex) -> Point:
    """The vertex a trace starts from: where the tangent at start_t meets the
    circle, projected radially back onto it in the bilinear norm, as _trace
    does after each step to suppress drift."""
    bx, by = par.contact_point(start_t)
    cx, cy = circle.center
    dx, dy = start_t, complex(par.p)
    s1, s2 = _solve_quadratic(*_chord_quadratic(dx, dy, dx * dx, bx - cx, by - cy))
    x1, y1, x2, y2 = bx + s1 * dx, by + s1 * dy, bx + s2 * dx, by + s2 * dy
    # Convention: larger real part, then larger imaginary part.
    k1, k2 = (x1.real, x1.imag, y1.real, y1.imag), (x2.real, x2.imag, y2.real, y2.imag)
    x, y = (x1, y1) if k1 >= k2 else (x2, y2)
    wx, wy = x - cx, y - cy
    nrm = cmath.sqrt(wx * wx + wy * wy)
    if abs(nrm) < 1e-6:
        return (x, y)  # (near-)isotropic radius: leave untouched
    return (cx + wx / nrm, cy + wy / nrm)


def poncelet_trace(circle: Circle, par: Parabola, start_t: complex, n: int) -> TraceResult:
    """Iterate the tangent-chord map n steps from the tangent line at
    start_t; reports closure and the minimal period."""
    if n < 3:
        raise ValueError("n must be >= 3")
    cx, cy = circle.center
    x0, y0 = _start_vertex(circle, par, start_t)
    kept = [None] * n
    x, y, steps = _trace(cx, cy, par.p, complex(start_t), x0, y0, n, kept)
    vertices, params = zip(*kept)
    residual = abs(x - x0) + abs(y - y0)
    closed = residual < CLOSURE_TOL
    return TraceResult(vertices, params, residual, closed, steps if closed else n)


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
    if n < 3:
        raise ValueError("n must be >= 3")
    cx, cy = circle.center
    clean = 0
    for t in _starts(num_starts * 4):
        if clean == num_starts:
            break
        try:
            x0, y0 = _start_vertex(circle, par, t)
            x, y, steps = _trace(cx, cy, par.p, complex(t), x0, y0, n, None)
        except DegenerateStep:
            continue
        clean += 1
        if not abs(x - x0) + abs(y - y0) < CLOSURE_TOL or steps != n:
            return False
    if clean < 3:
        raise DegenerateStep("fewer than 3 clean starts")
    return True
