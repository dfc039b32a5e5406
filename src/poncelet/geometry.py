"""Numeric Poncelet-closure oracle.

Traces tangent-chord polygons in complex coordinates: vertices live on the
(complexified) unit circle, edges are tangent lines of the parabola
y^2 = 2px + p^2.  Shares no code path with the exact Cayley machinery.
"""

from __future__ import annotations

import cmath
import random

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
        return abs((pt[0] - cx) ** 2 + (pt[1] - cy) ** 2 - 1.0)


def _tangency(p: complex, t: complex, pt: Point) -> complex:
    """t^2 - 2yt + 2px + p^2: zero iff the tangent at parameter t passes through pt = (x, y)."""
    x, y = pt
    return t * t - 2 * y * t + 2 * p * x + p**2


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
        return abs(_tangency(self.p, t, pt)) / 2


def tangent_params(point: Point, par: Parabola) -> tuple[complex, complex]:
    """Parameters (contact-point y-coordinates) of the two parabola tangents
    through the point; complex solutions allowed."""
    x0, y0 = complex(point[0]), complex(point[1])
    # _tangency(p, t, point) = t^2 + b*t + c
    b = -2 * y0
    c = 2 * par.p * x0 + par.p**2
    return _solve_quadratic(1.0, b, c)


def _solve_quadratic(a: complex, b: complex, c: complex) -> tuple[complex, complex]:
    disc = b * b - 4 * a * c
    s = cmath.sqrt(disc)
    if (b.conjugate() * s).real < 0:
        s = -s
    q = -(b + s) / 2
    r1 = q / a
    r2 = c / q if q != 0 else -b / a - r1
    return r1, r2


def _chord_quadratic(circle: Circle, direction: Point, base: Point) -> tuple[complex, complex, complex]:
    """Coefficients (a, b, c) of a*s^2 + b*s + c, whose roots s are where the
    line base + s*direction meets the circle.  An isotropic direction (a = 0)
    raises DegenerateStep: the other intersection is at infinity."""
    cx, cy = circle.center
    dx, dy = direction
    wx, wy = base[0] - cx, base[1] - cy
    a = dx * dx + dy * dy  # bilinear, not Hermitian: complex circle
    if abs(a) < 1e-12:
        raise DegenerateStep("isotropic chord: the other intersection is at infinity")
    b = 2 * (dx * wx + dy * wy)
    c = wx * wx + wy * wy - 1.0
    return a, b, c


def _renormalize(circle: Circle, v: Point) -> Point:
    """Project a near-circle point radially back onto the circle (bilinear
    norm, so complex points are handled); suppresses drift over many steps."""
    cx, cy = circle.center
    wx, wy = v[0] - cx, v[1] - cy
    nrm = cmath.sqrt(wx * wx + wy * wy)
    if abs(nrm) < 1e-6:
        return v  # (near-)isotropic radius: leave untouched
    return (cx + wx / nrm, cy + wy / nrm)


def _residual_message(residual: float, p: complex) -> str:
    if cmath.isfinite(residual):
        return f"residual {residual:.3e}"
    return f"residual {residual}: the float trace overflows at p = {p!r}"


def next_vertex(circle: Circle, par: Parabola, t: complex, current: Point) -> Point:
    """The other intersection with the circle of the parabola's tangent line
    at parameter t; returns `current` itself when the line is tangent to the
    circle, and raises DegenerateStep when the line is isotropic, so the
    other intersection is at infinity."""
    p = par.p
    # both guards are relative: coordinates grow like p^2 for steep
    # tangents, and the residuals scale with them; written as `not <=` so
    # that a NaN residual fails them
    circle_scale = max(
        1.0, abs(current[0] - circle.center[0]) ** 2 + abs(current[1] - circle.center[1]) ** 2
    )
    if not circle.residual(current) <= ON_CIRCLE_TOL * 10 * circle_scale:
        raise NotOnCircle(_residual_message(circle.residual(current), p))
    line_scale = max(
        1.0, abs(p * current[0]), abs(t * current[1]), abs(t * t + p * p) / 2
    )
    if not par.line_residual(t, current) <= ON_LINE_TOL * line_scale:
        raise NotOnLine(_residual_message(par.line_residual(t, current), p))
    dx, dy = t, complex(p)
    # current corresponds to the root near s = 0; keeping the small residual
    # c in the solve corrects for current being slightly off the circle.
    r1, r2 = _solve_quadratic(*_chord_quadratic(circle, (dx, dy), current))
    s = r1 if abs(r1) >= abs(r2) else r2
    return _renormalize(circle, (current[0] + s * dx, current[1] + s * dy))


@record
class TraceResult:
    vertices: tuple[Point, ...]
    tangency_params: tuple[complex, ...]
    closure_residual: float
    closed: bool
    steps: int

    def __init__(self, vertices: tuple[Point, ...], tangency_params: tuple[complex, ...],
                 closure_residual: float, closed: bool, steps: int):
        store = object.__setattr__
        store(self, "vertices", vertices)
        store(self, "tangency_params", tangency_params)
        store(self, "closure_residual", closure_residual)
        store(self, "closed", closed)
        store(self, "steps", steps)


def _start_vertex(circle: Circle, par: Parabola, start_t: complex) -> Point:
    base = par.contact_point(start_t)
    dx, dy = start_t, complex(par.p)
    v1, v2 = [(base[0] + s * dx, base[1] + s * dy)
              for s in _solve_quadratic(*_chord_quadratic(circle, (dx, dy), base))]
    # Convention: larger real part, then larger imaginary part.
    k1, k2 = [(v[0].real, v[0].imag, v[1].real, v[1].imag) for v in (v1, v2)]
    return v1 if k1 >= k2 else v2


def _newton_polish(par: Parabola, vertex: Point, t: complex) -> complex:
    # Two Newton steps on g(t) = _tangency(p, t, vertex).
    for _ in range(2):
        g = _tangency(par.p, t, vertex)
        dg = 2 * t - 2 * vertex[1]
        if abs(dg) < DEGENERATE_TOL:
            raise DegenerateStep("tangency parameters collide (vertex on parabola)")
        t = t - g / dg
    return t


def poncelet_trace(circle: Circle, par: Parabola, start_t: complex, n: int) -> TraceResult:
    """Iterate the tangent-chord map n steps from the tangent line at
    start_t; reports closure and the minimal period."""
    if n < 3:
        raise ValueError("n must be >= 3")
    v0 = _renormalize(circle, _start_vertex(circle, par, start_t))
    vertices = [v0]
    params: list[complex] = [complex(start_t)]
    v = next_vertex(circle, par, complex(start_t), v0)
    t_in = complex(start_t)
    steps = n
    for k in range(1, n):
        vertices.append(v)
        r1, r2 = tangent_params(v, par)
        if abs(r1 - r2) < DEGENERATE_TOL * max(1.0, abs(r1)):
            raise DegenerateStep("vertex lies on the parabola")
        t_out = r1 if abs(r1 - t_in) >= abs(r2 - t_in) else r2
        if abs(r1 - t_in) == abs(r2 - t_in):
            t_out = max(r1, r2, key=lambda z: (z.real, z.imag))
        t_out = _newton_polish(par, v, t_out)
        params.append(t_out)
        # Minimal-period detection: same vertex and same outgoing tangent.
        if (
            k >= 3
            and steps == n
            and abs(v[0] - v0[0]) + abs(v[1] - v0[1]) < CLOSURE_TOL
            and abs(t_out - params[0]) < 1e-6
        ):
            steps = k
        v = next_vertex(circle, par, t_out, v)
        t_in = t_out
    residual = abs(v[0] - v0[0]) + abs(v[1] - v0[1])
    closed = residual < CLOSURE_TOL
    return TraceResult(
        vertices=tuple(vertices),
        tangency_params=tuple(params),
        closure_residual=residual,
        closed=closed,
        steps=steps if closed else n,
    )


def closes_after(circle: Circle, par: Parabola, n: int, num_starts: int = 8) -> bool:
    """True iff the tangent-chord trace closes after exactly n steps for all
    sampled starts (Poncelet porism: closure is start-independent).

    Closure at a proper divisor period (a k-gon traversed n/k times) does not
    count as an n-gon.
    """
    if num_starts < 3:
        raise ValueError("need at least 3 starts")
    rng = random.Random(7_654_321)
    clean = 0
    tried = 0
    while clean < num_starts and tried < num_starts * 4:
        tried += 1
        t = complex(rng.uniform(0.2, 2.5), rng.uniform(-0.4, 0.4))
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
