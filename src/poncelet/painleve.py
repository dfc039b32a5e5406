"""Explicit algebraic Painleve VI solutions attached to the 3- and
4-isoperiodic families, verified by direct residual evaluation.

Derivatives with respect to the curve parameter come from order-2 truncated
Taylor jets, so the second-order residual of the differential equation can
be checked to tight tolerances.
"""

from __future__ import annotations

import cmath
from contextlib import contextmanager
from fractions import Fraction

from ._record import record

DERIV_TOL = 1e-9
RESIDUAL_TOL = 1e-7


class PainleveError(Exception):
    pass


class BranchPoint(PainleveError):
    pass


class Pole(PainleveError):
    pass


class SingularDenominator(PainleveError):
    pass


class SingularInput(PainleveError):
    pass


@record
class PVIParams:
    alpha: Fraction
    beta: Fraction
    gamma: Fraction
    delta: Fraction


PICARD_PARAMS = PVIParams(Fraction(0), Fraction(0), Fraction(0), Fraction(1, 2))
OKAMOTO_PARAMS = PVIParams(Fraction(1, 8), Fraction(-1, 8), Fraction(1, 8), Fraction(3, 8))


@record
class Jet2:
    """Order-2 truncated Taylor coefficients (value, d/dp, d^2/dp^2)."""

    value: complex
    d1: complex
    d2: complex

    def __init__(self, value: complex, d1: complex = 0.0, d2: complex = 0.0):
        store = object.__setattr__
        store(self, "value", value)
        store(self, "d1", d1)
        store(self, "d2", d2)

    @staticmethod
    def variable(p: complex) -> "Jet2":
        return Jet2(complex(p), 1.0, 0.0)

    @staticmethod
    def const(c: complex) -> "Jet2":
        return Jet2(complex(c), 0.0, 0.0)

    def __add__(self, other) -> "Jet2":
        other = _as_jet(other)
        return Jet2(self.value + other.value, self.d1 + other.d1, self.d2 + other.d2)

    __radd__ = __add__

    def __neg__(self) -> "Jet2":
        return Jet2(-self.value, -self.d1, -self.d2)

    def __sub__(self, other) -> "Jet2":
        return self + (-_as_jet(other))

    def __mul__(self, other) -> "Jet2":
        other = _as_jet(other)
        return Jet2(
            self.value * other.value,
            self.d1 * other.value + self.value * other.d1,
            self.d2 * other.value + 2 * self.d1 * other.d1 + self.value * other.d2,
        )

    __rmul__ = __mul__

    def inv(self) -> "Jet2":
        v = self.value
        if v == 0:
            raise ZeroDivisionError("jet with zero value")
        w = 1 / v
        return Jet2(w, -self.d1 * w * w, (2 * self.d1 * self.d1 / v - self.d2) * w * w)

    def __truediv__(self, other) -> "Jet2":
        return self * _as_jet(other).inv()

    def sqrt(self) -> "Jet2":
        s = cmath.sqrt(self.value)
        if s == 0:
            raise BranchPoint("square root branch point")
        d1 = self.d1 / (2 * s)
        d2 = self.d2 / (2 * s) - self.d1 * self.d1 / (4 * s * s * s)
        return Jet2(s, d1, d2)


def _as_jet(v) -> Jet2:
    if isinstance(v, Jet2):
        return v
    if isinstance(v, (int, float, complex, Fraction)):
        return Jet2.const(complex(v))
    raise TypeError(f"cannot coerce {type(v).__name__} to Jet2")


@record
class PVISolutionPoint:
    family: str  # "N3" | "N4"
    p: complex
    x: complex
    y0: complex
    y: complex
    dy0_dx: complex
    dy_dx: complex
    d2y_dx2: complex
    residual_y0: float
    residual_y: float


def okamoto(y0: complex, dy0_dx: complex, x: complex) -> complex:
    """Okamoto lift from a Picard solution to the (1/8,-1/8,1/8,3/8) family."""
    den = x * (x - 1) * dy0_dx - y0 * (y0 - 1)
    if den == 0:
        raise SingularDenominator("Okamoto denominator vanished")
    return y0 + y0 * (y0 - 1) * (y0 - x) / den


def pvi_residual(x: complex, y: complex, dy_dx: complex, d2y_dx2: complex, params: PVIParams) -> float:
    """Absolute defect of the Painleve VI equation at one evaluated point."""
    if x in (0, 1) or y in (0, 1) or y == x:
        raise SingularInput("evaluation point hits a pole of the equation")
    lhs = d2y_dx2
    rhs = (
        (1 / y + 1 / (y - 1) + 1 / (y - x)) * dy_dx * dy_dx / 2
        - (1 / x + 1 / (x - 1) + 1 / (y - x)) * dy_dx
        + y * (y - 1) * (y - x) / (x * x * (x - 1) ** 2)
        * (
            float(params.alpha)
            + float(params.beta) * x / (y * y)
            + float(params.gamma) * (x - 1) / ((y - 1) ** 2)
            + float(params.delta) * x * (x - 1) / ((y - x) ** 2)
        )
    )
    return abs(lhs - rhs)


@contextmanager
def _float_range(p: complex):
    """A float overflow, a non-finite point or a division by a value that
    underflowed to zero becomes a PainleveError that names p."""
    try:
        yield
    except (OverflowError, ZeroDivisionError):
        raise PainleveError(f"the evaluation at p = {p:.12g} leaves the float range") from None


def _point_from_jets(family: str, p: complex, xj: Jet2, y0j: Jet2, yj: Jet2) -> PVISolutionPoint:
    # On both families dx/dp never vanishes, and the point meets a pole of
    # the equation only where solution_n3/n4 reject p first.  Meeting either
    # here is float rounding: x, y0 -> 1 and dx/dp -> 0 as |p| grows.
    if xj.d1 == 0:
        raise SingularInput(f"dx/dp rounds to 0 at p = {p:.12g} (float rounding); "
                            "cannot reparametrize by x")
    dy0_dx = y0j.d1 / xj.d1
    dy_dx = yj.d1 / xj.d1
    d2y_dx2 = (yj.d2 * xj.d1 - yj.d1 * xj.d2) / xj.d1**3
    d2y0_dx2 = (y0j.d2 * xj.d1 - y0j.d1 * xj.d2) / xj.d1**3
    try:
        res0 = pvi_residual(xj.value, y0j.value, dy0_dx, d2y0_dx2, PICARD_PARAMS)
        res1 = pvi_residual(xj.value, yj.value, dy_dx, d2y_dx2, OKAMOTO_PARAMS)
    except SingularInput:
        raise SingularInput(f"x or y rounds onto a pole of the equation at p = {p:.12g} "
                            "(float rounding)") from None
    if not all(map(cmath.isfinite, (xj.value, y0j.value, yj.value, res0, res1))):
        raise OverflowError("non-finite value")
    return PVISolutionPoint(family, p, xj.value, y0j.value, yj.value,
                            dy0_dx, dy_dx, d2y_dx2, res0, res1)


def solution_n3(p: complex) -> PVISolutionPoint:
    """The algebraic solution family attached to 3-isoperiodicity (circle
    centered at (1, 0))."""
    pc = complex(p)
    if pc == 0 or pc == -4:
        raise BranchPoint("p in {0, -4}")
    if pc == -1:
        raise Pole("p = -1")
    if pc == 0.5:
        raise SingularInput("p = 1/2 puts x at 0, a pole of the equation")
    with _float_range(pc):
        P = Jet2.variable(pc)
        s = (P * P * P * (P + 4)).sqrt()
        xj = (P * P + 2 * P - 2 + s) / (2 * s)
        y0j = (P * P + 2 * P + s) / (2 * s)
        yj = (P * P + 2 * P + s) * (-(P * P) - 4 * P + 3 * s) / (4 * P * (P + 1) * s)
        point = _point_from_jets("N3", pc, xj, y0j, yj)
        # x, y0 and y share the one root s, so dy0/dx = -p/3 exactly (and
        # p^2/2 on N4): a miss means the float jets lost their digits.
        if not abs(point.dy0_dx - (-pc / 3)) <= DERIV_TOL * max(1.0, abs(pc)):
            raise PainleveError(f"dy0/dx misses -p/3 at p = {pc:.12g} (float rounding)")
    return point


def solution_n4(p: complex) -> PVISolutionPoint:
    """The algebraic solution family attached to 4-isoperiodicity (circle
    centered at the focus)."""
    pc = complex(p)
    if pc in (0, 2, -2):
        raise BranchPoint("p in {0, +-2}")
    with _float_range(pc):
        P = Jet2.variable(pc)
        s = (P * P * (P * P - 4)).sqrt()
        xj = (P * P - 2 + s) / (2 * s)
        y0j = (1 + P * P / s) * Fraction(1, 2)
        yj = (P * P + s) / (2 * P * P)
        point = _point_from_jets("N4", pc, xj, y0j, yj)
        if not abs(point.dy0_dx - pc * pc / 2) <= DERIV_TOL * max(1.0, abs(pc) ** 2):
            raise PainleveError(f"dy0/dx misses p^2/2 at p = {pc:.12g} (float rounding)")
        if not abs(point.y - point.y0 / (2 * point.y0 - 1)) <= DERIV_TOL:
            raise PainleveError(f"y misses y0/(2 y0 - 1) at p = {pc:.12g} (float rounding)")
    return point


def sample_family(family: str, p_values) -> tuple[list[PVISolutionPoint], float]:
    """Batch evaluation; returns the points and the maximum PVI residual."""
    solver = {"N3": solution_n3, "N4": solution_n4}[family]
    points = [solver(p) for p in p_values]
    max_res = max((max(pt.residual_y0, pt.residual_y) for pt in points), default=0.0)
    return points, max_res


def hitchin_residual(x: complex, y: complex) -> float:
    """Defect of the quartic relation satisfied by the n=3 family."""
    return abs(
        x * y**3 * (y + 2)
        + x**3 * (2 * y - 1)
        - x * x * y * (y**3 - 2 * y * y + 6 * y - 2)
        - y**4
    )


def n4_relation_residual(x: complex, y: complex) -> float:
    """Defect of the relation y^2 - 2xy + x = 0 satisfied by the n=4 family."""
    return abs(y**2 - 2 * x * y + x)
