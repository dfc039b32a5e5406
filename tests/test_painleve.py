"""Algebraic Painleve VI solution families and their verification chain."""

import math
from fractions import Fraction

import pytest

from poncelet.cayley import pencil_coeffs
from poncelet.painleve import (
    OKAMOTO_PARAMS,
    PICARD_PARAMS,
    BranchPoint,
    Jet2,
    PainleveError,
    Pole,
    PVIParams,
    SingularInput,
    hitchin_residual,
    n4_relation_residual,
    okamoto,
    pvi_residual,
    sample_family,
    solution_n3,
    solution_n4,
)
from poncelet.polycore import UniPolyR, specialize

F = Fraction


# -- jets ---------------------------------------------------------------------


def test_jet_arithmetic_rules():
    p = 1.7
    t = Jet2.variable(p)
    f = (t * t + 1) / (t - 3)
    # f = (p^2+1)/(p-3); check against hand derivatives
    val = (p * p + 1) / (p - 3)
    d1 = (2 * p * (p - 3) - (p * p + 1)) / (p - 3) ** 2
    assert f.value == pytest.approx(val, rel=1e-14)
    assert f.d1 == pytest.approx(d1, rel=1e-13)


def test_jet_sqrt():
    p = 2.3
    t = Jet2.variable(p)
    s = (t * t * t).sqrt()  # p^{3/2}
    assert s.value == pytest.approx(p**1.5, rel=1e-14)
    assert s.d1 == pytest.approx(1.5 * p**0.5, rel=1e-13)
    assert s.d2 == pytest.approx(0.75 * p**-0.5, rel=1e-13)


@pytest.mark.parametrize(
    "family,p_values",
    [
        ("N3", [1.0, 2.0, 5.0, 7.5, -5.0, -6.0, -4.5, 0.35, 11.0, 0.8]),
        ("N4", [2.5, 3.0, 4.0, -3.0, -2.5, 5.5, 2.1, -9.0, 6.0, 10.0]),
    ],
)
def test_jet_derivative_matches_finite_differences(family, p_values):
    solver = solution_n3 if family == "N3" else solution_n4
    h = 1e-5
    for p in p_values:
        for q in (p, p * 1.5 if family == "N3" else p + 0.3):
            pt = solver(q)
            lo, hi = solver(q - h), solver(q + h)
            fd = (hi.y - lo.y) / (hi.x - lo.x)
            assert pt.dy_dx == pytest.approx(fd, rel=1e-6)
            fd0 = (hi.y0 - lo.y0) / (hi.x - lo.x)
            assert pt.dy0_dx == pytest.approx(fd0, rel=1e-6)


# -- closed-form families -------------------------------------------------------


def test_solution_n3_point_values():
    pt = solution_n3(2.0)
    assert pt.x == pytest.approx(0.9330127018922193, rel=1e-12)
    assert pt.y0 == pytest.approx(1.0773502691896258, rel=1e-12)
    assert pt.y == pytest.approx(0.7886751345948129, rel=1e-12)
    assert pt.dy0_dx == pytest.approx(-2.0 / 3.0, rel=1e-9)
    assert pt.residual_y0 < 1e-7
    assert pt.residual_y < 1e-7


def test_solution_n4_point_values():
    pt = solution_n4(3.0)
    # p = 3: s = 3*sqrt(5), x = (7+s)/(2s), y0 = (1+9/s)/2, y = (9+s)/18
    s = 3 * math.sqrt(5)
    assert pt.x == pytest.approx((7 + s) / (2 * s), rel=1e-12)
    assert pt.y0 == pytest.approx((1 + 9 / s) / 2, rel=1e-12)
    assert pt.y == pytest.approx((9 + s) / 18, rel=1e-12)
    assert pt.dy0_dx == pytest.approx(4.5, rel=1e-9)
    assert pt.residual_y0 < 1e-7
    assert pt.residual_y < 1e-7


def test_branch_point_and_pole_errors():
    for bad in (0.0, -4.0):
        with pytest.raises(BranchPoint):
            solution_n3(bad)
    with pytest.raises(Pole):
        solution_n3(-1.0)
    for bad in (0.0, 2.0, -2.0):
        with pytest.raises(BranchPoint):
            solution_n4(bad)
    # the one finite p where a family meets a pole of the equation (x = 0)
    with pytest.raises(SingularInput, match="p = 1/2"):
        solution_n3(0.5)


@pytest.mark.parametrize("solver", [solution_n3, solution_n4])
def test_float_rounding_errors_name_p(solver):
    # x, y0 -> 1 and dx/dp -> 0 as p grows; where floats round them onto
    # their limit the error names p and float rounding, never a pole
    for p in (1e6, 1e50, 1e60, -1e70):
        with pytest.raises(SingularInput, match=r"at p = .* \(float rounding\)"):
            solver(p)


@pytest.mark.parametrize("solver", [solution_n3, solution_n4])
def test_derivative_guards_name_p_not_branch_pairing(solver):
    # dy0/dx is rational in p on both families, so a guard that fires
    # reports lost float digits and names p; N4 fires from |p| = 65, N3
    # from p = 317 and at or below p = -310
    fired = 0
    for p in range(-1000, 1001):
        try:
            solver(p)
        except PainleveError as exc:
            assert "branch pairing" not in str(exc)
            if "dy0/dx" in str(exc):
                assert str(exc).endswith(f"at p = {complex(p):.12g} (float rounding)")
                fired += 1
    assert fired > 0


def test_float_range_errors_name_p():
    # a huge p overflows the jets to inf or NaN, a tiny p underflows a
    # divisor to zero; each is a PainleveError naming p, never a NaN point
    for solver, p in ((solution_n3, 1e100), (solution_n4, 1e100), (solution_n3, -1e80),
                      (solution_n3, 1e-100), (solution_n4, 1e-100), (solution_n4, 1e100j)):
        with pytest.raises(PainleveError, match=r"at p = .* leaves the float range"):
            solver(p)


def test_sample_family_residuals():
    pts, max_res = sample_family("N3", [1.0, 2.0, 5.0])
    assert max_res < 1e-7
    pts, max_res = sample_family("N3", [-5.0, -6.0])
    assert max_res < 1e-7
    pts, max_res = sample_family("N4", [2.5, 3.0, 4.0, -3.0])
    assert max_res < 1e-7
    for pt in pts:
        assert n4_relation_residual(pt.x, pt.y) < 1e-9
        assert n4_relation_residual(pt.x, pt.y0) < 1e-9


def test_hitchin_relation_n3():
    for p in (1.0, 2.0, 5.0, -5.0, -6.0):
        pt = solution_n3(p)
        assert hitchin_residual(pt.x, pt.y) < 1e-8


def test_branch_continuity_along_arcs():
    # no branch flips along a real arc of the domain
    for solver, arc in (
        (solution_n3, [1.0 + 0.15 * k for k in range(30)]),
        (solution_n3, [-9.0 + 0.15 * k for k in range(30)]),
        (solution_n4, [2.6 + 0.2 * k for k in range(30)]),
        (solution_n4, [-8.5 + 0.2 * k for k in range(30)]),
    ):
        pts = [solver(p) for p in arc]
        for a, b in zip(pts, pts[1:]):
            # a branch flip would jump by O(1) relative to the local scale
            assert abs(complex(b.x) - complex(a.x)) < 0.3 * (1 + abs(complex(a.x)))
            assert abs(complex(b.y) - complex(a.y)) < 0.3 * (1 + abs(complex(a.y)))


# -- okamoto / residual --------------------------------------------------------


def test_okamoto_reproduces_closed_forms():
    for p in (1.0, 2.0, 5.0, -5.0, -6.0):
        pt = solution_n3(p)
        y = okamoto(pt.y0, pt.dy0_dx, pt.x)
        assert y == pytest.approx(pt.y, abs=1e-9)
    for p in (2.5, 3.0, 4.0, -3.0):
        pt = solution_n4(p)
        y = okamoto(pt.y0, pt.dy0_dx, pt.x)
        assert y == pytest.approx(pt.y, abs=1e-9)


def test_okamoto_fixed_points():
    # correction term vanishes when y0 is 0, 1, or x
    assert okamoto(0.0, 0.37, 2.0) == pytest.approx(0.0, abs=1e-15)
    assert okamoto(1.0, 0.37, 2.0) == pytest.approx(1.0, abs=1e-15)
    assert okamoto(2.0, 0.37, 2.0) == pytest.approx(2.0, abs=1e-14)


def test_pvi_residual_constant_function():
    # y = 1/2 constant, x = 2, Picard parameters: only the delta term
    # survives and the defect is exactly 1/24
    res = pvi_residual(2.0, 0.5, 0.0, 0.0, PICARD_PARAMS)
    assert res == pytest.approx(1 / 24, rel=1e-12)


def test_pvi_residual_singular_inputs():
    with pytest.raises(SingularInput):
        pvi_residual(2.0, 2.0, 0.1, 0.1, OKAMOTO_PARAMS)
    with pytest.raises(SingularInput):
        pvi_residual(1.0, 0.5, 0.1, 0.1, OKAMOTO_PARAMS)


def test_params_frozen_values():
    assert PICARD_PARAMS == PVIParams(F(0), F(0), F(0), F(1, 2))
    assert OKAMOTO_PARAMS == PVIParams(F(1, 8), F(-1, 8), F(1, 8), F(3, 8))


# -- spectra --------------------------------------------------------------------


def test_pencil_cubic_factors_at_closed_centers():
    # det(lambda*D + P) = delta1 l^3 + theta1 l^2 + theta2 l + delta2 must be
    # -(l + 1)(l^2 + b l + p^2), with b = p(p+2) at (1, 0) and b = p^2 at
    # (0, 0), as polynomials in p: the root -1 and the Vieta product p^2 of
    # the other two hold for every p.
    pc = pencil_coeffs()
    one, p = UniPolyR([1]), UniPolyR([0, 1])
    c = p * p
    for (x, y), b in (((1, 0), p * (p + UniPolyR([2]))), ((0, 0), p * p)):
        got = [specialize(k, x, y) for k in (pc.delta1, pc.theta1, pc.theta2, pc.delta2)]
        want = [one, b + one, b + c, c]
        assert got == [w.scale(-1) for w in want]


# -- exact algebraic certificate for the n=4 relation ------------------------------


class _QExt:
    """Arithmetic in Q(s) with s^2 = m, m rational: a + b s."""

    def __init__(self, a, b, m):
        self.a, self.b, self.m = F(a), F(b), F(m)

    def __add__(self, o):
        o = self._coerce(o)
        return _QExt(self.a + o.a, self.b + o.b, self.m)

    def __radd__(self, o):
        return self + o

    def __sub__(self, o):
        return self + (-1 * self._coerce(o))

    def __mul__(self, o):
        o = self._coerce(o)
        return _QExt(
            self.a * o.a + self.b * o.b * self.m, self.a * o.b + self.b * o.a, self.m
        )

    def __rmul__(self, o):
        return self * o

    def inv(self):
        d = self.a * self.a - self.b * self.b * self.m
        return _QExt(self.a / d, -self.b / d, self.m)

    def __truediv__(self, o):
        return self * self._coerce(o).inv()

    def _coerce(self, o):
        return o if isinstance(o, _QExt) else _QExt(F(o), 0, self.m)

    def is_zero(self):
        return self.a == 0 and self.b == 0


def test_n4_relation_exact_on_both_branches():
    """y^2 - 2xy + x = 0 holds identically for the n=4 family: verify in the
    quadratic extension Q(s)/(s^2 - p^2(p^2-4)), which covers both square
    root branches at once."""
    for p in (F(3), F(5, 2), F(-3), F(7), F(12, 5)):
        m = p * p * (p * p - 4)
        s = _QExt(0, 1, m)
        for sign in (1, -1):
            ss = sign * s
            y = (_QExt(p * p, 0, m) + ss) / (2 * p * p)
            # on the opposite branch x flips too; the relation pairs x and y
            # computed from the SAME branch
            x_branch = (_QExt(p * p - 2, 0, m) + ss) / (2 * ss)
            rel_same = y * y - 2 * x_branch * y + x_branch
            assert rel_same.is_zero()
