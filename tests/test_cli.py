"""Command-line interface: flag handling, output formats, exit codes."""

import contextlib
import hashlib
import io
import json
import re
import shlex
import sys
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import time_limit
from poncelet.cayley import locus_at_p
from poncelet.polycore import format_poly
from poncelet import cli
from poncelet.cli import (
    MAX_BITS,
    MAX_CAYLEY_P_BITS,
    VIEW,
    build_parser,
    main,
    marching_squares,
    node_values,
    parse_center,
    parse_rational,
)
from poncelet.polycore import _long_decimal
from fractions import Fraction


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_parse_rational_forms():
    assert parse_rational("3/8") == Fraction(3, 8)
    assert parse_rational("-1.25") == Fraction(-5, 4)
    assert parse_rational("2") == Fraction(2)


def test_parse_center():
    e = parse_center("1/2,-3")
    assert (e.x, e.y) == (Fraction(1, 2), Fraction(-3))


def test_cayley_text(capsys):
    code, out = run(capsys, "cayley", "--n", "3")
    assert code == 0
    assert out.strip() == "x^2 + y^2 - 1"


def test_cayley_json_roundtrip(capsys):
    code, out = run(capsys, "cayley", "--n", "5", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["n"] == 5
    assert data["divisors_removed"] == []
    from poncelet.polycore import parse_poly
    from poncelet.cayley import locus

    assert parse_poly(data["canonical"]) == locus(5).canonical


def test_cayley_at_p(capsys):
    code, out = run(capsys, "cayley", "--n", "4", "--p", "1/2")
    assert code == 0
    from poncelet.polycore import parse_poly, canonicalize, LaurentPoly3

    X, Y = LaurentPoly3.var_x(), LaurentPoly3.var_y()
    assert parse_poly(out.strip()) == canonicalize(
        X**2 + Y**2 + 2 * X * (X**2 + Y**2 - 1)
    )


def test_cayley_at_p_past_the_int_str_digit_limit(capsys):
    # coefficients of 10^2400's powers have more digits than str converts:
    # the longest has 4,801
    limit = sys.get_int_max_str_digits()
    code, out = run(capsys, "cayley", "--n", "5", "--p", "1e2400")
    assert code == 0 and sys.get_int_max_str_digits() == limit
    assert max(map(len, re.findall(r"\d+", out))) > limit
    sys.set_int_max_str_digits(0)
    try:
        assert out == format_poly(locus_at_p(5, Fraction(10**2400))) + "\n"
    finally:
        sys.set_int_max_str_digits(limit)


def test_cayley_json_past_the_int_str_digit_limit_round_trips(capsys):
    code, out = run(capsys, "cayley", "--n", "5", "--p", "1e2400", "--format", "json")
    assert code == 0
    from poncelet.polycore import parse_poly

    assert parse_poly(json.loads(out)["canonical"]) == locus_at_p(5, 10**2400)


CAYLEY_AT_P_SHA256 = {
    (3, "1/3"): ("56d5732922e82da11be0707b933a9abe146e85bae3aec944ac6fc1912eb55bcc",
                 "cc5f3ad7ff230f298f66aba9c326c0d304def7922a5ccf6a01a73d41ab045e58"),
    (3, "-5/2"): ("56d5732922e82da11be0707b933a9abe146e85bae3aec944ac6fc1912eb55bcc",
                  "cc5f3ad7ff230f298f66aba9c326c0d304def7922a5ccf6a01a73d41ab045e58"),
    (3, "1e200"): ("56d5732922e82da11be0707b933a9abe146e85bae3aec944ac6fc1912eb55bcc",
                   "cc5f3ad7ff230f298f66aba9c326c0d304def7922a5ccf6a01a73d41ab045e58"),
    (3, "1e-200"): ("56d5732922e82da11be0707b933a9abe146e85bae3aec944ac6fc1912eb55bcc",
                    "cc5f3ad7ff230f298f66aba9c326c0d304def7922a5ccf6a01a73d41ab045e58"),
    (7, "1/3"): ("122e3402011d829cc7a38f840edffba2a75cdc39ccb8cca168590ad0db2d0d56",
                 "2a4448167233b31181d4dc55d0caeb89bae439ec6a105524e82dc43d22c76532"),
    (7, "-5/2"): ("11465d811724792a975c6a7f89accaa9bb17a48fd4474a24bf771acf70c03c2f",
                  "7c354bf71f1ee4ba24b6b64ba8948ad29028701fd5f58e70d468e1d0e4f356d4"),
    (7, "1e200"): ("f3275fe0250c8906695b5288d236df019b937b0bbacacf420e912899c3895b8c",
                   "2bbdc083634e31f04e2caa1a1208686aa5b8b7abd92c97f8d7c2c8307627ca2c"),
    (7, "1e-200"): ("38420d6759631593a8056784c432a3a6e5538739f698a5eddca68e61a2d1d833",
                    "24311cdfebe0bd6876350ef287d73ba2704624da37a9a31bb61bf4937a590df8"),
    (12, "1/3"): ("89ac13c50330b9eb51cdba7a2b10b0a7823e2f2600d889f3c869c3e3418ead75",
                  "60e13a18b37108bd0059cb466a510b5a524c37f1063871720213cf70990ef66c"),
    (12, "-5/2"): ("066160dd03c768e7bb599456e453dc5bff05a1f3a8e8672f14be87d473ff3f9b",
                   "b8be8de4b068fc4bcadf8677a8a85e352c33fb6afdeeb83baeff3b9d8d9ce8cf"),
    (12, "1e200"): ("8cb891497a5ebf071c01295f8bc3c21fd30fb01b82317bf714b808e0d8cf0a9b",
                    "89dbb421090527f1c492e50d2c8fb3135d3ed0dcca3ab075f2cf4b65bbe92213"),
    (12, "1e-200"): ("542655fe34f9b131102727a26555976517671da23f09e8bae923856b66e2ef0e",
                     "632f7c171a1b7665cb1c51effb06e5f3b60ae64bba346ec4ca9bfb6c20c0a6ec"),
}


@pytest.mark.parametrize("n, p", sorted(CAYLEY_AT_P_SHA256))
def test_cayley_at_p_output_pinned(capsys, n, p):
    # the text and JSON curves of the Fraction substitution, byte for byte
    for fmt, digest in zip(("text", "json"), CAYLEY_AT_P_SHA256[n, p]):
        code, out = run(capsys, "cayley", "--n", str(n), f"--p={p}", "--format", fmt)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, fmt


def test_classify_json(capsys):
    code, out = run(capsys, "classify", "--n", "4", "--center", "2,0")
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 1
    assert data["roots"][0]["p"] == pytest.approx(-1.5, abs=1e-9)
    assert json.loads(json.dumps(data)) == data


def test_isoperiodic(capsys):
    code, out = run(capsys, "isoperiodic", "--center", "3/5,4/5")
    assert code == 0
    assert json.loads(out)["isoperiodic_n"] == 3
    code, out = run(capsys, "isoperiodic", "--center", "1/2,0")
    assert code == 0
    assert json.loads(out)["isoperiodic_n"] is None


def test_trace_json_and_svg(capsys, tmp_path):
    svg = tmp_path / "trace.svg"
    code, out = run(
        capsys, "trace", "--center", "0,0", "--p", "1", "--n", "4", "--svg", str(svg)
    )
    assert code == 0
    data = json.loads(out)
    assert data["closed"] is True
    assert data["closure_residual"] < 1e-9
    assert data["steps"] == 4
    assert len(data["vertices"]) == 4
    text = svg.read_text()
    assert text.startswith("<svg") and "polyline" in text


def test_locus_csv(capsys, tmp_path):
    out_file = tmp_path / "locus.csv"
    code, _ = run(
        capsys,
        "locus", "--n", "3", "--p", "1", "--grid", "64", "--out", str(out_file),
    )
    assert code == 0
    lines = out_file.read_text().strip().splitlines()
    assert lines[0] == "x,y"
    assert len(lines) > 10
    # all sampled points lie near the unit circle
    for ln in lines[1:]:
        x, y = map(float, ln.split(","))
        assert abs(x * x + y * y - 1) < 0.05


def test_locus_grid_nodes_once(capsys):
    # the four grid nodes on the circle are each printed once
    code, out = run(capsys, "locus", "--n", "3", "--p", "1", "--grid", "6")
    assert code == 0
    assert out == "x,y\n-1,0\n0,-1\n0,1\n1,0\n"


def _rows(f, grid):
    """f at the nodes of the locus grid, row by row, as marching_squares takes them."""
    nodes = [-VIEW + k * 2 * VIEW / grid for k in range(grid + 1)]
    return ([f(x, y) for y in nodes] for x in nodes)


def test_marching_squares_zero_nodes_once():
    points = marching_squares(_rows(lambda x, y: x * x + y * y - 1, 6), 6)
    assert sorted(points) == [(-1.0, 0.0), (0.0, -1.0), (0.0, 1.0), (1.0, 0.0)]


def test_marching_squares_boundary_crossings():
    # 2.95 lies between the last two grid lines: one crossing per line of
    # nodes across it, the edge on the boundary x = 3 (or y = 3) included
    nodes = [-3.0 + k for k in range(7)]
    across = marching_squares(_rows(lambda x, y: x - 2.95, 6), 6)
    assert [y for _, y in across] == nodes
    assert all(x == pytest.approx(2.95) for x, _ in across)
    up = marching_squares(_rows(lambda x, y: y - 2.95, 6), 6)
    assert [x for x, _ in up] == nodes
    assert all(y == pytest.approx(2.95) for _, y in up)


LOCUS_CASES = (
    (12, Fraction(1, 3), 24), (7, Fraction(-5, 2), 16), (3, Fraction(1), 6),
    (5, Fraction("1e200"), 16), (5, Fraction("1e-200"), 16),
)


@lru_cache(maxsize=None)
def _exact_grid(n, p, grid):
    """The nodes -3 + 6k/grid and the curve's Fraction values at them."""
    curve = locus_at_p(n, p)
    nodes = [Fraction(6 * k - 3 * grid, grid) for k in range(grid + 1)]
    return nodes, [[curve.evaluate(1, x, y) for y in nodes] for x in nodes]


@pytest.mark.parametrize("n, p, grid", LOCUS_CASES, ids=["n12", "n7", "n3", "n5-huge-p", "n5-tiny-p"])
def test_node_values_are_exact_on_one_scale(n, p, grid):
    # every node u/grid, u = 6i - 3 grid, has the value grid**(dx + dy)
    # times the exact one, so each sign is the exact sign
    curve = locus_at_p(n, p)
    dx, dy = (max(e[k] for e in curve.terms) for k in (1, 2))
    scale = grid ** (dx + dy)
    _, vals = _exact_grid(n, p, grid)
    assert [[scale * v for v in row] for row in vals] == list(node_values(curve, grid))


def test_locus_crossings_round_the_exact_ones():
    # each crossing is within a few ulps of linear interpolation between
    # the exact node values, at the nodes as exact fractions
    n, p, grid = LOCUS_CASES[0]
    nodes, vals = _exact_grid(n, p, grid)
    h = Fraction(6, grid)
    want = []
    for i, x in enumerate(nodes):
        for j, y in enumerate(nodes):
            v0 = vals[i][j]
            if v0 == 0:
                want.append((x, y))
            if i < grid and v0 * vals[i + 1][j] < 0:
                want.append((x + v0 / (v0 - vals[i + 1][j]) * h, y))
            if j < grid and v0 * vals[i][j + 1] < 0:
                want.append((x, y + v0 / (v0 - vals[i][j + 1]) * h))
    got = marching_squares(node_values(locus_at_p(n, p), grid), grid)
    assert len(got) == len(want) > 50
    for (gx, gy), (wx, wy) in zip(got, want):
        assert abs(gx - wx) < 1e-15 and abs(gy - wy) < 1e-15, (gx, gy)


@pytest.mark.parametrize("p", ["1e200", "1e-200", "1e999"])
def test_locus_far_p_exit_code(capsys, p):
    # no float range limits the curve: its node values are exact ints
    code, out = run(capsys, "locus", "--n", "5", "--p", p, "--grid", "16")
    assert code == 0
    if p == "1e-200":
        assert out.count("\n") > 10
    else:  # every node value is negative: the header alone
        assert out == "x,y\n"
        curve = locus_at_p(5, Fraction(p))
        assert all(v < 0 for row in node_values(curve, 16) for v in row)


@pytest.mark.parametrize("argv, digest", [
    (("--n", "3", "--p", "1", "--grid", "64"),
     "2071896f42d180244cd5940a86cb136c0156b6e2f30ee0ccc70f1816d9d5db14"),
    (("--n", "7", "--p=-5/2", "--grid", "256"),
     "5409ba8f4c8f6b3dfdc5bb0b940fdf13315c46bf51d64c4f95ac77bf4325b9e1"),
    (("--n", "5", "--p", "1e-200", "--grid", "16"),
     "c4c15b012ce5974a788c2d38c5268e40963919ed781bccd12b5d6c55d43f3bbd"),
    (("--n", "4", "--p", "1/2", "--format", "svg", "--grid", "64"),
     "82c2ae8f78c531baa95ad186b88a02e197385ec72c90aa6c421273a4e1a99dd9"),
], ids=["n3", "n7", "n5-tiny-p", "n4-svg"])
def test_locus_output_pinned(capsys, argv, digest):
    # on these commands the exact crossings round to the bytes the float sums gave
    code, out = run(capsys, "locus", *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_locus_svg(capsys, tmp_path):
    out_file = tmp_path / "locus.svg"
    code, _ = run(
        capsys,
        "locus", "--n", "4", "--p", "1/2", "--grid", "64",
        "--format", "svg", "--out", str(out_file),
    )
    assert code == 0
    assert out_file.read_text().startswith("<svg")


def test_painleve_csv(capsys):
    code, out = run(capsys, "painleve", "--family", "3", "--p", "2", "5")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "p,x,y0,y,res0,res1,rel"
    assert len(lines) == 3
    row = lines[1].split(",")
    assert float(row[1]) == pytest.approx(0.9330127018922193, rel=1e-9)
    assert float(row[4]) < 1e-7 and float(row[5]) < 1e-7 and float(row[6]) < 1e-8


def test_painleve_csv_byte_identical(capsys):
    code, out = run(capsys, "painleve", "--family", "3", "--p", "2", "5", "-5")
    assert code == 0
    assert out == (
        "p,x,y0,y,res0,res1,rel\n"
        "2,0.933012701892,1.07735026919,0.788675134595,4.086e-14,2.540e-13,3.331e-16\n"
        "5,0.99193495505,1.02174919475,0.9472135955,1.407e-12,5.457e-12,6.661e-16\n"
        "-5,1.08137767415,1.17082039325,0.835410196625,3.775e-14,9.592e-14,5.551e-17\n"
    )


@pytest.mark.parametrize("family", ["3", "4"])
def test_painleve_beyond_float_range_exit_code(capsys, family):
    # the evaluation at p = 1e100 overflows: one line naming p, no NaN row
    code = main(["painleve", "--family", family, "--p", "3", "1e100"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "error: the evaluation at p = 1e+100+0j leaves the float range\n"


@pytest.mark.parametrize("argv, message", [
    (("trace", "--center", "0,0", "--n", "4", "--p", "1e154"),
     "error: residual nan: the float trace overflows at p = 1e+154\n"),
    (("painleve", "--family", "3", "--p", "1e50"),
     "error: x or y rounds onto a pole of the equation at p = 1e+50+0j (float rounding)\n"),
    (("painleve", "--family", "4", "--p", "1e60"),
     "error: dx/dp rounds to 0 at p = 1e+60+0j (float rounding); cannot reparametrize by x\n"),
    (("painleve", "--family", "4", "--p", "65"),
     "error: dy0/dx misses p^2/2 at p = 65+0j (float rounding)\n"),
], ids=["trace", "painleve-3", "painleve-4", "painleve-4-guard"])
def test_float_limits_name_p(capsys, argv, message):
    # p passes the flag check, but the float evaluation cannot resolve it:
    # exit 1 with one line naming p
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == message


def test_painleve_n4_csv_byte_identical(capsys):
    # every residual is below RESIDUAL_TOL (the largest, 2.7e-8, at p = -7)
    code = main(["painleve", "--family", "4", "--p", "3", "2.5", "-7"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err == ""
    assert captured.out == (
        "p,x,y0,y,res0,res1,rel\n"
        "3,1.02174919475,1.17082039325,0.87267799625,9.805e-13,6.963e-13,0.000e+00\n"
        "2.5,1.06666666667,1.33333333333,0.8,2.309e-14,7.105e-15,0.000e+00\n"
        "-7,1.00045330925,1.02174919475,0.97915742375,2.704e-08,2.500e-08,2.220e-16\n"
    )


def test_painleve_failed_residual_exit_code(capsys):
    # p = 30 evaluates, but its PVI residual misses RESIDUAL_TOL: the table
    # is printed, then one line names the worst p, and the exit code is 1
    code = main(["painleve", "--family", "4", "--p", "30", "3"])
    captured = capsys.readouterr()
    assert code == 1
    assert [row[:3] for row in captured.out.splitlines()] == ["p,x", "30,", "3,1"]
    assert captured.err == "error: PVI residual 3.543e-02 at p = 30 exceeds 1e-07\n"


def test_painleve_json(capsys):
    code, out = run(capsys, "painleve", "--family", "4", "--p", "3", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data[0]["y0"] == pytest.approx(1.1708203932499369, rel=1e-9)


VERIFY_STDOUT = """\
PASS  locus n=3 matches the printed polynomial
PASS  locus n=4 matches the printed polynomial
PASS  locus n=5 matches the printed polynomial
PASS  locus n=6 matches the printed polynomial
PASS  locus n=7 matches the printed polynomial
PASS  worked example: 3-gon locus at p=1/2
PASS  worked example: 4-gon locus at p=1/2
PASS  hankel(6) / hankel(3) canonicalizes to the 6-gon locus
PASS  discriminant of the 5-gon quadratic factors as printed
PASS  discriminant of the 6-gon quadratic factors as printed
PASS  discriminant of the 7-gon quartic factors as printed
PASS  P of the 7-gon quartic factors as printed
PASS  D of the 7-gon quartic factors as printed
PASS  O of the 7-gon quartic factors as printed
PASS  R of the 7-gon quartic factors as printed
"""


def test_verify_identities_exit_code(capsys):
    code, out = run(capsys, "verify-identities")
    assert code == 0
    assert out == VERIFY_STDOUT


def test_verify_inexact_hexagon_division_fails_one_row(capsys, monkeypatch):
    from poncelet import cayley, verify

    def w_not_divisible(n):  # W_6 + 1: W_3 = s/2 divides W_6, not W_6 + 1
        return cayley._ws(n) + 1 if n == 6 else cayley._ws(n)

    monkeypatch.setattr(verify, "_ws", w_not_divisible)
    results = verify.checks()
    assert [name for name, _ in results] == [ln[6:] for ln in VERIFY_STDOUT.splitlines()]
    assert [name for name, passed in results if not passed] == [
        "hankel(6) / hankel(3) canonicalizes to the 6-gon locus"
    ]
    code, out = run(capsys, "verify-identities")
    assert code == 1
    assert out == VERIFY_STDOUT.replace(
        "PASS  hankel(6)", "FAIL  hankel(6)"
    )


def test_flag_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["cayley"])  # missing --n
    assert exc.value.code == 2


def test_runtime_error_exit_code(capsys):
    code, _ = run(capsys, "trace", "--center", "0,0", "--p", "0", "--n", "3")
    assert code == 1


def test_root_beyond_float_range_exit_code(capsys):
    # the roots, near 1e600, have no float: a one-line runtime error
    code = main(["classify", "--n", "5", "--center", "1e300,0"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.count("\n") == 1 and "beyond the float range" in err


def test_root_beyond_float_range_in_bounded_time(capsys):
    # At n = 7 the roots, near 2**1494 and 2**2989, lie in isolating
    # intervals about 2**5975 and 2**11955 wide, which are refined to below
    # 1e-15: about 6000 and 12000 bisection steps per root, far fewer by
    # quadratic interval refinement, with signs decided in fixed point.  The
    # error must come within 5 s at each center.
    for center in ("1e300,0", "1e600,0"):
        with time_limit(5):
            code = main(["classify", "--n", "7", "--center", center])
        err = capsys.readouterr().err
        assert code == 1
        assert err.count("\n") == 1 and "beyond the float range" in err


@pytest.mark.parametrize("argv", [
    ("cayley", "--n", "5", "--p", "1/0"),
    ("locus", "--n", "5", "--p", "5/0"),
])
def test_zero_denominator_flag_exit_code(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "error: argument --p: zero denominator" in err


@pytest.mark.parametrize("argv", [
    ("cayley", "--n", "13"),
    ("cayley", "--n", "2"),
    ("cayley", "--n", "99"),
    ("classify", "--n", "8", "--center", "0,2"),
    ("trace", "--center", "0,0", "--p", "1", "--n", "2"),
    ("trace", "--center", "0,0", "--p", "1", "--n", "10001"),
    ("locus", "--n", "3", "--p", "1", "--grid", "1025"),
    ("locus", "--n", "3", "--p", "1", "--grid", "-3"),
    ("locus", "--n", "3", "--p", "1", "--grid", "0"),
    ("locus", "--n", "13", "--p", "1"),
    ("trace", "--center", "0,0", "--p", "nan", "--n", "4"),
    ("trace", "--center", "0,0", "--p", "inf", "--n", "4"),
    ("trace", "--center", "0,0", "--p", "1", "--n", "4", "--start", "nan"),
    ("painleve", "--family", "3", "--p", "nan"),
    # a center with no float, and floats whose square overflows
    ("trace", "--center", "1e400,0", "--p", "1", "--n", "4"),
    ("trace", "--center", "0,0", "--p", "1e200", "--n", "4"),
    ("trace", "--center", "0,0", "--p", "1", "--n", "4", "--start", "1e200"),
    ("painleve", "--family", "3", "--p", "1e200"),
])
def test_out_of_range_flag_exit_code(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "error: argument --" in err


_RATIONAL_FLAGS = [
    (("cayley", "--n", "5", "--p"), "{}", MAX_CAYLEY_P_BITS),
    (("locus", "--n", "3", "--p"), "{}", MAX_BITS),
    (("classify", "--n", "7", "--center"), "{},1/3", MAX_BITS),
    (("isoperiodic", "--center"), "1/3,{}", MAX_BITS),
    (("trace", "--p", "1", "--n", "4", "--center"), "0,{}", MAX_BITS),
]


@pytest.mark.parametrize("argv, form, bound", _RATIONAL_FLAGS)
def test_rational_flags_are_bounded_in_bits(capsys, argv, form, bound):
    # The parser alone, never the command: a numerator or denominator of
    # `bound` bits, written out in digits past the int-to-str limit where
    # it needs them, parses; one of bound + 1 bits exits 2 with one line.
    # --help states the bound.
    parser = build_parser()
    top = (1 << bound) - 1
    for value in (Fraction(-1, top), Fraction(top, top - 2)):
        text = ("-" if value < 0 else "") + "/".join(map(_long_decimal, (abs(value.numerator), value.denominator)))
        args = parser.parse_args([*argv, form.format(text)])
        assert value in ((args.center.x, args.center.y) if hasattr(args, "center") else (args.p,))
    for text in (_long_decimal(1 << bound), "1/" + _long_decimal(1 << bound)):
        with pytest.raises(SystemExit) as exc:
            parser.parse_args([*argv, form.format(text)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"more than {bound} bits" in err
    with pytest.raises(SystemExit):
        main([argv[0], "--help"])
    assert f"at most {bound} bits" in " ".join(capsys.readouterr().out.split())


def test_cayley_p_one_bit_past_its_bound_exits_before_any_work(capsys, monkeypatch):
    # The bound keeps cayley --n 12 --p under 1 s.  A numerator or
    # denominator one bit past it, written out in full, exits 2 with one
    # line from the parser: no locus is built or evaluated and nothing is
    # formatted.
    work = []
    monkeypatch.setattr(cli, "locus", lambda n: work.append(n))
    monkeypatch.setattr(cli, "locus_at_p", lambda n, p: work.append((n, p)))
    monkeypatch.setattr(cli, "format_poly", lambda poly: work.append(poly))
    over = _long_decimal((1 << MAX_CAYLEY_P_BITS) + 1)
    for text in (over, "-" + over, "1/" + over, over + "/3"):
        with pytest.raises(SystemExit) as exc:
            main(["cayley", "--n", "12", "--p", text])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"more than {MAX_CAYLEY_P_BITS} bits" in err and len(err) < 200
    assert work == []


@pytest.mark.parametrize("argv", [
    ("cayley", "--n", "5", "--p", "1e2000000"),
    ("cayley", "--n", "5", "--p", "-1e-2000000"),
    ("cayley", "--n", "5", "--p", "1" * (MAX_CAYLEY_P_BITS + 1)),
    ("locus", "--n", "3", "--p", "1e5000"),
    ("classify", "--n", "7", "--center", "1e20000,1/3"),
    ("classify", "--n", "7", "--center", "1/3,1e99999999999999999999999"),
    ("isoperiodic", "--center", "1e2000000,0"),
    ("isoperiodic", "--center", "0,1E\u0669\u0669\u0669\u0669\u0669\u0669"),  # Arabic-Indic digits
    ("trace", "--center", "1e2000000,0", "--p", "1", "--n", "4"),
])
def test_rational_flag_text_past_the_bound_builds_no_int(capsys, monkeypatch, argv):
    # A short text can name a huge int: each of these is refused from its
    # text, before an int is built from it, and exits 2 with one line.
    built = []
    convert = cli._parse_rational
    monkeypatch.setattr(cli, "_parse_rational", lambda text: built.append(text) or convert(text))
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "too long for" in err and len(err) < 200
    assert set(built) <= {"0", "1/3"}


@pytest.mark.parametrize("argv", [
    ("classify", "--n", "5", "--center", "1/3," + "x" * 3000),
    ("classify", "--n", "5", "--center", "x" * 3000),
    ("trace", "--p", "1", "--n", "4", "--center", "0," + "1" * 400),
    ("cayley", "--n", "9" * 4000),
    ("locus", "--n", "3", "--p", "1/" + "0" * 3000),
    ("painleve", "--family", "3", "--p", "1" * 400),
])
def test_a_long_bad_flag_text_gives_one_short_line(capsys, argv):
    # the message quotes a short prefix of the text, once
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and len(err) < 200


_PARSER = build_parser()
# (argv ending in the flag, the flag's text around the drawn one, bound):
# a bound in bits for a rational, (lo, hi) for an int
_FUZZED_FLAGS = [(argv, form, bound) for argv, form, bound in _RATIONAL_FLAGS] + [
    (("cayley", "--n"), "{}", (3, cli.MAX_N)),
    (("classify", "--center", "0,2", "--n"), "{}", (cli.CLASSIFY_N[0], cli.CLASSIFY_N[-1])),
    (("trace", "--center", "0,0", "--p", "1", "--n"), "{}", (3, cli.MAX_TRACE_N)),
    (("locus", "--p", "1", "--n"), "{}", (3, cli.MAX_N)),
    (("locus", "--n", "3", "--p", "1", "--grid"), "{}", (1, cli.MAX_GRID)),
    (("painleve", "--p", "1", "--family"), "{}", (3, 4)),
]


@lru_cache(maxsize=None)
def _edge_texts(bound) -> tuple[str, ...]:
    """Texts at a flag's bound and one past it."""
    if isinstance(bound, tuple):
        lo, hi = bound
        return tuple(map(str, (lo - 1, lo, hi, hi + 1)))
    inside, past = _long_decimal((1 << bound) - 1), _long_decimal(1 << bound)
    return inside, past, "1/" + inside, "1/" + past, f"1e{bound * 3 // 10}", f"1e{bound // 3}"


_BODIES = st.one_of(
    st.sampled_from(["0", "1/0", "0/0", "nan", "inf", "infinity", "1e99999999999999999999999",
                     "1E-4096", "1e+1233", "1e1234", "", "1/", "/1", "1//2", "1,2", "1_0", "0x10",
                     " 3 ", "4.", ".5", "1.5e3", "\u0669", "\x00"]),
    st.integers(-(10**30), 10**30).map(str),
    st.fractions(max_denominator=10**6).map(str),
)


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(st.data())
def test_fuzzed_flags_parse_in_bounds_or_exit_2_with_one_short_line(data):
    # Parse time only: argparse runs each flag's type, never the command.
    # The text after "=" reaches the type even where it starts with "-".
    argv, form, bound = data.draw(st.sampled_from(_FUZZED_FLAGS))
    *head, flag = argv
    sign = data.draw(st.sampled_from(["", "-", "+"]))
    body = data.draw(st.one_of(_BODIES, st.sampled_from(_edge_texts(bound))))
    exponent = data.draw(st.sampled_from(["", "", "e5", "e-7", "E4096", "e-1233"]))
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err):
            args = _PARSER.parse_args([*head, f"{flag}={form.format(sign + body + exponent)}"])
    except SystemExit as exc:
        assert exc.code == 2
        assert err.getvalue().count("\n") == 1 and len(err.getvalue()) < 200
        return
    assert not err.getvalue()
    if isinstance(bound, tuple):
        assert bound[0] <= getattr(args, flag[2:]) <= bound[1]
    else:
        values = (args.center.x, args.center.y) if flag == "--center" else (args.p,)
        for v in values:
            assert max(abs(v.numerator).bit_length(), v.denominator.bit_length()) <= bound


_CHOICE_FLAGS = [
    (("cayley", "--n", "5", "--format"), ("text", "json")),
    (("locus", "--n", "3", "--p", "1", "--format"), ("csv", "svg")),
    (("painleve", "--family", "3", "--p", "1", "--format"), ("csv", "json")),
]

# argparse quotes these whole: long runs, spaces, line breaks, quotes
_FREE_TEXTS = st.one_of(
    st.text(max_size=60),
    st.builds(lambda head, piece, k: head + piece * k,
              st.sampled_from(["", "-", "--", "--=", "--f", "--format=", "cayley"]),
              st.sampled_from(["x", "y ", "\n", "'\"", "\r\x00", "٩", "é "]),
              st.integers(1, 3000)),
)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.data())
def test_fuzzed_choices_and_stray_arguments_exit_2_with_one_short_line(data):
    # Parse time only.  Here argparse writes the message itself: an invalid
    # choice of --format or of the subcommand, stray arguments, an ambiguous
    # or unknown option.
    kind = data.draw(st.sampled_from(["choice", "subcommand", "stray"]))
    choices = ()
    if kind == "choice":
        (*head, flag), choices = data.draw(st.sampled_from(_CHOICE_FLAGS))
        argv = [*head, f"{flag}={data.draw(_FREE_TEXTS)}"]
    elif kind == "subcommand":
        argv = [data.draw(_FREE_TEXTS)]
    else:
        argv = ["cayley", "--n", "5", *data.draw(st.lists(_FREE_TEXTS, min_size=1, max_size=40))]
    err, out = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(out):
            args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        if exc.code == 0:  # a stray -h or --help
            assert not err.getvalue() and out.getvalue().startswith("usage:")
            return
        assert exc.code == 2
        assert err.getvalue().count("\n") == 1 and len(err.getvalue()) < 200, err.getvalue()
        return
    assert not err.getvalue()
    if kind == "choice":
        assert args.format in choices


@pytest.mark.parametrize("argv", [
    ("cayley", "--n", "5", "--format", "x" * 300),
    ("cayley", "--n", "5", "y" * 300),
    ("cayley", "--n", "5", *"y" * 300),
    ("z" * 300,),
    ("cayley", "--n", "5", "a\nb"),
])
def test_argparse_messages_are_one_short_line(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and len(err) < 200


@pytest.mark.parametrize("k", [60, 120, 300])
def test_a_long_invalid_choice_is_cut_past_the_message_bound(capsys, k):
    # quoted whole while the message fits in MESSAGE_CHARS; past that, the
    # quoted word is cut to SHOWN_CHARS characters, its quote the first
    with pytest.raises(SystemExit):
        main(["cayley", "--n", "5", "--format", "x" * k])
    whole = f"argument --format: invalid choice: '{'x' * k}' (choose from 'text', 'json')"
    cut = "argument --format: invalid choice: '" + "x" * 39 + "... (choose from 'text', 'json')"
    assert capsys.readouterr().err == f"poncelet cayley: error: {whole if k == 60 else cut}\n"
    assert (len(whole) <= cli.MESSAGE_CHARS) == (k == 60)


@pytest.mark.parametrize("argv, flag, value", [
    (("cayley", "--n", "4"), "--p", "-1/2"),
    (("cayley", "--n", "5", "--format", "json"), "--p", "-3"),
    (("locus", "--n", "4", "--grid", "16"), "--p", "-1/2"),
    (("classify", "--n", "5"), "--center", "-1/2,1/3"),
    (("isoperiodic",), "--center", "-3/5,-4/5"),
    (("trace", "--p", "1", "--n", "4"), "--center", "-1/2,0"),
    (("trace", "--center", "0,0", "--n", "4"), "--p", "-1e-1"),
    (("trace", "--center", "0,0", "--p", "1", "--n", "4"), "--start", "-.5"),
])
def test_negative_value_after_a_space(capsys, argv, flag, value):
    # a negative rational or float after a space is the flag's value, as
    # after "=": argparse alone reads -1/2, -1e-1 and -.5 as options
    spaced = run(capsys, *argv, flag, value)
    joined = run(capsys, *argv, f"{flag}={value}")
    assert spaced[0] == 0 and spaced == joined


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_cli_block_runs(capsys, tmp_path, monkeypatch):
    # every command of README's CLI block exits 0, its files written in a
    # temporary directory
    block = README.read_text().split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line, comments=True) for line in block.splitlines() if line.startswith("poncelet ")]
    assert len(commands) >= 10
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        code, _ = run(capsys, *argv[1:])
        assert code == 0, argv


def test_degenerate_p_exit_code(capsys):
    code, _ = run(capsys, "cayley", "--n", "3", "--p", "0")
    assert code == 1
