"""Command-line interface: polynomial emission, classification,
isoperiodicity, numeric tracing, Painleve verification, figure/CSV export.

Exit codes: 0 success, 1 failed verification or runtime error, 2 flag errors.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from fractions import Fraction

from . import verify
from .cayley import MAX_N, locus, locus_at_p
from .classify import CLASSIFY_N, Center, isoperiodic_n, pair_classify
from .geometry import Circle, Parabola, poncelet_trace
from .painleve import RESIDUAL_TOL, hitchin_residual, n4_relation_residual, sample_family
from .polycore import _parse_rational, format_poly

VIEW = 3.0  # SVG viewport is [-3, 3]^2
PARABOLA_SAMPLES = 400
# Bounds on the work one command may ask for: trace --n 10000 writes about
# 0.9 MB of JSON, and locus --n 12 --p 1/3 --grid 1024 takes 2.5 to 3 s.
MAX_TRACE_N = 10_000
MAX_GRID = 1024
# Bit heights (the longer of numerator and denominator) of rational flags:
# every --center and locus --p, where classify --n 7 takes about 0.5 s at
# the bound, and cayley --p, whose output is the polynomial at p itself:
# cayley --n 12 at (2**8192 - 1)/(2**8192 - 3) prints 3.1 MB in about
# 0.8 s, and --p 1e2400 (7,973 bits) prints coefficients past the
# int-to-str digit limit.
MAX_BITS = 4096
MAX_CAYLEY_P_BITS = 1 << 13
SHOWN_CHARS = 40  # of a flag's text quoted in its error message
MESSAGE_CHARS = 150  # of an error message after "<prog>: error: "


def _shown(text: str) -> str:
    """A flag's text as its error message quotes it: the repr of at most
    SHOWN_CHARS characters, so the message stays short for any text."""
    return repr(text) if len(text) <= SHOWN_CHARS else repr(text[:SHOWN_CHARS]) + "..."


def parse_rational(text: str, max_bits: int = MAX_BITS) -> Fraction:
    """`num/den` or a decimal string, converted exactly, of bit height at
    most max_bits; digits past the int-to-str limit are read in parts.  The
    text is checked before an int is built (1e2000000 is a short string for
    a 6.6-Mbit int): its length plus its exponent bounds the decimal digits
    of every int built, and more than max_bits of them is refused.  No value
    within the bound needs them: its numerator and denominator take about
    0.6 max_bits digits."""
    digits = len(text)
    if digits <= max_bits:
        exponent = re.search(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z", text)
        if exponent:
            digits += abs(int(exponent[1])) if len(exponent[1]) <= 20 else max_bits
    if digits > max_bits:
        raise argparse.ArgumentTypeError(f"too long for {max_bits} bits in numerator and denominator")
    try:
        value = _parse_rational(text)
    except ZeroDivisionError:
        raise argparse.ArgumentTypeError(f"zero denominator in {_shown(text)}") from None
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid rational value: {_shown(text)}") from None
    if max(abs(value.numerator).bit_length(), value.denominator.bit_length()) > max_bits:
        raise argparse.ArgumentTypeError(f"more than {max_bits} bits in numerator or denominator")
    return value


def _rational(max_bits: int):
    """An argparse type for a rational of bit height at most max_bits."""
    return lambda text: parse_rational(text, max_bits)


def _int_in(lo: int, hi: int):
    """An argparse type for an int in lo..hi."""
    def parse(text: str) -> int:
        try:
            v = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {_shown(text)}") from None
        if not lo <= v <= hi:
            raise argparse.ArgumentTypeError(f"must be in {lo}..{hi}, not {_shown(text)}")
        return v
    return parse


def _finite_float(text: str) -> float:
    """An argparse type for a float whose square is finite (so not NaN or inf)."""
    try:
        v = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {_shown(text)}") from None
    if not math.isfinite(v * v):
        raise argparse.ArgumentTypeError(f"must be finite with a finite square, not {_shown(text)}")
    return v


class _Parser(argparse.ArgumentParser):
    """Flag errors exit 2 with a one-line message and no usage block.  An
    argument that starts with "-" and then a digit or "." is a value, such
    as -1/2 or -1e-1: no option of this CLI starts that way."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-[0-9.]")

    def error(self, message):
        """argparse quotes whole the text it refuses (an invalid choice, stray
        arguments, an ambiguous option): a line break in it is escaped, and a
        message past MESSAGE_CHARS has each word cut to SHOWN_CHARS, then
        itself cut to MESSAGE_CHARS."""
        line = "".join(c if c.isprintable() else repr(c)[1:-1] for c in message)
        if len(line) > MESSAGE_CHARS:
            line = " ".join(w if len(w) <= SHOWN_CHARS else w[:SHOWN_CHARS] + "..."
                            for w in line.split(" "))
        if len(line) > MESSAGE_CHARS:
            line = line[:MESSAGE_CHARS] + "..."
        self.exit(2, f"{self.prog}: error: {line}\n")


def parse_center(text: str) -> Center:
    """`x,y`, two rationals as parse_rational reads them; an error names the
    center's text, or else the coordinate's, once."""
    try:
        xs, ys = text.split(",")
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad center {_shown(text)}: not two coordinates x,y") from None
    try:
        return Center(parse_rational(xs), parse_rational(ys))
    except argparse.ArgumentTypeError as exc:
        raise argparse.ArgumentTypeError(f"bad center: {exc}") from exc


def _float_center(text: str) -> Center:
    """parse_center for a flag whose coordinates are used as floats."""
    e = parse_center(text)
    if max(abs(e.x), abs(e.y)) > sys.float_info.max:
        raise argparse.ArgumentTypeError(f"bad center {_shown(text)}: beyond the float range")
    return e


def _svg_header() -> list[str]:
    return [
        '<svg xmlns="http://www.w3.org/2000/svg" width="600" height="600" '
        f'viewBox="{-VIEW} {-VIEW} {2 * VIEW} {2 * VIEW}">',
        f'<g transform="scale(1,-1)">',
    ]


def _svg_footer() -> list[str]:
    return ["</g>", "</svg>"]


def _svg_parabola(p: float) -> str:
    par = Parabola(p)
    ys = (-4.0 + 8.0 * i / PARABOLA_SAMPLES for i in range(PARABOLA_SAMPLES + 1))
    pts = " ".join(f"{x:.5f},{y:.5f}" for x, y in map(par.contact_point, ys))
    return f'<polyline fill="none" stroke="green" stroke-width="0.02" points="{pts}"/>'


def trace_svg(center: tuple[float, float], p: float, vertices) -> str:
    lines = _svg_header()
    lines.append(
        f'<circle cx="{center[0]:.5f}" cy="{center[1]:.5f}" r="1" '
        'fill="none" stroke="blue" stroke-width="0.02"/>'
    )
    lines.append(_svg_parabola(p))
    pts = " ".join(f"{v[0].real:.6f},{v[1].real:.6f}" for v in vertices)
    lines.append(
        f'<polygon fill="none" stroke="red" stroke-width="0.02" points="{pts}"/>'
    )
    lines.extend(_svg_footer())
    return "\n".join(lines)


def node_values(curve, grid: int):
    """The values of an integer curve in x and y (as `locus_at_p` gives it)
    at the grid nodes u/D, D = grid and u = 6i - 3D for i = 0..grid, so that
    u/D runs over [-VIEW, VIEW]: one row per x-node, one exact int per y-node,
    all on the positive scale D**(dx + dy) for the curve's degrees dx and dy
    in x and y.  The coefficients in y are built once per row, already times
    D**(dx + dy - j) at y**j, so each node is a plain integer Horner."""
    dx, dy = (max(e[k] for e in curve.terms) for k in (1, 2))
    terms = [(ex, ey, c.numerator * grid ** (dy - ey)) for (_, ex, ey), c in curve.terms.items()]
    v = int(VIEW)
    nodes = range(-v * grid, v * grid + 1, 2 * v)
    for u in nodes:
        xs = [u**i * grid ** (dx - i) for i in range(dx + 1)]
        cs = [0] * (dy + 1)
        for ex, ey, c in terms:
            cs[ey] += c * xs[ex]
        row = []
        for s in nodes:
            total = 0
            for c in reversed(cs):
                total = total * s + c
            row.append(total)
        yield row


def marching_squares(rows, grid: int) -> list[tuple[float, float]]:
    """Zero-crossing points on the grid of [-VIEW, VIEW]^2, from its node
    values row by row (row i at x-node i, entry j at y-node j; two rows are
    alive at a time): each zero node once, and each edge whose ends have
    strictly opposite signs once, by linear interpolation; the edges on the
    boundary are included."""
    h = 2 * VIEW / grid
    points: list[tuple[float, float]] = []
    rows = iter(rows)
    nxt = next(rows)
    for i in range(grid + 1):
        row, nxt = nxt, next(rows, None)
        for j, v0 in enumerate(row):
            x0, y0 = -VIEW + i * h, -VIEW + j * h
            x1, y1 = x0 + h, y0 + h
            if v0 == 0:
                points.append((x0, y0))
            if nxt and (v0 < 0 < nxt[j] or nxt[j] < 0 < v0):
                t = v0 / (v0 - nxt[j])
                points.append((x0 + t * (x1 - x0), y0))
            if j < grid and (v0 < 0 < row[j + 1] or row[j + 1] < 0 < v0):
                t = v0 / (v0 - row[j + 1])
                points.append((x0, y0 + t * (y1 - y0)))
    return points


def locus_svg(points) -> str:
    lines = _svg_header()
    for x, y in points:
        lines.append(f'<circle cx="{x:.5f}" cy="{y:.5f}" r="0.012" fill="black"/>')
    lines.extend(_svg_footer())
    return "\n".join(lines)


def _emit(out: str | None, text: str) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def cmd_cayley(args) -> int:
    loc = locus(args.n)
    poly = loc.canonical if args.p is None else locus_at_p(args.n, args.p)
    if args.format == "json":
        _emit(None, json.dumps({
            "n": args.n,
            "divisors_removed": list(loc.divisors_removed),
            "canonical": format_poly(poly),
        }))
    else:
        _emit(None, format_poly(poly))
    return 0


def cmd_classify(args) -> int:
    result = pair_classify(args.n, args.center)
    _emit(None, json.dumps(result.to_dict()))
    return 0


def cmd_isoperiodic(args) -> int:
    n = isoperiodic_n(args.center)
    _emit(None, json.dumps({"isoperiodic_n": n}))
    return 0


def cmd_trace(args) -> int:
    circle = Circle((complex(args.center.x), complex(args.center.y)))
    result = poncelet_trace(circle, Parabola(float(args.p)), complex(args.start), args.n)
    payload = {
        "closed": result.closed,
        "closure_residual": result.closure_residual,
        "steps": result.steps,
        "vertices": [[[v[0].real, v[0].imag], [v[1].real, v[1].imag]] for v in result.vertices],
        "tangency_params": [[t.real, t.imag] for t in result.tangency_params],
    }
    _emit(None, json.dumps(payload))
    if args.svg:
        real = all(abs(v[0].imag) + abs(v[1].imag) < 1e-7 for v in result.vertices)
        if real:
            _emit(args.svg, trace_svg((float(args.center.x), float(args.center.y)),
                                      float(args.p), result.vertices))
        else:
            print("vertices are not real; SVG not written", file=sys.stderr)
    return 0


def cmd_locus(args) -> int:
    points = marching_squares(node_values(locus_at_p(args.n, args.p), args.grid), args.grid)
    if args.format == "svg":
        _emit(args.out, locus_svg(points))
    else:
        rows = ["x,y"] + [f"{x:.12g},{y:.12g}" for x, y in points]
        _emit(args.out, "\n".join(rows) + "\n")
    return 0


def cmd_painleve(args) -> int:
    family = f"N{args.family}"
    points, max_res = sample_family(family, [complex(v) for v in args.p])
    relation = hitchin_residual if family == "N3" else n4_relation_residual
    rows = []
    for pt in points:
        rows.append({
            "p": pt.p.real, "x": pt.x.real, "y0": pt.y0.real, "y": pt.y.real,
            "res0": pt.residual_y0, "res1": pt.residual_y, "rel": relation(pt.x, pt.y),
        })
    if args.format == "json":
        _emit(None, json.dumps(rows))
    else:
        header = "p,x,y0,y,res0,res1,rel"
        lines = [header] + [
            f'{r["p"]:.12g},{r["x"]:.12g},{r["y0"]:.12g},{r["y"]:.12g},'
            f'{r["res0"]:.3e},{r["res1"]:.3e},{r["rel"]:.3e}'
            for r in rows
        ]
        _emit(None, "\n".join(lines) + "\n")
    if max_res > RESIDUAL_TOL:
        worst = max(points, key=lambda pt: max(pt.residual_y0, pt.residual_y))
        print(f"error: PVI residual {max_res:.3e} at p = {worst.p.real:.12g} "
              f"exceeds {RESIDUAL_TOL:g}", file=sys.stderr)
        return 1
    return 0


def cmd_verify(args) -> int:
    results = verify.checks()
    for name, passed in results:
        print(f'{"PASS" if passed else "FAIL"}  {name}')
    return 0 if all(passed for _, passed in results) else 1


_CENTER_HELP = f"x,y: two rationals, each at most {MAX_BITS} bits in numerator and denominator"


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="poncelet")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    c = sub.add_parser("cayley", help="print the canonical locus polynomial")
    c.add_argument("--n", type=_int_in(3, MAX_N), required=True)
    c.add_argument("--p", type=_rational(MAX_CAYLEY_P_BITS),
                   help=f"a rational, at most {MAX_CAYLEY_P_BITS} bits in numerator and denominator")
    c.add_argument("--format", choices=("text", "json"), default="text")
    c.set_defaults(func=cmd_cayley)

    c = sub.add_parser("classify", help="pair classification for a center")
    c.add_argument("--n", type=_int_in(CLASSIFY_N[0], CLASSIFY_N[-1]), required=True)
    c.add_argument("--center", type=parse_center, required=True, help=_CENTER_HELP)
    c.set_defaults(func=cmd_classify)

    c = sub.add_parser("isoperiodic", help="isoperiodic n for a center, if any")
    c.add_argument("--center", type=parse_center, required=True, help=_CENTER_HELP)
    c.set_defaults(func=cmd_isoperiodic)

    c = sub.add_parser("trace", help="numeric tangent-chord trace")
    c.add_argument("--center", type=_float_center, required=True, help=_CENTER_HELP)
    c.add_argument("--p", type=_finite_float, required=True)
    c.add_argument("--n", type=_int_in(3, MAX_TRACE_N), required=True,
                   help=f"steps, 3..{MAX_TRACE_N}")
    c.add_argument("--start", type=_finite_float, default=0.8)
    c.add_argument("--svg", help="write an SVG overlay to this file")
    c.set_defaults(func=cmd_trace)

    c = sub.add_parser("locus", help="rasterize the locus curve at fixed p")
    c.add_argument("--n", type=_int_in(3, MAX_N), required=True)
    c.add_argument("--p", type=parse_rational, required=True,
                   help=f"a rational, at most {MAX_BITS} bits in numerator and denominator")
    c.add_argument("--grid", type=_int_in(1, MAX_GRID), default=512,
                   help=f"grid cells per side, 1..{MAX_GRID} (default 512)")
    c.add_argument("--format", choices=("csv", "svg"), default="csv")
    c.add_argument("--out")
    c.set_defaults(func=cmd_locus)

    c = sub.add_parser("painleve", help="evaluate and verify PVI solution points")
    c.add_argument("--family", type=_int_in(3, 4), required=True, help="3 or 4")
    c.add_argument("--p", type=_finite_float, nargs="+", required=True)
    c.add_argument("--format", choices=("csv", "json"), default="csv")
    c.set_defaults(func=cmd_painleve)

    c = sub.add_parser("verify-identities", help="run all golden polynomial identities")
    c.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
