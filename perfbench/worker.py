"""One benchmark process: imports `poncelet` from the checkout's `src/`,
runs one share of a workload, and prints its measurements, raw and at the
reference host speed, as one JSON line.  Started by run.py in a fresh
interpreter, so nothing is cached.

Every call into `poncelet` made here is timed from outside; with tracing on
each such call also gets a span, and a few extra calls on the same input
split a layer's time into its parts.
"""

from __future__ import annotations

import hashlib
import json
import resource
import signal
import sys
import time
from collections import Counter
from itertools import islice
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import benchlib  # noqa: E402

# The loci of the benchmark, fixed so that a later change of cayley.MAX_N
# does not change the work measured.
LOCUS_N = range(3, 13)
ORACLE_N = range(8, 13)
CLASSIFY_N = (5, 7)
N_CHECKS = 15
VERIFY_REPS = 3  # verify.checks() is repeated on the warm loci; median reported
TRACE_START = complex(1.0, 0.1)  # fixed start for geometry.trace_step_us
REGION_COUNT_N5 = {"Gamma5+": 2, "Gamma5": 1, "Gamma5-": 0}
MAX_REASONS = 20
# An operation still running after this long is stopped and counted as
# failed; some inputs make sturm_real_roots loop without end.
OP_LIMIT_S = 5.0
# Distinct seeded centers per worker.  A worker times them in order, pass
# after pass, until its share of --seconds has gone; one pass takes under
# half of that share on a 2-vCPU host.
PASS_SIZE = {"classify-batch": 400, "oracle-sweep": 105}


class OpTimeout(Exception):
    pass


class SetupDone(Exception):
    """Raised when set-up ends in a worker started only to time set-up."""


def _stop_operation(signum, frame):
    raise OpTimeout(f"operation ran past {OP_LIMIT_S:g} s")


def import_poncelet(root: Path):
    src = root / "src"
    sys.path.insert(0, str(src))
    import poncelet

    if Path(poncelet.__file__).resolve().parent != (src / "poncelet").resolve():
        raise ImportError(f"poncelet imported from {poncelet.__file__}, not from {src}")
    return poncelet


class Run:
    """State of one worker: the tracer, counts for the traced report, and
    the failures found by the output checks."""

    def __init__(self, args: dict):
        from poncelet import cayley, classify, geometry, polycore, verify

        self.cayley, self.classify, self.geometry = cayley, classify, geometry
        self.polycore, self.verify = polycore, verify
        self.args = args
        self.tracer = benchlib.Tracer() if args["trace"] else benchlib.NullTracer()
        self.counts: dict = {"cayley": {}, "sf_degree": [], "chain_len": [],
                             "coeff_bits": [], "outcomes": Counter()}
        self.ops: list[list] = []  # [n, start, end, items] of each timed operation
        self.ref_ops: list[list] = []  # the same, untraced, when tracing
        self.calls: list[list] = []  # [n, start, end] of each pair_classify call
        self.failed: list[list] = []  # [input index, reason]
        self.failed_inputs: set = set()
        self.attempted = 0
        self.n_failed = 0
        self.fail_kinds: Counter = Counter()
        self.problems: list[str] = []  # mismatches that fail the whole run
        self.setup_at = None
        # Untraced, the host speed is sampled throughout; traced runs report
        # raw per-layer times, so they take no samples inside spans.
        self.speed = benchlib.HostSpeed()
        if not args["trace"]:
            self.speed.start()

    def fail(self, key, where: str, problem: str) -> None:
        """Count a failed input under the kind its problem starts with, once
        however many passes repeat it."""
        if key in self.failed_inputs:
            return
        self.failed_inputs.add(key)
        self.n_failed += 1
        self.fail_kinds[problem.split(":", 1)[0]] += 1
        if len(self.failed) < MAX_REASONS:
            self.failed.append([key, f"{where}: {problem}"])

    def mark_setup_done(self) -> None:
        """Set-up runs from interpreter start to here."""
        self.setup_at = time.perf_counter()
        if self.args.get("setup_only"):
            raise SetupDone

    def interval(self, t0: float, t1: float) -> list[float]:
        """[raw seconds, seconds at the reference host speed]."""
        return [t1 - t0, self.speed.scaled(t0, t1)]

    # -- cayley ------------------------------------------------------------

    def build_loci(self, ns, texts: dict | None = None) -> list[list]:
        """Build locus(n) in the given order, optionally formatting each;
        returns [n, start, end] per n.

        Traced, each n is split into the series, the Hankel determinant
        with the series warm, and the rest of `locus` with the Hankel warm."""
        cayley, tr = self.cayley, self.tracer
        steps = []
        for n in ns:
            t0 = time.perf_counter()
            if tr.on:
                m = n // 2
                with tr.span("cayley.atilde_sequence", n):
                    cayley.atilde_sequence(2 * m if n % 2 else 2 * m - 1)
                with tr.span("cayley.hankel_raw", n):
                    cayley.hankel_raw(n)
            with tr.span("cayley.locus", n):
                loc = cayley.locus(n)
            if texts is not None:
                with tr.span("polycore.format_poly", n):
                    texts[n] = self.polycore.format_poly(loc.canonical)
            steps.append([n, t0, time.perf_counter()])
        return steps

    def cayley_counts(self, ns) -> None:
        for n in ns:
            loc = self.cayley.locus(n)
            self.counts["cayley"][n] = {
                "hankel_terms": len(loc.raw_hankel.terms),
                "locus_terms": len(loc.canonical.terms),
                "coeff_bits": benchlib.coeff_bits(loc.canonical.terms.values()),
            }

    # -- the independent root check ------------------------------------------

    def check_roots(self, f, roots, n: int, region: str | None) -> list[str]:
        """Width and disjointness of the isolating intervals, a sign change
        of the square-free part across each, and the n = 5 region count.
        Uses exact Horner evaluation, not the Sturm code under test."""
        pc = self.polycore
        problems = []
        ivals = sorted(iv for _, _, iv in roots)
        for lo, hi in ivals:
            if not hi - lo < pc.ROOT_WIDTH:
                problems.append(f"width: {float(hi - lo):.3e}, not below ROOT_WIDTH")
        for (_, hi), (lo, _) in zip(ivals, ivals[1:]):
            if hi > lo:
                problems.append("overlap: isolating intervals overlap")
        if ivals:
            with self.tracer.span("polycore.poly_gcd", n):
                sqf = f.divmod(pc.poly_gcd(f, f.derivative()))[0]
            for lo, hi in ivals:
                if benchlib.horner(sqf.coeffs, lo) * benchlib.horner(sqf.coeffs, hi) > 0:
                    problems.append(f"sign: no sign change on [{float(lo)!r}, {float(hi)!r}]")
        if n == 5 and region in REGION_COUNT_N5 and len(ivals) != REGION_COUNT_N5[region]:
            problems.append(f"region-count: {len(ivals)} roots in region {region}")
        return problems

    def layer_counts(self, f, n: int) -> None:
        """Traced only: square-free split and Sturm chains of f, timed as
        their own spans, and the sizes they report."""
        pc, tr = self.polycore, self.tracer
        with tr.span("polycore.squarefree_decomposition", n):
            factors = pc.squarefree_decomposition(f)
        for g, _ in factors:
            with tr.span("polycore.sturm_chain", n):
                chain = pc.sturm_chain(g)
            self.counts["sf_degree"].append(g.degree())
            self.counts["chain_len"].append(len(chain))
        self.counts["coeff_bits"].append(benchlib.coeff_bits(f.coeffs))

    # -- workloads ----------------------------------------------------------

    def locus_cold(self) -> dict:
        golden = json.loads((HERE / "golden.json").read_text())["format_poly_sha256"]
        tr, pc = self.tracer, self.polycore
        texts: dict[int, str] = {}
        self.mark_setup_done()
        with tr.op(0):
            steps = self.build_loci(LOCUS_N, texts)
            verify = []
            for _ in range(VERIFY_REPS):
                t1 = time.perf_counter()
                with tr.span("verify.checks"):
                    results = self.verify.checks()
                verify.append([t1, time.perf_counter()])
            with tr.span("bench.golden"):
                for n in LOCUS_N:
                    digest = hashlib.sha256(texts[n].encode()).hexdigest()
                    if digest != golden[str(n)]:
                        self.problems.append(f"format_poly(locus({n})) digest {digest[:12]} differs")
                    with tr.span("polycore.parse_poly", n):
                        parsed = pc.parse_poly(texts[n])
                    if parsed != self.cayley.locus(n).canonical:
                        self.problems.append(f"parse_poly(format_poly(locus({n}))) differs")
        if len(results) != N_CHECKS:
            self.problems.append(f"verify.checks() gave {len(results)} results, not {N_CHECKS}")
        self.problems += [f"identity failed: {name}" for name, ok in results if not ok]
        if self.problems:
            self.fail(0, "locus-cold pass", "golden: " + "; ".join(self.problems))
        if tr.on:
            self.cayley_counts(LOCUS_N)
        self.attempted = 1
        self.ops.append([0, steps[0][1], steps[-1][2], len(LOCUS_N)])
        return {"locus": steps, "verify": verify, "identities": len(results)}

    def closed_loop(self, ns, primary, check) -> None:
        """One caller sends the next seeded center as soon as the last one
        is done, cycling through PASS_SIZE centers until --seconds have gone
        and each center has been done once (benchlib.passes).

        `attempted` and `failed` count distinct centers, so they depend on
        the seed alone, not on how many passes fit in the time; every pass
        is timed and checked.  A center stopped after OP_LIMIT_S is not
        retried.

        primary(tracer, n, x, y) -> (result, items) is the timed operation;
        check(n, x, y, result) -> problems runs after it, untimed.  Traced,
        every operation is also run once untraced, before or after the
        traced call in turn, so the tracing overhead is measured on the
        same inputs at the same time."""
        tr, null = self.tracer, benchlib.NullTracer()
        size = PASS_SIZE[self.args["workload"]]
        inputs = list(islice(benchlib.centers(self.args["seed"], self.args["stream"]), size))
        stopped: set[int] = set()
        signal.signal(signal.SIGALRM, _stop_operation)
        self.mark_setup_done()
        for i, k in benchlib.passes(size, self.args["seconds"]):
            if k in stopped:
                continue
            _, x, y = inputs[k]
            n = ns[k % len(ns)]
            try:
                signal.setitimer(signal.ITIMER_REAL, OP_LIMIT_S)
                if tr.on and i % 2 == 0:
                    self.ref_ops.append(self.timed(primary, null, n, x, y)[0])
                with tr.op(i):
                    op, result = self.timed(primary, tr, n, x, y)
                    self.ops.append(op)
                    problems = check(n, x, y, result)
                if tr.on and i % 2 == 1:
                    self.ref_ops.append(self.timed(primary, null, n, x, y)[0])
                signal.setitimer(signal.ITIMER_REAL, 0)
            except Exception as exc:  # one failed operation must not end the run
                signal.setitimer(signal.ITIMER_REAL, 0)
                problems = [f"{type(exc).__name__}: {exc}"]
                if isinstance(exc, OpTimeout):
                    stopped.add(k)
            if problems:
                self.fail(k, f"center=({x},{y}) n={n}", problems[0])
        self.attempted = size

    def timed(self, primary, tracer, n, x, y) -> tuple[list, object]:
        """([n, start, end, items], result) of one call of primary."""
        t0 = time.perf_counter()
        result, items = primary(tracer, n, x, y)
        return [n, t0, time.perf_counter(), items], result

    def classify_batch(self) -> dict:
        cl, pc, tr = self.classify, self.polycore, self.tracer
        with tr.op("setup"):
            self.build_loci(CLASSIFY_N)
        canon = {n: self.cayley.locus(n).canonical for n in CLASSIFY_N}

        def primary(tracer, ns, x, y):
            out = []
            for n in ns:
                t0 = time.perf_counter()
                with tracer.span("classify.pair_classify", n):
                    r = cl.pair_classify(n, cl.Center(x, y))
                out.append((n, r, t0, time.perf_counter()))
            return out, len(out)

        def check(ns, x, y, out):
            problems = []
            for n, r, t0, t1 in out:
                self.calls.append([n, t0, t1])
                if tr.on:
                    # p_polynomial(n, e) is specialize(locus(n).canonical, x, y).
                    with tr.span("polycore.specialize", n):
                        f = pc.specialize(canon[n], x, y)
                    with tr.span("polycore.sturm_real_roots", n):
                        pc.sturm_real_roots(f, exclude_zero=True)
                    self.layer_counts(f, n)
                with tr.span("bench.check_roots", n):
                    if not tr.on:
                        f = pc.specialize(canon[n], x, y)
                    problems += [f"{p} (n={n})" for p in self.check_roots(f, r.p_roots, n, r.region)]
            return problems

        # One operation classifies one center at n = 5 and then at n = 7, so
        # its time is not split between two clusters of call times.
        self.closed_loop((CLASSIFY_N,), primary, check)
        return {}

    def oracle_sweep(self) -> dict:
        geo, pc, tr = self.geometry, self.polycore, self.tracer
        with tr.op("setup"):
            self.build_loci(ORACLE_N)
        if tr.on:
            self.cayley_counts(ORACLE_N)
        canon = {n: self.cayley.locus(n).canonical for n in ORACLE_N}
        outcomes = self.counts["outcomes"]

        def primary(tracer, n, x, y):
            with tracer.span("polycore.specialize", n):
                f = pc.specialize(canon[n], x, y)
            with tracer.span("polycore.sturm_real_roots", n):
                roots = pc.sturm_real_roots(f, exclude_zero=True)
            with tracer.span("geometry.Circle", n):
                circle = geo.Circle((float(x), float(y)))
            verdicts = []
            for v in roots.values():
                with tracer.span("geometry.closes_after", n):
                    try:
                        verdicts.append("agree" if geo.closes_after(circle, geo.Parabola(v), n)
                                        else "reject")
                    except OpTimeout:
                        raise
                    except Exception as exc:  # counted by type, never hidden
                        verdicts.append("raise." + type(exc).__name__)
            return (f, roots, circle, verdicts), len(verdicts)

        def check(n, x, y, result):
            f, roots, circle, verdicts = result
            outcomes.update(verdicts)
            if tr.on:
                self.layer_counts(f, n)
                self.trace_step(circle, roots.values(), n)
            with tr.span("bench.check_roots", n):
                problems = self.check_roots(f, roots, n, None)
            return problems + [f"oracle: {v} on root {r!r}"
                               for v, r in zip(verdicts, roots.values()) if v != "agree"]

        self.closed_loop(ORACLE_N, primary, check)
        return {}

    def trace_step(self, circle, values, n: int) -> None:
        """Traced only: one poncelet_trace from a fixed start on the first
        root, as its own span (geometry.trace_step_us)."""
        geo = self.geometry
        for v in values[:1]:
            par = geo.Parabola(v)
            with self.tracer.span("geometry.poncelet_trace", n) as sp:
                try:
                    geo.poncelet_trace(circle, par, TRACE_START, n)
                except OpTimeout:
                    raise
                except Exception:  # a trace that stops early is no step time
                    sp.rename("geometry.poncelet_trace.raised")


def span_cost(tracer) -> float | None:
    """Measured cost of one empty span, or None with tracing off."""
    if not tracer.on:
        return None
    k, before = 20_000, len(tracer.spans)
    t0 = time.perf_counter()
    for _ in range(k):
        with tracer.span("empty"):
            pass
    cost = (time.perf_counter() - t0) / k
    del tracer.spans[before:]
    return cost


WORKLOADS = {
    "locus-cold": Run.locus_cold,
    "classify-batch": Run.classify_batch,
    "oracle-sweep": Run.oracle_sweep,
}


def main() -> None:
    args = json.loads(sys.argv[1])
    root = Path(args["root"])
    poncelet = import_poncelet(root)
    if args["workload"] == "probe":
        print(json.dumps({
            "executable": sys.executable,
            "version": sys.version.split()[0],
            "implementation": sys.implementation.name,
            "poncelet": str(Path(poncelet.__file__).resolve()),
        }))
        return
    run = Run(args)
    try:
        phases = WORKLOADS[args["workload"]](run)
    except SetupDone:
        phases = {}
    run.speed.stop()
    iv = run.interval

    def op_record(n, t0, t1, items):
        """[n, raw seconds, items, seconds at the reference host speed]"""
        raw, scaled = iv(t0, t1)
        return [n, raw, items, scaled]

    if "locus" in phases:
        phases["locus"] = [[n] + iv(t0, t1) for n, t0, t1 in phases["locus"]]
        phases["verify"] = [iv(t0, t1) for t0, t1 in phases["verify"]]
    if run.tracer.on:
        with open(args["spans_path"], "w") as fh:
            for s in run.tracer.spans:
                fh.write(json.dumps(s) + "\n")
    counts = dict(run.counts, outcomes=dict(run.counts["outcomes"]))
    print(json.dumps({
        "setup": iv(args["t_spawn"], run.setup_at),
        "setup_only": bool(args.get("setup_only")),
        "kernels": [k for _, k in run.speed.samples],
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ops": [op_record(*op) for op in run.ops],
        "ref_ops": [op_record(*op) for op in run.ref_ops],
        "calls": [[n, *iv(t0, t1)] for n, t0, t1 in run.calls],
        "span_cost_s": span_cost(run.tracer),
        "attempted": run.attempted,
        "n_failed": run.n_failed,
        "failed": run.failed,
        "fail_kinds": run.fail_kinds,
        "problems": run.problems,
        "phases": phases,
        "counts": counts,
    }))


if __name__ == "__main__":
    main()
