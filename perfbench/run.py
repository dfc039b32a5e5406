"""Benchmark of the poncelet library: three closed-loop workloads, each
driven by one caller in one process with one thread.

    python3 perfbench/run.py --workload locus-cold --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Workloads (see perfbench/README.md for the full definitions):

  locus-cold      fresh interpreter per pass: locus(n) and format_poly for
                  n = 3..12 in increasing order, then verify.checks()
  classify-batch  pair_classify on seeded centers, alternating n = 5 and 7
  oracle-sweep    per seeded center, n cycling 8..12: specialize,
                  sturm_real_roots, closes_after on every real root

Every workload runs in fresh interpreters started from here (worker.py), so
the set-up time includes interpreter start.  With --trace 0 the last line
of standard output is one JSON object with the end-to-end metrics; with
--trace 1 it holds the per-layer metrics, taken from spans recorded around
each call into the library, and the tracing overhead against an untraced
share of the same run.  Raw results, run metadata and spans are written
under .bench_build/perfbench/ in the checkout.

Exit codes: 0 the run finished and every output check passed; 1 an output
check failed (golden digest or identity mismatch); 2 the benchmark could
not run (no src/poncelet beside it, or a worker died).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import benchlib  # noqa: E402

OUT_DIR = ROOT / ".bench_build" / "perfbench"
RUN_LIMIT_S = 170  # every run must end within 180 s
CAYLEY_N = (10, 11, 12)
CLASSIFY_N = (5, 7)
RAISE_KINDS = ("NotOnLine", "NotOnCircle", "DegenerateStep")

# Untraced runs split --seconds over several fresh processes, so set-up is
# measured several times and reported as a median.
WORKERS = {"classify-batch": 3, "oracle-sweep": 2}
# Where set-up takes well under a second, a few more fresh processes only
# time set-up and exit, so that its median rests on more samples.
SETUP_PROBES = {"locus-cold": 4, "classify-batch": 4}
WORKLOADS = ("locus-cold", "classify-batch", "oracle-sweep")


class BenchError(Exception):
    pass


# -- workers -------------------------------------------------------------------


def spawn(args: dict, deadline: float) -> dict:
    """Run worker.py in a fresh interpreter and return its JSON result."""
    args = dict(args, root=str(ROOT))
    cmd = [sys.executable, "-I", "-X", f"pycache_prefix={ROOT / '.bench_build' / 'pycache'}",
           str(HERE / "worker.py")]
    timeout = max(5.0, deadline - time.perf_counter())
    args["t_spawn"] = time.perf_counter()
    try:
        proc = subprocess.run(cmd + [json.dumps(args)], capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{args['workload']} worker ran past {timeout:.0f} s") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        raise BenchError(f"{args['workload']} worker exited {proc.returncode}: {tail[0]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workers(workload: str, seed: int, seconds: float, trace: bool, deadline: float):
    """The worker results of one run, and the spans file of a traced run."""
    base = {"workload": workload, "seed": seed, "trace": False, "stream": 0}
    if trace:
        spans_path = OUT_DIR / f"spans-{workload}-seed{seed}.jsonl"
        traced = dict(base, seconds=seconds, trace=True, spans_path=str(spans_path))
        if workload == "locus-cold":
            # A cold pass cannot be repeated in one process: the untraced
            # reference for the overhead is a second process.
            return [spawn(dict(base, seconds=0), deadline), spawn(traced, deadline)], spans_path
        return [spawn(traced, deadline)], spans_path
    if workload == "locus-cold":
        # One pass per process; passes until --seconds have gone, at least one.
        results, start = [], time.perf_counter()
        while not results or time.perf_counter() - start < seconds:
            results.append(spawn(dict(base, stream=len(results), seconds=0), deadline))
    else:
        k = WORKERS[workload]
        results = [spawn(dict(base, stream=i, seconds=seconds / k), deadline) for i in range(k)]
    results += [spawn(dict(base, seconds=0, setup_only=True), deadline)
                for _ in range(SETUP_PROBES.get(workload, 0))]
    return results, None


# -- end-to-end metrics ------------------------------------------------------------


def e2e_metrics(workload: str, results: list[dict]) -> tuple[dict, dict]:
    """(contract metrics, named report metrics) of an untraced run.

    Times are at the reference host speed (benchlib.HostSpeed); raw figures
    are reported beside them.  Set-up is the median over all processes,
    the rest comes from those that ran operations."""
    setups = [r["setup"] for r in results]
    results = [r for r in results if not r["setup_only"]]
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["n_failed"] for r in results)
    kernels = [k for r in results for k in r["kernels"]]
    common = {
        "setup_s": (median([s[1] for s in setups]), "s"),
        "peak_rss_mb": (median([r["rss_mb"] for r in results]), "MB"),
        "fail_frac": (failed / attempted, "frac"),
        "host_speed": (benchlib.REF_KERNEL_S / median(kernels), "x"),
        "raw.setup_s": (median([s[0] for s in setups]), "s"),
        "setups": (len(setups), "count"),
    }
    if workload == "locus-cold":
        locus_s = median([sum(step[2] for step in r["phases"]["locus"]) for r in results])
        verify_s = median([v[1] for r in results for v in r["phases"]["verify"]])
        named = {"locus_s": (locus_s, "s"), "verify_s": (verify_s, "s"),
                 "passes": (len(results), "count"),
                 "raw.locus_s": (median([sum(step[1] for step in r["phases"]["locus"])
                                         for r in results]), "s")}
        main_ms, per_s = locus_s * 1e3, results[0]["phases"]["identities"] / verify_s
    else:
        ops = [op for r in results for op in r["ops"]]
        durs = [op[3] * 1e3 for op in ops]
        main_ms = benchlib.summarize(durs)["p50"]
        per_s = sum(op[2] for op in ops) / (sum(durs) / 1e3)
        raw_ms = median([op[1] * 1e3 for op in ops])
        if workload == "classify-batch":
            prefix, rate = "classify", "classify_per_s"
            durs = [c[2] * 1e3 for r in results for c in r["calls"]]
        else:
            prefix, rate = "sweep", "roots_per_s"
        s = benchlib.summarize(durs)
        named = {rate: (per_s, "1/s"), f"{prefix}_p50_ms": (s["p50"], "ms")}
        if s["tail"] is not None:
            named[f"{prefix}_p{s['tail_q'] * 100:g}_ms"] = (s["tail"], "ms")
        named["samples"] = (s["n"], "count")
        named["raw.op_p50_ms"] = (raw_ms, "ms")
    named.update(common)
    kinds = sum((Counter(r["fail_kinds"]) for r in results), Counter())
    named.update({f"failed.{k}": (v, "count") for k, v in sorted(kinds.items())})
    if workload == "oracle-sweep":
        outcomes = sum((Counter(r["counts"]["outcomes"]) for r in results), Counter())
        named.update(outcome_metrics(outcomes))
    contract = {
        "setup_s": (common["setup_s"][0], "s"),
        "op_p50_ms": (main_ms, "ms"),
        "items_per_s": (per_s, "1/s"),
        "peak_rss_mb": (common["peak_rss_mb"][0], "MB"),
    }
    return contract, named


def outcome_metrics(outcomes: dict) -> dict:
    """Oracle verdicts per root: agree, reject, or raise by exception type."""
    total = sum(outcomes.values())
    raises = {k.split(".", 1)[1]: v for k, v in outcomes.items() if k.startswith("raise.")}
    out = {
        "geometry.agree_frac": (outcomes.get("agree", 0) / total if total else 0.0, "frac"),
        "geometry.reject_count": (outcomes.get("reject", 0), "count"),
    }
    for kind in RAISE_KINDS:
        out[f"geometry.raise_count.{kind}"] = (raises.get(kind, 0), "count")
    out["geometry.raise_count.other"] = (
        sum(v for k, v in raises.items() if k not in RAISE_KINDS), "count")
    return out


# -- per-layer metrics -------------------------------------------------------------


def load_spans(path: Path) -> list:
    with open(path) as fh:
        return [json.loads(line) for line in fh]


def layer_metrics(results: list[dict], spans: list) -> dict:
    """Per-layer metrics of a traced run.  Layers the workload does not
    call report 0."""
    by_name: dict = defaultdict(list)  # (name, n) -> durations in s
    per_op: dict = defaultdict(lambda: defaultdict(float))  # (op, n) -> name -> s
    for name, start, end, parent, op, n in spans:
        by_name[name, n].append(end - start)
        by_name[name, "*"].append(end - start)
        per_op[op, n][name] += end - start

    def total_ms(name, n="*"):
        return sum(by_name[name, n]) * 1e3

    def median_ms(name, n="*"):
        vals = by_name[name, n]
        return median(vals) * 1e3 if vals else 0.0

    def op_diff_ms(name, minus, n=None):
        """Median over operations of one span's time minus others' on the
        same input and n."""
        vals = [(d[name] - sum(d[m] for m in minus)) * 1e3
                for (op, op_n), d in per_op.items() if op != "setup" and name in d
                and all(m in d for m in minus) and n in (None, op_n)]
        return median(vals) if vals else 0.0

    m: dict = {}
    traced = results[-1]
    counts = traced["counts"]
    for n in CAYLEY_N:
        m[f"cayley.series_ms.n{n}"] = (total_ms("cayley.atilde_sequence", n), "ms")
        m[f"cayley.hankel_ms.n{n}"] = (total_ms("cayley.hankel_raw", n), "ms")
        m[f"cayley.locus_ms.n{n}"] = (total_ms("cayley.locus", n), "ms")
    for n in CAYLEY_N:
        c = counts["cayley"].get(str(n), {})
        m[f"cayley.hankel_terms.n{n}"] = (c.get("hankel_terms", 0), "count")
        m[f"cayley.locus_terms.n{n}"] = (c.get("locus_terms", 0), "count")
        m[f"cayley.coeff_bits.n{n}"] = (c.get("coeff_bits", 0), "bits")

    def mean(vals):
        return sum(vals) / len(vals) if vals else 0.0

    m["polycore.specialize_ms"] = (median_ms("polycore.specialize"), "ms")
    m["polycore.squarefree_ms"] = (median_ms("polycore.squarefree_decomposition"), "ms")
    m["polycore.sturm_ms"] = (op_diff_ms("polycore.sturm_real_roots",
                                         ("polycore.squarefree_decomposition",)), "ms")
    m["polycore.sf_degree"] = (mean(counts["sf_degree"]), "count")
    m["polycore.sturm_chain_len"] = (mean(counts["chain_len"]), "count")
    m["polycore.coeff_bits"] = (mean(counts["coeff_bits"]), "bits")
    m["polycore.format_poly_ms"] = (total_ms("polycore.format_poly"), "ms")
    for n in CLASSIFY_N:
        m[f"classify.pair_classify_ms.n{n}"] = (median_ms("classify.pair_classify", n), "ms")
        m[f"classify.self_ms.n{n}"] = (op_diff_ms(
            "classify.pair_classify", ("polycore.specialize", "polycore.sturm_real_roots"), n),
            "ms")
    closes = sorted(by_name["geometry.closes_after", "*"])
    m["geometry.closes_after_ms.p50"] = (
        benchlib.nearest_rank(closes, 0.5) * 1e3 if closes else 0.0, "ms")
    m["geometry.closes_after_ms.p95"] = (
        benchlib.nearest_rank(closes, 0.95) * 1e3 if closes else 0.0, "ms")
    steps = [(end - start) / n * 1e6 for name, start, end, parent, op, n in spans
             if name == "geometry.poncelet_trace"]
    m["geometry.trace_step_us"] = (median(steps) if steps else 0.0, "us")
    m.update(outcome_metrics(counts["outcomes"]))
    m["verify.checks_ms"] = (median_ms("verify.checks"), "ms")

    # Self times of the layers against the wall time of the traced operations.
    selfs = benchlib.self_times(spans)
    wall = sum(end - start for name, start, end, parent, op, n in spans if name == "op")
    glue = sum(t for t, s in zip(selfs, spans) if s[0] == "op")
    m["trace.wall_s"] = (wall, "s")
    m["trace.unattributed_pct"] = (glue / wall * 100, "%")
    m["trace.overhead_pct"] = (overhead_pct(results), "%")
    m["trace.span_overhead_pct"] = (traced["span_cost_s"] * len(spans) / wall * 100, "%")
    return m


def overhead_pct(results: list[dict]) -> float:
    """Traced minus untraced median time of the same operations, in percent
    of the untraced one.  The untraced times are the traced worker's own
    interleaved reference calls, or, for a cold pass, a separate process."""
    traced = results[-1]
    ref = traced["ref_ops"] or [op for r in results[:-1] for op in r["ops"]]
    a = median([op[1] for op in ref])
    b = median([op[1] for op in traced["ops"]])
    return (b - a) / a * 100


# -- metadata ----------------------------------------------------------------------


def run_metadata(seed: int, probe: dict) -> dict:
    src = ROOT / "src"
    files = sorted(src.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for f in files:
        data = f.read_bytes()
        digest.update(str(f.relative_to(src)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    return {
        "interpreter": probe["executable"],
        "python_version": probe["version"],
        "implementation": probe["implementation"],
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
    }


# -- command line ------------------------------------------------------------------


def run_workload(workload: str, seed: int, seconds: float, trace: bool, deadline: float,
                 meta: dict) -> dict:
    results, spans_path = run_workers(workload, seed, seconds, trace, deadline)
    problems = [p for r in results for p in r["problems"]]
    if trace:
        metrics = layer_metrics(results, load_spans(spans_path))
        named = {}
    else:
        metrics, named = e2e_metrics(workload, results)
    report = {
        "workload": workload, "trace": int(trace), "meta": meta,
        "correct": not problems, "problems": problems,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["n_failed"] for r in results),
        "failures": [f for r in results for f in r["failed"]][:20],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "named": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
    }
    out = OUT_DIR / f"result-{workload}-seed{seed}-trace{int(trace)}.json"
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"== {workload} (seed {seed}, trace {int(trace)}) -> {out.relative_to(ROOT)}")
    for k, (v, u) in {**named, **metrics}.items():
        print(f"{k:36s} {v:>16.6g} {u}")
    for key, reason in report["failures"][:5]:
        print(f"failed input {key}: {reason}")
    for p in problems:
        print(f"CHECK FAILED: {p}")
    return report


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.perf_counter() + RUN_LIMIT_S * len(names)
    try:
        if not (ROOT / "src" / "poncelet" / "__init__.py").is_file():
            raise BenchError(f"no src/poncelet in {ROOT}")
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        probe = spawn({"workload": "probe"}, deadline)
        meta = run_metadata(args.seed, probe)
        print("meta " + json.dumps(meta))
        reports = [run_workload(w, args.seed, args.seconds, bool(args.trace), deadline, meta)
                   for w in names]
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    metrics = {}
    for r in reports:
        prefix = "" if len(reports) == 1 else r["workload"] + "."
        metrics.update({prefix + k: v for k, v in r["metrics"].items()})
    correct = all(r["correct"] for r in reports)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
