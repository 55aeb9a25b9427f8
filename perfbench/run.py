"""Benchmark entry point for slice -> compile -> infer -> serve.

Run from the repository root::

    python3 perfbench/run.py --workload table1-paper --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics of an untraced run.
``--trace 1`` measures untraced, then traced, and prints the per-layer
metrics of the traced part plus the tracing overhead; its spans go to
``.perfbench/trace-<workload>-<seed>.jsonl``.  Every metric is printed
by name with its unit; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
See perfbench/README.md.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

#: Set-up repetitions per run; ``setup_s`` takes their median.
SETUP_REPEATS = 3
#: Tail percentiles need at least this many samples.
MIN_TAIL_SAMPLES = 40


def geomean(values):
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def per_kind(pairs):
    """Median per job kind, then the geometric mean over kinds (0 when
    no job produced a value)."""
    by_kind = {}
    for kind, value in pairs:
        by_kind.setdefault(kind, []).append(value)
    medians = [statistics.median(v) for v in by_kind.values()]
    return geomean(medians) if medians and min(medians) > 0 else 0.0


def measure(bench, seconds, spans, rng):
    """Whole rounds of jobs until ``seconds`` of job time are measured
    and at least ``MIN_JOBS`` jobs succeeded."""
    jobs, errors, timed = [], [], 0.0
    while True:
        for kind, spec in bench.round(rng):
            job = bench.run(len(jobs), kind, spec, spans, rng)
            jobs.append(job)
            timed += job.seconds
            errors += job.errors
        errors += bench.finish(jobs)
        if timed >= seconds and len(good(jobs)) >= bench.MIN_JOBS:
            return jobs, timed, errors


def good(jobs):
    return [job for job in jobs if not job.failed]


def end_to_end(jobs, timed, setup_s, sliced):
    ok = good(jobs)
    return {
        "setup_s": (setup_s, "s"),
        "job_ms": (per_kind((j.kind, j.seconds * 1e3) for j in ok), "ms"),
        "jobs_per_s": (len(ok) / timed, "1/s"),
        "sliced_stmts": (sum(sliced.values()), "stmts"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
        ),
    }


def per_layer(bench, jobs, spans, untraced_jobs, overhead_ms, cache_stats):
    ok = good(jobs)
    selfs = spans.self_seconds()
    out = {}

    def layer_ms(metric, span_name):
        pairs = [(j.kind, selfs[i][span_name] * 1e3)
                 for i, j in enumerate(jobs)
                 if not j.failed and span_name in selfs.get(i, {})]
        out[metric] = (per_kind(pairs), "ms")

    layer_ms("core.parse_ms", "core.parse")
    for slicer in ("svf", "ab"):
        layer_ms(f"passes.sli_{slicer}_ms", f"passes.sli_{slicer}")
    for name in ("obs", "svf", "ssa", "slice", "cfgslice"):
        pairs = [(j.kind, j.data["pass_seconds"][f"pass.{name}"] * 1e3)
                 for j in ok if f"pass.{name}" in j.data.get("pass_seconds", {})]
        out[f"passes.pass_{name}_ms"] = (per_kind(pairs), "ms")
    sliced = bench.sliced_stmts()
    for slicer in ("svf", "ab"):
        out[f"passes.sliced_stmts_{slicer}"] = (sliced.get(slicer, 0), "stmts")
    layer_ms("semantics.codegen_closure_ms", "semantics.codegen_closure")
    layer_ms("semantics.codegen_numpy_ms", "semantics.codegen_numpy")

    infer = [j for j in ok if "infer_s" in j.data]
    infer_s = sum(j.data["infer_s"] for j in infer)
    out["semantics.stmts_per_s"] = (
        sum(j.data["statements"] for j in infer) / infer_s if infer else 0.0, "1/s")
    layer_ms("inference.mh_ms", "inference.mh")
    layer_ms("inference.lw_ms", "inference.lw")
    out["inference.draws_per_s"] = (
        sum(j.data["draws"] for j in infer) / infer_s if infer else 0.0, "1/s")
    for engine in ("mh", "lw"):
        sel = [j for j in infer if j.data["engine"] == engine]
        out[f"inference.ess_{engine}"] = (
            geomean(j.data["ess"] for j in sel) if sel else 0.0, "count")
        draws = sum(j.data["draws"] for j in sel)
        ratio = sum(j.data["accepted"] for j in sel) / draws if draws else 0.0
        name = "mh_accept_ratio" if engine == "mh" else "lw_live_ratio"
        out[f"inference.{name}"] = (ratio, "ratio")
    # End-to-end figures of one workload each, so taken untraced.
    sampled = [j for j in good(untraced_jobs) if "infer_s" in j.data]
    out["inference.ess_per_s"] = (
        geomean(j.data["ess"] / j.seconds for j in sampled) if sampled else 0.0,
        "1/s")
    served = [j.seconds * 1e3 for j in good(untraced_jobs) if "submit_s" in j.data]
    out["serve.job_p90_ms"] = (
        statistics.quantiles(served, n=10)[-1]
        if len(served) >= MIN_TAIL_SAMPLES else 0.0, "ms")

    layer_ms("runtime.cache_hit_ms", "runtime.cache_hit")
    for key, value in cache_stats.items():
        out[f"runtime.{key}"] = (value, "count")
    layer_ms("serve.submit_ms", "serve.submit")
    layer_ms("serve.complete_ms", "serve.complete")
    for stage in ("sli", "infer"):
        pairs = [(j.kind, j.data["stages"][stage] * 1e3)
                 for j in ok if stage in j.data.get("stages", {})]
        out[f"serve.stage_{stage}_ms"] = (per_kind(pairs), "ms")
    out["bench.trace_overhead_ms"] = (overhead_ms, "ms")
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import checks
    import ess
    from spans import Spans
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload; one of: {', '.join(WORKLOADS)}")
    imported = time.perf_counter() - T0
    bench = WORKLOADS[args.workload](checks.load_references())
    rng = random.Random(args.seed)
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            bench.setup()
            setups.append(time.perf_counter() - start)
        setup_s = imported + statistics.median(setups)
        bench.warm_up()

        jobs, timed, errors = measure(bench, args.seconds, Spans(False), rng)
        all_jobs = list(jobs)
        if args.trace:
            untraced_ms = per_kind((j.kind, j.seconds) for j in good(jobs)) * 1e3
            bench.reset_stats()
            spans = Spans(True)
            traced, _, traced_errors = measure(bench, args.seconds, spans, rng)
            errors += traced_errors
            all_jobs += traced
            traced_ms = per_kind((j.kind, j.seconds) for j in good(traced)) * 1e3
            metrics = per_layer(bench, traced, spans, jobs,
                                traced_ms - untraced_ms,
                                bench.cache_stats(traced))
            os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
            spans.write(os.path.join(
                ROOT, ".perfbench", f"trace-{args.workload}-{args.seed}.jsonl"))
        else:
            metrics = end_to_end(jobs, timed, setup_s, bench.sliced_stmts())
    finally:
        bench.close()
    errors += [f"ESS self-test: {f}" for f in ess.self_test()]

    for error in errors[:20]:
        print(f"check failed: {error}", file=sys.stderr)
    by_kind = {}
    for job in good(jobs):
        by_kind.setdefault(job.kind, []).append(job.seconds * 1e3)
    for kind, values in sorted(by_kind.items()):
        print(f"{kind:42} {len(values):4} jobs  median {statistics.median(values):10.2f} ms",
              file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name:32} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": not errors,
        "attempted": len(all_jobs),
        "failed": sum(1 for j in all_jobs if j.failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
