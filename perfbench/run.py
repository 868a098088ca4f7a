"""Closed-loop benchmark of origami-rings over seeded workloads.

    python3 perfbench/run.py --workload closure --seed 1 --seconds 20 --trace 0

Workloads are ``closure``, ``certify`` and ``density`` (see README.md).  One
client in one process sends the next job only when the previous one has
finished.  Jobs come in rounds of a fixed mix; a run measures whole rounds
until ``--seconds`` have passed and at least MIN_JOBS jobs have run.
With ``--trace 0`` the run reports the end-to-end metrics.  With
``--trace 1`` it runs one round traced (every other job also untraced, for
the overhead), then the scalar probe, and reports the per-layer metrics.
The last line of standard output is the JSON result.  Scratch files, span
files and result records go to ``.perfbench_out/`` at the checkout root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 3
PERCENTILES = (50, 75, 90, 95, 99)
MIN_BEYOND = 10
MIN_JOBS = 40  # every run measures at least this many jobs


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("closure", "certify", "density"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="a few cheap jobs per run, for the smoke tests")
    return parser.parse_args(argv)


# -- run record -------------------------------------------------------------------


def git_commit():
    """Commit of the checkout, read from .git without running git; None outside git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def run_record(args, **extra) -> dict:
    import mpmath

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny,
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "platform": platform.platform(),
        "mpmath_backend": mpmath.libmp.BACKEND,
        "git_commit": git_commit(), "src_sha256": src_digest(), **extra,
    }


# -- measurement ------------------------------------------------------------------


def timed_setup(jobs, workload, pools):
    """Set up SETUP_REPEATS times from cold library caches; keep the last state."""
    times = []
    for _ in range(SETUP_REPEATS):
        jobs.clear_library_caches()
        t0 = time.perf_counter()
        ctx = jobs.setup(workload, OUT / "work", pools)
        times.append(time.perf_counter() - t0)
    return ctx, times


def measure(jobs, ctx, seed, seconds, min_jobs):
    """Closed loop over whole rounds until `seconds` have passed and at
    least `min_jobs` jobs have run."""
    rng = random.Random(seed)
    results, rounds = [], 0
    start = time.perf_counter()
    while True:
        results.extend(jobs.execute(ctx, job) for job in jobs.make_round(ctx, rng))
        rounds += 1
        if time.perf_counter() - start >= seconds and len(results) >= min_jobs:
            return results, rounds


def tail_percentile(n: int) -> int:
    """Highest of PERCENTILES with at least MIN_BEYOND of n samples beyond it."""
    fitting = [q for q in PERCENTILES if n * (100 - q) / 100 >= MIN_BEYOND]
    return max(fitting) if fitting else PERCENTILES[0]


def end_to_end(results, setup_s) -> tuple[dict, dict]:
    lat = [r.wall_s for r in results]
    ok = sum(1 for r in results if r.failure is None)
    # the percentile is the one that fits the fewest jobs a run can hold, so a
    # faster program, which fits more rounds into a run, keeps the same one
    q = tail_percentile(min(len(lat), MIN_JOBS))
    cuts = statistics.quantiles(lat, n=100, method="inclusive") if len(lat) > 1 else lat * 99
    metrics = {
        "setup_s": (setup_s, "s"),
        "jobs_per_s": (ok / sum(lat), "1/s"),
        "job_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "job_tail_ms": (cuts[q - 1] * 1e3, "ms"),
        "failed_frac": ((len(results) - ok) / len(results), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "artifact_kb": (sum(r.artifact_bytes for r in results) / len(results) / 1e3, "kB"),
    }
    notes = {"job_tail_ms": f"p{q}, n={len(lat)}, {sum(1 for v in lat if v > cuts[q - 1])} beyond"}
    return metrics, notes


def by_kind(results) -> list:
    kinds = {}
    for r in results:
        kinds.setdefault(r.kind, []).append(r)
    return [
        {"kind": k, "jobs": len(rs), "failed": sum(1 for r in rs if r.failure),
         "p50_ms": statistics.median(r.wall_s for r in rs) * 1e3,
         "cpu_p50_ms": statistics.median(r.cpu_s for r in rs) * 1e3}
        for k, rs in sorted(kinds.items())
    ]


# -- printing ---------------------------------------------------------------------


def print_table(title, rows, header):
    print(f"## {title}")
    widths = [max(len(str(h)), *(len(str(r[i])) for r in rows)) for i, h in enumerate(header)]
    for row in [header] + rows:
        print("  ".join(str(v).ljust(w) for v, w in zip(row, widths)).rstrip())


def report_failures(results, setup_failures):
    reasons = list(setup_failures) + [f"{r.kind}: {r.failure}" for r in results if r.failure]
    for reason in reasons[:20]:
        print(f"FAILED {reason}", file=sys.stderr)
    return len(reasons)


def finish(args, metrics, reported, attempted, failed, record, notes=None) -> int:
    """Print the metric table, write the run record, print the JSON result."""
    rows = [[k, f"{v:.6g}", u, (notes or {}).get(k, "")] for k, (v, u) in metrics.items()]
    print_table(f"{args.workload} metrics", rows, ["metric", "value", "unit", "note"])
    record.update(attempted=attempted, failed=failed,
                  metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]} for k in reported},
    }))
    return 0


# -- main -------------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "origami_rings" / "__init__.py").is_file():
        print(f"error: no origami_rings sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    OUT.mkdir(exist_ok=True)
    t0 = time.perf_counter()
    import jobs  # imports the library

    import_s = time.perf_counter() - t0
    pools = jobs.TINY_POOLS[args.workload] if args.tiny else None
    ctx, setup_times = timed_setup(jobs, args.workload, pools)
    setup_s = import_s + statistics.median(setup_times)
    print(f"# setup: import {import_s:.3f} s + median of {setup_times} s")
    if args.trace:
        return traced_run(args, jobs, ctx)

    results, rounds = measure(jobs, ctx, args.seed, args.seconds,
                              1 if args.tiny else MIN_JOBS)
    failed = report_failures(results, ctx.setup_failures)
    attempted = len(results) + len(ctx.setup_failures)
    metrics, notes = end_to_end(results, setup_s)
    kinds = by_kind(results)
    print_table("jobs by kind", [[k["kind"], k["jobs"], k["failed"], f"{k['p50_ms']:.1f}",
                                  f"{k['cpu_p50_ms']:.1f}"] for k in kinds],
                ["kind", "jobs", "failed", "p50_ms", "cpu_p50_ms"])
    record = run_record(args, rounds=rounds, jobs=len(results), setup_times_s=setup_times,
                        import_s=import_s, by_kind=kinds, notes=notes)
    print("# run " + json.dumps({k: v for k, v in record.items() if k != "by_kind"}))
    # failed_frac is printed, but it is 0 whenever the program is right, so the
    # JSON line carries it as "failed" and "attempted" instead
    reported = [k for k in metrics if k != "failed_frac"]
    return finish(args, metrics, reported, attempted, failed, record, notes)


def traced_run(args, jobs, ctx) -> int:
    import probe
    import tracing

    # every job of one round runs traced; every other job also runs untraced,
    # first or second in turn, so that caches warmed by the first run favour
    # neither side of the overhead ratio
    round_jobs = jobs.make_round(ctx, random.Random(args.seed))
    tracer = tracing.Tracer()
    tracing.install(tracer)
    traced, untraced, twins = [], [], []
    try:
        for i, job in enumerate(round_jobs):
            if i % 4 == 0:
                untraced.append(jobs.execute(ctx, job))
            tracer.job = i
            tracer.enabled = True
            try:
                traced.append(jobs.execute(ctx, job, on_checks=tracer.paused))
            finally:
                tracer.enabled = False
            if i % 4 == 2:
                untraced.append(jobs.execute(ctx, job))
            if i % 2 == 0:
                twins.append(traced[-1])
    finally:
        tracer.uninstall()
    untraced_s = sum(r.wall_s for r in untraced)
    traced_s = sum(r.wall_s for r in twins)
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.tsv.gz"
    tracer.write_spans(spans_path)

    metrics = tracing.layer_metrics(tracer, sum(r.artifact_bytes for r in traced))
    metrics.update({k: (v, "us") for k, v in probe.run(args.seed).items()})
    metrics["trace.untraced_s"] = (untraced_s, "s")
    metrics["trace.traced_s"] = (traced_s, "s")
    metrics["trace.overhead"] = (traced_s / untraced_s, "ratio")

    total_self = sum(tracer.self_s.values())
    rows = sorted(tracer.self_s.items(), key=lambda kv: -kv[1])
    print_table("self time by span", [
        [name, tracer.calls[name], f"{s:.4f}", f"{100 * s / total_self:.1f}"] for name, s in rows
    ], ["span", "calls", "self_s", "share_%"])
    print(f"# tracing overhead: traced {traced_s:.3f} s / untraced {untraced_s:.3f} s"
          f" = {traced_s / untraced_s:.3f}; {len(tracer.start)} spans in {spans_path.name}")

    results = untraced + traced
    failed = report_failures(results, ctx.setup_failures)
    attempted = len(results) + len(ctx.setup_failures)
    record = run_record(args, jobs=len(traced), spans=len(tracer.start),
                        spans_file=spans_path.name)
    print("# run " + json.dumps(record))
    return finish(args, metrics, list(metrics), attempted, failed, record)


if __name__ == "__main__":
    sys.exit(main())
