"""One workload process: set up, run the timed phase, check, report.

Started by ``run.py`` as a fresh interpreter, so the set-up time it reports
(interpreter start, imports, config parse, one untimed warm-up cycle) is
what a user pays before a first job. Prints one JSON line as its last line
of standard output.

    python3 perfbench/worker.py --workload NAME --seed N --budget SECONDS
        --tag TAG --work DIR --spawned-at MONOTONIC [--trace]

Job outputs go to DIR/TAG; DIR itself holds what the run's workers share.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from spikedcov import montecarlo  # noqa: E402

import layers  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import SpanStats, Tracer  # noqa: E402


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def environment() -> dict:
    def blas(mod):
        try:
            return mod.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
        except (KeyError, TypeError, AttributeError):
            return None

    return {
        "nproc": os.cpu_count(),
        "workers": montecarlo.default_workers(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_openblas": blas(np),
        "scipy_openblas": blas(scipy),
        "threadpoolctl": importlib.util.find_spec("threadpoolctl") is not None,
        "thread_env": {
            k: os.environ.get(k)
            for k in ("SPIKED_EIG_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


def run_cycle(args, ctx, index, tracer=None):
    """Run cycle ``index`` of the workload; return its jobs and wall time.

    Cycles with equal ``index`` get equal inputs. With a ``tracer`` the
    cycle runs instrumented and writes to a directory of its own.
    """
    label = f"c{index}"
    out = os.path.join(ctx.work, label + ("-traced" if tracer else ""))
    jobs = wl.cycle(args.workload, ctx, args.seed, label, out)
    if tracer:
        layers.instrument(tracer)
    start = time.perf_counter()
    try:
        for i, job in enumerate(jobs):
            if tracer:
                tracer.job = f"{label}/{i}"
            wl.run_job(job)
    finally:
        if tracer:
            tracer.unwrap_all()
    return jobs, time.perf_counter() - start


def run_cycles(args, ctx) -> dict:
    """Run whole cycles while ``args.budget`` seconds leave room for one more
    of average length; at least one."""
    jobs, cycle_s = [], []
    while not cycle_s or sum(cycle_s) + statistics.mean(cycle_s) <= args.budget:
        cycle_jobs, wall = run_cycle(args, ctx, len(cycle_s))
        jobs += cycle_jobs
        cycle_s.append(wall)
    out = {"wall_s": sum(cycle_s), "cycles": len(cycle_s), "cycle_s": cycle_s, "peak_rss_mb": peak_rss_mb()}
    out.update(tally(jobs, ctx))
    return out


def traced_run(args, ctx) -> dict:
    """Each cycle runs twice on equal inputs, untraced and then traced, until
    the budget of untraced time is used; then one MC job runs with a single
    replicate worker as the serial baseline. Pairing the two passes cycle by
    cycle keeps drift over the run out of the tracing overhead."""
    tracer = Tracer()
    jobs, untraced_wall, traced_wall, cycles = [], 0.0, 0.0, 0
    while cycles == 0 or untraced_wall < args.budget:
        plain_jobs, plain_s = run_cycle(args, ctx, cycles)
        traced_jobs, traced_s = run_cycle(args, ctx, cycles, tracer)
        jobs += plain_jobs + traced_jobs
        untraced_wall += plain_s
        traced_wall += traced_s
        cycles += 1
    serial_rate = 0.0
    if args.workload in wl.MC_WORKLOADS:
        (job,) = wl.cycle(args.workload, ctx, args.seed, "serial")
        job.argv += ["--threads", "1"]
        start = time.perf_counter()
        wl.run_job(job)
        serial_rate = job.replicates / (time.perf_counter() - start)
        jobs.append(job)
    out = {"wall_s": untraced_wall, "cycles": cycles, "peak_rss_mb": peak_rss_mb()}
    out.update(tally(jobs, ctx))
    stats = SpanStats(tracer.spans)
    run = dict(
        out,
        workers=montecarlo.default_workers(),
        serial_replicates_per_s=serial_rate,
        traced_wall_s=traced_wall,
        untraced_wall_s=untraced_wall,
    )
    out["per_layer"] = layers.per_layer(stats, run)
    out["dominant_layer"] = layers.dominant_layer(stats)
    traces = os.path.join(ROOT, ".perfbench_work", "traces")
    os.makedirs(traces, exist_ok=True)
    tracer.dump(os.path.join(traces, f"{args.workload}.jsonl"))
    return out


def tally(jobs, ctx) -> dict:
    """Attempted and failed operations, replicates and flags of checked jobs.

    An operation is a replicate of an MC job, or a whole job otherwise. A
    flagged replicate, a non-zero exit code and a failed check each count
    as one failure, capped at the job's operations.
    """
    t = {"attempted": 0, "failed": 0, "replicates": 0, "flagged": 0, "jobs": len(jobs), "errors": []}
    for job in jobs:
        errors = wl.check_job(job, ctx)
        mc = job.kind in ("clt", "eigvec")
        ops = job.replicates if mc else 1
        flagged = job.result.get("flagged", 0)
        t["attempted"] += ops
        t["failed"] += min(ops, flagged + len(errors)) if mc else min(1, len(errors))
        t["flagged"] += flagged
        t["replicates"] += job.replicates if mc else 0
        t["errors"] += errors
    return t


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--budget", type=float, required=True)
    ap.add_argument("--tag", required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)

    ctx = wl.Context(ROOT, os.path.join(args.work, args.tag), shared=args.work)
    os.makedirs(ctx.work, exist_ok=True)
    if args.workload == "eigvec_large":
        ctx.write_eigvec_config()
    for job in wl.cycle(args.workload, ctx, args.seed, "warmup", warmup=True):
        wl.run_job(job)
    setup_s = time.monotonic() - args.spawned_at

    out = traced_run(args, ctx) if args.trace else run_cycles(args, ctx)
    out["setup_s"] = setup_s
    out["environment"] = environment()
    out["errors"] = out["errors"][:20]
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
