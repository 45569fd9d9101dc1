"""spikedcov benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout holding ``src/`` and ``configs/``. With
``--trace 0`` it starts five fresh worker processes one after another,
each of which sets up, runs the workload's CLI jobs for S/5 seconds and
checks every output; it prints the medians over the workers of the
end-to-end metrics. With ``--trace 1`` one worker runs cycles untraced and
then traced for S/2 seconds each, plus a serial baseline, and it prints the
per-layer metrics.

The workers inherit the environment minus the thread-count variables below,
so the program's own worker and BLAS thread policy is what gets measured.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# as in workloads.py, which this process does not import: it must fail
# cleanly where spikedcov is missing
WORKLOADS = ("clt_bulk", "eigvec_large", "cli_batch")
THREAD_VARS = ("SPIKED_EIG_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
REQUIRED = ("src/spikedcov/cli.py", "configs/acceptance.json", "configs/clt_oracle_desk.ini", "configs/desk_standard.ini")
WORKERS_PER_RUN = 5
WORKER_TIMEOUT_S = 150


def worker_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def run_worker(workload, seed, budget, tag, work, trace, deadline) -> dict:
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", workload, "--seed", str(seed), "--budget", repr(budget),
        "--tag", tag, "--work", work, "--spawned-at", repr(time.monotonic()),
    ]
    if trace:
        cmd.append("--trace")
    proc = subprocess.run(
        cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {tag} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(results: list) -> dict:
    """Medians over the workers, so that one worker caught by a burst of
    load on the machine does not set the run's figure."""
    def median(f):
        return statistics.median(f(r) for r in results)

    return {
        "setup_s": {"value": median(lambda r: r["setup_s"]), "unit": "s"},
        "jobs_per_s": {"value": median(lambda r: r["jobs"] / r["wall_s"]), "unit": "1/s"},
        "peak_rss_mb": {"value": median(lambda r: r["peak_rss_mb"]), "unit": "MB"},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    missing = [p for p in REQUIRED if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        print(f"perfbench: not a spikedcov checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + WORKER_TIMEOUT_S
    work = os.path.join(ROOT, ".perfbench_work", f"run-{os.getpid()}")
    try:
        if args.trace:
            results = [run_worker(args.workload, args.seed, args.seconds / 2,
                                  "t0", work, True, deadline)]
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in results[0]["per_layer"].items()}
        else:
            results = [
                run_worker(args.workload, args.seed, args.seconds / WORKERS_PER_RUN,
                           f"w{i}", work, False, deadline)
                for i in range(WORKERS_PER_RUN)
            ]
            metrics = end_to_end(results)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    replicates = sum(r["replicates"] for r in results)
    errors = [e for r in results for e in r["errors"]]
    for e in errors:
        print(f"perfbench: check failed: {e}", file=sys.stderr)
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "failed_fraction": {"value": failed / attempted, "unit": "ratio"},
        "workers": [
            {k: r.get(k) for k in ("setup_s", "wall_s", "cycles", "cycle_s", "jobs", "attempted", "failed", "peak_rss_mb")}
            for r in results
        ],
        "environment": results[0]["environment"],
    }
    if args.trace:
        summary["dominant_layer"] = results[0]["dominant_layer"]
    elif replicates:
        per_job = replicates / sum(r["jobs"] for r in results)
        summary["replicates_per_s"] = {"value": metrics["jobs_per_s"]["value"] * per_job, "unit": "1/s"}
    print("summary " + json.dumps(summary))
    print(json.dumps({
        "correct": failed == 0 and not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
