"""grouptensor benchmark: one workload per call, run from the repo root.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: a5-squares, catalog-products, rep-words (see README.md).
Every measurement runs in a fresh, single-threaded worker process,
one at a time.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics: ``wall_s``, the median
timed round; ``setup_s``, the median over SETUP_SAMPLES fresh
processes of process start to first timed call; ``peak_rss_mb``, the
measuring process's peak resident memory.

``--trace 1`` alternates plain rounds with rounds traced through the
layer wrappers of ``spans.py`` in one worker, and reports per traced
round each layer's self time and counters, the traced wall time and
the tracing overhead (mean traced less mean plain round).  Spans are
written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("a5-squares", "catalog-products", "rep-words")
SETUP_SAMPLES = 5
# The whole call must end within 180 s; leave room to report.
DEADLINE_S = 170.0
SINGLE_THREAD = {
    k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                     "MKL_NUM_THREADS", "NUMBA_NUM_THREADS")
}


class WorkerFailed(RuntimeError):
    pass


def spawn(args, deadline) -> tuple:
    """Run a worker to its end; returns (spawn time, its JSON line)."""
    env = dict(os.environ, **SINGLE_THREAD)
    started = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(deadline - started, 1.0),
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"worker {args} passed the deadline") from exc
    if proc.returncode != 0:
        raise WorkerFailed(
            f"worker {args} exited with {proc.returncode}:\n{proc.stderr[-4000:]}"
        )
    return started, json.loads(proc.stdout.strip().splitlines()[-1])


def metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (ROOT / "src" / "grouptensor" / "__init__.py").is_file():
        print(f"run.py: no grouptensor sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    measure = base + ["--seconds", str(args.seconds)]
    try:
        if args.trace == 0:
            setups = []
            for _ in range(SETUP_SAMPLES - 1):
                started, res = spawn(base + ["--setup-only"], deadline)
                setups.append(res["ready"] - started)
            started, res = spawn(measure, deadline)
            setups.append(res["ready"] - started)
            runs = [res]
            metrics = {
                "wall_s": metric(statistics.median(res["rounds"]), "s"),
                "setup_s": metric(statistics.median(setups), "s"),
                "peak_rss_mb": metric(res["peak_rss_mb"], "MB"),
            }
        else:
            import spans

            out = HERE / "out" / f"trace-{args.workload}-seed{args.seed}.json"
            _, res = spawn(measure + ["--trace-out", str(out)], deadline)
            runs = [res]
            traced_wall = statistics.fmean(res["traced_rounds"])
            metrics = {
                name: metric(res["layers"].get(name, 0.0), "s")
                for name in spans.LAYERS
            }
            metrics.update(
                (name, metric(res["counts"].get(name, 0), "count"))
                for name in spans.COUNTERS
            )
            metrics["trace.wall_s"] = metric(traced_wall, "s")
            metrics["trace.overhead_s"] = metric(
                traced_wall - statistics.fmean(res["rounds"]), "s"
            )
    except WorkerFailed as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1

    problems = [p for r in runs for p in r["problems"] + r["errors"]]
    for p in problems:
        print(f"# {p}")
    print("# env: " + json.dumps(runs[0]["env"], sort_keys=True))
    print(json.dumps({
        "correct": not any(r["problems"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
