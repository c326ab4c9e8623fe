"""Run one workload in a fresh, single-threaded process.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S
        [--setup-only] [--trace-out FILE]

Set-up imports the program from ``src/``, realizes the catalog groups,
runs the warm-up enumeration and generates the inputs.  The monotonic
clock reading just before the first timed call is reported as
``ready``; the parent turns it into ``setup_s``.  With ``--setup-only``
the worker stops there.  Otherwise it runs whole rounds of the
workload's jobs until the timed rounds add up to ``--seconds``, checks
each round's results after its timed region, and prints one JSON line.
With ``--trace-out`` plain rounds alternate with traced ones, which run
with the layer wrappers of ``spans.py`` installed, and the spans are
written to that file at the end.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

import spans

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def run_round(workload, tracer, stats) -> float:
    """Run one round's jobs; returns the seconds of its timed region.

    Failures the library documents count as failed operations; the
    checks run after the timed region and add to ``stats``.
    """
    from workloads import LIBRARY_ERRORS

    jobs = workload.jobs()
    results = {}
    start = time.perf_counter()
    if tracer is not None:
        root = tracer.open("bench.self_s", start)
    for k, (key, fn) in enumerate(jobs):
        if tracer is not None:
            tracer.job = k
            span = tracer.open("bench.self_s")
        try:
            results[key] = fn()
        except LIBRARY_ERRORS as exc:
            stats["failed"] += 1
            stats["errors"].append(f"{key}: {type(exc).__name__}: {exc}")
        if tracer is not None:
            tracer.close(span)
    end = time.perf_counter()
    if tracer is not None:
        tracer.close(root, end)
        tracer.job = -1
    stats["attempted"] += len(jobs)
    stats["problems"] += workload.check(results)
    del results
    gc.collect()
    return end - start


def run_rounds(workload, seconds, tracer) -> dict:
    """Whole rounds until the timed regions add up to ``seconds``.

    With a tracer, plain and traced rounds alternate, starting plain,
    so that both see the same drift in the host's speed.
    """
    stats = {"attempted": 0, "failed": 0, "problems": [], "errors": []}
    plain, traced = [], []
    while sum(plain) + sum(traced) < seconds or (tracer is not None and not traced):
        if tracer is None or len(traced) == len(plain):
            plain.append(run_round(workload, None, stats))
            continue
        tracer.round = len(traced)
        uninstall = spans.install(tracer)
        try:
            traced.append(run_round(workload, tracer, stats))
        finally:
            uninstall()
    stats["problems"] = stats["problems"][:20]
    stats["errors"] = stats["errors"][:20]
    return dict(stats, rounds=plain, traced_rounds=traced)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace-out")
    args = ap.parse_args(argv)

    import workloads
    from grouptensor._jit import HAVE_NUMBA

    workload = workloads.WORKLOADS[args.workload](args.seed)
    tracer = spans.Tracer() if args.trace_out else None
    gc.collect()
    ready = time.monotonic()
    out = {
        "ready": ready,
        "env": {
            "HAVE_NUMBA": HAVE_NUMBA,
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
        },
    }
    if not args.setup_only:
        out.update(run_rounds(workload, args.seconds, tracer))
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        n = len(out["traced_rounds"])
        self_times = tracer.self_times()
        out["layers"] = {k: v / n for k, v in self_times.items()}
        out["counts"] = {k: v / n for k, v in tracer.counts.items()}
        path = Path(args.trace_out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({
            "workload": args.workload,
            "seed": args.seed,
            "env": out["env"],
            "span_fields": ["layer", "parent", "round", "job", "start", "end"],
            "jobs": [str(key) for key, _ in workload.jobs()],
            "spans": tracer.spans,
            "self_s_per_round": out["layers"],
            "counts_per_round": out["counts"],
        }))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
