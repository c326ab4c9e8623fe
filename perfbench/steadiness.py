"""Repeat run.py over seeds and report each metric's median and quartiles.

    python3 perfbench/steadiness.py --seconds 20 --seeds 1-10 \
        [--workloads a5-squares,rep-words] [--label NAME]

For every workload and end-to-end metric it prints the median, the
first and third quartiles (``statistics.quantiles(values, n=4)``) and
the spread (q3 - q1) / median, next to the metric's bound from
BENCHMARK.json.  Every run's JSON line is kept in
``perfbench/out/steadiness-<label>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_range(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser()
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--label", default="run")
    args = ap.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs = {}
    for workload in args.workloads.split(","):
        runs[workload] = []
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True,
            )
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs[workload].append({"seed": seed, **result})
            values = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
            print(f"{workload} seed {seed}: {values}", flush=True)

    out = HERE / "out" / f"steadiness-{args.label}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(runs, indent=1))
    print(f"{'workload':18s} {'metric':12s} {'median':>10s} {'q1':>10s} {'q3':>10s}"
          f" {'spread':>7s} {'bound':>6s}")
    for workload, results in runs.items():
        shares = {r["failed"] / r["attempted"] for r in results}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            print(f"{workload:18s} {name:12s} {med:10.4f} {q1:10.4f} {q3:10.4f}"
                  f" {(q3 - q1) / med:7.3f} {bound:6.2f}")
        print(f"{workload:18s} failed share {sorted(shares)};"
              f" correct {all(r['correct'] for r in results)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
