#!/usr/bin/env python3
"""Exact-count cross-check: two traced runs with the same seed must agree.

    python3 perfbench/crosscheck.py --workload tpch-reduce --seed 1 --seconds 24

Runs ``perfbench/run.py --trace 1`` twice and compares every count it reports
(jobs, stages, tasks, supersteps, labels, messages, rows, tuple vertices,
edges) and the cached size in MB. Timings are not compared. A difference
means the program is nondeterministic on identical input; it is printed and
the exit code is 1.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
#: Per-pass share of a whole-run total; the number of passes varies with speed.
NOT_EXACT = {"spark.cached_rdd_growth"}


def traced_counts(workload: str, seed: int, seconds: int) -> dict[str, float]:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"],
        cwd=HERE.parent, check=True, capture_output=True, text=True,
    ).stdout
    metrics = json.loads(out.strip().splitlines()[-1])["metrics"]
    return {k: m["value"] for k, m in metrics.items()
            if m["unit"] in ("count", "MB") and k not in NOT_EXACT}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=24)
    args = ap.parse_args()
    a = traced_counts(args.workload, args.seed, args.seconds)
    b = traced_counts(args.workload, args.seed, args.seconds)
    diff = sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))
    for k in sorted(a.keys() | b.keys()):
        print(f"{'DIFF' if k in diff else 'same'}  {k:28s} {a.get(k)} {b.get(k)}")
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "compared": len(a), "differing": diff}))
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
