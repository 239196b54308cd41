"""Run the benchmark on several seeds and print each metric's quartile spread.

    python3 bench/spreads.py --workload h1-domain --seeds 1,2,3,4,5,6,7,8,9,10 [--seconds 30]

The spread is (Q3 - Q1) / median over the runs, with quartiles from
``statistics.quantiles(values, n=4)``.  Raw (unnormalized) times are read
from each run's samples file and shown beside the gated metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RAW = ("raw_setup_s", "raw_wall_s", "raw_op_p50_ms")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="comma-separated seeds")
    parser.add_argument("--seconds", type=int, default=30)
    args = parser.parse_args()
    values: dict[str, list[float]] = {}
    shares = set()
    for seed in (int(s) for s in args.seeds.split(",")):
        proc = subprocess.run(
            [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        shares.add((result["failed"], result["attempted"], result["correct"]))
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        samples = os.path.join(BENCH_DIR, "out", f"samples-{args.workload}-{seed}-trace0.json")
        with open(samples, encoding="utf-8") as fh:
            raw = json.load(fh)["metrics"]
        for name in RAW:
            values.setdefault(name, []).append(raw[name])
        print(seed, {k: round(v["value"], 4) for k, v in result["metrics"].items()}, flush=True)
    print(f"{args.workload}: (failed, attempted, correct) = {sorted(shares)}")
    for name, v in values.items():
        q1, _, q3 = statistics.quantiles(v, n=4)
        med = statistics.median(v)
        print(f"  {name:14s} median {med:11.4f}  spread {(q3 - q1) / med:.4f}"
              f"  min {min(v):.4f}  max {max(v):.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
