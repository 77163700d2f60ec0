#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, as the acceptance rule takes it.

    python3 perfbench/spread.py --runs 10 --seconds 30 compare_2k efb_fine_200k csv_100k

Runs ``run.py --trace 0`` once per seed (seeds 1..runs, one process at a
time) and prints, per workload and metric, the median of the runs and the
distance between the first and third quartiles as a share of that median.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workloads", nargs="+")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    for workload in args.workloads:
        values: dict[str, list[float]] = {}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            done = subprocess.run(
                [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                cwd=RUN.parent.parent, capture_output=True, text=True, check=False,
            )
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if done.returncode != 0 or not result["correct"]:
                print(f"{workload} seed {seed}: exit {done.returncode}, result {result}", file=sys.stderr)
                return 1
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{n}={m['value']:.4f}" for n, m in result["metrics"].items()), flush=True)
        for name, column in values.items():
            q1, median, q3 = statistics.quantiles(column, n=4)
            print(f"{workload} {name}: median {median:.4f} iqr/median {(q3 - q1) / median:.4f} "
                  f"(q1 {q1:.4f}, q3 {q3:.4f}, n {len(column)})", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
