"""Run the benchmark for each workload and seed and summarize each metric.

    python3 perfbench/spread.py                  # every workload, seed 1
    python3 perfbench/spread.py --workloads g2-extensions,torus-oracle \
        --seeds 101-110

For each workload: the median of every metric over the runs with its unit,
and with two or more seeds the distance between its first and third
quartile (``statistics.quantiles(values, n=4)``) as a share of the median,
plus the failed/attempted counts and each run's value.  Each run measures for
BENCHMARK.json's run_seconds, untraced.  One process at a time, from the
root of the checkout.  Exits with code 1 if any run did not pass.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seeds", type=seed_list, default="1")
    args = parser.parse_args(argv)
    status = 0
    for workload in args.workloads.split(","):
        values, shares = {}, set()
        for seed in args.seeds:
            done = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True)
            if done.returncode != 0:
                status = 1
                print(f"{workload} seed {seed}: exit code {done.returncode}")
            lines = done.stdout.strip().splitlines()
            if done.returncode not in (0, 1) or not lines:
                continue
            res = json.loads(lines[-1])
            shares.add(f"{res['failed']}/{res['attempted']}")
            for name, metric in res["metrics"].items():
                values.setdefault(name, (metric["unit"], []))[1].append(
                    metric["value"])
        print(f"{workload}: {len(args.seeds)} runs, failed/attempted "
              f"{', '.join(sorted(shares))}")
        for name, (unit, vals) in values.items():
            med = statistics.median(vals)
            spread = float("nan")
            if len(vals) > 1 and med:
                q1, _, q3 = statistics.quantiles(vals, n=4)
                spread = (q3 - q1) / med
            print(f"  {name:45s} median {med:10.4g} {unit:6s} "
                  f"IQR/median {spread:.3f}  runs "
                  + " ".join(f"{v:.4g}" for v in vals))
    return status


if __name__ == "__main__":
    sys.exit(main())
