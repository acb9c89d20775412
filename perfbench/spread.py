"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workload desk-train --seeds 1-10

Runs perfbench/run.py once per seed, one run at a time, and prints for
each end_to_end metric its median and the distance between the first and
third quartiles (statistics.quantiles, n=4) as a share of the median,
against the metric's bound in BENCHMARK.json.  Also prints each run's wall
time.  Run it from the root of a checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def seeds_of(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10")
    args = p.parse_args(argv)
    with open("BENCHMARK.json", "r", encoding="utf-8") as fh:
        bench = json.load(fh)
    declared = bench["end_to_end"]
    runner = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")

    values: dict[str, list[float]] = {m["name"]: [] for m in declared}
    for seed in seeds_of(args.seeds):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, runner, "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
             "--trace", "0"],
            capture_output=True, text=True, timeout=900)
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: wall {wall:.1f}s correct {result['correct']} "
              f"attempted {result['attempted']} failed {result['failed']}",
              flush=True)
        for name, m in result["metrics"].items():
            values[name].append(m["value"])

    for m in declared:
        v = values[m["name"]]
        if len(v) < 2:
            continue
        q1, med, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        bound = m["bound"]
        flag = f"bound {bound}" + ("  OK" if spread < bound / 3 else
                                   "  within bound" if spread < bound else "  OVER")
        print(f"{m['name']:<44} median {med:12.6g}  spread {spread:7.4f}  {flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
