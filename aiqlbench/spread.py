#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 aiqlbench/spread.py --workload <name> [--runs 10] [--first-seed 1]

Runs the workload --runs times, each with its own seed, at BENCHMARK.json's
run_seconds, and prints per end-to-end metric the median and the spread
(third minus first quartile, statistics.quantiles(n=4), over the median)
next to the metric's bound. A spread above a third of the bound is marked
"wide", above the bound "OVER" (setup_s's spread is informational). Each
run's JSON result line is appended to --out when given.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    values = {}
    for i in range(args.runs):
        seed = args.first_seed + i
        start = time.monotonic()
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds",
             str(spec["run_seconds"]), "--trace", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            check=False)
        wall = time.monotonic() - start
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"seed {seed}: exit {done.returncode}", flush=True)
            return 1
        result = json.loads(lines[-1])
        if args.out:
            with open(args.out, "a", encoding="utf-8") as out:
                out.write(json.dumps({"workload": args.workload, "seed": seed,
                                      "wall_s": wall, **result}) + "\n")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: {wall:.1f} s, correct={result['correct']}",
              flush=True)

    status = 0
    for metric in spec["end_to_end"]:
        name = metric["name"]
        series = values[name]
        median = statistics.median(series)
        q1, _, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / median if median else float("inf")
        mark = ""
        if name != "setup_s" and spread > metric["bound"]:
            mark, status = "OVER", 1
        elif spread > metric["bound"] / 3:
            mark = "wide"
        print(f"{name:24s} median {median:12.5g} {metric['unit']:6s} "
              f"spread {spread:6.3f} bound {metric['bound']:.3f} {mark}")
    return status


if __name__ == "__main__":
    sys.exit(main())
