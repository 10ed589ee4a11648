#!/usr/bin/env python3
"""Runs the benchmark repeatedly and prints each metric's median and quartiles.

    python3 perfbench/spread.py                  # 10 seeds, every workload
    python3 perfbench/spread.py --first-seed 101 # a second, independent set
    python3 perfbench/spread.py --trace          # traced runs as well

Every workload of BENCHMARK.json runs RUNS times for its run_seconds, each
run with its own seed (first-seed, first-seed + 1, ...). For every metric
the table gives the median, the first and third quartiles as
statistics.quantiles(values, n=4) computes them, and the spread
(q3 - q1) / median, which is what the bounds in BENCHMARK.json are set
against. With --trace the traced runs (same seeds) follow, and the tracing
overhead is 1 - median(trace.qps) / median(qps). Run from the root of a
checkout.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUNS = 10


def run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "1" if trace else "0"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: run.py exited "
                         f"{proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def table(workload, results, bounds):
    print(f"\n{workload}: {len(results)} runs, correct in "
          f"{sum(r['correct'] for r in results)}, failed/attempted "
          + " ".join(f"{r['failed']}/{r['attempted']}" for r in results))
    print(f"  {'metric':40s} {'unit':6s} {'median':>12s} {'q1':>12s} "
          f"{'q3':>12s} {'spread':>7s} {'bound':>6s}")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        unit = results[0]["metrics"][name]["unit"]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        print(f"  {name:40s} {unit:6s} {med:12.6g} {q1:12.6g} {q3:12.6g} "
              f"{spread:7.3f} {'' if bound is None else f'{bound:6.2f}'}")
    return {name: statistics.median(r["metrics"][name]["value"]
                                    for r in results)
            for name in results[0]["metrics"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", action="store_true",
                        help="traced runs as well, and the tracing overhead")
    args = parser.parse_args()
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = range(args.first_seed, args.first_seed + RUNS)
    for workload in (w["name"] for w in spec["workloads"]):
        plain = table(workload, [run(workload, s, seconds, False)
                                 for s in seeds], bounds)
        if args.trace:
            traced = table(workload + " (traced)",
                           [run(workload, s, seconds, True) for s in seeds],
                           {})
            overhead = 1 - traced["trace.qps"] / plain["qps"]
            print(f"  tracing overhead on qps: {100 * overhead:.1f}%")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
