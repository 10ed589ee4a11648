#!/usr/bin/env python3
"""The repo benchmark: one workload, one seed, one JSON line.

    python3 perfbench/run.py --workload fig3-mmap --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke        # every workload, small inputs

Run from the root of a checkout. The benchmark builds the repository's
library, `oasisd` and the benchmark program `oasis_bench` with CMake into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs its
`setup` phase (the set-up calls under test, repeated) and its `serve`
phase (the timed closed loop, then the correctness checks) as two
processes, and prints one JSON object as the last line of stdout:

    {"correct": ..., "attempted": N, "failed": M, "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
with --trace 1 they are its per-layer metrics. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

WORKLOADS = ("fig3-mmap", "fig7-pool", "fig9-daemon")
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(base), "perfbench")


def build(bdir):
    """Configures (once) and builds the benchmark program and the daemon."""
    if not os.path.isfile(os.path.join(ROOT, "src", "api", "engine.h")):
        raise RuntimeError("no OASIS sources next to perfbench/ "
                           "(expected src/api/engine.h)")
    os.makedirs(bdir, exist_ok=True)
    gen = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", bdir, *gen,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", bdir, "-j", "4",
                    "--target", "oasis_bench", "oasisd"],
                   check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    # The digests of deterministic counts are kept per build: the stamp
    # covers both programs whose output they fold (fig9's hit lines are
    # oasisd's).
    bench, oasisd = os.path.join(bdir, "oasis_bench"), os.path.join(bdir, "oasisd")
    digest = hashlib.sha256()
    for path in (bench, oasisd):
        with open(path, "rb") as f:
            digest.update(f.read())
    return bench, oasisd, digest.hexdigest()[:16]


def last_json(stdout):
    lines = [l for l in stdout.splitlines() if l.strip()]
    if not lines:
        raise RuntimeError("oasis_bench printed nothing")
    return json.loads(lines[-1])


def run_once(bench, oasisd, stamp, bdir, workload, seed, seconds, trace,
             smoke=False):
    """Runs set-up then serve for one workload; returns the merged result."""
    work = os.path.join(bdir, "work", f"{workload}-{seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    env = dict(os.environ, TMPDIR=work)
    common = ["--workload", workload, "--seed", str(seed),
              "--dir", os.path.join(work, "index"), "--oasisd", oasisd,
              "--trace", "1" if trace else "0"]
    if smoke:
        common.append("--smoke")
    deadline = time.monotonic() + RUN_TIMEOUT_S
    try:
        results = []
        for phase, extra in (("setup", []),
                             ("serve", ["--seconds", str(seconds),
                                        "--digests",
                                        os.path.join(bdir, "digests", stamp)])):
            proc = subprocess.run([bench, phase, *common, *extra], env=env,
                                  stdout=subprocess.PIPE, text=True,
                                  timeout=max(1, deadline - time.monotonic()))
            for line in proc.stdout.splitlines()[:-1]:
                log(line)
            if proc.returncode != 0:
                raise RuntimeError(f"{phase} exited {proc.returncode}")
            results.append(last_json(proc.stdout))
        if trace:
            # The trace file of the last traced run stays for inspection.
            spans = os.path.join(work, "index.spans.tsv")
            if os.path.exists(spans):
                shutil.copy(spans, os.path.join(bdir, f"spans-{workload}.tsv"))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    setup, serve = results
    return {"correct": bool(setup["correct"] and serve["correct"]),
            "attempted": int(serve["attempted"]),
            "failed": int(serve["failed"]),
            "metrics": {**setup["metrics"], **serve["metrics"]}}


def declared_metrics(trace):
    """Metric names BENCHMARK.json declares for this mode (None if absent)."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def select(result, trace):
    names = declared_metrics(trace)
    if names is None:
        return result
    missing = [n for n in names if n not in result["metrics"]]
    if missing:
        raise RuntimeError(f"metrics not produced: {missing}")
    result["metrics"] = {n: result["metrics"][n] for n in names}
    return result


def smoke(bench, oasisd, stamp, bdir):
    """Every workload, both modes, small inputs, every check."""
    ok = True
    for workload in WORKLOADS:
        for trace in (False, True):
            start = time.monotonic()
            result = select(run_once(bench, oasisd, stamp, bdir, workload, 1,
                                     1, trace, smoke=True), trace)
            good = result["correct"] and result["failed"] == 0 \
                and result["attempted"] > 0
            ok = ok and good
            log(f"smoke {workload} trace={int(trace)}: "
                f"{'ok' if good else 'FAILED'} "
                f"({result['attempted']} requests, "
                f"{time.monotonic() - start:.1f} s)")
    print(json.dumps({"smoke": "ok" if ok else "failed"}))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload on small inputs (the "
                             "benchmark's own test)")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        parser.error("--workload is required (or --smoke)")
    try:
        bdir = build_dir()
        bench, oasisd, stamp = build(bdir)
        if args.smoke:
            return smoke(bench, oasisd, stamp, bdir)
        result = run_once(bench, oasisd, stamp, bdir, args.workload,
                          args.seed, args.seconds, bool(args.trace))
        result = select(result, bool(args.trace))
    except (RuntimeError, subprocess.SubprocessError, OSError,
            ValueError) as err:
        log(f"perfbench: {err}")
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
