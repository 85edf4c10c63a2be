#!/usr/bin/env python3
"""The repository benchmark: build the benchmark from source, run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The benchmark program and the primsel
library it links are built with CMake into .bench_build/perfbench
(Release); the first run builds, later runs only check that the build is
current. The program's
human-readable report goes to standard output, and its last line is one
JSON object with the keys correct, attempted, failed and metrics. Traced
runs (--trace 1) also write their spans to
.bench_build/perfbench/trace-<workload>-<seed>.jsonl.

See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BUILD_TIMEOUT_S = 880
RUN_TIMEOUT_S = 175


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(target):
    """Configure (once) and build \\p target; False on any failure."""
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", target, "-j", jobs])
    for cmd in steps:
        try:
            res = subprocess.run(cmd, stdout=subprocess.PIPE,
                                 stderr=subprocess.STDOUT,
                                 timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as err:
            log("perfbench: build step failed: %s" % err)
            return False
        if res.returncode != 0:
            log(res.stdout.decode(errors="replace")[-4000:])
            log("perfbench: build failed (%s)" % " ".join(cmd[:2]))
            return False
    return True


def commit_id():
    """The commit under test when the checkout is a git work tree."""
    try:
        res = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12",
                              "HEAD"], stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    out = res.stdout.decode().strip()
    return out if res.returncode == 0 and out else "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()

    if args.self_test:
        if not build("perfbench_selftest"):
            return 1
        return subprocess.run([os.path.join(BUILD, "perfbench_selftest")],
                              timeout=RUN_TIMEOUT_S).returncode

    if not args.workload:
        ap.error("--workload is required")
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        ap.error("--seed must be >= 0 and --seconds in [1, 60]")
    if not build("perfbench"):
        return 1

    cmd = [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--commit", commit_id()]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            BUILD, "trace-%s-%d.jsonl" % (args.workload, args.seed))]
    try:
        res = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
        return 1
    out = res.stdout.decode(errors="replace")
    sys.stdout.write(out)
    try:
        json.loads(out.rstrip("\n").split("\n")[-1])
    except ValueError:
        log("perfbench: the last line of the report is not JSON")
        return res.returncode or 1
    if res.returncode != 0:
        log("perfbench: workload failed (exit %d)" % res.returncode)
    return res.returncode


if __name__ == "__main__":
    sys.exit(main())
