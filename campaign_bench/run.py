#!/usr/bin/env python3
"""Campaign benchmark: build the benchmark program from source, run one workload, and
print one JSON result line.

    python3 campaign_bench/run.py --workload db-window --seed 1 --seconds 10 --trace 0

--trace 0 prints the end-to-end metrics; --trace 1 runs the separate traced
run and prints the per-layer metrics. Run from the repository root; the
build goes to .bench_build/. See campaign_bench/NOTES.md for the workloads
and metrics.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

WORKLOADS = ("db-window", "pidgin-entry", "pidgin-explore")
# Extra set-up-only processes per untraced run; setup_s is the median of
# these and the measuring process's own set-up.
SETUP_REPEATS = 10
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "campaign_bench")


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(1)


def run_logged(cmd, timeout):
    """Run a build step with its output on stderr; stdout stays clean."""
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout, check=False)
    except (OSError, subprocess.TimeoutExpired) as err:
        fail("%s: %s" % (cmd[0], err))
    if done.returncode != 0:
        fail("build step failed: " + " ".join(cmd))


def build():
    if not os.path.isdir(os.path.join(ROOT, "src")):
        fail("LFI sources (src/) not found next to %s" % BENCH_DIR)
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja") is not None:
            cmd += ["-G", "Ninja"]
        run_logged(cmd, 300)
    jobs = str(min(4, os.cpu_count() or 1))
    run_logged(["cmake", "--build", BUILD_DIR, "-j", jobs], 840)


def invoke(args, mode, extra=()):
    """One benchmark process; returns its parsed JSON result line."""
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--mode", mode] + list(extra)
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              timeout=150, check=False, text=True)
    except (OSError, subprocess.TimeoutExpired) as err:
        fail("%s run: %s" % (mode, err))
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail("%s run exited %d" % (mode, done.returncode))
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    build()
    if args.trace:
        traces = os.path.join(BUILD_DIR, "traces")
        os.makedirs(traces, exist_ok=True)
        span_log = os.path.join(traces, "%s-%d.tsv" % (args.workload, args.seed))
        result = invoke(args, "trace", ["--trace-out", span_log])
    else:
        setups = [invoke(args, "setup")["metrics"]["setup_s"]["value"]
                  for _ in range(SETUP_REPEATS)]
        result = invoke(args, "measure")
        setups.append(result["metrics"]["setup_s"]["value"])
        result["metrics"]["setup_s"]["value"] = statistics.median(setups)
        attempted = result["attempted"]
        print("run.py: %s seed %d: error_rate %.6g (failed %d of %d)"
              % (args.workload, args.seed,
                 result["failed"] / attempted if attempted else 0,
                 result["failed"], attempted), file=sys.stderr)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
