#!/usr/bin/env python3
"""Benchmark of the FADE simulator and the faded daemon.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the benchmark on first use (CMake, Release, under
.bench_build/perfbench in the checkout), runs one workload for S
seconds and prints, as the last line of standard output, one JSON
object with the keys correct, attempted, failed and metrics.
BENCHMARK.json names the workloads and metrics. Exits nonzero, without
a result line, when the build, the run or its output check fails.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
# Relative to ROOT, the benchmark's working directory: it keeps the
# daemon's unix socket path short.
WORKDIR = os.path.join(".bench_build", "perfbench", "run")
WORKLOADS = ("spec_percycle", "spec_rungrain", "cmp_parallel", "daemon_mix")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 700


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def run_group(cmd, timeout, **kw):
    """Run cmd in its own process group; kill the whole group (the
    benchmark's faded children included) if it overruns."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("%s timed out after %d s" % (cmd[0], timeout))
    return proc.returncode, out


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        fail("no simulator sources next to perfbench/")
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "-j4", "--target", "perfbench"],
    ]
    for cmd in steps:
        rc, _ = run_group(cmd, BUILD_TIMEOUT_S, stdout=sys.stderr)
        if rc != 0:
            fail("build step failed: " + " ".join(cmd))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        fail("--seed must be >= 0 and --seconds in 1..60")

    build()
    os.makedirs(os.path.join(ROOT, WORKDIR), exist_ok=True)
    cmd = [os.path.join(BUILD, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", WORKDIR]
    rc, out = run_group(cmd, RUN_TIMEOUT_S, stdout=subprocess.PIPE,
                        text=True, cwd=ROOT)
    lines = out.rstrip("\n").split("\n") if out else []
    for line in lines[:-1]:
        print(line)
    if rc != 0 or not lines:
        fail("perfbench exited with code %d" % rc)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("malformed result line")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("malformed result line")
    print(lines[-1], flush=True)


if __name__ == "__main__":
    main()
