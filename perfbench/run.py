#!/usr/bin/env python3
"""Repository benchmark entry point: builds the harness from source, runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Configures and builds the simulator libraries and the benchmark harness
(Release) under .bench_build/ at the root of the checkout, then runs
`perfbench` (--trace 0) or `perfbench_traced` (--trace 1). The harness's
report passes through unchanged; its last line is the result JSON. Build
output goes to stderr. Exits non-zero, printing no result, when the build or
the run fails. See perfbench/README.md.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORK = os.path.join(ROOT, ".bench_build", "work")
WORKLOADS = ("campaign_dense", "fuzz_sparse_monitor", "sim_radix64")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr,
            timeout=BUILD_TIMEOUT_S)
    subprocess.run(
        ["cmake", "--build", BUILD, "-j", jobs,
         "--target", "perfbench", "perfbench_traced"],
        check=True, stdout=sys.stderr, stderr=sys.stderr,
        timeout=BUILD_TIMEOUT_S)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    a = p.parse_args()
    if a.seed < 0 or a.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    try:
        build()
    except (OSError, subprocess.SubprocessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2
    binary = os.path.join(BUILD, "perfbench_traced" if a.trace else "perfbench")
    cmd = [binary, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace),
           "--work-dir", WORK]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except (OSError, subprocess.SubprocessError) as e:
        print(f"perfbench: run failed: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
