#!/usr/bin/env python3
"""Build and run the end-to-end SiEVE benchmark.

Run from the repository root:

  python3 e2ebench/run.py --workload live_fleet --seed 1 --seconds 10 --trace 0
  python3 e2ebench/run.py --workload all --seed 1 --seconds 10 --trace 0
  python3 e2ebench/run.py --self-test

The benchmark binary is built from source into .bench_build/e2ebench (CMake,
Release) on first use and rebuilt incrementally afterwards; build output goes
to stderr. The last line of stdout is the benchmark's JSON result. The exit
code is nonzero if the build fails or any correctness check fails.
"""
import argparse
import fcntl
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")
WORKLOADS = ["live_fleet", "archive_replay", "query_mix"]
RUN_TIMEOUT_S = 175


def build(targets):
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        stamp = os.path.join(BUILD, ".configured")
        if not os.path.exists(stamp):
            configure = ["cmake", "-S", HERE, "-B", BUILD,
                         "-DCMAKE_BUILD_TYPE=Release"]
            if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
                return False
            open(stamp, "w").close()
        for target in targets:
            cmd = ["cmake", "--build", BUILD, "--target", target, "-j", jobs]
            if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
                return False
    return True


def run_one(args, workload):
    cmd = [os.path.join(BUILD, "e2ebench"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"e2ebench: {workload} exceeded {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 124


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the tests of the helpers")
    args = parser.parse_args()
    if args.self_test:
        if not build(["e2ebench_helpers_test"]):
            return 2
        test = os.path.join(BUILD, "e2ebench_helpers_test")
        return subprocess.run([test]).returncode
    if args.workload is None:
        parser.error("--workload is required")
    if not build(["e2ebench"]):
        print("e2ebench: build failed", file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    status = 0
    for workload in workloads:
        sys.stdout.flush()
        code = run_one(args, workload)
        status = status or code
    return status


if __name__ == "__main__":
    sys.exit(main())
