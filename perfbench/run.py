#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

The executable's standard output passes through unchanged; its last
line is the result object. Build output goes to standard error. The
build lives in .bench_build/dune; durability scratch files and trace
spans live in .bench_build/perfbench.
"""

import argparse
import os
import subprocess
import sys

BUILD_DIR = os.path.join(".bench_build", "dune")
WORK_DIR = os.path.join(".bench_build", "perfbench")
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "perfbench.exe")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build():
    for needed in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(needed):
            print(f"perfbench: {needed} not found; run from the repository root",
                  file=sys.stderr)
            sys.exit(2)
    # dune creates the build directory itself, but not its parent
    os.makedirs(os.path.dirname(BUILD_DIR), exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "--build-dir", os.path.abspath(BUILD_DIR),
           "--display", "quiet", "-j", "2", "./perfbench/perfbench.exe"]
    try:
        r = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        sys.exit(2)
    if r.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        sys.exit(2)


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true")
    a = p.parse_args()
    if not a.selftest and not a.workload:
        p.error("--workload is required")
    build()
    if a.selftest:
        args = ["selftest"]
    else:
        args = ["--workload", a.workload, "--seed", str(a.seed),
                "--seconds", str(a.seconds), "--trace", str(a.trace),
                "--nproc", str(len(os.sched_getaffinity(0))), "--work", WORK_DIR]
    sys.stdout.flush()
    try:
        r = subprocess.run([EXE] + args, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        sys.exit(3)
    sys.exit(r.returncode)


if __name__ == "__main__":
    main()
