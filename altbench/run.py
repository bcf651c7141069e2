#!/usr/bin/env python3
"""Build the ALT benchmark from source and run one workload.

Run from the root of a checkout:

    python3 altbench/run.py --workload serve_tail --seed 1 --seconds 20 --trace 0

The build directory is $CARGO_TARGET_DIR when set, else .bench_build, both
relative to the current directory. Build output goes to stderr; the
benchmark's report and, as the last line of stdout, its JSON result go to
stdout. Exits non-zero, printing no result, when the build or the run fails.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("serve_tail", "serve_bulk", "onboard_tail")
HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    if not os.path.isfile(os.path.join(HERE, os.pardir, "src", "CMakeLists.txt")):
        print("altbench: no ALT sources next to the benchmark", file=sys.stderr)
        return False
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "--target", "altbench", "-j", "4"],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("altbench: build step failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build(build_dir):
        return 1
    cmd = [
        os.path.join(build_dir, "altbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--work-dir", os.path.join(build_dir, "work"),
    ]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
