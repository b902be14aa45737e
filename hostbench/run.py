#!/usr/bin/env python3
"""Build the host wall-clock benchmark from source and run one workload.

    python3 hostbench/run.py --workload coll_small --seed 1 --seconds 15 --trace 0

Run from the repository root. The first run configures and builds the
simulator libraries and the benchmark under .bench_build/hostbench (build
output goes to stderr); later runs only re-check the build. The
benchmark's last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. See hostbench/README.md.
"""
import argparse
import os
import subprocess
import sys

WORKLOADS = ("coll_small", "coll_large", "tune_fleet")
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "hostbench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("hostbench: the simulator sources (src/) are missing; "
                 "run from a full checkout of the repository")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "hostbench",
                  "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("hostbench: build step failed: " + " ".join(cmd))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    build()
    out_dir = os.path.join(BUILD, "out")
    cmd = [os.path.join(BUILD, "hostbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--golden", os.path.join(HERE, "golden.txt"),
           "--out-dir", out_dir]
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd, cwd=ROOT).returncode)


if __name__ == "__main__":
    main()
