#!/usr/bin/env python3
"""Crash-testing benchmark for chipmunk.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads (see BENCHMARK.json for why each was chosen):
  ace-seq2          seeded stratified sample of ACE seq-2 on five clean configs
  ace-seq1-16m      full ACE seq-1 on all seven clean configs, 16 MiB device
  table1-detect     time to detect each seeded Table 1 bug
  fuzz-mt-campaign  two-thread fuzz campaigns on clean winefs with a store

The script builds the driver from source into .bench_build/ (the first run
configures and compiles; later runs only check it is up to date), then runs
the workload in a fresh driver process so that resource usage is its own.
`--trace 0` prints the end-to-end metrics; `--trace 1` runs a plain and a
traced pass over the same inputs and prints the per-layer metrics. The last
line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. Build output goes to standard error.

`--tiny` (a few inputs per config) and `--inject-bug <id>` (swap the config
hosting a seeded bug into a clean sweep) serve perfbench/selftest.py.
"""
import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORK_DIR = os.path.join(ROOT, ".bench_build", "work")
DRIVER = os.path.join(BUILD_DIR, "perfbench_driver")
PINS = os.path.join(BENCH_DIR, "pins.txt")
WORKLOADS = ("ace-seq2", "ace-seq1-16m", "table1-detect", "fuzz-mt-campaign")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("chipmunk sources (src/) not found next to perfbench/")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target",
                  "perfbench_driver", "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(step))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--inject-bug", type=int, default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    build()
    command = [DRIVER, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--pins", PINS, "--work-dir", WORK_DIR]
    if args.tiny:
        command.append("--tiny")
    if args.inject_bug:
        command += ["--inject-bug", str(args.inject_bug)]
    run = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    lines = run.stdout.splitlines()
    # A failed run prints no result: the driver's output goes to stderr.
    if run.returncode != 0 or not lines:
        sys.stderr.write(run.stdout)
        fail("driver exited with code %d" % run.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stderr.write(run.stdout)
        fail("driver printed no result")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("driver result has unexpected keys")
    sys.stdout.write(run.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
