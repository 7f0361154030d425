#!/usr/bin/env python3
"""Self-test of the benchmark on tiny inputs (a few workloads per config).

Run from the root of a checkout:

    python3 perfbench/selftest.py

It checks that
  - every metric BENCHMARK.json names is printed with its unit, end-to-end
    metrics with --trace 0 and per-layer metrics with --trace 1, on every
    workload, and that the correctness gates pass;
  - swapping a seeded-bug config into a clean sweep fails the gate, so the
    gate is not vacuous;
  - two invocations with the same seed print identical deterministic
    counters.
Exits 0 when every check passes.
"""
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN = os.path.join(BENCH_DIR, "run.py")
# novafs "file is unreadable and undeletable" (a PM bug): every novafs
# workload in either tiny sweep reports it or visits different crash states.
SWAP_BUG = 2

failures = []


def run(workload, seed, trace, *extra):
    command = [sys.executable, RUN, "--workload", workload, "--seed",
               str(seed), "--seconds", "1", "--trace", str(trace), "--tiny",
               *extra]
    out = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, text=True)
    lines = out.stdout.splitlines()
    if out.returncode != 0 or not lines:
        failures.append("%s: exit %d" % (" ".join(command[1:]), out.returncode))
        return None, []
    return json.loads(lines[-1]), lines


def check(condition, message):
    print(("ok    " if condition else "FAIL  ") + message)
    if not condition:
        failures.append(message)


def counters(lines):
    return [line for line in lines if line.startswith("counters:")]


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result, lines = run(workload, 3, trace)
            if result is None:
                continue
            check(result["correct"], "%s --trace %d: gates pass" % (workload, trace))
            metrics = result["metrics"]
            for metric in spec[key]:
                got = metrics.get(metric["name"])
                check(got is not None and got["unit"] == metric["unit"] and
                      isinstance(got["value"], (int, float)),
                      "%s --trace %d prints %s in %s" %
                      (workload, trace, metric["name"], metric["unit"]))
            if trace == 0:
                _, again = run(workload, 3, 0)
                check(counters(lines) and counters(lines) == counters(again),
                      "%s: same seed, same deterministic counters" % workload)

    result, _ = run("ace-seq1-16m", 3, 0, "--inject-bug", str(SWAP_BUG))
    check(result is not None and not result["correct"],
          "ace-seq1-16m with seeded bug %d swapped in fails its gate" % SWAP_BUG)
    result, _ = run("ace-seq2", 3, 0, "--inject-bug", str(SWAP_BUG))
    check(result is not None and not result["correct"],
          "ace-seq2 with seeded bug %d swapped in fails its gate" % SWAP_BUG)

    if failures:
        print("%d check(s) failed" % len(failures))
        sys.exit(1)
    print("all checks passed")


if __name__ == "__main__":
    main()
