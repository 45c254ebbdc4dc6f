#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first run configures and builds
perfbench/ (the library from src/ plus the benchmark program in
perfbench/src) into .bench_build/perfbench; later runs reuse that build.
Build output goes to stderr.

Standard output: the program's notes, then one line {"env": ...} (the
machine and build), one line {"deterministic": ...} (values that must
repeat exactly for a seed) and, last, the result line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

whose metrics are the end_to_end metrics of BENCHMARK.json with --trace 0
and its per_layer metrics with --trace 1. A per-layer metric that does not
apply to the workload (say, fetch.count where nothing is fetched over
HTTP) reads 0 and is listed in a note.

Exit status: 0 when every job passed its correctness check, 1 when a check
failed (the result line still prints), 2 when nothing could be measured
(no source tree, failed build, crashed program; no result line).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
PROGRAM_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def load_json(path):
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (path, e))


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "least.h")):
        fail("no library sources under %s/src" % ROOT)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            fail("cmake configure failed")
    # Three jobs at most: the machine may be shared.
    if subprocess.run(["cmake", "--build", BUILD, "-j", "3"],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    details = load_json(os.path.join(HERE, "workloads.json"))
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload %r" % args.workload)
    build()

    command = [os.path.join(BUILD, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--work-dir", os.path.join(BUILD, "work"),
               "--trace-out", os.path.join(BUILD, "traces")]
    try:
        proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=PROGRAM_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("perfbench timed out after %d s" % PROGRAM_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    try:
        raw = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("perfbench exited %d without a result" % proc.returncode)
    for line in lines[:-1]:
        print(line)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    measured = raw["metrics"]
    metrics = {}
    not_applicable = []
    for m in wanted:
        if m["name"] in measured:
            value = measured[m["name"]]["value"]
        elif args.trace:
            value = 0
            not_applicable.append(m["name"])
        else:
            fail("perfbench did not report %s" % m["name"])
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    if not_applicable:
        print("not applicable to %s (reported as 0): %s"
              % (args.workload, ", ".join(not_applicable)))

    deterministic = {name: measured[name]["value"]
                     for name in details["exact_metrics"] if name in measured}
    print(json.dumps({"env": raw["env"]}))
    print(json.dumps({"deterministic": deterministic}, sort_keys=True))
    print(json.dumps({"correct": raw["correct"], "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}))
    sys.stdout.flush()
    sys.exit(0 if proc.returncode == 0 and raw["correct"] else 1)


if __name__ == "__main__":
    main()
