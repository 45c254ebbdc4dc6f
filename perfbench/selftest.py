#!/usr/bin/env python3
"""Steadiness self-test of the benchmark.

    python3 perfbench/selftest.py [--workloads a,b] [--seeds 5] [--seconds S]

Run from the root of a checkout. For each workload it

  * runs --trace 0 on --seeds different seeds and fails when an end-to-end
    metric's quartile spread, (Q3 - Q1) / median over the runs with
    statistics.quantiles(values, n=4), exceeds that metric's bound in
    BENCHMARK.json;
  * reruns the first seed and fails when any value of the run's
    {"deterministic": ...} line changed (f1, shd, peak_resident_bytes and
    the exact counters);
  * runs --trace 1 twice on the first seed and fails when an exact
    per-layer count changed;
  * fails when any run reports a failed job or an incorrect result.

Seeds vary between runs, as they do when the benchmark is judged, so the
spread covers both machine noise and the inputs' own variation.
Exit status 0 when every check passes, 1 otherwise.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
        deterministic = json.loads(lines[-2])["deterministic"]
    except (IndexError, ValueError, KeyError):
        return None, None, "run.py exited %d without a result" % proc.returncode
    if proc.returncode != 0 or not result["correct"] or result["failed"]:
        return result, deterministic, (
            "incorrect run (exit %d, %d of %d jobs failed)"
            % (proc.returncode, result["failed"], result["attempted"]))
    return result, deterministic, None


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else 0.0


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    with open(os.path.join(HERE, "workloads.json"), encoding="utf-8") as f:
        exact = set(json.load(f)["exact_metrics"])
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", type=int, default=5)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args()
    if args.seeds < 2:
        parser.error("--seeds must be at least 2")

    problems = []
    for workload in args.workloads.split(","):
        values = {m["name"]: [] for m in spec["end_to_end"]}
        first_det = None  # of seed 1000 itself, None when that run failed
        for i in range(args.seeds):
            result, det, error = run(workload, 1000 + i, args.seconds, 0)
            if error:
                problems.append("%s seed %d: %s" % (workload, 1000 + i, error))
            if result is None:
                continue
            if i == 0:
                first_det = det
            for name in values:
                values[name].append(result["metrics"][name]["value"])
        for m in spec["end_to_end"]:
            v = values[m["name"]]
            if len(v) < 2:
                continue
            s = spread(v)
            verdict = "ok" if s <= m["bound"] else "TOO NOISY"
            print("%-14s %-20s median %-12.6g spread %.4f bound %.2f %s"
                  % (workload, m["name"], statistics.median(v), s,
                     m["bound"], verdict))
            if verdict != "ok":
                problems.append("%s %s spread %.4f exceeds bound %.2f"
                                % (workload, m["name"], s, m["bound"]))

        _, det, error = run(workload, 1000, args.seconds, 0)
        if error:
            problems.append("%s rerun: %s" % (workload, error))
        elif first_det is not None and det != first_det:
            problems.append("%s: deterministic values changed on rerun: %s "
                            "then %s" % (workload, first_det, det))

        traced = []
        for _ in range(2):
            result, _, error = run(workload, 1000, args.seconds, 1)
            if error:
                problems.append("%s traced: %s" % (workload, error))
            if result is not None:
                traced.append({k: v["value"]
                               for k, v in result["metrics"].items()
                               if k in exact})
        if len(traced) == 2 and traced[0] != traced[1]:
            problems.append("%s: exact per-layer counts changed: %s then %s"
                            % (workload, traced[0], traced[1]))

    for p in problems:
        print("FAIL: " + p)
    print("selftest: %s" % ("FAILED" if problems else "passed"))
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
