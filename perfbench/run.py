#!/usr/bin/env python3
"""Repository benchmark runner.

Builds the benchmark executable from source with dune, runs one workload
and prints the executable's output, whose last line is the JSON result:

    python3 perfbench/run.py --workload supremacy_seq --seed 1 --seconds 15 --trace 0

Run it from the root of the repository.  Other modes:

    --selftest          toy-size instance of every workload, untraced and
                        traced, with all correctness, fidelity and
                        determinism checks; takes seconds
    --spread N          N runs of --workload on seeds --seed .. --seed+N-1;
                        prints each end-to-end metric's median and
                        interquartile range as a share of the median
    --paper             every workload once on --seed; writes the paper's
                        Fig. 9 and Table II comparisons to
                        perfbench/paper_rows.json
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TARGET = "./perfbench/perfbench.exe"
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "perfbench.exe")
WORKLOADS = ["supremacy_seq", "supremacy_maxsize", "shor_kops", "shor_construct"]
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    for needed in ("dune-project", "lib", "perfbench/dune"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("%s not found: run from a checkout of the repository" % needed, 2)
    # The shared dune cache lives outside the checkout; keep the build inside.
    command = ["dune", "build", "--root", ".", "--cache=disabled", TARGET]
    try:
        done = subprocess.run(command, cwd=ROOT, stdout=sys.stderr, timeout=880)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if done.returncode != 0:
        fail("build failed (dune exit %d)" % done.returncode)


def run_one(workload, seed, seconds, trace, toy=False, echo=True):
    """Runs the executable once; returns the parsed result of its last line."""
    command = [EXE, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--out", os.path.join(ROOT, "perfbench", "out")]
    if toy:
        command.append("--toy")
    try:
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s seed %d did not finish within %d s" % (workload, seed, RUN_TIMEOUT_S))
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        if echo:
            print("\n".join(lines), file=sys.stderr)
        fail("%s seed %d exited with %d" % (workload, seed, done.returncode))
    result = json.loads(lines[-1])
    if set(result) != RESULT_KEYS:
        fail("malformed result line: " + lines[-1])
    if echo:
        print("\n".join(lines))
    return result


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def selftest():
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            result = run_one(workload, 1, 1, trace, toy=True, echo=False)
            good = result["correct"] and result["failed"] == 0
            ok = ok and good
            print("%-18s trace=%d %s attempted=%d" % (
                workload, trace, "ok" if good else "FAILED", result["attempted"]))
    return 0 if ok else 1


def spread_runs(workload, first_seed, runs, seconds):
    values = {}
    for seed in range(first_seed, first_seed + runs):
        result = run_one(workload, seed, seconds, 0, echo=False)
        if not result["correct"]:
            fail("%s seed %d failed its checks" % (workload, seed))
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print("seed %d: %s" % (seed, " ".join(
            "%s=%.6g" % (n, m["value"]) for n, m in result["metrics"].items())),
            flush=True)
    for name, vs in values.items():
        print("%-14s median %.6g spread %.4f over %d runs" % (
            name, statistics.median(vs), spread(vs), len(vs)))
    return 0


def paper(seed, seconds):
    sim = {}
    for workload in WORKLOADS:
        result = run_one(workload, seed, seconds, 0, echo=False)
        if not result["correct"]:
            fail("%s failed its checks" % workload)
        sim[workload] = result["metrics"]["sim_s"]["value"]
    rows = {
        "seed": seed,
        "seconds": seconds,
        "sim_s": sim,
        "fig9_sequential_over_maxsize":
            sim["supremacy_seq"] / sim["supremacy_maxsize"],
        "table2_kops_over_construct":
            sim["shor_kops"] / sim["shor_construct"],
    }
    with open(os.path.join(ROOT, "perfbench", "paper_rows.json"), "w") as f:
        json.dump(rows, f, indent=2)
        f.write("\n")
    print(json.dumps(rows, indent=2))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true")
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--spread", type=int, metavar="N")
    parser.add_argument("--paper", action="store_true")
    args = parser.parse_args()
    build()
    if args.selftest:
        return selftest()
    if args.paper:
        return paper(args.seed, args.seconds)
    if args.workload is None:
        parser.error("--workload is required")
    if args.spread:
        return spread_runs(args.workload, args.seed, args.spread, args.seconds)
    run_one(args.workload, args.seed, args.seconds, args.trace, toy=args.toy)
    return 0


if __name__ == "__main__":
    sys.exit(main())
