#!/usr/bin/env python3
"""Steadiness check of the end-to-end benchmark.

    python3 perfbench/steady.py --workload serve-ipc --runs 10 --sets 2

runs perfbench/run.py --runs times per set, with seeds 1..runs (the same
seeds in both sets) and BENCHMARK.json's run_seconds, and prints each
end-to-end metric's median, quartiles and spread (the distance between the
quartiles as a share of the median, from statistics.quantiles(n=4)).
It exits 1 when, for any metric but setup_s, a set's spread exceeds the
metric's bound in BENCHMARK.json; when the second set's median is worse
than the first's by more than the bound (setup_s included); or when the
sets' shares of failed operations differ. --workload all runs every
workload in turn.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds)]
    done = subprocess.run(command, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        tail = "\n".join(done.stderr.strip().splitlines()[-10:])
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}:"
                           f"\n{tail}")
    return json.loads(lines[-1])


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else float("inf")


def check_workload(workload, spec, args):
    sets = []
    for s in range(args.sets):
        results = []
        for i in range(args.runs):
            seed = i + 1
            results.append(run_once(workload, seed, spec["run_seconds"]))
            print(f"  set {s + 1} run {i + 1:2d} seed {seed}: " + "  ".join(
                f"{k}={v['value']:.5g}"
                for k, v in results[-1]["metrics"].items()), flush=True)
        sets.append(results)
    ok = True
    print(f"{workload}: {args.runs} runs x {args.sets} set(s)")
    print(f"  {'metric':18s} {'set':>3s} {'median':>12s} {'q1':>12s} "
          f"{'q3':>12s} {'spread':>7s} {'bound':>6s}")
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        medians = []
        for s, results in enumerate(sets):
            q1, q2, q3, spread = summarize(
                [r["metrics"][name]["value"] for r in results])
            medians.append(q2)
            flag = ""
            if name != "setup_s" and spread > bound:
                flag, ok = "  SPREAD OVER BOUND", False
            elif spread > bound / 3:
                flag = "  (over a third of the bound)"
            print(f"  {name:18s} {s + 1:3d} {q2:12.5g} {q1:12.5g} {q3:12.5g}"
                  f" {spread:7.3f} {bound:6.2f}{flag}")
        if len(medians) == 2:
            lower = metric["better"] == "lower"
            worse = (medians[1] - medians[0]) / medians[0]
            worse = worse if lower else -worse
            if worse > bound:
                print(f"  {name}: second median worse by {worse:.3f} > {bound}")
                ok = False
    shares = []
    for results in sets:
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        shares.append((failed, attempted))
        if not all(r["correct"] for r in results):
            print("  a run reported correct = false")
            ok = False
    if len({f / a for f, a in shares}) > 1:
        print(f"  failed shares differ between sets: {shares}")
        ok = False
    print(f"  failed/attempted per set: {shares}")
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, choices=[1, 2], default=2)
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2")
    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    workloads = names if args.workload == "all" else [args.workload]
    if any(w not in names for w in workloads):
        parser.error(f"--workload must be one of {names} or all")
    ok = True
    for workload in workloads:
        ok = check_workload(workload, spec, args) and ok
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
