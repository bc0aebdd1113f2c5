#!/usr/bin/env python3
"""Small-scale self-test of the end-to-end benchmark.

    python3 perfbench/selftest.py

Builds the benchmark, makes a 100k-node store (perfbench/.cache/selftest),
checks that the tracing decorators change no estimate (store crawl and
traffic engine, with and without the per-session transports), then runs
every workload for one second, untraced and traced, with 50 traffic
tenants, and checks each result: correct, no failed operation, and exactly
the metrics and units BENCHMARK.json names. Exits 1 on any failure.
"""

import json
import os
import subprocess
import sys

import run as bench

SEED = 7
NODES = 100_000


def main():
    if not bench.build():
        return 1
    inputs = bench.make_inputs(SEED, nodes=NODES,
                               final=os.path.join(bench.CACHE, "selftest"))
    if inputs is None:
        print("selftest: FAIL (input generation)")
        return 1
    os.makedirs(bench.OUT, exist_ok=True)
    load = os.path.join(bench.BUILD, "perfbench_load")
    common = [f"--seed={SEED}", f"--inputs={inputs}",
              f"--out-dir={bench.OUT}", "--tenants=50"]
    failures = []
    identity = subprocess.run([load, "identity"] + common)
    if identity.returncode != 0:
        failures.append("decorator identity")
    for workload in bench.WORKLOADS:
        for trace in (0, 1):
            name = f"{workload['name']} trace={trace}"
            done = subprocess.run(
                [load, "run", f"--workload={workload['name']}",
                 "--seconds=1", f"--trace={trace}",
                 f"--serverd={os.path.join(bench.BUILD, 'labelrw_serverd')}"]
                + common, stdout=subprocess.PIPE, text=True,
                timeout=bench.RUN_TIMEOUT)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                failures.append(f"{name}: exited {done.returncode}")
                continue
            result = json.loads(lines[-1])
            problems = bench.check_result(result, trace)
            if not result["correct"]:
                problems.append("correct is false")
            if result["failed"] != 0:
                problems.append(f"{result['failed']} failed operations")
            print(f"{name}: attempted {result['attempted']}, "
                  f"{'ok' if not problems else '; '.join(problems)}")
            failures += [f"{name}: {p}" for p in problems]
    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest: " + ("FAIL" if failures else "PASS"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
