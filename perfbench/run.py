#!/usr/bin/env python3
"""The end-to-end benchmark of the crawl path: one command, three workloads.

    python3 perfbench/run.py --workload crawl-store --seed 1 --seconds 20 --trace 0

builds the load generator and the tools it drives (perfbench/CMakeLists.txt,
into perfbench/.build), makes the inputs for the seed if they are not cached
(perfbench/.cache), runs the workload, prints every metric by name and unit,
and prints as its last line one JSON object with the keys correct,
attempted, failed and metrics. --trace 0 reports the end-to-end metrics,
--trace 1 the per-layer metrics of a traced re-run of the same estimates.

    python3 perfbench/run.py --describe          # the BENCHMARK.json text
    python3 perfbench/run.py --rebuild-inputs --seed 1

See perfbench/README.md for what each workload and metric is for.
"""

import argparse
import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
BUILD = os.path.join(HERE, ".build")
CACHE = os.path.join(HERE, ".cache")
OUT = os.path.join(HERE, ".out")

RUN_SECONDS = 20
# Seconds one load-generator run may take before it is stopped.
RUN_TIMEOUT = 170

# The synthetic store: a Barabasi-Albert graph of 1M nodes and ~8M edges
# with one label per node, uniform in 1..16, split into 4 shards for the
# daemon. Target (1, 2) covers 2/256 of the edges.
STORE_NODES = 1_000_000
STORE_ATTACH = 8
STORE_LABEL_CLASSES = 16
STORE_SHARDS = 4
# Seeds whose inputs stay cached (each takes ~170 MB on disk).
CACHED_SEEDS = 4

WORKLOADS = [
    {"name": "crawl-store",
     "why": "one thread, fresh OsnClient per estimate over the mmap'd "
            "1M-node store: row reads and per-session client set-up "
            "dominate, as in labelrw_cli estimate --store"},
    {"name": "serve-ipc",
     "why": "the same estimates over IpcTransport from two client threads "
            "to labelrw_serverd with two workers: the shm round trip and "
            "worker wake-ups dominate"},
    {"name": "traffic-shared-key",
     "why": "TrafficEngine cells of 250 tenants on one strict shared key "
            "with 32 slots over an in-cache analog graph: event loop and "
            "limiter dominate, no store"},
]
STORE_WORKLOADS = {"crawl-store", "serve-ipc"}

END_TO_END = [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "estimates_per_s", "unit": "1/s", "better": "higher",
     "bound": 0.25},
    {"name": "estimate_p50_ms", "unit": "ms", "better": "lower",
     "bound": 0.25},
    {"name": "api_calls_per_s", "unit": "1/s", "better": "higher",
     "bound": 0.25},
    {"name": "nrmse", "unit": "ratio", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MiB", "better": "lower", "bound": 0.1},
]

PER_LAYER = [
    ("store.open_ms", "ms", "lower"),
    ("store.fetch_ns", "ns", "lower"),
    ("store.fetches_per_estimate", "count", "lower"),
    ("osn.client_open_us", "us", "lower"),
    ("osn.client_self_ns", "ns", "lower"),
    ("osn.requests_per_estimate", "count", "lower"),
    ("osn.wire_fetches_per_request", "ratio", "lower"),
    ("osn.charged_calls_per_estimate", "count", "lower"),
    ("estimators.self_ns_per_iteration", "ns", "lower"),
    ("estimators.iterations_per_estimate", "count", "higher"),
    ("server.connect_us", "us", "lower"),
    ("server.fetch_us_p50", "us", "lower"),
    ("server.fetch_us_p99", "us", "lower"),
    ("server.daemon_cpu_us_per_fetch", "us", "lower"),
    ("server.daemon_ready_ms", "ms", "lower"),
    ("server.daemon_rss_mb", "MiB", "lower"),
    ("server.reconnects", "count", "lower"),
    ("traffic.events", "count", "lower"),
    ("traffic.events_per_call", "ratio", "lower"),
    ("traffic.rate_limited", "count", "lower"),
    ("traffic.event_ns", "ns", "lower"),
    ("traffic.transport_share", "ratio", "lower"),
    ("traffic.queue_peak", "count", "lower"),
    ("trace.overhead", "ratio", "lower"),
]


def describe():
    """The BENCHMARK.json description, derived from the tables above."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": WORKLOADS,
        "end_to_end": END_TO_END,
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b in PER_LAYER],
    }


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build():
    """Configures and builds the benchmark package; False on failure."""
    jobs = str(os.cpu_count() or 1)
    for step in (["cmake", "-S", HERE, "-B", BUILD,
                  "-DCMAKE_BUILD_TYPE=Release"],
                 ["cmake", "--build", BUILD, "-j", jobs]):
        done = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            log("build failed: " + " ".join(step))
            return False
    return True


def store_format_version():
    with open(os.path.join(REPO, "src", "store", "format.h")) as f:
        match = re.search(r"kStoreFormatVersion\s*=\s*(\d+)", f.read())
    return match.group(1) if match else "unknown"


def inputs_dir(seed):
    return os.path.join(CACHE, f"store-v{store_format_version()}",
                        f"seed-{seed}")


def make_inputs(seed, rebuild=False, nodes=STORE_NODES, final=None):
    """The seed's store and shards of `nodes` nodes, generated with
    graphstore_cli into `final` (by default the seed's cache directory)
    unless already there. Generation is outside every metric."""
    cached = final is None
    if cached:
        final = inputs_dir(seed)
    if rebuild and os.path.isdir(final):
        shutil.rmtree(final)
    if os.path.exists(os.path.join(final, "shards.manifest")):
        os.utime(final)
        return final
    tmp = final + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    tool = os.path.join(BUILD, "graphstore_cli")
    for step in (
        [tool, "synth", f"--nodes={nodes}", f"--attach={STORE_ATTACH}",
         f"--seed={seed}", f"--label-classes={STORE_LABEL_CLASSES}",
         f"--out={tmp}/store.lgs"],
        [tool, "shard", f"--store={tmp}/store.lgs", f"--out={tmp}/shards",
         f"--shards={STORE_SHARDS}"],
    ):
        done = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            shutil.rmtree(tmp, ignore_errors=True)
            return None
    # Write the new files out now, so their write-back does not overlap the
    # measured run that follows.
    for name in os.listdir(tmp):
        fd = os.open(os.path.join(tmp, name), os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)
    os.rename(tmp, final)
    if not cached:
        return final
    # Keep the disk footprint bounded: drop the least recently used seeds.
    parent = os.path.dirname(final)
    seeds = sorted((os.path.join(parent, d) for d in os.listdir(parent)
                    if d.startswith("seed-") and not d.endswith(".tmp")),
                   key=os.path.getmtime)
    for old in seeds[:-CACHED_SEEDS]:
        shutil.rmtree(old, ignore_errors=True)
    return final


def check_result(result, trace):
    """Problems with the shape of the load generator's result."""
    expected = ({n: u for n, u, _ in PER_LAYER} if trace else
                {m["name"]: m["unit"] for m in END_TO_END})
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("unexpected result keys")
        return problems
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        problems.append("metric names differ from the benchmark's: " +
                        ", ".join(sorted(set(metrics) ^ set(expected))))
    for name, unit in expected.items():
        if name in metrics and metrics[name].get("unit") != unit:
            problems.append(f"{name} is reported in {metrics[name].get('unit')}"
                            f", not {unit}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("no operation attempted")
    if not trace:
        for name, m in metrics.items():
            if not m["value"] > 0:
                problems.append(f"{name} reads {m['value']}")
    return problems


def run(args):
    if not build():
        return 1
    inputs = os.path.join(CACHE, "none")
    if args.workload in STORE_WORKLOADS:
        inputs = make_inputs(args.seed)
        if inputs is None:
            log("input generation failed")
            return 1
    os.makedirs(OUT, exist_ok=True)
    command = [os.path.join(BUILD, "perfbench_load"), "run",
               f"--workload={args.workload}", f"--seed={args.seed}",
               f"--seconds={args.seconds}", f"--trace={args.trace}",
               f"--inputs={inputs}",
               f"--serverd={os.path.join(BUILD, 'labelrw_serverd')}",
               f"--out-dir={OUT}"]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT)
    except subprocess.TimeoutExpired:
        log(f"{args.workload} did not finish within {RUN_TIMEOUT} s")
        return 1
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        log(f"load generator exited with {done.returncode}")
        return 1
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log("the load generator's last line is not JSON")
        return 1
    problems = check_result(result, args.trace)
    for problem in problems:
        log(problem)
    if problems:
        return 1
    print(f"{args.workload}  seed {args.seed}  "
          f"{'traced' if args.trace else 'untraced'}  correct "
          f"{str(result['correct']).lower()}  attempted {result['attempted']}"
          f"  failed {result['failed']}")
    for name, m in result["metrics"].items():
        print(f"  {name:38s} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps(result), flush=True)
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=[w["name"] for w in WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--describe", action="store_true",
                        help="print the BENCHMARK.json description")
    parser.add_argument("--rebuild-inputs", action="store_true",
                        help="regenerate the seed's cached inputs")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.describe:
        print(json.dumps(describe(), indent=2))
        return 0
    if args.rebuild_inputs:
        if not build():
            return 1
        return 0 if make_inputs(args.seed, rebuild=True) else 1
    if args.workload is None:
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
