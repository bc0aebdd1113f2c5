// perfbench_load: the load generator of the end-to-end benchmark.
//
//   perfbench_load run --workload=W --seed=N --seconds=S --trace=0|1
//                      --inputs=DIR --serverd=PATH --out-dir=DIR
//                      [--tenants=T]
//   perfbench_load identity --seed=N --inputs=DIR --out-dir=DIR
//                      [--tenants=T]
//
// `run` runs one workload and prints, as its last line, one JSON object:
// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
// perfbench/run.py builds this binary, makes the inputs, and calls it.
// `identity` checks that the tracing decorators change no estimate; it
// exits 1 on a mismatch.

#include <cmath>
#include <cstdio>
#include <string>

#include "util/flags.h"
#include "workloads.h"

namespace {

using perfbench::Outcome;
using perfbench::RunOptions;

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_load run --workload=W --seed=N --seconds=S "
               "--trace=0|1 --inputs=DIR --serverd=PATH --out-dir=DIR "
               "[--tenants=T]\n"
               "       perfbench_load identity --seed=N --inputs=DIR "
               "--out-dir=DIR [--tenants=T]\n");
  return 2;
}

bool ParseArgs(int argc, char** argv, RunOptions& o) {
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) {
      std::fprintf(stderr, "bad argument: %s\n", arg.c_str());
      return false;
    }
    const std::string name = arg.substr(0, eq);
    const std::string value = arg.substr(eq + 1);
    namespace flags = labelrw::flags;
    if (name == "--workload") {
      o.workload = value;
    } else if (name == "--seed") {
      o.seed = flags::ParseUintOrDie("--seed", value.c_str());
    } else if (name == "--seconds") {
      o.seconds =
          flags::ParseDoubleInRangeOrDie("--seconds", value.c_str(), 0.0, 3600);
    } else if (name == "--trace") {
      o.trace = flags::ParseIntAtLeastOrDie("--trace", value.c_str(), 0) != 0;
    } else if (name == "--inputs") {
      o.inputs = value;
    } else if (name == "--serverd") {
      o.serverd = value;
    } else if (name == "--out-dir") {
      o.out_dir = value;
    } else if (name == "--tenants") {
      o.tenants = flags::ParseIntAtLeastOrDie("--tenants", value.c_str(), 1);
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", name.c_str());
      return false;
    }
  }
  return true;
}

void PrintResult(const Outcome& out) {
  for (const std::string& problem : out.problems) {
    std::fprintf(stderr, "perfbench: %s\n", problem.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              out.correct ? "true" : "false",
              static_cast<long long>(out.attempted),
              static_cast<long long>(out.failed));
  for (size_t i = 0; i < out.metrics.size(); ++i) {
    const perfbench::Metric& m = out.metrics[i];
    // JSON has no NaN or infinity; a non-finite metric is reported as 0
    // and the run is marked incorrect by the caller.
    const double value = std::isfinite(m.value) ? m.value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), value, m.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  RunOptions o;
  if (!ParseArgs(argc, argv, o)) return Usage();
  if (command == "identity") {
    if (o.inputs.empty()) return Usage();
    const auto mismatches = perfbench::CheckDecoratorIdentity(o);
    for (const std::string& m : mismatches) {
      std::fprintf(stderr, "identity: %s\n", m.c_str());
    }
    std::printf("decorator identity: %s\n", mismatches.empty() ? "OK" : "FAIL");
    return mismatches.empty() ? 0 : 1;
  }
  if (command != "run" || o.inputs.empty() || o.out_dir.empty()) {
    return Usage();
  }
  Outcome out;
  if (o.workload == "crawl-store") {
    out = perfbench::RunCrawlStore(o);
  } else if (o.workload == "serve-ipc") {
    if (o.serverd.empty()) return Usage();
    out = perfbench::RunServeIpc(o);
  } else if (o.workload == "traffic-shared-key") {
    out = perfbench::RunTrafficSharedKey(o);
  } else {
    std::fprintf(stderr, "unknown workload: %s\n", o.workload.c_str());
    return 2;
  }
  for (const perfbench::Metric& m : out.metrics) {
    if (!std::isfinite(m.value)) {
      out.correct = false;
      out.problems.push_back(m.name + " is not finite");
    }
  }
  PrintResult(out);
  return 0;
}
