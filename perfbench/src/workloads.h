// The three workloads of the end-to-end benchmark (see perfbench/README.md
// for why each exists and which layer metric should move which end-to-end
// metric).

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  /// False: one untraced pass, end-to-end metrics. True: the untraced pass,
  /// then the same estimates again with tracing, per-layer metrics.
  bool trace = false;
  /// Directory holding store.lgs and shards.manifest for this seed.
  std::string inputs;
  /// The labelrw_serverd binary (serve-ipc).
  std::string serverd;
  /// Where trace files and daemon ready files go.
  std::string out_dir;
  /// traffic-shared-key: tenants per engine cell. A run measures many
  /// cells, so their median and 90th percentile mean something.
  int64_t tenants = 250;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Outcome {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> metrics;
  /// Why `correct` is false or operations failed, one line each.
  std::vector<std::string> problems;
};

Outcome RunCrawlStore(const RunOptions& options);
Outcome RunServeIpc(const RunOptions& options);
Outcome RunTrafficSharedKey(const RunOptions& options);

/// Small-scale check that the pass-through decorators change nothing: the
/// same estimates with and without them, over the store and over the
/// in-memory analog (also through the traffic engine's per-session
/// transport factory). Returns the mismatches found.
std::vector<std::string> CheckDecoratorIdentity(const RunOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
