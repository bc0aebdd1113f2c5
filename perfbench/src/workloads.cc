#include "workloads.h"

#include <signal.h>
#include <sys/mman.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <barrier>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <thread>

#include "estimators/estimator.h"
#include "estimators/session.h"
#include "osn/client.h"
#include "osn/ipc_transport.h"
#include "osn/local_api.h"
#include "osn/scenario.h"
#include "store/mapped_graph.h"
#include "store/store_transport.h"
#include "synth/datasets.h"
#include "trace.h"
#include "traffic/engine.h"
#include "util/rng.h"

namespace perfbench {

namespace {

namespace est = labelrw::estimators;
namespace graph = labelrw::graph;
namespace osn = labelrw::osn;
namespace store = labelrw::store;
namespace traffic = labelrw::traffic;
using labelrw::Result;
using labelrw::Status;

// Set-up is repeated and its median reported: a single set-up is one sample
// of a noisy quantity.
constexpr int kSetupRepeats = 9;
// Estimates run in whole rounds of the five proposed estimators.
constexpr int64_t kRound = 5;
// The per-estimator mean must lie within this many standard errors of F.
constexpr double kMeanTolerance = 6.0;
// The Horvitz-Thompson estimators divide by inclusion probabilities that
// assume independent draws; over a correlated walk they read low (about 7%
// on the 1M-node store at 1% |V|). Their mean may sit this share of F
// further below F, and no further above it than any other estimator's.
constexpr double kHtBiasAllowance = 0.10;
// serve-ipc replays one estimate in this many in-process over the store.
constexpr int64_t kReplayStride = 8;
// The rare target pair of the synthetic store (labels are uniform in
// 1..16, so 2/256 of the edges are (1,2) edges).
constexpr graph::TargetLabel kTarget{1, 2};
// traffic-shared-key session shape (the bench_traffic defaults).
constexpr int64_t kTrafficBudget = 150;
constexpr int64_t kTrafficBurnIn = 50;
constexpr int64_t kTrafficSlots = 32;
// serve-ipc client threads; the daemon gets as many workers, so the load
// uses 4 threads, the core count of the host the benchmark was tuned on.
constexpr int kIpcLanes = 2;

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile, q in (0, 1].
double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size(), std::max<size_t>(rank, 1)) - 1];
}

/// The peak resident set of this process, from /proc/self/status.
double ProcStatusMiB(pid_t pid, const char* field) {
  std::ifstream in(pid == 0 ? std::string("/proc/self/status")
                            : "/proc/" + std::to_string(pid) + "/status");
  std::string line;
  const size_t len = std::strlen(field);
  while (std::getline(in, line)) {
    if (line.compare(0, len, field) == 0 && line.size() > len &&
        line[len] == ':') {
      return std::strtod(line.c_str() + len + 1, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

/// utime + stime of `pid` in microseconds, from /proc/<pid>/stat.
double ProcCpuUs(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  const size_t close = text.rfind(')');
  if (close == std::string::npos) return 0.0;
  std::istringstream fields(text.substr(close + 2));
  std::string field;
  double ticks = 0.0;
  // Fields after the command: state is field 3; utime and stime are 14, 15.
  for (int i = 3; i <= 15 && fields >> field; ++i) {
    if (i >= 14) ticks += std::strtod(field.c_str(), nullptr);
  }
  return ticks * 1e6 / static_cast<double>(sysconf(_SC_CLK_TCK));
}

/// The benchmark's own count of target edges: every edge's endpoint labels,
/// each edge once.
int64_t ScanTargetEdges(const graph::Graph& g, const graph::LabelStore& labels,
                         const graph::TargetLabel& target) {
  int64_t count = 0;
  g.ForEachEdge([&](graph::NodeId u, graph::NodeId v) {
    if (target.Matches(labels, u, v)) ++count;
  });
  return count;
}

/// Where the warm-up reads land, so the compiler keeps them.
volatile uint64_t warm_sink = 0;

/// Reads one byte per page of every array the crawl touches, so the first
/// timed estimates do not pay the mapping's page faults.
uint64_t WarmMapping(const store::MappedGraph& mapped) {
  uint64_t sum = 0;
  auto touch = [&sum](const auto& span) {
    const auto* bytes = reinterpret_cast<const unsigned char*>(span.data());
    const size_t n = span.size_bytes();
    for (size_t i = 0; i < n; i += 4096) sum += bytes[i];
  };
  touch(mapped.graph().csr_offsets());
  touch(mapped.graph().csr_adjacency());
  touch(mapped.labels().csr_offsets());
  touch(mapped.labels().csr_labels());
  return sum;
}

struct CrawlParams {
  graph::TargetLabel target = kTarget;
  int64_t budget = 0;
  int64_t burn_in = 0;
  /// Highest degree in the graph: the most one exploring iteration can
  /// charge.
  int64_t max_degree = 0;
};

CrawlParams ParamsFor(const osn::GraphPriors& priors) {
  CrawlParams p;
  // 1% |V|, the top of the paper's budget range. At 0.5% the budget is
  // about the store's highest degree, and a NeighborExploration estimate
  // whose first explored node is a hub ends after one iteration, wildly off
  // (one read 2700x F).
  p.budget = std::max<int64_t>(1, priors.num_nodes / 100);
  p.burn_in = 200;
  p.max_degree = priors.max_degree;
  return p;
}

struct EstimateRecord {
  est::AlgorithmId algorithm = est::AlgorithmId::kNeighborSampleHH;
  uint64_t seed = 0;
  bool ok = false;
  std::string error;
  double estimate = 0.0;
  int64_t api_calls = 0;
  int64_t iterations = 0;
  int64_t wall_ns = 0;
};

bool SameResult(const EstimateRecord& a, const EstimateRecord& b) {
  return a.ok && b.ok &&
         std::memcmp(&a.estimate, &b.estimate, sizeof(double)) == 0 &&
         a.api_calls == b.api_calls && a.iterations == b.iterations;
}

/// The k-th estimate of lane `lane` in a run seeded `run_seed`.
EstimateRecord PlanEstimate(uint64_t run_seed, uint64_t lane, uint64_t k) {
  static const std::vector<est::AlgorithmId> kAlgorithms =
      est::ProposedAlgorithms();
  EstimateRecord rec;
  rec.algorithm = kAlgorithms[k % kAlgorithms.size()];
  rec.seed = labelrw::DeriveSeed(run_seed, 0x657374u, lane, k);
  return rec;
}

void RunSession(osn::OsnApi& api, const osn::GraphPriors& priors,
                const CrawlParams& p, EstimateRecord& rec, Tracer* tracer,
                uint64_t id) {
  Scope span(tracer, Layer::kSession, id);
  est::EstimateOptions options;
  options.api_budget = p.budget;
  options.burn_in = p.burn_in;
  options.seed = rec.seed;
  auto session =
      est::EstimatorSession::Create(rec.algorithm, api, p.target, priors,
                                    options);
  if (!session.ok()) {
    rec.error = session.status().ToString();
    return;
  }
  const Status run = (*session)->Run();
  if (!run.ok()) {
    rec.error = run.ToString();
    return;
  }
  auto snapshot = (*session)->Snapshot();
  if (!snapshot.ok()) {
    rec.error = snapshot.status().ToString();
    return;
  }
  rec.ok = true;
  rec.estimate = snapshot->estimate;
  rec.api_calls = snapshot->api_calls;
  rec.iterations = snapshot->iterations;
}

/// One estimate through a fresh OsnClient over `wire`, the way
/// `labelrw_cli estimate` runs one. With a tracer, `wire` is expected to be
/// a traced PassThroughTransport and the client is wrapped in a TracingApi.
void EstimateOver(const osn::Transport& wire, const CrawlParams& p,
                  EstimateRecord& rec, Tracer* tracer, uint64_t id) {
  std::unique_ptr<osn::OsnClient> client;
  {
    Scope span(tracer, Layer::kClientOpen, id);
    client = std::make_unique<osn::OsnClient>(wire);
  }
  const osn::GraphPriors priors = client->Priors();
  if (tracer != nullptr) {
    TracingApi api(*client, *tracer, id);
    RunSession(api, priors, p, rec, tracer, id);
  } else {
    RunSession(*client, priors, p, rec, tracer, id);
  }
}

/// EstimateOver a store-like transport, wrapped for this estimate alone
/// when traced.
void EstimateOverStore(const osn::Transport& transport, const CrawlParams& p,
                       EstimateRecord& rec, Tracer* tracer, uint64_t id) {
  if (tracer == nullptr) return EstimateOver(transport, p, rec, nullptr, id);
  const PassThroughTransport traced(transport, tracer, id);
  EstimateOver(traced, p, rec, tracer, id);
}

/// crawl-store's closed loop of estimates in whole rounds: until
/// `deadline_ns` when `count` < 0 (at least two rounds), else exactly
/// `count` estimates.
std::vector<EstimateRecord> RunStoreLoop(const osn::Transport& transport,
                                         const CrawlParams& p,
                                         uint64_t run_seed,
                                         int64_t deadline_ns, int64_t count,
                                         Tracer* tracer) {
  std::vector<EstimateRecord> records;
  for (int64_t k = 0;; ++k) {
    if (k % kRound == 0 &&
        (count >= 0 ? k >= count
                    : (k >= 2 * kRound && NowNs() >= deadline_ns))) {
      break;
    }
    const uint64_t id = static_cast<uint64_t>(k);
    EstimateRecord rec = PlanEstimate(run_seed, 0, id);
    const int64_t start = NowNs();
    {
      Scope span(tracer, Layer::kEstimate, id);
      EstimateOverStore(transport, p, rec, tracer, id);
    }
    rec.wall_ns = NowNs() - start;
    records.push_back(std::move(rec));
  }
  return records;
}

/// Per-estimate property checks; returns "" when the estimate passes.
std::string CheckEstimate(const EstimateRecord& rec, const CrawlParams& p) {
  if (!rec.ok) return "estimate failed: " + rec.error;
  if (!std::isfinite(rec.estimate) || rec.estimate < 0.0) {
    return "estimate is not finite and >= 0";
  }
  // Burn-in charges at most one call per step, the sampling phase stops at
  // the first iteration that reaches the budget, and one iteration charges
  // at most a step plus a full neighbourhood.
  const int64_t most = p.budget + p.burn_in + p.max_degree + 2;
  if (rec.api_calls < p.budget || rec.api_calls > most) {
    return "charged calls " + std::to_string(rec.api_calls) + " outside [" +
           std::to_string(p.budget) + ", " + std::to_string(most) + "]";
  }
  return "";
}

/// The end-to-end metrics other than set-up and memory.
struct CrawlSummary {
  double estimates_per_s = 0.0;
  double p50_ms = 0.0;
  double api_calls_per_s = 0.0;
  double nrmse = 0.0;
};

/// Compares the traced pass with the untraced one, estimate by estimate.
/// A mismatching estimate counts as failed in `failed_flags`.
void CompareTraced(const std::vector<std::vector<EstimateRecord>>& untraced,
                   const std::vector<std::vector<EstimateRecord>>& traced,
                   std::vector<std::vector<char>>& failed_flags,
                   Outcome& out) {
  for (size_t lane = 0; lane < untraced.size(); ++lane) {
    for (size_t k = 0; k < untraced[lane].size(); ++k) {
      if (k >= traced[lane].size() ||
          !SameResult(untraced[lane][k], traced[lane][k])) {
        if (!failed_flags[lane][k]) {
          failed_flags[lane][k] = 1;
          out.problems.push_back("traced estimate differs from untraced (lane " +
                                 std::to_string(lane) + ", #" +
                                 std::to_string(k) + ")");
        }
      }
    }
  }
}

/// Running sums of one estimator's estimates.
struct Moments {
  int64_t n = 0;
  double sum = 0.0;
  double sumsq = 0.0;

  void Add(double x) {
    ++n;
    sum += x;
    sumsq += x * x;
  }
};

/// Marks the run incorrect unless the estimator's mean lies within
/// kMeanTolerance standard errors of F, or, below F, within that plus
/// `low_allowance` x F.
void CheckMean(const char* name, const Moments& m, double truth,
               double low_allowance, Outcome& out) {
  if (m.n < 2 || truth <= 0.0) {
    out.correct = false;
    out.problems.push_back(std::string(name) +
                           ": too few estimates against a positive F");
    return;
  }
  const double mean = m.sum / static_cast<double>(m.n);
  const double var = std::max(
      0.0, (m.sumsq - m.sum * mean) / static_cast<double>(m.n - 1));
  const double se = std::sqrt(var / static_cast<double>(m.n));
  std::fprintf(stderr,
               "perfbench: %-24s n=%-5lld mean/F=%.4f se/F=%.4f sd/F=%.4f\n",
               name, static_cast<long long>(m.n), mean / truth, se / truth,
               std::sqrt(var) / truth);
  if (mean > truth + kMeanTolerance * se ||
      mean < truth * (1.0 - low_allowance) - kMeanTolerance * se) {
    out.correct = false;
    char line[200];
    std::snprintf(line, sizeof(line),
                  "%s: mean %.1f is %.1f standard errors from F = %.0f", name,
                  mean, std::fabs(mean - truth) / se, truth);
    out.problems.push_back(line);
  }
}

/// Folds the untraced pass of a crawl workload into the outcome: operation
/// counts, per-estimate checks, per-estimator mean checks, and the
/// end-to-end metrics other than set-up and memory. Round r is estimates
/// [r * kRound, (r + 1) * kRound) of every lane and took `round_ns[r]`; the
/// rates are medians over rounds, so a slow spell of the host moves them
/// only if it lasts half the run.
CrawlSummary Summarize(const std::vector<std::vector<EstimateRecord>>& lanes,
                       const std::vector<std::vector<char>>& failed_flags,
                       const CrawlParams& p, double truth,
                       const std::vector<int64_t>& round_ns, Outcome& out) {
  CrawlSummary s;
  std::vector<double> walls_ms;
  std::vector<double> round_estimates(round_ns.size(), 0.0);
  std::vector<double> round_calls(round_ns.size(), 0.0);
  double sq_err = 0.0;
  int64_t good = 0;
  std::vector<Moments> per_algorithm(10);
  for (size_t lane = 0; lane < lanes.size(); ++lane) {
    for (size_t k = 0; k < lanes[lane].size(); ++k) {
      const EstimateRecord& rec = lanes[lane][k];
      ++out.attempted;
      walls_ms.push_back(static_cast<double>(rec.wall_ns) / 1e6);
      const size_t round = k / static_cast<size_t>(kRound);
      if (round < round_ns.size()) {
        round_estimates[round] += 1.0;
        round_calls[round] += static_cast<double>(rec.api_calls);
      }
      const std::string problem = CheckEstimate(rec, p);
      if (!problem.empty() || failed_flags[lane][k]) {
        ++out.failed;
        if (!problem.empty() && out.problems.size() < 20) {
          out.problems.push_back(problem);
        }
        continue;
      }
      ++good;
      sq_err += (rec.estimate - truth) * (rec.estimate - truth);
      per_algorithm[static_cast<size_t>(rec.algorithm)].Add(rec.estimate);
    }
  }
  for (size_t a = 0; a < per_algorithm.size(); ++a) {
    if (per_algorithm[a].n == 0) continue;
    const auto algorithm = static_cast<est::AlgorithmId>(a);
    const bool ht = algorithm == est::AlgorithmId::kNeighborSampleHT ||
                    algorithm == est::AlgorithmId::kNeighborExplorationHT;
    CheckMean(est::AlgorithmName(algorithm), per_algorithm[a], truth,
              ht ? kHtBiasAllowance : 0.0, out);
  }
  std::vector<double> estimate_rates, call_rates;
  for (size_t r = 0; r < round_ns.size(); ++r) {
    const double seconds = static_cast<double>(round_ns[r]) / 1e9;
    estimate_rates.push_back(round_estimates[r] / seconds);
    call_rates.push_back(round_calls[r] / seconds);
  }
  s.estimates_per_s = Median(estimate_rates);
  s.api_calls_per_s = Median(call_rates);
  s.p50_ms = Median(walls_ms);
  s.nrmse = good > 0 && truth > 0.0
                ? std::sqrt(sq_err / static_cast<double>(good)) / truth
                : 0.0;
  return s;
}

/// Every per-layer metric, in one place; a layer off a workload's path
/// reads 0 there.
struct LayerFacts {
  double store_open_ms = 0, store_fetch_ns = 0, store_fetches_per_estimate = 0;
  double client_open_us = 0, client_self_ns = 0, requests_per_estimate = 0,
         wire_fetches_per_request = 0, charged_calls_per_estimate = 0;
  double self_ns_per_iteration = 0, iterations_per_estimate = 0;
  double connect_us = 0, fetch_us_p50 = 0, fetch_us_p99 = 0,
         daemon_cpu_us_per_fetch = 0, daemon_ready_ms = 0, daemon_rss_mb = 0,
         reconnects = 0;
  double events = 0, events_per_call = 0, rate_limited = 0, event_ns = 0,
         transport_share = 0, queue_peak = 0;
  double trace_overhead = 0;
};

std::vector<Metric> LayerMetrics(const LayerFacts& f) {
  return {
      {"store.open_ms", f.store_open_ms, "ms"},
      {"store.fetch_ns", f.store_fetch_ns, "ns"},
      {"store.fetches_per_estimate", f.store_fetches_per_estimate, "count"},
      {"osn.client_open_us", f.client_open_us, "us"},
      {"osn.client_self_ns", f.client_self_ns, "ns"},
      {"osn.requests_per_estimate", f.requests_per_estimate, "count"},
      {"osn.wire_fetches_per_request", f.wire_fetches_per_request, "ratio"},
      {"osn.charged_calls_per_estimate", f.charged_calls_per_estimate,
       "count"},
      {"estimators.self_ns_per_iteration", f.self_ns_per_iteration, "ns"},
      {"estimators.iterations_per_estimate", f.iterations_per_estimate,
       "count"},
      {"server.connect_us", f.connect_us, "us"},
      {"server.fetch_us_p50", f.fetch_us_p50, "us"},
      {"server.fetch_us_p99", f.fetch_us_p99, "us"},
      {"server.daemon_cpu_us_per_fetch", f.daemon_cpu_us_per_fetch, "us"},
      {"server.daemon_ready_ms", f.daemon_ready_ms, "ms"},
      {"server.daemon_rss_mb", f.daemon_rss_mb, "MiB"},
      {"server.reconnects", f.reconnects, "count"},
      {"traffic.events", f.events, "count"},
      {"traffic.events_per_call", f.events_per_call, "ratio"},
      {"traffic.rate_limited", f.rate_limited, "count"},
      {"traffic.event_ns", f.event_ns, "ns"},
      {"traffic.transport_share", f.transport_share, "ratio"},
      {"traffic.queue_peak", f.queue_peak, "count"},
      {"trace.overhead", f.trace_overhead, "ratio"},
  };
}

std::vector<Metric> EndToEndMetrics(double setup_s, const CrawlSummary& s,
                                    double peak_rss_mb) {
  return {
      {"setup_s", setup_s, "s"},
      {"estimates_per_s", s.estimates_per_s, "1/s"},
      {"estimate_p50_ms", s.p50_ms, "ms"},
      {"api_calls_per_s", s.api_calls_per_s, "1/s"},
      {"nrmse", s.nrmse, "ratio"},
      {"peak_rss_mb", peak_rss_mb, "MiB"},
  };
}

/// The per-layer facts the crawl workloads share: client, API and session
/// spans of the traced pass.
void CrawlLayerFacts(const Tracer& t,
                     const std::vector<std::vector<EstimateRecord>>& traced,
                     LayerFacts& f) {
  int64_t estimates = 0;
  int64_t iterations = 0;
  int64_t calls = 0;
  for (const auto& lane : traced) {
    for (const EstimateRecord& rec : lane) {
      ++estimates;
      iterations += rec.iterations;
      calls += rec.api_calls;
    }
  }
  const double n = std::max<double>(1.0, static_cast<double>(estimates));
  const LayerTotals& open = t.totals(Layer::kClientOpen);
  const LayerTotals& api = t.totals(Layer::kApi);
  const LayerTotals& fetch = t.totals(Layer::kFetch);
  const LayerTotals& session = t.totals(Layer::kSession);
  auto per = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  f.client_open_us = per(static_cast<double>(open.total_ns) / 1e3,
                         static_cast<double>(open.count));
  f.client_self_ns = per(static_cast<double>(api.self_ns),
                         static_cast<double>(api.count));
  f.requests_per_estimate = static_cast<double>(api.count) / n;
  f.wire_fetches_per_request = per(static_cast<double>(fetch.count),
                                   static_cast<double>(api.count));
  f.charged_calls_per_estimate = static_cast<double>(calls) / n;
  f.self_ns_per_iteration = per(static_cast<double>(session.self_ns),
                                static_cast<double>(iterations));
  f.iterations_per_estimate = static_cast<double>(iterations) / n;
}

std::vector<std::vector<char>> NoFailures(
    const std::vector<std::vector<EstimateRecord>>& lanes) {
  std::vector<std::vector<char>> flags;
  for (const auto& lane : lanes) flags.emplace_back(lane.size(), 0);
  return flags;
}

std::string TracePath(const RunOptions& o) {
  return o.out_dir + "/trace-" + o.workload + "-seed" +
         std::to_string(o.seed) + ".json";
}

/// A labelrw_serverd child process, stopped (SIGTERM, then SIGKILL) and
/// reaped when the object dies.
class Daemon {
 public:
  static Result<std::unique_ptr<Daemon>> Start(const RunOptions& o,
                                               const std::string& shm,
                                               int workers, int slots);
  ~Daemon() { Stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  pid_t pid() const { return pid_; }
  /// Graceful stop; true when the daemon exited cleanly.
  bool Stop();

 private:
  Daemon(pid_t pid, std::string shm, std::string ready)
      : pid_(pid),
        shm_(std::move(shm)),
        ready_(std::move(ready)),
        born_ns_(NowNs()) {}

  pid_t pid_;
  std::string shm_;
  std::string ready_;
  int64_t born_ns_;
};

Result<std::unique_ptr<Daemon>> Daemon::Start(const RunOptions& o,
                                              const std::string& shm,
                                              int workers, int slots) {
  const std::string ready = o.out_dir + "/serverd" + shm.substr(1) + ".ready";
  std::remove(ready.c_str());
  std::vector<std::string> args = {
      o.serverd,
      "--manifest=" + o.inputs + "/shards.manifest",
      "--shm=" + shm,
      "--workers=" + std::to_string(workers),
      "--slots=" + std::to_string(slots),
      "--ready-file=" + ready,
      "--quiet",
  };
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  const pid_t parent = getpid();
  const pid_t pid = fork();
  if (pid < 0) return labelrw::InternalError("fork failed");
  if (pid == 0) {
    // The daemon must not outlive the load generator, and must keep the
    // load generator's stdout (whose last line is the result) clean.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) _exit(127);
    dup2(STDERR_FILENO, STDOUT_FILENO);
    execv(argv[0], argv.data());
    _exit(127);
  }
  std::unique_ptr<Daemon> daemon(new Daemon(pid, shm, ready));
  const int64_t give_up = NowNs() + 20'000'000'000;
  while (access(ready.c_str(), F_OK) != 0) {
    int status = 0;
    if (waitpid(pid, &status, WNOHANG) == pid) {
      daemon->pid_ = -1;
      return labelrw::UnavailableError("labelrw_serverd exited at start-up");
    }
    if (NowNs() > give_up) {
      return labelrw::UnavailableError("labelrw_serverd never became ready");
    }
    usleep(200);
  }
  return daemon;
}

bool Daemon::Stop() {
  if (pid_ <= 0) return true;
  // labelrw_serverd writes its ready file before it installs its signal
  // handlers, so a SIGTERM right after readiness kills it uncleanly (see
  // CHANGES.md). Give it 20 ms from its start before asking it to stop.
  const int64_t wait_ns = born_ns_ + 20'000'000 - NowNs();
  if (wait_ns > 0) usleep(static_cast<useconds_t>(wait_ns / 1000));
  kill(pid_, SIGTERM);
  int status = 0;
  const int64_t give_up = NowNs() + 10'000'000'000;
  bool clean = true;
  while (waitpid(pid_, &status, WNOHANG) != pid_) {
    if (NowNs() > give_up) {
      kill(pid_, SIGKILL);
      waitpid(pid_, &status, 0);
      clean = false;
      break;
    }
    usleep(1000);
  }
  pid_ = -1;
  clean = clean && WIFEXITED(status) && WEXITSTATUS(status) == 0;
  if (!clean) {
    // An unclean exit leaves the slab and the ready file behind.
    std::fprintf(stderr, "perfbench: labelrw_serverd exit status %d\n",
                 status);
    shm_unlink(shm_.c_str());
    std::remove(ready_.c_str());
  }
  return clean;
}

}  // namespace

// ---------------------------------------------------------------------------
// crawl-store

Outcome RunCrawlStore(const RunOptions& o) {
  Outcome out;
  const std::string path = o.inputs + "/store.lgs";
  std::vector<double> setups_s, opens_ms;
  std::optional<store::MappedGraph> mapped;
  std::unique_ptr<store::StoreTransport> transport;
  uint64_t sink = 0;
  for (int i = 0; i < kSetupRepeats; ++i) {
    transport.reset();
    mapped.reset();
    const int64_t t0 = NowNs();
    auto opened = store::MappedGraph::Open(path);
    if (!opened.ok()) {
      out.correct = false;
      out.problems.push_back("opening " + path + ": " +
                             opened.status().ToString());
      return out;
    }
    mapped.emplace(std::move(*opened));
    transport = std::make_unique<store::StoreTransport>(*mapped);
    const int64_t t1 = NowNs();
    sink += WarmMapping(*mapped);
    const int64_t t2 = NowNs();
    opens_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
    setups_s.push_back(static_cast<double>(t2 - t0) / 1e9);
  }
  warm_sink = sink;
  const CrawlParams p = ParamsFor(transport->TransportPriors());

  std::vector<std::vector<EstimateRecord>> untraced(1);
  const int64_t pass_start = NowNs();
  const int64_t deadline = pass_start + static_cast<int64_t>(o.seconds * 1e9);
  untraced[0] = RunStoreLoop(*transport, p, o.seed, deadline, -1, nullptr);
  const int64_t pass_end = NowNs();
  const double peak_rss = ProcStatusMiB(0, "VmHWM");
  auto failed_flags = NoFailures(untraced);

  std::optional<Tracer> tracer;
  std::vector<std::vector<EstimateRecord>> traced(1);
  int64_t traced_ns = 0;
  if (o.trace) {
    tracer.emplace(1);
    const int64_t traced_start = NowNs();
    traced[0] = RunStoreLoop(*transport, p, o.seed, 0,
                             static_cast<int64_t>(untraced[0].size()),
                             &*tracer);
    traced_ns = NowNs() - traced_start;
    CompareTraced(untraced, traced, failed_flags, out);
  }

  const double truth = static_cast<double>(
      ScanTargetEdges(mapped->graph(), mapped->labels(), p.target));
  std::vector<int64_t> round_ns;
  for (size_t k = 0; k < untraced[0].size(); ++k) {
    if (k % kRound == 0) round_ns.push_back(0);
    round_ns.back() += untraced[0][k].wall_ns;
  }
  const CrawlSummary s =
      Summarize(untraced, failed_flags, p, truth, round_ns, out);
  if (!o.trace) {
    out.metrics = EndToEndMetrics(Median(setups_s), s, peak_rss);
    return out;
  }
  LayerFacts f;
  CrawlLayerFacts(*tracer, traced, f);
  const LayerTotals& fetch = tracer->totals(Layer::kFetch);
  f.store_open_ms = Median(opens_ms);
  f.store_fetch_ns = fetch.count > 0 ? static_cast<double>(fetch.self_ns) /
                                           static_cast<double>(fetch.count)
                                     : 0.0;
  f.store_fetches_per_estimate = static_cast<double>(fetch.count) /
                                 static_cast<double>(traced[0].size());
  f.trace_overhead = static_cast<double>(traced_ns) /
                         static_cast<double>(pass_end - pass_start) -
                     1.0;
  out.metrics = LayerMetrics(f);
  if (!WriteTrace(TracePath(o), o.workload, o.seed, *tracer, {&*tracer})) {
    out.problems.push_back("could not write " + TracePath(o));
  }
  return out;
}

// ---------------------------------------------------------------------------
// serve-ipc

Outcome RunServeIpc(const RunOptions& o) {
  Outcome out;
  const int lanes = kIpcLanes;
  const int workers = lanes;
  // One session per lane; the probe that reads the priors is closed before
  // the lanes connect.
  const int slots = lanes;
  std::vector<double> ready_ms;
  std::unique_ptr<Daemon> daemon;
  std::string shm;
  for (int i = 0; i < kSetupRepeats; ++i) {
    if (daemon) {
      if (!daemon->Stop()) {
        out.correct = false;
        out.problems.push_back("labelrw_serverd did not stop cleanly");
      }
      daemon.reset();
    }
    shm = "/perfbench." + std::to_string(getpid()) + "." + std::to_string(i);
    const int64_t t0 = NowNs();
    auto started = Daemon::Start(o, shm, workers, slots);
    if (!started.ok()) {
      out.correct = false;
      out.problems.push_back(started.status().ToString());
      return out;
    }
    daemon = std::move(*started);
    ready_ms.push_back(static_cast<double>(NowNs() - t0) / 1e6);
  }

  // Priors (and so the budget) as the daemon publishes them.
  CrawlParams p;
  {
    auto probe = osn::IpcTransport::Connect(shm);
    if (!probe.ok()) {
      out.correct = false;
      out.problems.push_back("connect: " + probe.status().ToString());
      return out;
    }
    p = ParamsFor((*probe)->TransportPriors());
  }

  // Every lane runs whole rounds (one estimate of each estimator) over one
  // session, and all lanes swap their sessions for fresh ones between
  // rounds, while none of them fetches. A fresh session per round keeps the
  // transport's never-evicting record arena from turning later estimates
  // into in-process cache reads. Sessions are not swapped per estimate, nor
  // while another lane fetches: a connect racing the daemon's reaper fails
  // now and then (see CHANGES.md).
  struct Pass {
    std::vector<std::vector<EstimateRecord>> lanes;
    int64_t start_ns = 0;
    int64_t elapsed_ns = 0;
    /// Wall time of each round, from the lanes' release to the last arrival.
    std::vector<int64_t> round_ns;
    Status status;
  };
  uint64_t reconnects = 0;
  auto run_pass = [&](int64_t deadline, int64_t rounds,
                      std::vector<Tracer>* tracers) {
    Pass pass;
    pass.lanes.resize(static_cast<size_t>(lanes));
    std::vector<std::unique_ptr<osn::IpcTransport>> sessions(
        static_cast<size_t>(lanes));
    std::vector<std::unique_ptr<PassThroughTransport>> wires(
        static_cast<size_t>(lanes));
    int64_t round = 0;
    int64_t round_start = 0;
    bool stop = false;
    auto swap_sessions = [&]() noexcept {
      if (round > 0) pass.round_ns.push_back(NowNs() - round_start);
      for (size_t l = 0; l < sessions.size(); ++l) {
        wires[l].reset();
        if (sessions[l]) reconnects += sessions[l]->ipc_stats().reconnects;
        sessions[l].reset();
      }
      stop = rounds >= 0 ? round >= rounds
                         : round >= 2 && NowNs() >= deadline;
      for (size_t l = 0; l < sessions.size() && !stop; ++l) {
        // Let the workers settle back to sleep after the last goodbye or
        // hello before claiming the next slot.
        usleep(2000);
        Tracer* tracer = tracers != nullptr ? &(*tracers)[l] : nullptr;
        Scope span(tracer, Layer::kConnect, l);
        auto connected = osn::IpcTransport::Connect(shm);
        if (!connected.ok()) {
          pass.status = connected.status();
          stop = true;
          break;
        }
        sessions[l] = std::move(*connected);
        if (tracer != nullptr) {
          wires[l] = std::make_unique<PassThroughTransport>(
              *sessions[l], tracer, 0, /*mark_first_touch=*/true);
        }
      }
      ++round;
      round_start = NowNs();
    };
    std::barrier sync(lanes, swap_sessions);
    pass.start_ns = NowNs();
    std::vector<std::thread> threads;
    for (int lane = 0; lane < lanes; ++lane) {
      threads.emplace_back([&, lane] {
        const size_t l = static_cast<size_t>(lane);
        Tracer* tracer = tracers != nullptr ? &(*tracers)[l] : nullptr;
        for (int64_t r = 0;; ++r) {
          sync.arrive_and_wait();
          if (stop) break;
          const osn::Transport* wire = sessions[l].get();
          if (wires[l]) wire = wires[l].get();
          for (int64_t i = 0; i < kRound; ++i) {
            const int64_t k = r * kRound + i;
            EstimateRecord rec = PlanEstimate(o.seed, l, static_cast<uint64_t>(k));
            const uint64_t id = static_cast<uint64_t>(k * lanes) + l;
            if (wires[l]) wires[l]->set_id(id);
            const int64_t t0 = NowNs();
            {
              Scope span(tracer, Layer::kEstimate, id);
              EstimateOver(*wire, p, rec, tracer, id);
            }
            rec.wall_ns = NowNs() - t0;
            pass.lanes[l].push_back(std::move(rec));
          }
        }
      });
    }
    for (std::thread& t : threads) t.join();
    pass.elapsed_ns = NowNs() - pass.start_ns;
    return pass;
  };

  const int64_t deadline = NowNs() + static_cast<int64_t>(o.seconds * 1e9);
  Pass untraced_pass = run_pass(deadline, -1, nullptr);
  if (!untraced_pass.status.ok()) {
    out.correct = false;
    out.problems.push_back("connect: " + untraced_pass.status.ToString());
    return out;
  }
  const std::vector<std::vector<EstimateRecord>>& untraced =
      untraced_pass.lanes;
  const double peak_rss = ProcStatusMiB(0, "VmHWM");
  auto failed_flags = NoFailures(untraced);

  std::vector<Tracer> tracers;
  Pass traced_pass;
  const std::vector<std::vector<EstimateRecord>>& traced = traced_pass.lanes;
  double daemon_cpu_us = 0.0;
  if (o.trace) {
    for (int lane = 0; lane < lanes; ++lane) tracers.emplace_back(lanes);
    const double cpu0 = ProcCpuUs(daemon->pid());
    traced_pass = run_pass(
        0, static_cast<int64_t>(untraced[0].size()) / kRound, &tracers);
    if (!traced_pass.status.ok()) {
      out.correct = false;
      out.problems.push_back("connect: " + traced_pass.status.ToString());
      return out;
    }
    daemon_cpu_us = ProcCpuUs(daemon->pid()) - cpu0;
    CompareTraced(untraced, traced, failed_flags, out);
  }
  const double daemon_rss = ProcStatusMiB(daemon->pid(), "VmHWM");
  if (!daemon->Stop()) {
    out.correct = false;
    out.problems.push_back("labelrw_serverd did not stop cleanly");
  }
  daemon.reset();

  // The checks read the unsharded store in-process: F, and a replay of
  // every kReplayStride-th estimate over StoreTransport, which must match
  // the daemon-served one bit for bit.
  const int64_t open0 = NowNs();
  auto mapped = store::MappedGraph::Open(o.inputs + "/store.lgs");
  if (!mapped.ok()) {
    out.correct = false;
    out.problems.push_back("opening store: " + mapped.status().ToString());
    return out;
  }
  const store::StoreTransport local(*mapped);
  const double store_open_ms = static_cast<double>(NowNs() - open0) / 1e6;
  const double truth = static_cast<double>(
      ScanTargetEdges(mapped->graph(), mapped->labels(), p.target));
  for (size_t lane = 0; lane < untraced.size(); ++lane) {
    for (size_t k = 0; k < untraced[lane].size(); ++k) {
      const EstimateRecord& served = untraced[lane][k];
      if (k % kReplayStride != 0 || !served.ok) continue;
      EstimateRecord replay = PlanEstimate(o.seed, lane, k);
      EstimateOverStore(local, p, replay, nullptr, 0);
      if (!SameResult(served, replay) && !failed_flags[lane][k]) {
        failed_flags[lane][k] = 1;
        out.problems.push_back("served estimate differs from the in-process "
                               "replay (lane " +
                               std::to_string(lane) + ", #" +
                               std::to_string(k) + ")");
      }
    }
  }
  const CrawlSummary s =
      Summarize(untraced, failed_flags, p, truth, untraced_pass.round_ns, out);
  if (!o.trace) {
    out.metrics = EndToEndMetrics(Median(ready_ms) / 1e3, s, peak_rss);
    return out;
  }
  Tracer merged(0);
  std::vector<const Tracer*> per_thread;
  for (const Tracer& t : tracers) {
    merged.Merge(t);
    per_thread.push_back(&t);
  }
  LayerFacts f;
  CrawlLayerFacts(merged, traced, f);
  const LayerTotals& connect = merged.totals(Layer::kConnect);
  std::vector<double> fetch_us;
  for (const int64_t ns : merged.first_fetch_ns()) {
    fetch_us.push_back(static_cast<double>(ns) / 1e3);
  }
  f.store_open_ms = store_open_ms;
  f.connect_us = connect.count > 0 ? static_cast<double>(connect.total_ns) /
                                         1e3 /
                                         static_cast<double>(connect.count)
                                   : 0.0;
  f.fetch_us_p50 = Median(fetch_us);
  f.fetch_us_p99 = Percentile(fetch_us, 0.99);
  f.daemon_cpu_us_per_fetch =
      merged.first_fetches() > 0
          ? daemon_cpu_us / static_cast<double>(merged.first_fetches())
          : 0.0;
  f.daemon_ready_ms = Median(ready_ms);
  f.daemon_rss_mb = daemon_rss;
  f.reconnects = static_cast<double>(reconnects);
  f.trace_overhead = static_cast<double>(traced_pass.elapsed_ns) /
                         static_cast<double>(untraced_pass.elapsed_ns) -
                     1.0;
  out.metrics = LayerMetrics(f);
  if (!WriteTrace(TracePath(o), o.workload, o.seed, merged, per_thread)) {
    out.problems.push_back("could not write " + TracePath(o));
  }
  return out;
}

// ---------------------------------------------------------------------------
// traffic-shared-key

namespace {

struct CellResult {
  bool ok = false;
  std::string error;
  traffic::TrafficReport report;
  int64_t wall_ns = 0;
};

traffic::TrafficConfig CellConfig(uint64_t run_seed, int64_t cell,
                                  int64_t tenants, double truth) {
  traffic::TrafficConfig c;
  c.tenants = tenants;
  c.sessions_per_tenant = 1;
  c.session_budget = kTrafficBudget;
  c.burn_in = kTrafficBurnIn;
  c.algorithm = est::AlgorithmId::kNeighborSampleHH;
  c.seed = labelrw::DeriveSeed(run_seed, 0x747266u,
                               static_cast<uint64_t>(cell));
  c.shared_buckets = 1;
  c.scenario = osn::TrafficScenarioFromName("steady").value();
  c.admission.max_in_flight = kTrafficSlots;
  // Every tenant may queue, so admission never rejects a session.
  c.admission.max_queue_depth = tenants;
  c.truth = truth;
  return c;
}

/// One engine cell. By default every session reads the engine's shared
/// transport; with `per_session_transports` each admitted session reads
/// through its own PassThroughTransport (the engine's per-session factory),
/// which is how the traced pass sees the transport's reads.
CellResult RunCell(const osn::Transport& shared,
                   const traffic::TrafficConfig& config, Tracer* tracer,
                   uint64_t first_id, bool per_session_transports = false) {
  CellResult cell;
  uint64_t next_id = first_id;
  traffic::SessionTransportFactory factory;
  if (per_session_transports) {
    factory = [&]() -> Result<std::unique_ptr<osn::Transport>> {
      return std::unique_ptr<osn::Transport>(
          std::make_unique<PassThroughTransport>(shared, tracer, next_id++));
    };
  }
  const int64_t start = NowNs();
  {
    Scope span(tracer, Layer::kCell, first_id);
    traffic::TrafficEngine engine(shared, kTarget, config, factory);
    auto report = engine.Run();
    if (report.ok()) {
      cell.ok = true;
      cell.report = std::move(*report);
    } else {
      cell.error = report.status().ToString();
    }
  }
  cell.wall_ns = NowNs() - start;
  return cell;
}

}  // namespace

Outcome RunTrafficSharedKey(const RunOptions& o) {
  Outcome out;
  std::vector<double> setups_s;
  std::optional<labelrw::synth::Dataset> dataset;
  std::unique_ptr<osn::LocalGraphApi> local;
  const uint64_t graph_seed = labelrw::DeriveSeed(o.seed, 0x666263u);
  for (int i = 0; i < kSetupRepeats; ++i) {
    local.reset();
    dataset.reset();
    const int64_t t0 = NowNs();
    auto built = labelrw::synth::FacebookLike(graph_seed);
    if (!built.ok()) {
      out.correct = false;
      out.problems.push_back("analog graph: " + built.status().ToString());
      return out;
    }
    dataset.emplace(std::move(*built));
    local = std::make_unique<osn::LocalGraphApi>(dataset->graph,
                                                 dataset->labels);
    setups_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }
  const double truth = static_cast<double>(
      ScanTargetEdges(dataset->graph, dataset->labels, kTarget));
  const int64_t max_degree = dataset->graph.max_degree();

  std::vector<CellResult> untraced;
  const int64_t deadline = NowNs() + static_cast<int64_t>(o.seconds * 1e9);
  for (int64_t c = 0; c == 0 || NowNs() < deadline; ++c) {
    untraced.push_back(RunCell(*local, CellConfig(o.seed, c, o.tenants, truth),
                               nullptr, 0));
  }
  const double peak_rss = ProcStatusMiB(0, "VmHWM");

  std::optional<Tracer> tracer;
  std::vector<CellResult> traced;
  if (o.trace) {
    tracer.emplace(1);
    for (size_t c = 0; c < untraced.size(); ++c) {
      traced.push_back(RunCell(
          *local, CellConfig(o.seed, static_cast<int64_t>(c), o.tenants, truth),
          &*tracer, c * static_cast<uint64_t>(o.tenants),
          /*per_session_transports=*/true));
    }
  }

  // Checks: every session completes, nothing is rejected, shed or aborted,
  // the tenants' calls add up to the engine's total, and every session's
  // estimate and charge pass the same property checks as a crawl's.
  CrawlParams p;
  p.budget = kTrafficBudget;
  p.burn_in = kTrafficBurnIn;
  p.max_degree = max_degree;
  // The rates are medians over cells, as crawl's are over rounds; a
  // session's own wall time is not visible from outside the engine, so the
  // per-estimate time is a cell's wall time over its sessions.
  std::vector<double> estimate_rates, call_rates, ms_per_estimate;
  double sq_err = 0.0;
  Moments moments;
  int64_t good = 0, calls = 0, pass_ns = 0;
  for (size_t c = 0; c < untraced.size(); ++c) {
    const CellResult& cell = untraced[c];
    out.attempted += o.tenants;
    pass_ns += cell.wall_ns;
    if (!cell.ok) {
      out.failed += o.tenants;
      out.problems.push_back("cell failed: " + cell.error);
      continue;
    }
    const traffic::TrafficReport& r = cell.report;
    calls += r.total_api_calls;
    const double cell_s = static_cast<double>(cell.wall_ns) / 1e9;
    estimate_rates.push_back(static_cast<double>(o.tenants) / cell_s);
    call_rates.push_back(static_cast<double>(r.total_api_calls) / cell_s);
    ms_per_estimate.push_back(cell_s * 1e3 / static_cast<double>(o.tenants));
    if (r.completed != o.tenants || r.rejected != 0 || r.shed != 0 ||
        r.aborted != 0) {
      out.correct = false;
      out.problems.push_back("cell " + std::to_string(c) +
                             ": not every session completed cleanly");
    }
    int64_t tenant_calls = 0;
    const bool identical =
        !o.trace || (traced[c].ok && traced[c].report.table_hash == r.table_hash);
    if (!identical) {
      out.problems.push_back("cell " + std::to_string(c) +
                             ": traced table differs from untraced");
    }
    for (const traffic::TenantTelemetry& t : r.tenants) {
      tenant_calls += t.api_calls;
      EstimateRecord rec;
      rec.ok = t.completed == 1;
      rec.error = "session did not complete";
      rec.estimate = t.mean_estimate;
      rec.api_calls = t.api_calls;
      const std::string problem = CheckEstimate(rec, p);
      if (!problem.empty() || !identical) {
        ++out.failed;
        if (!problem.empty() && out.problems.size() < 20) {
          out.problems.push_back(problem);
        }
        continue;
      }
      ++good;
      sq_err += (t.mean_estimate - truth) * (t.mean_estimate - truth);
      moments.Add(t.mean_estimate);
    }
    if (tenant_calls != r.total_api_calls) {
      out.correct = false;
      out.problems.push_back("cell " + std::to_string(c) +
                             ": tenant calls do not add up to the total");
    }
  }
  CheckMean(est::AlgorithmName(est::AlgorithmId::kNeighborSampleHH), moments,
            truth, 0.0, out);

  if (!o.trace) {
    CrawlSummary s;
    s.estimates_per_s = Median(estimate_rates);
    s.api_calls_per_s = Median(call_rates);
    s.p50_ms = Median(ms_per_estimate);
    s.nrmse = good > 0 ? std::sqrt(sq_err / static_cast<double>(good)) / truth
                       : 0.0;
    out.metrics = EndToEndMetrics(Median(setups_s), s, peak_rss);
    return out;
  }
  LayerFacts f;
  int64_t events = 0, rate_limited = 0, queue_peak = 0, traced_ns = 0;
  for (const CellResult& cell : traced) {
    events += cell.report.events_processed;
    rate_limited += cell.report.rate_limited;
    queue_peak = std::max(queue_peak, cell.report.queue_peak);
    traced_ns += cell.wall_ns;
  }
  const double cells = static_cast<double>(traced.size());
  const LayerTotals& cell = tracer->totals(Layer::kCell);
  const LayerTotals& fetch = tracer->totals(Layer::kFetch);
  f.charged_calls_per_estimate =
      static_cast<double>(calls) / static_cast<double>(out.attempted);
  f.events = static_cast<double>(events) / cells;
  f.events_per_call =
      calls > 0 ? static_cast<double>(events) / static_cast<double>(calls) : 0;
  f.rate_limited = static_cast<double>(rate_limited) / cells;
  f.event_ns = events > 0 ? static_cast<double>(cell.self_ns) /
                                static_cast<double>(events)
                          : 0.0;
  f.transport_share = cell.total_ns > 0
                          ? static_cast<double>(fetch.total_ns) /
                                static_cast<double>(cell.total_ns)
                          : 0.0;
  f.queue_peak = static_cast<double>(queue_peak);
  f.trace_overhead =
      static_cast<double>(traced_ns) / static_cast<double>(pass_ns) - 1.0;
  out.metrics = LayerMetrics(f);
  if (!WriteTrace(TracePath(o), o.workload, o.seed, *tracer, {&*tracer})) {
    out.problems.push_back("could not write " + TracePath(o));
  }
  return out;
}

// ---------------------------------------------------------------------------
// decorator identity

std::vector<std::string> CheckDecoratorIdentity(const RunOptions& o) {
  std::vector<std::string> mismatches;
  auto mapped = store::MappedGraph::Open(o.inputs + "/store.lgs");
  if (!mapped.ok()) return {"opening store: " + mapped.status().ToString()};
  const store::StoreTransport transport(*mapped);
  const CrawlParams p = ParamsFor(transport.TransportPriors());
  Tracer tracer(kRound);
  for (uint64_t k = 0; k < 2 * kRound; ++k) {
    EstimateRecord plain = PlanEstimate(o.seed, 0, k);
    EstimateRecord traced = plain;
    EstimateOverStore(transport, p, plain, nullptr, k);
    EstimateOverStore(transport, p, traced, &tracer, k);
    if (!SameResult(plain, traced)) {
      mismatches.push_back(std::string("store: ") +
                           est::AlgorithmName(plain.algorithm) +
                           " differs under the decorators");
    }
  }
  if (tracer.totals(Layer::kFetch).count == 0 ||
      tracer.totals(Layer::kApi).count == 0) {
    mismatches.push_back("the decorators recorded no spans");
  }

  auto dataset = labelrw::synth::FacebookLike(o.seed);
  if (!dataset.ok()) return {"analog graph: " + dataset.status().ToString()};
  const osn::LocalGraphApi local(dataset->graph, dataset->labels);
  const traffic::TrafficConfig config = CellConfig(o.seed, 0, o.tenants, 0.0);
  const CellResult shared = RunCell(local, config, nullptr, 0);
  const CellResult wrapped = RunCell(local, config, nullptr, 0, true);
  const CellResult traced = RunCell(local, config, &tracer, 0, true);
  if (!shared.ok || !wrapped.ok || !traced.ok ||
      shared.report.table_hash != wrapped.report.table_hash ||
      shared.report.table_hash != traced.report.table_hash) {
    mismatches.push_back(
        "traffic: per-session transports change the tenant table");
  }
  return mismatches;
}

}  // namespace perfbench
