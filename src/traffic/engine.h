// TrafficEngine: a deterministic discrete-event scheduler driving
// thousands of concurrent estimation sessions as tenants of one
// rate-limited API key.
//
// The engine interleaves tenants on a single binary heap of
// (sim_time, tenant, tie_break) events (traffic/event_loop.h). Each tenant
// owns an arrival process (open-loop Poisson or closed-loop think time,
// seeded per tenant), a priority class, and a stream of EstimatorSessions;
// sessions contend for shared token buckets / rolling quota windows
// (osn::OsnClient::AttachSharedLimiter), pass through an admission
// controller with bounded in-flight slots and queues
// (traffic/admission.h), and report latency / time-to-estimate / freshness
// percentiles per tenant (util/histogram.h) alongside NRMSE.
//
// Mechanics of the interleave: every session's client runs its own
// SimClock, advanced to the global event time before each stepping
// quantum. The shared limiter is strict (auto_wait = false) in all traffic
// presets, so a contended wire call surfaces kRateLimited; with
// transactional stepping the interrupted iteration rolls back, the engine
// re-queues the slot at (clock + retry-after), and the retry re-executes
// on the same RNG stream — tenant interleaving is therefore a pure
// function of the event order, which is itself a pure function of the
// config and seed. One simulation is strictly single-threaded; sweeps
// parallelize across independent cells (eval/traffic_sweep.h), which is
// why every table is bit-identical for any thread count.
//
// Checkpointing: SaveToFile captures the complete dynamic state — event
// heap, tenant RNGs and histograms, admission queues, shared-bucket
// ledgers, and every in-flight session via
// estimators::SerializeSessionState — in the versioned LRWCKPT envelope
// (estimators/checkpoint.h). A killed engine restored into a freshly
// constructed one with the identical config finishes bit-identically to an
// uninterrupted run (test-enforced in tests/traffic_determinism_test.cc).

#ifndef LABELRW_TRAFFIC_ENGINE_H_
#define LABELRW_TRAFFIC_ENGINE_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "estimators/session.h"
#include "osn/chaos.h"
#include "osn/client.h"
#include "osn/scenario.h"
#include "osn/transport.h"
#include "traffic/admission.h"
#include "traffic/event_loop.h"
#include "traffic/tenant.h"
#include "util/histogram.h"

namespace labelrw::traffic {

/// Builds one fresh transport per admitted session (e.g. an
/// osn::IpcTransport session against labelrw_serverd). When set, the
/// engine's shared transport supplies priors only and never serves a read.
using SessionTransportFactory =
    std::function<Result<std::unique_ptr<osn::Transport>>()>;

struct TrafficConfig {
  int64_t tenants = 100;
  /// Sessions each tenant submits over the run (its arrival process stops
  /// after this many).
  int64_t sessions_per_tenant = 1;
  /// Sampling-phase API budget per session (EstimateOptions::api_budget).
  int64_t session_budget = 150;
  int64_t burn_in = 50;
  estimators::AlgorithmId algorithm =
      estimators::AlgorithmId::kNeighborSampleHH;
  uint64_t seed = 42;
  /// Tenant i belongs to priority class i % priority_classes (0 = most
  /// important; see AdmissionController).
  int priority_classes = 2;
  /// Sampling iterations per stepping quantum: how many iterations a slot
  /// runs before the event loop switches tenants. Any value produces
  /// bit-identical telemetry (sessions are resumable state machines); it
  /// only tunes scheduler overhead vs interleaving granularity.
  int64_t step_chunk = 16;
  /// Simulation horizon; events past it are discarded. Generous default —
  /// the arrival processes are finite, so runs end on their own.
  int64_t max_sim_us = 4'000'000'000'000;  // ~46 simulated days
  /// Shared token buckets (API keys); tenant i charges bucket
  /// i % shared_buckets. 1 = the classic single contended key.
  int64_t shared_buckets = 1;
  /// Crawl conditions + load shape. rate_limit is the SHARED bucket policy;
  /// scenario.mutations are not supported here (per-session dynamic graphs
  /// would need a graph copy per slot).
  osn::Scenario scenario;
  AdmissionPolicy admission;
  /// Exact ground-truth edge count for NRMSE; <= 0 runs truth-free (NRMSE
  /// reported as 0).
  double truth = 0.0;

  // --- crash-resume hooks (both optional) ---
  /// When non-empty, the engine checkpoints its complete state here.
  std::string checkpoint_path;
  /// Rewrite the checkpoint every this many processed events (0 = only on
  /// halt).
  int64_t checkpoint_every_events = 0;
  /// Testing hook: after this many processed events, checkpoint and return
  /// a halted report. -1 = never.
  int64_t halt_after_events = -1;

  Status Validate() const;
};

/// One row of the per-tenant SLO table.
struct TenantTelemetry {
  int64_t tenant = 0;
  int priority = 0;
  int64_t submitted = 0;
  int64_t admitted = 0;
  int64_t completed = 0;
  int64_t rejected = 0;
  int64_t shed = 0;
  int64_t aborted = 0;
  int64_t rate_limited = 0;
  int64_t api_calls = 0;
  double p50_latency_us = 0.0;
  double p90_latency_us = 0.0;
  double p99_latency_us = 0.0;
  double p50_tte_us = 0.0;
  double p99_tte_us = 0.0;
  double p50_freshness_us = 0.0;
  double p99_freshness_us = 0.0;
  double mean_estimate = 0.0;
  double nrmse = 0.0;
};

struct TrafficReport {
  std::vector<TenantTelemetry> tenants;
  /// Global histograms (merge of every tenant's).
  util::LogHistogram latency;
  util::LogHistogram time_to_estimate;
  util::LogHistogram freshness;
  int64_t submitted = 0;
  int64_t admitted = 0;
  int64_t completed = 0;
  int64_t rejected = 0;
  int64_t shed = 0;
  int64_t aborted = 0;
  int64_t rate_limited = 0;
  int64_t total_api_calls = 0;
  int64_t events_processed = 0;
  int64_t queue_peak = 0;
  /// Sim time of the last processed event / completion.
  int64_t end_time_us = 0;
  /// Pooled NRMSE over every completed session (0 when truth-free).
  double nrmse = 0.0;
  /// FNV-1a digest of the full per-tenant table — counters, percentile
  /// bits, estimates. Two runs agree on this iff they agree on every row,
  /// which is what the cross-thread-count determinism guards compare.
  uint64_t table_hash = 0;
  /// True when halt_after_events fired; the state was checkpointed and the
  /// report covers the partial run.
  bool halted = false;
};

class TrafficEngine {
 public:
  /// `transport` must outlive the engine. With a factory, `transport`
  /// supplies priors only (every admitted session gets factory()); without
  /// one, all sessions read the shared const transport directly.
  TrafficEngine(const osn::Transport& transport,
                const graph::TargetLabel& target, const TrafficConfig& config,
                SessionTransportFactory factory = nullptr);

  // The slot pool holds self-referencing session stacks.
  TrafficEngine(const TrafficEngine&) = delete;
  TrafficEngine& operator=(const TrafficEngine&) = delete;

  /// Runs the simulation to completion (or to the halt hook) and returns
  /// the report. Restarting a finished engine is not supported — construct
  /// a fresh one.
  Result<TrafficReport> Run();

  /// Restores the complete dynamic state from a checkpoint written by a
  /// previous (identically configured) engine. Call before Run, on a
  /// freshly constructed engine; Run then continues the interrupted
  /// simulation.
  Status RestoreFromFile(const std::string& path);

  /// Serializes the complete dynamic state into `path` (LRWCKPT envelope).
  Status SaveToFile(const std::string& path) const;

 private:
  struct Slot {
    bool active = false;
    int64_t tenant = -1;
    int64_t session_seq = 0;
    int64_t arrival_us = 0;
    int64_t admit_us = 0;
    std::unique_ptr<osn::Transport> owned_transport;  // factory product
    std::unique_ptr<osn::ChaosTransport> chaos;
    std::unique_ptr<osn::OsnClient> client;
    std::unique_ptr<estimators::EstimatorSession> session;
  };

  Status Init();
  void ScheduleOpenLoopArrival(int64_t tenant, int64_t from_us);
  void ScheduleClosedLoopArrival(int64_t tenant, int64_t from_us);
  void OnArrival(const Event& e);
  void OnStep(const Event& e);
  Status StartSession(int64_t tenant, int64_t session_seq, int64_t arrival_us,
                      int64_t admit_us);
  /// Builds the slot's transport/client/session stack without scheduling
  /// anything (shared with checkpoint restore).
  Status BuildStack(Slot& slot, int64_t tenant, int64_t session_seq);
  void CompleteSession(int64_t slot_idx);
  void AbortSession(int64_t slot_idx, const Status& why, int64_t now_us);
  /// Releases the slot and admits the next queued request at `now_us`.
  void FinishSlot(int64_t slot_idx, int64_t now_us);
  TrafficReport Finalize(bool halted);

  std::string SerializeState() const;
  Status DeserializeState(const std::string& payload);

  const osn::Transport& transport_;
  SessionTransportFactory factory_;
  graph::TargetLabel target_;
  osn::GraphPriors priors_;
  TrafficConfig config_;
  Status config_status_;

  EventLoop loop_;
  AdmissionController admission_;
  std::vector<TenantState> tenants_;
  std::vector<std::unique_ptr<osn::RateLimiter>> buckets_;
  std::vector<Slot> slots_;
  int64_t events_processed_ = 0;
  int64_t end_time_us_ = 0;
  bool initialized_ = false;
  bool ran_ = false;
};

}  // namespace labelrw::traffic

#endif  // LABELRW_TRAFFIC_ENGINE_H_
