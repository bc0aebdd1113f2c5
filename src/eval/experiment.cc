#include "eval/experiment.h"

#include <algorithm>
#include <atomic>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <thread>

#include "estimators/checkpoint.h"
#include "estimators/session.h"
#include "graph/oracle.h"
#include "osn/chaos.h"
#include "osn/client.h"
#include "osn/local_api.h"
#include "rw/walk_batch.h"
#include "util/rng.h"
#include "util/serialize.h"
#include "util/stats.h"

namespace labelrw::eval {

const char* SweepProtocolName(SweepProtocol protocol) {
  switch (protocol) {
    case SweepProtocol::kIndependentRuns:
      return "independent-runs";
    case SweepProtocol::kPrefixBudget:
      return "prefix-budget";
  }
  return "unknown";
}

std::vector<double> SweepConfig::PaperFractions() {
  std::vector<double> fractions;
  for (int i = 1; i <= 10; ++i) fractions.push_back(0.005 * i);
  return fractions;
}

Status SweepConfig::Validate() const {
  if (sample_fractions.empty()) {
    return InvalidArgumentError("sample_fractions must be non-empty");
  }
  for (double f : sample_fractions) {
    if (f <= 0.0 || f > 1.0) {
      return InvalidArgumentError("sample fractions must lie in (0, 1]");
    }
  }
  if (reps <= 0) return InvalidArgumentError("reps must be positive");
  if (algorithms.empty()) {
    return InvalidArgumentError("algorithms must be non-empty");
  }
  if (burn_in < 0) return InvalidArgumentError("burn_in must be >= 0");
  if (walk_batch_size < 0) {
    return InvalidArgumentError("walk_batch_size must be >= 0 (0 = scalar)");
  }
  if (walk_reorder && walk_batch_size <= 0) {
    return InvalidArgumentError(
        "walk_reorder reorders co-scheduled lanes; set walk_batch_size > 0");
  }
  if (!checkpoint_dir.empty() && walk_batch_size > 0) {
    return InvalidArgumentError(
        "checkpoint_dir requires scalar driving (walk_batch_size == 0): "
        "co-scheduled lanes have no per-task durable state");
  }
  if (halt_after_tasks >= 0 && checkpoint_dir.empty()) {
    return InvalidArgumentError(
        "halt_after_tasks is a durable-sweep hook; set checkpoint_dir");
  }
  if (protocol == SweepProtocol::kPrefixBudget) {
    for (size_t i = 1; i < sample_fractions.size(); ++i) {
      if (sample_fractions[i] <= sample_fractions[i - 1]) {
        return InvalidArgumentError(
            "prefix-budget protocol requires strictly ascending "
            "sample_fractions");
      }
    }
    if (ht_thinning == estimators::HtThinning::kSpacing) {
      // The HT spacing stride is derived from the session's nominal sample
      // size; under the prefix protocol that is the largest budget, so
      // small-budget snapshots would thin ~b_max/b times too coarsely and
      // no longer match independent runs. Run thinning studies under the
      // independent protocol.
      return InvalidArgumentError(
          "prefix-budget protocol does not support HT spacing-thinning "
          "(the stride would be derived from the largest budget)");
    }
  }
  return Status::Ok();
}

namespace {

/// Per-worker reusable buffers: each per-rep LocalGraphApi resets its
/// crawl-cache stamps in O(1) instead of allocating a fresh O(|V|) array
/// (reps x sizes x algorithms times). OsnClient needs none: its cache
/// grows with the users a rep touches.
struct WorkerScratch {
  osn::TouchedSet touched;
};

/// The access stack of one task (one rep). Exactly one of `local` (the v1
/// fast path) or `client` (the scenario stack) is set; `dynamic` backs the
/// client when the scenario mutates the graph.
struct TaskApi {
  std::unique_ptr<osn::LocalGraphApi> local;
  std::unique_ptr<osn::DynamicGraphTransport> dynamic;
  /// Chaos decorator between the backend and the client when the scenario
  /// carries a FaultSchedule (its wire-call ordinal joins the checkpoint).
  std::unique_ptr<osn::ChaosTransport> chaos;
  /// Factory-built backend of a transport sweep (RunTransportSweep).
  /// Declared before `client` so the client — which holds a reference into
  /// it — is destroyed first.
  std::unique_ptr<osn::Transport> owned;
  std::unique_ptr<osn::OsnClient> client;
  osn::OsnApi* api = nullptr;
  /// Why `api` is nullptr (a failed transport factory); Ok otherwise.
  Status error;
  /// The backend's raw CSR (api->FastGraphView()), cached here so the
  /// batched driver's prefetch rounds skip the virtual call. nullptr on
  /// backends without a stable CSR (dynamic transports).
  const graph::Graph* prefetch = nullptr;
};

/// Everything the shared sweep core needs beyond the SweepConfig.
struct SweepDriver {
  std::function<TaskApi(WorkerScratch&)> make_api;
  /// Drive sessions in chunks of at most this many iterations (0 = whole
  /// budgets at a time), with a discarded anytime Snapshot between chunks.
  int64_t step_chunk = 0;
  /// Sessions step transactionally and the driver sleeps the sim clock
  /// across kRateLimited rejections (strict rate limiting).
  bool drive_rate_limits = false;
  /// Force the walker detour policy on every run (Scenario::walker_detour).
  bool detour_on_denied = false;
  /// Graceful degradation: a crawl that dies with kUnavailable (outage
  /// retries exhausted) or kDeadlineExceeded contributes its anytime
  /// estimate (or is dropped from the cell if it never iterated) instead of
  /// failing the sweep. Enabled by RunScenarioSweep when the scenario can
  /// produce persistent faults (chaos schedule / call deadlines).
  bool degrade_on_outage = false;
  /// Invoked under the merge lock once per completed task.
  std::function<void(const TaskApi&)> on_task_done;
};

/// Steps `session` to `nested_budget` sampling-phase calls (<= 0: to the
/// options' own limits), honoring the driver's chunking and strict
/// rate-limit handling. With `stop_at_iterations` >= 0 the drive also
/// pauses once the session's iteration count reaches it (the durable
/// sweep's checkpoint cadence); `*settled` then reports whether the target
/// (rather than the pause) was reached. Pausing and resuming is invisible
/// to the session — iteration chunking of any shape lands bit-identically
/// (session.h contract).
Status DriveSession(estimators::EstimatorSession& session, TaskApi& task,
                    const SweepDriver& driver, int64_t nested_budget,
                    int64_t stop_at_iterations = -1, bool* settled = nullptr) {
  constexpr int64_t kUnbounded = std::numeric_limits<int64_t>::max();
  if (settled != nullptr) *settled = false;
  while (true) {
    int64_t chunk = driver.step_chunk > 0 ? driver.step_chunk : kUnbounded;
    if (stop_at_iterations >= 0) {
      const int64_t left = stop_at_iterations - session.iterations();
      if (left <= 0) return Status::Ok();
      chunk = std::min(chunk, left);
    }
    const Result<int64_t> stepped =
        nested_budget > 0 ? session.StepUntilBudget(nested_budget, chunk)
                          : session.Step(chunk);
    if (!stepped.ok()) {
      if (driver.drive_rate_limits && task.client != nullptr &&
          stepped.status().code() == StatusCode::kRateLimited) {
        // The crawler sleeps out the advertised retry-after; the rolled-back
        // work re-executes on the same RNG stream.
        task.client->mutable_clock().AdvanceUs(
            task.client->last_retry_after_us());
        continue;
      }
      return stepped.status();
    }
    if (driver.step_chunk > 0 && *stepped > 0 && session.iterations() > 0) {
      // Exercise the anytime surface between chunks; Snapshot is const, so
      // this cannot perturb the run (that is the point of the test).
      (void)session.Snapshot();
    }
    if (*stepped == 0 || session.finished()) {
      if (settled != nullptr) *settled = true;
      return Status::Ok();
    }
  }
}

/// One (size, rep) coordinate's durable record inside a task checkpoint.
struct TaskCellEntry {
  double estimate = 0.0;
  double calls = 0.0;
  uint8_t valid = 1;        // 0: the crawl died before its first iteration
  double staleness = 0.0;   // unconsumed budget fraction when the crawl died
};

constexpr uint8_t kTaskStatePartial = 1;
constexpr uint8_t kTaskStateDone = 2;

std::string TaskCheckpointPath(const std::string& dir, int64_t task_id) {
  return dir + "/task_" + std::to_string(task_id) + ".ckpt";
}

/// Payload layout of a task checkpoint (inside the estimators/checkpoint.h
/// envelope): u8 state, u64 completed-entry count, the entries, then — for
/// partial checkpoints — the bundled session/client/chaos state of the
/// in-flight crawl.
std::string SerializeTaskPayload(uint8_t state,
                                 const std::vector<TaskCellEntry>& entries,
                                 const estimators::EstimatorSession* session,
                                 const TaskApi& task) {
  util::ByteWriter w;
  w.U8(state);
  w.U64(entries.size());
  for (const TaskCellEntry& e : entries) {
    w.F64(e.estimate);
    w.F64(e.calls);
    w.U8(e.valid);
    w.F64(e.staleness);
  }
  std::string payload = w.TakeBuffer();
  if (state == kTaskStatePartial) {
    payload += estimators::SerializeSessionState(*session, task.client.get(),
                                                 task.chaos.get());
  }
  return payload;
}

Status ParseTaskPayload(const std::string& payload, size_t task_sizes,
                        bool* done, std::vector<TaskCellEntry>* entries,
                        std::string* session_payload) {
  util::ByteReader r(payload);
  uint8_t state = 0;
  uint64_t count = 0;
  LABELRW_RETURN_IF_ERROR(r.U8(&state));
  LABELRW_RETURN_IF_ERROR(r.U64(&count));
  if ((state != kTaskStatePartial && state != kTaskStateDone) ||
      count > task_sizes || (state == kTaskStateDone && count != task_sizes)) {
    return DataLossError(
        "task checkpoint is inconsistent with the sweep configuration; "
        "delete the checkpoint directory and re-run from scratch");
  }
  entries->clear();
  for (uint64_t i = 0; i < count; ++i) {
    TaskCellEntry e;
    LABELRW_RETURN_IF_ERROR(r.F64(&e.estimate));
    LABELRW_RETURN_IF_ERROR(r.F64(&e.calls));
    LABELRW_RETURN_IF_ERROR(r.U8(&e.valid));
    LABELRW_RETURN_IF_ERROR(r.F64(&e.staleness));
    entries->push_back(e);
  }
  *done = state == kTaskStateDone;
  session_payload->clear();
  if (!*done) {
    if (r.remaining() == 0) {
      return DataLossError(
          "partial task checkpoint carries no session state; delete the "
          "checkpoint directory and re-run from scratch");
    }
    *session_payload = payload.substr(payload.size() - r.remaining());
  } else if (r.remaining() != 0) {
    return DataLossError("task checkpoint payload has trailing bytes");
  }
  return Status::Ok();
}

/// One co-scheduled rep of a walk batch (SweepConfig::walk_batch_size):
/// its own access stack + session, plus the driving flags.
struct BatchLane {
  TaskApi task;
  std::unique_ptr<estimators::EstimatorSession> session;
  int64_t rep = 0;
  bool failed = false;   // error already merged; skip for good
  bool settled = false;  // reached the current drive target
  graph::NodeId frontier[2] = {0, 0};  // per-round scratch (DriveLanes):
  int frontier_n = 0;                  // filled once, used by both phases
};

/// Drives every live lane to `nested_budget` (<= 0: the options' own
/// limits) one iteration per round. In kInterleaved mode, first every
/// lane's walk-frontier rows are prefetched (offsets, then adjacency —
/// two sweeps so the dependent loads overlap across lanes; see
/// rw/walk_batch.h), then each lane steps in lane order. In kReorder
/// mode the lanes are queued into an AccessEngine keyed by where their
/// frontier row lives and stepped in locality order behind the engine's
/// prefetch pipeline. Per-lane work is exactly DriveSession with step
/// chunk 1 either way, so results are bit-identical to scalar driving —
/// a lane's trajectory depends only on its own streams, never on its
/// position within the round; a kRateLimited lane advances its own clock
/// and retries next round without stalling the others. Lane errors are
/// reported through `merge_error` and disable the lane; the block keeps
/// driving its siblings (matching the scalar worker, which keeps
/// claiming tasks after an error).
template <typename MergeError>
void DriveLanes(std::vector<BatchLane>& lanes, const SweepDriver& driver,
                int64_t nested_budget, rw::BatchMode mode,
                const MergeError& merge_error) {
  for (BatchLane& lane : lanes) lane.settled = lane.failed;
  rw::AccessEngine engine;  // reorder-mode scratch, reused across rounds
  bool any_live = false;
  auto step_lane = [&](BatchLane& lane) {
    const Result<int64_t> stepped =
        nested_budget > 0 ? lane.session->StepUntilBudget(nested_budget, 1)
                          : lane.session->Step(1);
    if (!stepped.ok()) {
      if (driver.drive_rate_limits && lane.task.client != nullptr &&
          stepped.status().code() == StatusCode::kRateLimited) {
        lane.task.client->mutable_clock().AdvanceUs(
            lane.task.client->last_retry_after_us());
        any_live = true;  // the rolled-back iteration retries next round
        return;
      }
      merge_error(stepped.status());
      lane.failed = true;
      lane.settled = true;
      return;
    }
    if (*stepped == 0 || lane.session->finished()) {
      lane.settled = true;
    } else {
      any_live = true;
    }
  };
  while (true) {
    any_live = false;
    for (BatchLane& lane : lanes) {
      if (lane.settled) continue;
      if (mode == rw::BatchMode::kReorder || lane.task.prefetch != nullptr) {
        lane.frontier_n = lane.session->WalkFrontier(lane.frontier);
      }
      if (mode == rw::BatchMode::kInterleaved &&
          lane.task.prefetch != nullptr) {
        for (int k = 0; k < lane.frontier_n; ++k) {
          rw::PrefetchCsrOffsets(*lane.task.prefetch, lane.frontier[k]);
        }
      }
    }
    if (mode == rw::BatchMode::kReorder) {
      engine.Clear();
      engine.Reserve(lanes.size());
      for (size_t i = 0; i < lanes.size(); ++i) {
        const BatchLane& lane = lanes[i];
        if (lane.settled) continue;
        const graph::NodeId anchor =
            lane.frontier_n > 0 ? lane.frontier[0] : 0;
        engine.Add(rw::CsrLocalityKey(lane.task.prefetch, anchor),
                   static_cast<uint32_t>(i));
      }
      engine.SortByLocality();
      // Phased: a session step costs orders of magnitude more than a
      // prefetch, and a lane group is tens of entries, so the whole-queue
      // lead is both cache-safe and the maximal overlap.
      (void)engine.ServiceAllPhased(
          [&](uint32_t tag) {
            const BatchLane& lane = lanes[tag];
            if (lane.task.prefetch == nullptr) return;
            for (int k = 0; k < lane.frontier_n; ++k) {
              rw::PrefetchCsrOffsets(*lane.task.prefetch, lane.frontier[k]);
            }
          },
          [&](uint32_t tag) {
            const BatchLane& lane = lanes[tag];
            if (lane.task.prefetch == nullptr) return;
            for (int k = 0; k < lane.frontier_n; ++k) {
              rw::PrefetchCsrRow(*lane.task.prefetch, lane.frontier[k]);
            }
          },
          [&](uint32_t tag) {
            step_lane(lanes[tag]);
            return Status::Ok();  // lane errors are merged, not propagated
          });
    } else {
      for (const BatchLane& lane : lanes) {
        if (lane.settled || lane.task.prefetch == nullptr) continue;
        for (int k = 0; k < lane.frontier_n; ++k) {
          rw::PrefetchCsrRow(*lane.task.prefetch, lane.frontier[k]);
        }
      }
      for (BatchLane& lane : lanes) {
        if (lane.settled) continue;
        step_lane(lane);
      }
    }
    if (!any_live) return;
  }
}

Result<SweepResult> RunSweepImpl(const graph::Graph& graph,
                                 const graph::LabelStore& labels,
                                 const graph::TargetLabel& target,
                                 const SweepConfig& config,
                                 const SweepDriver& driver) {
  LABELRW_RETURN_IF_ERROR(config.Validate());
  if (labels.num_nodes() != graph.num_nodes()) {
    return InvalidArgumentError("RunSweep: label store size mismatch");
  }

  SweepResult result;
  result.algorithms = config.algorithms;
  result.sample_fractions = config.sample_fractions;
  result.protocol = config.protocol;
  result.truth = graph::CountTargetEdges(graph, labels, target);
  if (result.truth == 0) {
    return FailedPreconditionError("RunSweep: target has no edges (F = 0)");
  }
  for (double f : config.sample_fractions) {
    const auto k = static_cast<int64_t>(
        f * static_cast<double>(graph.num_nodes()) + 0.5);
    result.sample_sizes.push_back(k < 1 ? 1 : k);
  }

  // Shared priors (computing max_line_degree once costs O(m)).
  const graph::DegreeStats degree_stats = graph::ComputeDegreeStats(graph);
  osn::GraphPriors priors;
  priors.num_nodes = graph.num_nodes();
  priors.num_edges = graph.num_edges();
  priors.max_degree = degree_stats.max_degree;
  priors.max_line_degree = degree_stats.max_line_degree;

  const size_t num_algos = config.algorithms.size();
  const size_t num_sizes = result.sample_sizes.size();
  const auto reps = static_cast<size_t>(config.reps);
  // Per-rep result slots, reduced sequentially after the pool joins: cell
  // aggregates are bit-identical for ANY thread count and schedule (merging
  // into a running accumulator in completion order would make the floating-
  // point sums schedule-dependent). ~16 bytes x algos x sizes x reps.
  std::vector<double> slot_estimates(num_algos * num_sizes * reps, 0.0);
  std::vector<double> slot_calls(num_algos * num_sizes * reps, 0.0);
  std::vector<uint8_t> slot_valid(num_algos * num_sizes * reps, 1);
  std::vector<double> slot_staleness(num_algos * num_sizes * reps, 0.0);
  const auto slot = [num_sizes, reps](size_t a, size_t s, size_t rep) {
    return (a * num_sizes + s) * reps + rep;
  };

  // Work queue. Independent runs: flattened (algorithm, size, rep) triples,
  // one session run each. Prefix budget: flattened (algorithm, rep) pairs —
  // one resumable session walks to each budget in ascending order and its
  // snapshots fill the whole row of size cells. With walk_batch_size > 0
  // the rep axis is claimed in blocks of up to `batch` reps instead: a
  // block's sessions are co-scheduled through one interleaved prefetching
  // loop (DriveLanes), landing in the same slots with the same seeds.
  const bool prefix = config.protocol == SweepProtocol::kPrefixBudget;
  const int64_t batch = config.walk_batch_size;
  const int64_t num_cells =
      prefix ? static_cast<int64_t>(num_algos)
             : static_cast<int64_t>(num_algos) * static_cast<int64_t>(num_sizes);
  const int64_t blocks_per_cell =
      batch > 0 ? (config.reps + batch - 1) / batch : 0;
  const int64_t total_tasks =
      batch > 0 ? num_cells * blocks_per_cell : num_cells * config.reps;
  std::atomic<int64_t> next_task{0};
  std::mutex merge_mutex;
  Status first_error;

  // Durable-sweep machinery (inert when checkpoint_dir is empty).
  const bool checkpointing = !config.checkpoint_dir.empty();
  const int64_t ckpt_every = config.checkpoint_every_steps > 0
                                 ? config.checkpoint_every_steps
                                 : 4096;
  std::atomic<bool> halt{false};
  std::atomic<int64_t> resumed_tasks{0};
  std::atomic<int64_t> completed_tasks{0};
  auto task_completed = [&]() {
    const int64_t done = completed_tasks.fetch_add(1,
                                                   std::memory_order_relaxed) +
                         1;
    if (config.halt_after_tasks >= 0 && done >= config.halt_after_tasks) {
      halt.store(true, std::memory_order_relaxed);
    }
  };

  int threads = config.threads > 0
                    ? config.threads
                    : static_cast<int>(std::thread::hardware_concurrency());
  if (threads < 1) threads = 1;

  auto make_options = [&](size_t algo_idx, uint64_t seed_size_idx,
                          int64_t rep, int64_t api_budget) {
    estimators::EstimateOptions options;
    // The paper's protocol: the budget axis is API calls ("x% |V| API
    // calls"), not iterations.
    options.api_budget = api_budget;
    options.burn_in = config.burn_in;
    options.seed = DeriveSeed(config.seed, algo_idx, seed_size_idx,
                              static_cast<uint64_t>(rep));
    options.ht_thinning = config.ht_thinning;
    options.ht_spacing_fraction = config.ht_spacing_fraction;
    options.ns_walk_kind = config.ns_walk_kind;
    options.detour_on_denied =
        config.detour_on_denied || driver.detour_on_denied;
    options.rcmh_alpha = config.rcmh_alpha;
    options.gmd_delta = config.gmd_delta;
    return options;
  };

  auto merge_error = [&](const Status& status) {
    std::lock_guard<std::mutex> lock(merge_mutex);
    if (first_error.ok()) first_error = status;
  };

  auto merge_cell = [&](size_t algo_idx, size_t size_idx, size_t rep,
                        const Result<estimators::EstimateResult>& estimate) {
    if (!estimate.ok()) {
      merge_error(estimate.status());
      return;
    }
    // Lock-free: every (algorithm, size, rep) coordinate is owned by
    // exactly one task.
    slot_estimates[slot(algo_idx, size_idx, rep)] = estimate->estimate;
    slot_calls[slot(algo_idx, size_idx, rep)] =
        static_cast<double>(estimate->api_calls);
  };

  auto task_done = [&](const TaskApi& task) {
    if (!driver.on_task_done) return;
    std::lock_guard<std::mutex> lock(merge_mutex);
    driver.on_task_done(task);
  };

  // The scalar worker. One task = one rep: a single (algorithm, size) cell
  // under the independent protocol, or the full row of nested-budget cells
  // under prefix-budget (the session's own budget is the largest size and
  // nested budgets are snapshot points along the way; the prefix seed's
  // size coordinate is pinned to num_sizes so prefix rep streams are
  // distinct from any independent-runs stream). With checkpointing on, the
  // task's durable file is consulted at claim time and rewritten at every
  // cadence point and at completion.
  auto worker = [&]() {
    WorkerScratch scratch;
    while (true) {
      if (halt.load(std::memory_order_relaxed)) return;
      const int64_t task_id = next_task.fetch_add(1, std::memory_order_relaxed);
      if (task_id >= total_tasks) return;
      const auto rep = static_cast<size_t>(task_id % config.reps);
      const auto cell = task_id / config.reps;
      const auto algo_idx =
          static_cast<size_t>(prefix ? cell : cell / num_sizes);
      const size_t first_size =
          prefix ? 0 : static_cast<size_t>(cell) % num_sizes;
      const size_t task_sizes = prefix ? num_sizes : 1;

      std::vector<TaskCellEntry> entries;  // completed cells, durable order
      std::string ckpt_path;
      std::string session_payload;

      // Lock-free slot writes: every coordinate is owned by one task.
      auto merge_entry = [&](size_t k, const TaskCellEntry& e) {
        const size_t i = slot(algo_idx, first_size + k, rep);
        slot_estimates[i] = e.estimate;
        slot_calls[i] = e.calls;
        slot_valid[i] = e.valid;
        slot_staleness[i] = e.staleness;
      };

      if (checkpointing) {
        ckpt_path = TaskCheckpointPath(config.checkpoint_dir, task_id);
        Result<std::string> file = estimators::ReadCheckpointFile(ckpt_path);
        if (file.ok()) {
          bool done = false;
          const Status parsed = ParseTaskPayload(*file, task_sizes, &done,
                                                 &entries, &session_payload);
          if (!parsed.ok()) {
            merge_error(parsed);
            continue;
          }
          resumed_tasks.fetch_add(1, std::memory_order_relaxed);
          for (size_t k = 0; k < entries.size(); ++k) {
            merge_entry(k, entries[k]);
          }
          if (done) {
            task_completed();
            continue;
          }
        } else if (file.status().code() != StatusCode::kNotFound) {
          merge_error(file.status());  // fail closed on a corrupt file
          continue;
        }
      }

      TaskApi task = driver.make_api(scratch);
      if (task.api == nullptr) {
        merge_error(task.error.ok()
                        ? InternalError("make_api produced no access stack")
                        : task.error);
        continue;
      }
      const auto options =
          prefix ? make_options(algo_idx, num_sizes, static_cast<int64_t>(rep),
                                result.sample_sizes[num_sizes - 1])
                 : make_options(algo_idx, first_size,
                                static_cast<int64_t>(rep),
                                result.sample_sizes[first_size]);
      // The exact Estimate() shim, opened up so the driver can chunk the
      // stepping and absorb strict rate limits: Create + Run + Snapshot.
      auto session = estimators::EstimatorSession::Create(
          config.algorithms[algo_idx], *task.api, target, priors, options);
      if (!session.ok()) {
        merge_error(session.status());
        continue;
      }
      if (driver.drive_rate_limits) {
        (*session)->set_transactional_stepping(true);
      }
      if (!session_payload.empty()) {
        // Identical configuration by construction (same config -> same
        // options/stack), so the restored crawl continues bit-identically.
        const Status restored = estimators::RestoreSessionState(
            session_payload, session->get(), task.client.get(),
            task.chaos.get());
        if (!restored.ok()) {
          merge_error(restored);
          continue;
        }
      }

      bool failed = false;
      bool abandoned = false;
      // Set once the crawl dies in a tolerated way (persistent outage /
      // deadline); the remaining cells reuse its last anytime estimate or
      // are marked lost if it never iterated.
      bool crawl_dead = false;
      bool have_dead_snap = false;
      estimators::EstimateResult dead_snap;
      for (size_t k = entries.size(); k < task_sizes; ++k) {
        const int64_t budget = result.sample_sizes[first_size + k];
        TaskCellEntry entry;
        if (!crawl_dead) {
          Status run = Status::Ok();
          if (checkpointing) {
            while (true) {
              bool settled = false;
              run = DriveSession(**session, task, driver,
                                 prefix ? budget : 0,
                                 (*session)->iterations() + ckpt_every,
                                 &settled);
              if (!run.ok() || settled) break;
              const Status wrote = estimators::WriteCheckpointFile(
                  ckpt_path, SerializeTaskPayload(kTaskStatePartial, entries,
                                                  session->get(), task));
              if (!wrote.ok()) {
                run = wrote;
                break;
              }
              if (halt.load(std::memory_order_relaxed)) {
                abandoned = true;  // partial state is durable; stop here
                break;
              }
            }
            if (abandoned) break;
          } else {
            run = DriveSession(**session, task, driver, prefix ? budget : 0);
          }
          if (run.ok()) {
            const Result<estimators::EstimateResult> snap =
                (*session)->Snapshot();
            if (!snap.ok()) {
              merge_error(snap.status());
              failed = true;
              break;
            }
            entry.estimate = snap->estimate;
            entry.calls = static_cast<double>(snap->api_calls);
          } else if (driver.degrade_on_outage &&
                     (run.code() == StatusCode::kUnavailable ||
                      run.code() == StatusCode::kDeadlineExceeded)) {
            crawl_dead = true;
            if ((*session)->iterations() > 0) {
              const Result<estimators::EstimateResult> snap =
                  (*session)->Snapshot();
              if (snap.ok()) {
                dead_snap = *snap;
                have_dead_snap = true;
              }
            }
          } else {
            merge_error(run);
            failed = true;
            break;
          }
        }
        if (crawl_dead) {
          if (have_dead_snap) {
            entry.estimate = dead_snap.estimate;
            entry.calls = static_cast<double>(dead_snap.api_calls);
            entry.staleness = std::max(
                0.0, 1.0 - entry.calls / static_cast<double>(budget));
          } else {
            entry.valid = 0;
          }
        }
        merge_entry(k, entry);
        entries.push_back(entry);
      }
      if (failed || abandoned) continue;
      if (checkpointing) {
        const Status wrote = estimators::WriteCheckpointFile(
            ckpt_path,
            SerializeTaskPayload(kTaskStateDone, entries, nullptr, task));
        if (!wrote.ok()) {
          merge_error(wrote);
          continue;
        }
      }
      task_done(task);
      task_completed();
    }
  };

  // The walk_batch_size > 0 worker: claims a block of reps of one cell,
  // builds one access stack + session per rep, and drives them through the
  // interleaved prefetching loop. Same seeds, same slots, same per-session
  // streams as the scalar worker — only the memory-system timing differs.
  auto batch_worker = [&]() {
    std::vector<WorkerScratch> scratch(static_cast<size_t>(batch));
    std::vector<BatchLane> lanes;
    while (true) {
      const int64_t block_id =
          next_task.fetch_add(1, std::memory_order_relaxed);
      if (block_id >= total_tasks) return;
      const int64_t cell = block_id / blocks_per_cell;
      const int64_t rep0 = (block_id % blocks_per_cell) * batch;
      const int64_t rep1 = std::min<int64_t>(config.reps, rep0 + batch);
      const auto algo_idx =
          static_cast<size_t>(prefix ? cell : cell / num_sizes);
      const size_t size_idx =
          prefix ? 0 : static_cast<size_t>(cell) % num_sizes;

      lanes.clear();
      for (int64_t rep = rep0; rep < rep1; ++rep) {
        BatchLane lane;
        lane.rep = rep;
        lane.task = driver.make_api(scratch[static_cast<size_t>(rep - rep0)]);
        if (lane.task.api == nullptr) {
          merge_error(lane.task.error.ok()
                          ? InternalError("make_api produced no access stack")
                          : lane.task.error);
          lane.failed = true;
          lanes.push_back(std::move(lane));
          continue;
        }
        const auto options =
            prefix ? make_options(algo_idx, num_sizes, rep,
                                  result.sample_sizes[num_sizes - 1])
                   : make_options(algo_idx, size_idx, rep,
                                  result.sample_sizes[size_idx]);
        auto session = estimators::EstimatorSession::Create(
            config.algorithms[algo_idx], *lane.task.api, target, priors,
            options);
        if (!session.ok()) {
          merge_error(session.status());
          lane.failed = true;
        } else {
          lane.session = std::move(*session);
          if (driver.drive_rate_limits) {
            lane.session->set_transactional_stepping(true);
          }
        }
        lanes.push_back(std::move(lane));
      }

      const rw::BatchMode mode = config.walk_reorder
                                     ? rw::BatchMode::kReorder
                                     : rw::BatchMode::kInterleaved;
      if (prefix) {
        for (size_t s = 0; s < num_sizes; ++s) {
          DriveLanes(lanes, driver, result.sample_sizes[s], mode, merge_error);
          for (const BatchLane& lane : lanes) {
            if (lane.failed) continue;
            merge_cell(algo_idx, s, static_cast<size_t>(lane.rep),
                       lane.session->Snapshot());
          }
        }
      } else {
        DriveLanes(lanes, driver, /*nested_budget=*/0, mode, merge_error);
        for (const BatchLane& lane : lanes) {
          if (lane.failed) continue;
          merge_cell(algo_idx, size_idx, static_cast<size_t>(lane.rep),
                     lane.session->Snapshot());
        }
      }
      for (const BatchLane& lane : lanes) {
        if (!lane.failed) task_done(lane.task);
      }
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (int i = 0; i < threads; ++i) {
    if (batch > 0) {
      pool.emplace_back(batch_worker);
    } else {
      pool.emplace_back(worker);
    }
  }
  for (auto& t : pool) t.join();
  if (!first_error.ok()) return first_error;

  result.resumed_tasks = resumed_tasks.load(std::memory_order_relaxed);
  result.completed_tasks = completed_tasks.load(std::memory_order_relaxed);
  result.halted = halt.load(std::memory_order_relaxed) &&
                  result.completed_tasks < total_tasks;

  // Sequential reduction in slot order: bit-identical for any thread count.
  // Invalid slots (crawls lost before their first iteration) are excluded;
  // without degradation every slot is valid and the aggregates match the
  // pre-resilience reduction exactly.
  result.cells.assign(num_algos, std::vector<CellResult>(num_sizes));
  double staleness_sum = 0.0;
  for (size_t a = 0; a < num_algos; ++a) {
    for (size_t s = 0; s < num_sizes; ++s) {
      NrmseAccumulator nrmse(static_cast<double>(result.truth));
      RunningStats api_calls;
      size_t valid = 0;
      for (size_t rep = 0; rep < reps; ++rep) {
        const size_t i = slot(a, s, rep);
        if (slot_valid[i] == 0) {
          ++result.aborted_cells;
          continue;
        }
        nrmse.Add(slot_estimates[i]);
        api_calls.Add(slot_calls[i]);
        ++valid;
        if (slot_staleness[i] > 0.0) {
          ++result.degraded_cells;
          staleness_sum += slot_staleness[i];
        }
      }
      CellResult& out = result.cells[a][s];
      out.availability = static_cast<double>(valid) / static_cast<double>(reps);
      if (valid == 0) continue;  // nothing usable; availability says why
      out.nrmse = nrmse.Nrmse();
      out.mean_estimate = nrmse.MeanEstimate();
      out.relative_bias = nrmse.RelativeBias();
      out.mean_api_calls = api_calls.mean();
    }
  }
  if (result.degraded_cells > 0) {
    result.mean_staleness =
        staleness_sum / static_cast<double>(result.degraded_cells);
  }
  return result;
}

}  // namespace

Result<SweepResult> RunSweep(const graph::Graph& graph,
                             const graph::LabelStore& labels,
                             const graph::TargetLabel& target,
                             const SweepConfig& config) {
  if (!config.checkpoint_dir.empty()) {
    // Durable sweeps need the OsnClient session stack — its charge, cache,
    // and clock ledgers are what the checkpoint serializes. The default
    // Scenario's client is accounting-identical to the direct LocalGraphApi
    // path (test-enforced in scenario_test.cc), so the results are
    // bit-identical to this function's fast path.
    return RunScenarioSweep(graph, labels, target, config, osn::Scenario());
  }
  SweepDriver driver;
  driver.make_api = [&graph, &labels](WorkerScratch& scratch) {
    TaskApi task;
    task.local = std::make_unique<osn::LocalGraphApi>(
        graph, labels, osn::CostModel(), /*budget=*/-1, &scratch.touched);
    task.api = task.local.get();
    task.prefetch = task.api->FastGraphView();
    return task;
  };
  return RunSweepImpl(graph, labels, target, config, driver);
}

Result<SweepResult> RunTransportSweep(const graph::Graph& graph,
                                      const graph::LabelStore& labels,
                                      const graph::TargetLabel& target,
                                      const SweepConfig& config,
                                      const TransportFactory& factory) {
  if (!factory) {
    return InvalidArgumentError("RunTransportSweep: null transport factory");
  }
  if (!config.checkpoint_dir.empty()) {
    return InvalidArgumentError(
        "RunTransportSweep does not support checkpoint_dir: a factory "
        "transport's wire state is not serialized");
  }
  SweepDriver driver;
  driver.make_api = [&factory](WorkerScratch&) {
    TaskApi task;
    Result<std::unique_ptr<osn::Transport>> transport = factory();
    if (!transport.ok()) {
      task.error = transport.status();
      return task;
    }
    task.owned = std::move(*transport);
    // The default-scenario client stack: accounting-identical to the direct
    // LocalGraphApi path (scenario_test.cc), so the transport is the only
    // variable between this sweep and RunSweep.
    task.client = std::make_unique<osn::OsnClient>(*task.owned);
    task.api = task.client.get();
    task.prefetch = task.api->FastGraphView();
    return task;
  };
  return RunSweepImpl(graph, labels, target, config, driver);
}

Result<SweepResult> RunScenarioSweep(const graph::Graph& graph,
                                     const graph::LabelStore& labels,
                                     const graph::TargetLabel& target,
                                     const SweepConfig& config,
                                     const osn::Scenario& scenario,
                                     const ScenarioRunOptions& run_options,
                                     ScenarioTelemetry* telemetry) {
  LABELRW_RETURN_IF_ERROR(scenario.Validate());
  if (!config.checkpoint_dir.empty() && scenario.needs_dynamic_transport()) {
    return InvalidArgumentError(
        "checkpoint_dir cannot be combined with a mutation schedule: the "
        "DynamicGraphTransport's churned graph state is not serialized, so "
        "a resumed crawl would observe a rewound graph");
  }
  if ((scenario.has_chaos() || scenario.retry.call_deadline_us > 0) &&
      config.walk_batch_size > 0) {
    return InvalidArgumentError(
        "chaos schedules / call deadlines require scalar driving "
        "(walk_batch_size == 0): graceful degradation of a dead crawl is "
        "implemented for the per-task worker only");
  }

  // Static scenarios share one immutable transport; a mutation schedule
  // forces a per-rep DynamicGraphTransport (each rep owns its own timeline,
  // so each gets its own churning copy of the graph).
  osn::LocalGraphApi static_transport(graph, labels);

  SweepDriver driver;
  driver.step_chunk = run_options.step_chunk > 0 ? run_options.step_chunk : 0;
  driver.drive_rate_limits =
      scenario.rate_limit.enabled() && !scenario.rate_limit.auto_wait;
  // Chaos privatization denies profiles mid-crawl; without the detour a
  // walk dies on the first locked-down neighbor.
  driver.detour_on_denied =
      scenario.walker_detour || !scenario.chaos.privatizations.empty();
  // Chaos outages and call deadlines can kill a crawl for good; ride the
  // survivors' anytime estimates instead of failing the sweep.
  driver.degrade_on_outage =
      scenario.has_chaos() || scenario.retry.call_deadline_us > 0;
  driver.make_api = [&graph, &labels, &scenario,
                     &static_transport](WorkerScratch&) {
    TaskApi task;
    const osn::Transport* transport = &static_transport;
    if (scenario.needs_dynamic_transport()) {
      task.dynamic = std::make_unique<osn::DynamicGraphTransport>(
          graph, labels, scenario.mutations);
      transport = task.dynamic.get();
    }
    if (scenario.has_chaos()) {
      // One decorator per rep: its wire-call ordinal is rep-local state
      // (and joins the rep's checkpoint).
      task.chaos =
          std::make_unique<osn::ChaosTransport>(*transport, scenario.chaos);
      transport = task.chaos.get();
    }
    task.client = std::make_unique<osn::OsnClient>(
        *transport, scenario.cost_model, scenario.faults);
    task.client->ConfigureRateLimit(scenario.rate_limit);
    task.client->ConfigureRetry(scenario.retry);
    if (task.dynamic != nullptr) {
      task.dynamic->AttachClock(&task.client->clock());
    }
    if (task.chaos != nullptr) {
      task.chaos->AttachClock(&task.client->clock());
    }
    task.api = task.client.get();
    task.prefetch = task.api->FastGraphView();
    return task;
  };

  int64_t tasks_seen = 0;
  int64_t clock_us_sum = 0;
  if (telemetry != nullptr) {
    *telemetry = ScenarioTelemetry();
    driver.on_task_done = [telemetry, &tasks_seen,
                           &clock_us_sum](const TaskApi& task) {
      if (task.client == nullptr) return;
      const osn::ClientStats& stats = task.client->stats();
      telemetry->pages_fetched += stats.pages_fetched;
      telemetry->transient_failures += stats.transient_failures;
      telemetry->retries += stats.retries;
      telemetry->denied_requests += stats.denied_requests;
      telemetry->rate_limit_stalls += stats.rate_limit_stalls;
      telemetry->stalled_us += stats.stalled_us;
      telemetry->rate_limited_rejections += stats.rate_limited_rejections;
      telemetry->backoffs += stats.backoffs;
      telemetry->backoff_us += stats.backoff_us;
      telemetry->deadline_exceeded += stats.deadline_exceeded;
      telemetry->shape_drifts += stats.shape_drifts;
      if (task.dynamic != nullptr) {
        telemetry->applied_mutations += task.dynamic->applied_mutations();
      }
      ++tasks_seen;
      clock_us_sum += task.client->clock().now_us();
    };
  }

  LABELRW_ASSIGN_OR_RETURN(
      SweepResult result,
      RunSweepImpl(graph, labels, target, config, driver));
  if (telemetry != nullptr) {
    if (tasks_seen > 0) {
      telemetry->mean_sim_seconds = static_cast<double>(clock_us_sum) / 1e6 /
                                    static_cast<double>(tasks_seen);
    }
    telemetry->degraded_cells = result.degraded_cells;
    telemetry->aborted_cells = result.aborted_cells;
    telemetry->mean_staleness = result.mean_staleness;
  }
  return result;
}

}  // namespace labelrw::eval
