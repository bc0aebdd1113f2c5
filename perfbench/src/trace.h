// Spans at the layer boundaries of one crawl, recorded from outside the
// program: pass-through decorators around osn::Transport and osn::OsnApi,
// plus scoped spans the workloads open around client construction,
// IpcTransport::Connect, the estimator session and a traffic-engine cell.
//
// Each thread records into its own Tracer. A span has a layer, a start, an
// end, a parent (the innermost span open when it began) and the id of the
// estimate (or traffic session) it belongs to. Self time is folded as spans
// close: a span's duration minus the durations of its direct children.
// Only the first few estimates keep their raw spans (written out at exit);
// every span feeds the per-layer totals, so memory stays flat however long
// the run.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "osn/api.h"
#include "osn/transport.h"

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

enum class Layer : uint8_t {
  kEstimate,    // one whole estimate: connect + client + session
  kConnect,     // IpcTransport::Connect
  kClientOpen,  // OsnClient construction
  kSession,     // EstimatorSession Create + Run + Snapshot
  kApi,         // one OsnApi call
  kFetch,       // one Transport::FetchRecord
  kSeed,        // one Transport::SampleSeed
  kWireCheck,   // one Transport::WireCheck (IpcTransport's liveness probe)
  kCell,        // one TrafficEngine::Run
  kCount,
};

const char* LayerName(Layer layer);

struct LayerTotals {
  int64_t count = 0;
  int64_t total_ns = 0;
  int64_t self_ns = 0;
};

struct Span {
  Layer layer = Layer::kEstimate;
  /// Index of the parent in the same Tracer's raw spans, or -1.
  int64_t parent = -1;
  uint64_t id = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  /// For fetch spans: the first fetch of this user in its session.
  bool first_touch = false;
};

class Tracer {
 public:
  /// Raw spans are kept for estimates whose id is below `keep_raw_below`.
  explicit Tracer(uint64_t keep_raw_below) : keep_raw_below_(keep_raw_below) {}

  void Begin(Layer layer, uint64_t id);
  /// Closes the innermost open span.
  void End(bool first_touch = false);

  const std::array<LayerTotals, static_cast<size_t>(Layer::kCount)>& totals()
      const {
    return totals_;
  }
  const LayerTotals& totals(Layer layer) const {
    return totals_[static_cast<size_t>(layer)];
  }
  const std::vector<Span>& raw() const { return raw_; }
  /// Durations of first-touch fetches (one in `first_fetch_stride`).
  const std::vector<int64_t>& first_fetch_ns() const { return first_fetch_ns_; }
  int64_t first_fetches() const { return first_fetches_; }

  /// Adds another thread's totals and samples into this one.
  void Merge(const Tracer& other);

 private:
  struct Frame {
    Layer layer;
    uint64_t id;
    int64_t start_ns;
    int64_t child_ns;
    int64_t raw_index;
  };
  static constexpr int64_t kFirstFetchStride = 4;

  uint64_t keep_raw_below_;
  std::vector<Frame> stack_;
  std::array<LayerTotals, static_cast<size_t>(Layer::kCount)> totals_{};
  std::vector<Span> raw_;
  std::vector<int64_t> first_fetch_ns_;
  int64_t first_fetches_ = 0;
};

/// Opens a span for its scope; a null tracer makes it free.
class Scope {
 public:
  Scope(Tracer* tracer, Layer layer, uint64_t id) : tracer_(tracer) {
    if (tracer_ != nullptr) tracer_->Begin(layer, id);
  }
  ~Scope() {
    if (tracer_ != nullptr) tracer_->End();
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
};

/// Forwards every osn::Transport virtual to `inner`. With a tracer it
/// records a span per FetchRecord / SampleSeed / WireCheck, and with
/// `mark_first_touch` it flags the first fetch of each user (for
/// IpcTransport, the fetches that cross to the daemon; later ones are
/// served from its record arena).
class PassThroughTransport final : public labelrw::osn::Transport {
 public:
  PassThroughTransport(const labelrw::osn::Transport& inner, Tracer* tracer,
                       uint64_t id, bool mark_first_touch = false);
  PassThroughTransport(const PassThroughTransport&) = delete;
  PassThroughTransport& operator=(const PassThroughTransport&) = delete;

  /// The estimate the next spans belong to (one transport may serve many).
  void set_id(uint64_t id) { id_ = id; }

  labelrw::Result<labelrw::osn::UserRecord> FetchRecord(
      labelrw::graph::NodeId user) const override;
  labelrw::Result<labelrw::graph::NodeId> SampleSeed(
      labelrw::Rng& rng) const override;
  int64_t num_users() const override { return inner_.num_users(); }
  labelrw::osn::GraphPriors TransportPriors() const override {
    return inner_.TransportPriors();
  }
  const labelrw::graph::Graph* FastGraphView() const override {
    return inner_.FastGraphView();
  }
  labelrw::Status WireCheck() const override;
  labelrw::osn::ApiShape CurrentShape() const override {
    return inner_.CurrentShape();
  }
  bool HasWireEffects() const override { return inner_.HasWireEffects(); }

 private:
  const labelrw::osn::Transport& inner_;
  Tracer* tracer_;
  uint64_t id_;
  bool mark_first_touch_;
  mutable std::unordered_set<labelrw::graph::NodeId> seen_;
};

/// Forwards every osn::OsnApi virtual to `inner`, recording a span around
/// each data call.
class TracingApi final : public labelrw::osn::OsnApi {
 public:
  TracingApi(labelrw::osn::OsnApi& inner, Tracer& tracer, uint64_t id)
      : inner_(inner), tracer_(tracer), id_(id) {}

  labelrw::Result<std::span<const labelrw::graph::NodeId>> GetNeighbors(
      labelrw::graph::NodeId user) override;
  labelrw::Result<int64_t> GetDegree(labelrw::graph::NodeId user) override;
  labelrw::Result<std::span<const labelrw::graph::Label>> GetLabels(
      labelrw::graph::NodeId user) override;
  labelrw::Result<labelrw::graph::NodeId> RandomNode(
      labelrw::Rng& rng) override;
  int64_t api_calls() const override { return inner_.api_calls(); }
  void ResetCallCount() override { inner_.ResetCallCount(); }
  int64_t remaining_budget() const override {
    return inner_.remaining_budget();
  }
  const labelrw::graph::Graph* FastGraphView() const override {
    return inner_.FastGraphView();
  }
  void PrefetchUser(labelrw::graph::NodeId user) const override {
    inner_.PrefetchUser(user);
  }

 private:
  labelrw::osn::OsnApi& inner_;
  Tracer& tracer_;
  uint64_t id_;
};

/// Writes the merged per-layer totals and the kept raw spans as JSON.
bool WriteTrace(const std::string& path, const std::string& workload,
                uint64_t seed, const Tracer& merged,
                const std::vector<const Tracer*>& per_thread);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
