#include "trace.h"

#include <cstdio>

namespace perfbench {

namespace osn = labelrw::osn;
namespace graph = labelrw::graph;

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kEstimate:
      return "estimate";
    case Layer::kConnect:
      return "server.connect";
    case Layer::kClientOpen:
      return "osn.client_open";
    case Layer::kSession:
      return "estimators.session";
    case Layer::kApi:
      return "osn.api";
    case Layer::kFetch:
      return "transport.fetch";
    case Layer::kSeed:
      return "transport.seed";
    case Layer::kWireCheck:
      return "transport.wire_check";
    case Layer::kCell:
      return "traffic.cell";
    case Layer::kCount:
      break;
  }
  return "?";
}

void Tracer::Begin(Layer layer, uint64_t id) {
  int64_t raw_index = -1;
  if (id < keep_raw_below_) {
    raw_index = static_cast<int64_t>(raw_.size());
    Span span;
    span.layer = layer;
    span.parent = stack_.empty() ? -1 : stack_.back().raw_index;
    span.id = id;
    raw_.push_back(span);
  }
  const int64_t start = NowNs();
  stack_.push_back(Frame{layer, id, start, 0, raw_index});
  if (raw_index >= 0) raw_[static_cast<size_t>(raw_index)].start_ns = start;
}

void Tracer::End(bool first_touch) {
  const int64_t end = NowNs();
  const Frame frame = stack_.back();
  stack_.pop_back();
  const int64_t duration = end - frame.start_ns;
  LayerTotals& totals = totals_[static_cast<size_t>(frame.layer)];
  ++totals.count;
  totals.total_ns += duration;
  totals.self_ns += duration - frame.child_ns;
  if (!stack_.empty()) stack_.back().child_ns += duration;
  if (frame.raw_index >= 0) {
    Span& span = raw_[static_cast<size_t>(frame.raw_index)];
    span.end_ns = end;
    span.first_touch = first_touch;
  }
  if (first_touch) {
    if (first_fetches_ % kFirstFetchStride == 0) {
      first_fetch_ns_.push_back(duration);
    }
    ++first_fetches_;
  }
}

void Tracer::Merge(const Tracer& other) {
  for (size_t i = 0; i < totals_.size(); ++i) {
    totals_[i].count += other.totals_[i].count;
    totals_[i].total_ns += other.totals_[i].total_ns;
    totals_[i].self_ns += other.totals_[i].self_ns;
  }
  first_fetch_ns_.insert(first_fetch_ns_.end(), other.first_fetch_ns_.begin(),
                         other.first_fetch_ns_.end());
  first_fetches_ += other.first_fetches_;
}

PassThroughTransport::PassThroughTransport(const osn::Transport& inner,
                                           Tracer* tracer, uint64_t id,
                                           bool mark_first_touch)
    : inner_(inner),
      tracer_(tracer),
      id_(id),
      mark_first_touch_(mark_first_touch) {}

labelrw::Result<osn::UserRecord> PassThroughTransport::FetchRecord(
    graph::NodeId user) const {
  if (tracer_ == nullptr) return inner_.FetchRecord(user);
  const bool first = mark_first_touch_ && seen_.insert(user).second;
  tracer_->Begin(Layer::kFetch, id_);
  labelrw::Result<osn::UserRecord> record = inner_.FetchRecord(user);
  tracer_->End(first);
  return record;
}

labelrw::Result<graph::NodeId> PassThroughTransport::SampleSeed(
    labelrw::Rng& rng) const {
  if (tracer_ == nullptr) return inner_.SampleSeed(rng);
  Scope span(tracer_, Layer::kSeed, id_);
  return inner_.SampleSeed(rng);
}

labelrw::Status PassThroughTransport::WireCheck() const {
  if (tracer_ == nullptr) return inner_.WireCheck();
  Scope span(tracer_, Layer::kWireCheck, id_);
  return inner_.WireCheck();
}

labelrw::Result<std::span<const graph::NodeId>> TracingApi::GetNeighbors(
    graph::NodeId user) {
  Scope span(&tracer_, Layer::kApi, id_);
  return inner_.GetNeighbors(user);
}

labelrw::Result<int64_t> TracingApi::GetDegree(graph::NodeId user) {
  Scope span(&tracer_, Layer::kApi, id_);
  return inner_.GetDegree(user);
}

labelrw::Result<std::span<const graph::Label>> TracingApi::GetLabels(
    graph::NodeId user) {
  Scope span(&tracer_, Layer::kApi, id_);
  return inner_.GetLabels(user);
}

labelrw::Result<graph::NodeId> TracingApi::RandomNode(labelrw::Rng& rng) {
  Scope span(&tracer_, Layer::kApi, id_);
  return inner_.RandomNode(rng);
}

bool WriteTrace(const std::string& path, const std::string& workload,
                uint64_t seed, const Tracer& merged,
                const std::vector<const Tracer*>& per_thread) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"workload\": \"%s\", \"seed\": %llu,\n \"layers\": [",
               workload.c_str(), static_cast<unsigned long long>(seed));
  for (size_t i = 0; i < static_cast<size_t>(Layer::kCount); ++i) {
    const LayerTotals& t = merged.totals()[i];
    std::fprintf(f,
                 "%s\n  {\"name\": \"%s\", \"count\": %lld, \"total_ns\": "
                 "%lld, \"self_ns\": %lld}",
                 i == 0 ? "" : ",", LayerName(static_cast<Layer>(i)),
                 static_cast<long long>(t.count),
                 static_cast<long long>(t.total_ns),
                 static_cast<long long>(t.self_ns));
  }
  std::fprintf(f, "],\n \"spans\": [");
  bool first = true;
  for (size_t thread = 0; thread < per_thread.size(); ++thread) {
    for (const Span& s : per_thread[thread]->raw()) {
      std::fprintf(f,
                   "%s\n  {\"thread\": %zu, \"name\": \"%s\", \"id\": %llu, "
                   "\"parent\": %lld, \"start_ns\": %lld, \"end_ns\": %lld%s}",
                   first ? "" : ",", thread, LayerName(s.layer),
                   static_cast<unsigned long long>(s.id),
                   static_cast<long long>(s.parent),
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns),
                   s.first_touch ? ", \"first_touch\": true" : "");
      first = false;
    }
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
