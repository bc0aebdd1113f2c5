#include "traffic/engine.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "estimators/checkpoint.h"
#include "util/rng.h"

namespace labelrw::traffic {

namespace {

/// Version of the engine checkpoint payload (inside the LRWCKPT envelope).
constexpr uint32_t kTrafficStateVersion = 1;

/// Seed-stream discriminators, so the arrival streams, the session streams,
/// and every other DeriveSeed user in the codebase stay disjoint.
constexpr uint64_t kArrivalStream = 0x7a41u;
constexpr uint64_t kSessionStream = 0x5e55u;

}  // namespace

Status TrafficConfig::Validate() const {
  if (tenants < 1) {
    return InvalidArgumentError("TrafficConfig: tenants must be >= 1");
  }
  if (sessions_per_tenant < 1) {
    return InvalidArgumentError(
        "TrafficConfig: sessions_per_tenant must be >= 1");
  }
  if (session_budget < 1 || burn_in < 0) {
    return InvalidArgumentError(
        "TrafficConfig: session_budget must be >= 1 and burn_in >= 0");
  }
  if (priority_classes < 1) {
    return InvalidArgumentError(
        "TrafficConfig: priority_classes must be >= 1");
  }
  if (step_chunk < 1) {
    return InvalidArgumentError("TrafficConfig: step_chunk must be >= 1");
  }
  if (max_sim_us < 1) {
    return InvalidArgumentError("TrafficConfig: max_sim_us must be >= 1");
  }
  if (shared_buckets < 1) {
    return InvalidArgumentError("TrafficConfig: shared_buckets must be >= 1");
  }
  if (!scenario.mutations.empty()) {
    return UnimplementedError(
        "TrafficConfig: mutation schedules are not supported by the traffic "
        "engine (a per-session DynamicGraphTransport would copy the graph "
        "once per in-flight slot)");
  }
  if (checkpoint_path.empty() &&
      (checkpoint_every_events > 0 || halt_after_events >= 0)) {
    return InvalidArgumentError(
        "TrafficConfig: checkpoint_every_events / halt_after_events require "
        "checkpoint_path");
  }
  LABELRW_RETURN_IF_ERROR(admission.Validate());
  LABELRW_RETURN_IF_ERROR(scenario.Validate());
  return Status::Ok();
}

TrafficEngine::TrafficEngine(const osn::Transport& transport,
                             const graph::TargetLabel& target,
                             const TrafficConfig& config,
                             SessionTransportFactory factory)
    : transport_(transport),
      factory_(std::move(factory)),
      target_(target),
      priors_(transport.TransportPriors()),
      config_(config),
      config_status_(config.Validate()),
      admission_(config.admission, config.priority_classes) {}

Status TrafficEngine::Init() {
  LABELRW_RETURN_IF_ERROR(config_status_);
  tenants_.assign(static_cast<size_t>(config_.tenants), TenantState{});
  slots_.resize(static_cast<size_t>(config_.admission.max_in_flight));
  buckets_.clear();
  if (config_.scenario.rate_limit.enabled()) {
    for (int64_t b = 0; b < config_.shared_buckets; ++b) {
      buckets_.push_back(
          std::make_unique<osn::RateLimiter>(config_.scenario.rate_limit));
    }
  }
  for (int64_t t = 0; t < config_.tenants; ++t) {
    TenantState& tenant = tenants_[static_cast<size_t>(t)];
    tenant.arrival_rng = Rng(DeriveSeed(config_.seed, static_cast<uint64_t>(t),
                                        kArrivalStream));
    tenant.priority = static_cast<int>(t % config_.priority_classes);
  }
  return Status::Ok();
}

void TrafficEngine::ScheduleOpenLoopArrival(int64_t tenant, int64_t from_us) {
  TenantState& t = tenants_[static_cast<size_t>(tenant)];
  const double rate = ArrivalRatePerSec(config_.scenario.traffic, tenant,
                                        config_.tenants, from_us);
  loop_.Push(from_us + ExponentialDelayUs(t.arrival_rng, rate),
             EventKind::kArrival, tenant, 0);
}

void TrafficEngine::ScheduleClosedLoopArrival(int64_t tenant,
                                              int64_t from_us) {
  TenantState& t = tenants_[static_cast<size_t>(tenant)];
  if (t.submitted >= config_.sessions_per_tenant) return;
  loop_.Push(from_us + ThinkDelayUs(t.arrival_rng, config_.scenario.traffic),
             EventKind::kArrival, tenant, 0);
}

Status TrafficEngine::BuildStack(Slot& slot, int64_t tenant,
                                 int64_t session_seq) {
  const osn::Scenario& scenario = config_.scenario;
  const osn::Transport* wire = &transport_;
  if (factory_) {
    LABELRW_ASSIGN_OR_RETURN(slot.owned_transport, factory_());
    wire = slot.owned_transport.get();
  }
  if (scenario.has_chaos()) {
    slot.chaos = std::make_unique<osn::ChaosTransport>(*wire, scenario.chaos);
    wire = slot.chaos.get();
  }
  slot.client = std::make_unique<osn::OsnClient>(*wire, scenario.cost_model,
                                                 scenario.faults);
  if (scenario.retry.enabled()) slot.client->ConfigureRetry(scenario.retry);
  const osn::RateLimitPolicy& rl = scenario.rate_limit;
  if (rl.enabled() && !buckets_.empty()) {
    slot.client->AttachSharedLimiter(
        rl, buckets_[static_cast<size_t>(tenant % config_.shared_buckets)]
                .get());
  } else if (rl.per_call_latency_us > 0) {
    slot.client->ConfigureRateLimit(rl);
  }
  if (slot.chaos) slot.chaos->AttachClock(&slot.client->clock());

  estimators::EstimateOptions options;
  options.api_budget = config_.session_budget;
  options.burn_in = config_.burn_in;
  options.seed = DeriveSeed(config_.seed, static_cast<uint64_t>(tenant),
                            kSessionStream, static_cast<uint64_t>(session_seq));
  options.detour_on_denied = scenario.walker_detour;
  LABELRW_ASSIGN_OR_RETURN(
      slot.session,
      estimators::EstimatorSession::Create(config_.algorithm, *slot.client,
                                           target_, priors_, options));
  // Strict shared buckets interrupt iterations mid-flight; transactional
  // stepping rolls the interrupted iteration back so the engine-owned retry
  // lands bit-identically (see EstimatorSession::set_transactional_stepping).
  if (rl.enabled() && !rl.auto_wait) {
    slot.session->set_transactional_stepping(true);
  }
  return Status::Ok();
}

Status TrafficEngine::StartSession(int64_t tenant, int64_t session_seq,
                                   int64_t arrival_us, int64_t admit_us) {
  int64_t idx = -1;
  for (size_t i = 0; i < slots_.size(); ++i) {
    if (!slots_[i].active) {
      idx = static_cast<int64_t>(i);
      break;
    }
  }
  if (idx < 0) {
    return InternalError(
        "traffic engine: admission granted a slot but none is free");
  }
  Slot& slot = slots_[static_cast<size_t>(idx)];
  slot.active = true;
  slot.tenant = tenant;
  slot.session_seq = session_seq;
  slot.arrival_us = arrival_us;
  slot.admit_us = admit_us;
  LABELRW_RETURN_IF_ERROR(BuildStack(slot, tenant, session_seq));
  slot.client->mutable_clock().AdvanceToUs(admit_us);
  admission_.AcquireSlot();
  tenants_[static_cast<size_t>(tenant)].admitted += 1;
  loop_.Push(admit_us, EventKind::kStep, tenant, idx);
  return Status::Ok();
}

void TrafficEngine::OnArrival(const Event& e) {
  TenantState& t = tenants_[static_cast<size_t>(e.tenant)];
  const int64_t session_seq = t.submitted++;
  const bool closed = config_.scenario.traffic.closed_loop;
  if (admission_.HasFreeSlot()) {
    // StartSession failures (factory/config errors) poison config_status_,
    // which Run checks after every event.
    const Status started =
        StartSession(e.tenant, session_seq, e.at_us, e.at_us);
    if (!started.ok()) {
      config_status_ = started;
      return;
    }
  } else {
    const EnqueueOutcome outcome =
        admission_.Enqueue({e.tenant, session_seq, e.at_us}, t.priority);
    switch (outcome.kind) {
      case EnqueueOutcome::Kind::kQueued:
        break;
      case EnqueueOutcome::Kind::kRejected:
        t.rejected += 1;
        if (closed) ScheduleClosedLoopArrival(e.tenant, e.at_us);
        break;
      case EnqueueOutcome::Kind::kShed: {
        tenants_[static_cast<size_t>(outcome.victim.tenant)].shed += 1;
        if (closed) ScheduleClosedLoopArrival(outcome.victim.tenant, e.at_us);
        break;
      }
    }
  }
  if (!closed && t.submitted < config_.sessions_per_tenant) {
    ScheduleOpenLoopArrival(e.tenant, e.at_us);
  }
}

void TrafficEngine::OnStep(const Event& e) {
  Slot& slot = slots_[static_cast<size_t>(e.arg)];
  if (!slot.active || slot.tenant != e.tenant) {
    // Structurally impossible (each active slot has exactly one outstanding
    // step event); fail loudly rather than corrupting the timeline.
    config_status_ = InternalError("traffic engine: stale step event");
    return;
  }
  TenantState& t = tenants_[static_cast<size_t>(slot.tenant)];
  slot.client->mutable_clock().AdvanceToUs(e.at_us);
  Result<int64_t> stepped = slot.session->Step(config_.step_chunk);
  if (!stepped.ok()) {
    if (stepped.status().code() == StatusCode::kRateLimited) {
      t.rate_limited += 1;
      const int64_t now = slot.client->clock().now_us();
      const int64_t wait = slot.client->last_retry_after_us();
      if (slot.client->clock().saturated() ||
          wait > std::numeric_limits<int64_t>::max() - now) {
        AbortSession(e.arg, osn::SimClockOverflowError(), e.at_us);
        return;
      }
      loop_.Push(now + wait, EventKind::kStep, slot.tenant, e.arg);
      return;
    }
    AbortSession(e.arg, stepped.status(), e.at_us);
    return;
  }
  if (slot.session->finished()) {
    CompleteSession(e.arg);
    return;
  }
  if (*stepped == 0) {
    AbortSession(e.arg,
                 InternalError("traffic engine: session stepped zero "
                               "iterations without finishing"),
                 e.at_us);
    return;
  }
  loop_.Push(slot.client->clock().now_us(), EventKind::kStep, slot.tenant,
             e.arg);
}

void TrafficEngine::CompleteSession(int64_t slot_idx) {
  Slot& slot = slots_[static_cast<size_t>(slot_idx)];
  TenantState& t = tenants_[static_cast<size_t>(slot.tenant)];
  const int64_t done_us = slot.client->clock().now_us();
  t.api_calls += slot.client->api_calls();
  const Result<estimators::EstimateResult> snap = slot.session->Snapshot();
  if (!snap.ok()) {
    t.aborted += 1;
  } else {
    t.completed += 1;
    t.latency.Add(done_us - slot.arrival_us);
    t.time_to_estimate.Add(done_us - slot.admit_us);
    if (t.last_completion_us >= 0) {
      t.freshness.Add(done_us - t.last_completion_us);
    }
    t.last_completion_us = done_us;
    t.last_estimate = snap->estimate;
    t.sum_estimate += snap->estimate;
    if (config_.truth > 0.0) {
      const double err = snap->estimate - config_.truth;
      t.sum_sq_error += err * err;
    }
  }
  end_time_us_ = std::max(end_time_us_, done_us);
  const int64_t tenant = slot.tenant;
  FinishSlot(slot_idx, done_us);
  if (config_.scenario.traffic.closed_loop) {
    ScheduleClosedLoopArrival(tenant, done_us);
  }
}

void TrafficEngine::AbortSession(int64_t slot_idx, const Status& why,
                                 int64_t now_us) {
  (void)why;  // terminal per-session errors are expected under chaos
  Slot& slot = slots_[static_cast<size_t>(slot_idx)];
  TenantState& t = tenants_[static_cast<size_t>(slot.tenant)];
  t.aborted += 1;
  t.api_calls += slot.client->api_calls();
  const int64_t tenant = slot.tenant;
  FinishSlot(slot_idx, now_us);
  if (config_.scenario.traffic.closed_loop) {
    ScheduleClosedLoopArrival(tenant, now_us);
  }
}

void TrafficEngine::FinishSlot(int64_t slot_idx, int64_t now_us) {
  Slot& slot = slots_[static_cast<size_t>(slot_idx)];
  slot.active = false;
  slot.session.reset();
  slot.client.reset();
  slot.chaos.reset();
  slot.owned_transport.reset();
  admission_.ReleaseSlot();
  if (std::optional<QueuedRequest> next = admission_.PopNext()) {
    const Status started =
        StartSession(next->tenant, next->session_seq, next->arrival_us,
                     now_us);
    if (!started.ok()) config_status_ = started;
  }
}

Result<TrafficReport> TrafficEngine::Run() {
  if (ran_) {
    return FailedPreconditionError(
        "TrafficEngine::Run: engine already ran; construct a fresh one");
  }
  if (!initialized_) {
    LABELRW_RETURN_IF_ERROR(Init());
    for (int64_t t = 0; t < config_.tenants; ++t) {
      TenantState& tenant = tenants_[static_cast<size_t>(t)];
      if (config_.scenario.traffic.closed_loop) {
        loop_.Push(ThinkDelayUs(tenant.arrival_rng, config_.scenario.traffic),
                   EventKind::kArrival, t, 0);
      } else {
        const double rate =
            ArrivalRatePerSec(config_.scenario.traffic, t, config_.tenants, 0);
        loop_.Push(ExponentialDelayUs(tenant.arrival_rng, rate),
                   EventKind::kArrival, t, 0);
      }
    }
    initialized_ = true;
  }
  ran_ = true;

  while (!loop_.empty()) {
    const Event e = loop_.Pop();
    if (e.at_us > config_.max_sim_us) break;
    end_time_us_ = std::max(end_time_us_, e.at_us);
    switch (e.kind) {
      case EventKind::kArrival:
        OnArrival(e);
        break;
      case EventKind::kStep:
        OnStep(e);
        break;
    }
    LABELRW_RETURN_IF_ERROR(config_status_);
    ++events_processed_;
    if (config_.checkpoint_every_events > 0 &&
        events_processed_ % config_.checkpoint_every_events == 0) {
      LABELRW_RETURN_IF_ERROR(SaveToFile(config_.checkpoint_path));
    }
    if (config_.halt_after_events >= 0 &&
        events_processed_ >= config_.halt_after_events && !loop_.empty()) {
      LABELRW_RETURN_IF_ERROR(SaveToFile(config_.checkpoint_path));
      return Finalize(/*halted=*/true);
    }
  }
  return Finalize(/*halted=*/false);
}

TrafficReport TrafficEngine::Finalize(bool halted) {
  TrafficReport report;
  report.halted = halted;
  report.events_processed = events_processed_;
  report.end_time_us = end_time_us_;
  report.queue_peak = admission_.queue_peak();
  report.tenants.reserve(tenants_.size());
  double pooled_sq_error = 0.0;
  util::ByteWriter table;
  for (size_t i = 0; i < tenants_.size(); ++i) {
    const TenantState& t = tenants_[i];
    // The freshness histogram gets its final sample — how stale the
    // tenant's estimate is at simulation end — on a copy, so Finalize
    // never mutates checkpointable state (a halted engine resumes from the
    // state saved *before* this).
    util::LogHistogram freshness = t.freshness;
    if (t.last_completion_us >= 0 && end_time_us_ > t.last_completion_us) {
      freshness.Add(end_time_us_ - t.last_completion_us);
    }
    TenantTelemetry row;
    row.tenant = static_cast<int64_t>(i);
    row.priority = t.priority;
    row.submitted = t.submitted;
    row.admitted = t.admitted;
    row.completed = t.completed;
    row.rejected = t.rejected;
    row.shed = t.shed;
    row.aborted = t.aborted;
    row.rate_limited = t.rate_limited;
    row.api_calls = t.api_calls;
    row.p50_latency_us = t.latency.Percentile(0.50);
    row.p90_latency_us = t.latency.Percentile(0.90);
    row.p99_latency_us = t.latency.Percentile(0.99);
    row.p50_tte_us = t.time_to_estimate.Percentile(0.50);
    row.p99_tte_us = t.time_to_estimate.Percentile(0.99);
    row.p50_freshness_us = freshness.Percentile(0.50);
    row.p99_freshness_us = freshness.Percentile(0.99);
    row.mean_estimate =
        t.completed > 0 ? t.sum_estimate / static_cast<double>(t.completed)
                        : 0.0;
    row.nrmse =
        (config_.truth > 0.0 && t.completed > 0)
            ? std::sqrt(t.sum_sq_error / static_cast<double>(t.completed)) /
                  config_.truth
            : 0.0;
    report.tenants.push_back(row);

    report.latency.Merge(t.latency);
    report.time_to_estimate.Merge(t.time_to_estimate);
    report.freshness.Merge(freshness);
    report.submitted += t.submitted;
    report.admitted += t.admitted;
    report.completed += t.completed;
    report.rejected += t.rejected;
    report.shed += t.shed;
    report.aborted += t.aborted;
    report.rate_limited += t.rate_limited;
    report.total_api_calls += t.api_calls;
    pooled_sq_error += t.sum_sq_error;

    table.I64(row.tenant);
    table.I64(row.priority);
    table.I64(row.submitted);
    table.I64(row.admitted);
    table.I64(row.completed);
    table.I64(row.rejected);
    table.I64(row.shed);
    table.I64(row.aborted);
    table.I64(row.rate_limited);
    table.I64(row.api_calls);
    table.F64(row.p50_latency_us);
    table.F64(row.p90_latency_us);
    table.F64(row.p99_latency_us);
    table.F64(row.p50_tte_us);
    table.F64(row.p99_tte_us);
    table.F64(row.p50_freshness_us);
    table.F64(row.p99_freshness_us);
    table.F64(row.mean_estimate);
    table.F64(row.nrmse);
  }
  report.nrmse =
      (config_.truth > 0.0 && report.completed > 0)
          ? std::sqrt(pooled_sq_error /
                      static_cast<double>(report.completed)) /
                config_.truth
          : 0.0;
  report.table_hash =
      util::Fnv1a64(table.buffer().data(), table.buffer().size());
  return report;
}

std::string TrafficEngine::SerializeState() const {
  util::ByteWriter w;
  w.U32(kTrafficStateVersion);
  // Configuration fingerprint: enough identity to catch the classic
  // restore-into-a-different-config mistake cheaply.
  w.I64(config_.tenants);
  w.I64(config_.sessions_per_tenant);
  w.U64(config_.seed);
  w.I64(config_.admission.max_in_flight);
  w.I64(config_.shared_buckets);
  w.U8(static_cast<uint8_t>(config_.algorithm));

  w.I64(events_processed_);
  w.I64(end_time_us_);

  w.U64(tenants_.size());
  for (const TenantState& t : tenants_) t.SaveState(w);

  admission_.SaveState(w);

  w.U64(buckets_.size());
  for (const auto& bucket : buckets_) {
    const osn::RateLimiter::State state = bucket->SaveState();
    w.F64(state.tokens);
    w.I64(state.last_refill_us);
    w.U64(state.window.size());
    for (const int64_t at : state.window) w.I64(at);
  }

  w.U64(loop_.next_seq());
  w.U64(loop_.heap().size());
  for (const Event& e : loop_.heap()) {
    w.I64(e.at_us);
    w.U8(static_cast<uint8_t>(e.kind));
    w.I64(e.tenant);
    w.I64(e.arg);
    w.U64(e.seq);
  }

  w.U64(slots_.size());
  for (const Slot& slot : slots_) {
    w.U8(slot.active ? 1 : 0);
    if (!slot.active) continue;
    w.I64(slot.tenant);
    w.I64(slot.session_seq);
    w.I64(slot.arrival_us);
    w.I64(slot.admit_us);
    w.Str(estimators::SerializeSessionState(*slot.session, slot.client.get(),
                                            slot.chaos.get()));
  }
  return w.TakeBuffer();
}

Status TrafficEngine::DeserializeState(const std::string& payload) {
  util::ByteReader r(payload);
  uint32_t version = 0;
  LABELRW_RETURN_IF_ERROR(r.U32(&version));
  if (version != kTrafficStateVersion) {
    return FailedPreconditionError(
        "traffic checkpoint version " + std::to_string(version) +
        " does not match this build (" +
        std::to_string(kTrafficStateVersion) + "); re-run from scratch");
  }
  int64_t tenants = 0, sessions = 0, in_flight = 0, shared = 0;
  uint64_t seed = 0;
  uint8_t algorithm = 0;
  LABELRW_RETURN_IF_ERROR(r.I64(&tenants));
  LABELRW_RETURN_IF_ERROR(r.I64(&sessions));
  LABELRW_RETURN_IF_ERROR(r.U64(&seed));
  LABELRW_RETURN_IF_ERROR(r.I64(&in_flight));
  LABELRW_RETURN_IF_ERROR(r.I64(&shared));
  LABELRW_RETURN_IF_ERROR(r.U8(&algorithm));
  if (tenants != config_.tenants || sessions != config_.sessions_per_tenant ||
      seed != config_.seed || in_flight != config_.admission.max_in_flight ||
      shared != config_.shared_buckets ||
      algorithm != static_cast<uint8_t>(config_.algorithm)) {
    return FailedPreconditionError(
        "traffic checkpoint was written under a different configuration "
        "(tenants/sessions/seed/slots/buckets/algorithm fingerprint "
        "mismatch)");
  }

  LABELRW_RETURN_IF_ERROR(r.I64(&events_processed_));
  LABELRW_RETURN_IF_ERROR(r.I64(&end_time_us_));

  uint64_t n = 0;
  LABELRW_RETURN_IF_ERROR(r.U64(&n));
  if (n != tenants_.size()) {
    return DataLossError("traffic checkpoint: tenant count mismatch");
  }
  for (TenantState& t : tenants_) LABELRW_RETURN_IF_ERROR(t.RestoreState(r));

  LABELRW_RETURN_IF_ERROR(admission_.RestoreState(r));

  LABELRW_RETURN_IF_ERROR(r.U64(&n));
  if (n != buckets_.size()) {
    return DataLossError("traffic checkpoint: shared-bucket count mismatch");
  }
  for (auto& bucket : buckets_) {
    osn::RateLimiter::State state;
    LABELRW_RETURN_IF_ERROR(r.F64(&state.tokens));
    LABELRW_RETURN_IF_ERROR(r.I64(&state.last_refill_us));
    uint64_t wn = 0;
    LABELRW_RETURN_IF_ERROR(r.U64(&wn));
    state.window.resize(wn);
    for (uint64_t i = 0; i < wn; ++i) {
      LABELRW_RETURN_IF_ERROR(r.I64(&state.window[i]));
    }
    bucket->RestoreState(state);
  }

  uint64_t next_seq = 0;
  LABELRW_RETURN_IF_ERROR(r.U64(&next_seq));
  LABELRW_RETURN_IF_ERROR(r.U64(&n));
  std::vector<Event> events;
  events.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    Event e;
    uint8_t kind = 0;
    LABELRW_RETURN_IF_ERROR(r.I64(&e.at_us));
    LABELRW_RETURN_IF_ERROR(r.U8(&kind));
    if (kind > static_cast<uint8_t>(EventKind::kStep)) {
      return DataLossError("traffic checkpoint: unknown event kind");
    }
    e.kind = static_cast<EventKind>(kind);
    LABELRW_RETURN_IF_ERROR(r.I64(&e.tenant));
    LABELRW_RETURN_IF_ERROR(r.I64(&e.arg));
    LABELRW_RETURN_IF_ERROR(r.U64(&e.seq));
    events.push_back(e);
  }
  loop_.Restore(std::move(events), next_seq);

  LABELRW_RETURN_IF_ERROR(r.U64(&n));
  if (n != slots_.size()) {
    return DataLossError("traffic checkpoint: slot count mismatch");
  }
  for (Slot& slot : slots_) {
    uint8_t active = 0;
    LABELRW_RETURN_IF_ERROR(r.U8(&active));
    if (active == 0) {
      slot.active = false;
      continue;
    }
    LABELRW_RETURN_IF_ERROR(r.I64(&slot.tenant));
    LABELRW_RETURN_IF_ERROR(r.I64(&slot.session_seq));
    LABELRW_RETURN_IF_ERROR(r.I64(&slot.arrival_us));
    LABELRW_RETURN_IF_ERROR(r.I64(&slot.admit_us));
    std::string session_state;
    LABELRW_RETURN_IF_ERROR(r.Str(&session_state));
    if (slot.tenant < 0 || slot.tenant >= config_.tenants) {
      return DataLossError("traffic checkpoint: slot tenant out of range");
    }
    LABELRW_RETURN_IF_ERROR(BuildStack(slot, slot.tenant, slot.session_seq));
    LABELRW_RETURN_IF_ERROR(estimators::RestoreSessionState(
        session_state, slot.session.get(), slot.client.get(),
        slot.chaos.get()));
    slot.active = true;
  }
  if (!r.exhausted()) {
    return DataLossError("traffic checkpoint: trailing bytes after state");
  }
  return Status::Ok();
}

Status TrafficEngine::SaveToFile(const std::string& path) const {
  return estimators::WriteCheckpointFile(path, SerializeState());
}

Status TrafficEngine::RestoreFromFile(const std::string& path) {
  if (initialized_ || ran_) {
    return FailedPreconditionError(
        "TrafficEngine::RestoreFromFile: restore into a freshly constructed "
        "engine");
  }
  LABELRW_ASSIGN_OR_RETURN(const std::string payload,
                           estimators::ReadCheckpointFile(path));
  LABELRW_RETURN_IF_ERROR(Init());
  LABELRW_RETURN_IF_ERROR(DeserializeState(payload));
  initialized_ = true;
  return Status::Ok();
}

}  // namespace labelrw::traffic
