#include "osn/client.h"

#include <algorithm>
#include <unordered_set>

namespace labelrw::osn {

Status FaultPolicy::Validate() const {
  if (transient_error_rate < 0.0 || transient_error_rate >= 1.0) {
    return InvalidArgumentError(
        "FaultPolicy: transient_error_rate must lie in [0, 1)");
  }
  if (unavailable_user_rate < 0.0 || unavailable_user_rate >= 1.0) {
    return InvalidArgumentError(
        "FaultPolicy: unavailable_user_rate must lie in [0, 1)");
  }
  if (retry_budget < 0) {
    return InvalidArgumentError("FaultPolicy: retry_budget must be >= 0");
  }
  return Status::Ok();
}

Status RetryPolicy::Validate() const {
  if (max_attempts < 0) {
    return InvalidArgumentError("RetryPolicy: max_attempts must be >= 0");
  }
  if (initial_backoff_us < 0) {
    return InvalidArgumentError(
        "RetryPolicy: initial_backoff_us must be >= 0");
  }
  if (backoff_multiplier < 1.0) {
    return InvalidArgumentError(
        "RetryPolicy: backoff_multiplier must be >= 1");
  }
  if (max_backoff_us < initial_backoff_us) {
    return InvalidArgumentError(
        "RetryPolicy: max_backoff_us must be >= initial_backoff_us");
  }
  if (jitter < 0.0 || jitter >= 1.0) {
    return InvalidArgumentError("RetryPolicy: jitter must lie in [0, 1)");
  }
  if (call_deadline_us < 0) {
    return InvalidArgumentError("RetryPolicy: call_deadline_us must be >= 0");
  }
  return Status::Ok();
}

OsnClient::OsnClient(const Transport& transport, CostModel cost_model,
                     FaultPolicy faults, int64_t budget)
    : transport_(transport),
      cost_model_(cost_model),
      faults_(faults),
      budget_(budget),
      config_status_(faults.Validate()),
      fault_rng_(faults.seed),
      retry_rng_(RetryPolicy().jitter_seed) {
  // Seed the effective shape from the CostModel, overridden by anything the
  // transport advertises at t=0 (no drift counted for the initial shape).
  const ApiShape shape = transport.CurrentShape();
  effective_page_size_ =
      shape.page_size > 0 ? shape.page_size : cost_model_.page_size;
  effective_batch_size_ =
      shape.batch_size > 0 ? shape.batch_size : cost_model_.batch_size;
}

int64_t OsnClient::remaining_budget() const {
  if (budget_ < 0) return -1;
  return budget_ - api_calls_;
}

void OsnClient::ConfigureRateLimit(const RateLimitPolicy& policy) {
  rate_policy_ = policy;
  limiter_.reset();
  shared_limiter_ = nullptr;
  if (config_status_.ok()) config_status_ = policy.Validate();
  if (config_status_.ok() && policy.enabled()) limiter_.emplace(policy);
}

void OsnClient::AttachSharedLimiter(const RateLimitPolicy& policy,
                                    RateLimiter* limiter) {
  rate_policy_ = policy;
  limiter_.reset();
  shared_limiter_ = limiter;
  if (config_status_.ok()) config_status_ = policy.Validate();
}

void OsnClient::ConfigureRetry(const RetryPolicy& policy) {
  retry_ = policy;
  retry_rng_ = Rng(policy.jitter_seed);
  if (config_status_.ok()) config_status_ = policy.Validate();
}

void OsnClient::RefreshShape() {
  const ApiShape shape = transport_.CurrentShape();
  const int64_t page =
      shape.page_size > 0 ? shape.page_size : cost_model_.page_size;
  const int64_t batch =
      shape.batch_size > 0 ? shape.batch_size : cost_model_.batch_size;
  if (page != effective_page_size_) {
    effective_page_size_ = page;
    ++stats_.shape_drifts;
    // A page-size change invalidates every outstanding pagination cursor:
    // partial per-user progress was measured in old-page units. Fully
    // cached lists and cached profiles stay valid (the data is local).
    for (auto& [user, entry] : cache_) entry.partial = 0;
  }
  if (batch != effective_batch_size_) {
    effective_batch_size_ = batch;
    ++stats_.shape_drifts;
  }
}

Status OsnClient::AdmitWireCall() {
  if (clock_.saturated()) return SimClockOverflowError();
  RateLimiter* limiter =
      shared_limiter_ != nullptr
          ? shared_limiter_
          : (limiter_.has_value() ? &*limiter_ : nullptr);
  if (limiter != nullptr) {
    int64_t wait = limiter->TryAcquire(clock_.now_us());
    if (wait > 0) {
      if (!rate_policy_.auto_wait) {
        ++stats_.rate_limited_rejections;
        last_retry_after_us_ = wait;
        return RateLimitedError("OSN rate limit exceeded; retry after " +
                                std::to_string(wait) + "us");
      }
      ++stats_.rate_limit_stalls;
      stats_.stalled_us += wait;
      clock_.AdvanceUs(wait);
      if (clock_.saturated()) return SimClockOverflowError();
      wait = limiter->TryAcquire(clock_.now_us());
      if (wait > 0 && shared_limiter_ == nullptr) {
        // A private limiter must clear after its advertised wait; a shared
        // one may have been drained by a contending session in the
        // meantime — the auto-wait loop in the caller simply sleeps again.
        return InternalError(
            "rate limiter did not clear after its advertised wait");
      }
      while (wait > 0) {
        ++stats_.rate_limit_stalls;
        stats_.stalled_us += wait;
        clock_.AdvanceUs(wait);
        if (clock_.saturated()) return SimClockOverflowError();
        wait = limiter->TryAcquire(clock_.now_us());
      }
    }
  }
  clock_.AdvanceUs(rate_policy_.per_call_latency_us);
  if (clock_.saturated()) return SimClockOverflowError();
  return Status::Ok();
}

bool OsnClient::IsUnavailableUser(graph::NodeId user) const {
  if (faults_.unavailable_user_rate <= 0.0) return false;
  // Deterministic per-user verdict: hash (seed, user) to [0, 1).
  uint64_t sm = faults_.seed ^ (0x9e3779b97f4a7c15ULL *
                                (static_cast<uint64_t>(user) + 1));
  const uint64_t h = SplitMix64(&sm);
  const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
  return u < faults_.unavailable_user_rate;
}

int64_t OsnClient::BackoffDelayUs(int attempt) {
  double delay = static_cast<double>(retry_.initial_backoff_us);
  for (int i = 0; i < attempt; ++i) {
    delay *= retry_.backoff_multiplier;
    if (delay >= static_cast<double>(retry_.max_backoff_us)) break;
  }
  delay = std::min(delay, static_cast<double>(retry_.max_backoff_us));
  if (retry_.jitter > 0.0) {
    const double u = retry_rng_.UniformDouble();
    delay *= 1.0 + retry_.jitter * (2.0 * u - 1.0);
  }
  const auto us = static_cast<int64_t>(delay);
  return us < 1 ? 1 : us;
}

Status OsnClient::FetchChargedCall() {
  const int64_t cost = cost_model_.page_cost;
  // With max_attempts unset the legacy fixed loop applies: retry_budget + 1
  // immediate attempts, no backoff, no deadline — bit-identical to v2.
  const int max_attempts = retry_.max_attempts > 0
                               ? retry_.max_attempts
                               : faults_.retry_budget + 1;
  // The deadline anchors at the first attempt of the logical fetch and, like
  // pending_fault_attempts_, survives strict-mode kRateLimited
  // interruptions: the re-issued fetch keeps the original deadline.
  if (retry_.call_deadline_us > 0 && pending_deadline_us_ < 0) {
    pending_deadline_us_ = clock_.now_us() + retry_.call_deadline_us;
  }
  // Resume from where a strict-mode kRateLimited rejection interrupted the
  // previous attempt run (the session re-issues the same logical fetch):
  // failed attempts before the rejection keep counting against the retry
  // budget, and the fault stream continues where it left off, so the
  // attempt/draw sequence is identical to an uninterrupted run.
  for (int attempt = pending_fault_attempts_; attempt < max_attempts;
       ++attempt) {
    if (pending_deadline_us_ >= 0 && clock_.now_us() >= pending_deadline_us_) {
      ++stats_.deadline_exceeded;
      pending_fault_attempts_ = 0;
      pending_deadline_us_ = -1;
      return DeadlineExceededError(
          "per-call deadline exceeded while retrying a wire fetch");
    }
    // Admission precedes the fault draw: a rejected request never reaches
    // the server, so it consumes neither quota nor a fault-stream draw.
    const Status admitted = AdmitWireCall();
    if (!admitted.ok()) {
      if (admitted.code() == StatusCode::kRateLimited) {
        pending_fault_attempts_ = attempt;
      }
      return admitted;
    }
    // Wire-level chaos (outages, error bursts) precedes the fault-policy
    // draw; both fail the attempt identically.
    Status failure = transport_.WireCheck();
    if (failure.ok() && faults_.transient_error_rate > 0.0 &&
        fault_rng_.Bernoulli(faults_.transient_error_rate)) {
      failure = UnavailableError("transient OSN error");
    }
    const bool fails = !failure.ok();
    if (!fails || faults_.charge_failed_attempts) {
      if (budget_ >= 0 && api_calls_ + cost > budget_) {
        return ResourceExhaustedError("API budget exhausted");
      }
      api_calls_ += cost;
    }
    if (!fails) {
      pending_fault_attempts_ = 0;
      pending_deadline_us_ = -1;
      return Status::Ok();
    }
    if (failure.code() != StatusCode::kUnavailable &&
        failure.code() != StatusCode::kShardUnavailable) {
      // Only unavailability verdicts — the whole server (kUnavailable) or
      // one shard of it (kShardUnavailable) — are retryable; anything else
      // the wire reports propagates immediately.
      pending_fault_attempts_ = 0;
      pending_deadline_us_ = -1;
      return failure;
    }
    ++stats_.transient_failures;
    if (attempt + 1 < max_attempts) {
      ++stats_.retries;
      if (retry_.initial_backoff_us > 0) {
        const int64_t sleep_us = BackoffDelayUs(attempt);
        ++stats_.backoffs;
        stats_.backoff_us += sleep_us;
        clock_.AdvanceUs(sleep_us);
      }
    }
  }
  pending_fault_attempts_ = 0;
  pending_deadline_us_ = -1;
  return UnavailableError("transient OSN error: retry budget exhausted");
}

int64_t OsnClient::FetchedPages(const CachedPages& entry,
                                int64_t total_pages) {
  if (entry.full) return total_pages;
  if (entry.partial > 0) return entry.partial;
  return entry.profile ? 1 : 0;
}

void OsnClient::RecordFetched(CachedPages& entry, int64_t pages_now,
                              int64_t total_pages) {
  if (pages_now <= 0) return;
  if (!entry.profile) {
    entry.profile = true;
    ++distinct_fetched_;
  }
  if (pages_now >= total_pages) {
    entry.full = true;
    entry.partial = 0;
  } else if (pages_now > 1) {
    entry.partial = std::max(entry.partial, pages_now);
  }
}

Status OsnClient::ChargeFetch(graph::NodeId user, int64_t degree,
                              bool need_full) {
  const int64_t total_pages = PagesForFull(degree);
  const int64_t need = need_full ? total_pages : 1;
  // One lookup: the charge below never touches the cache, and the map's
  // references are stable, so the entry serves every RecordFetched call.
  CachedPages& entry = cache_[user];
  const int64_t cached =
      cost_model_.cache_fetches ? FetchedPages(entry, total_pages) : 0;
  const int64_t pages_to_fetch = need - cached;
  if (pages_to_fetch > 0) {
    if (!PerCallAccounting()) {
      // Fast path: one bulk budget check + charge, bit-identical to the v1
      // LocalGraphApi::Charge for the unpaginated single-page case.
      const int64_t cost = pages_to_fetch * cost_model_.page_cost;
      if (budget_ >= 0 && api_calls_ + cost > budget_) {
        return ResourceExhaustedError("API budget exhausted");
      }
      api_calls_ += cost;
      stats_.pages_fetched += pages_to_fetch;
    } else {
      for (int64_t p = 0; p < pages_to_fetch; ++p) {
        LABELRW_RETURN_IF_ERROR(FetchChargedCall());
        ++stats_.pages_fetched;
        // Persist progress page by page so an abort mid-list (budget or
        // retry exhaustion) keeps the prefix cached, like a real crawler.
        RecordFetched(entry, cached + p + 1, total_pages);
      }
      return Status::Ok();
    }
  }
  RecordFetched(entry, std::max(cached, need), total_pages);
  return Status::Ok();
}

Status OsnClient::CheckAvailable(graph::NodeId user) {
  if (!IsUnavailableUser(user)) return Status::Ok();
  ++stats_.denied_requests;
  // The probe that discovers a private profile costs a call once; the
  // verdict is cached like a page (denied users never become available, so
  // the flag can share the profile entry without ambiguity).
  const auto cached = cache_.find(user);
  if (!(cost_model_.cache_fetches && cached != cache_.end() &&
        cached->second.profile)) {
    LABELRW_RETURN_IF_ERROR(FetchChargedCall());
    cache_[user].profile = true;
  }
  return PermissionDeniedError("user profile is private or deleted");
}

Result<std::span<const graph::NodeId>> OsnClient::GetNeighbors(
    graph::NodeId user) {
  LABELRW_RETURN_IF_ERROR(config_status_);
  RefreshShape();
  LABELRW_ASSIGN_OR_RETURN(const UserRecord record,
                           transport_.FetchRecord(user));
  LABELRW_RETURN_IF_ERROR(CheckAvailable(user));
  LABELRW_RETURN_IF_ERROR(ChargeFetch(user, record.degree, /*need_full=*/true));
  return record.neighbors;
}

Result<int64_t> OsnClient::GetDegree(graph::NodeId user) {
  LABELRW_RETURN_IF_ERROR(config_status_);
  RefreshShape();
  LABELRW_ASSIGN_OR_RETURN(const UserRecord record,
                           transport_.FetchRecord(user));
  LABELRW_RETURN_IF_ERROR(CheckAvailable(user));
  LABELRW_RETURN_IF_ERROR(
      ChargeFetch(user, record.degree, /*need_full=*/false));
  return record.degree;
}

Result<std::span<const graph::Label>> OsnClient::GetLabels(
    graph::NodeId user) {
  LABELRW_RETURN_IF_ERROR(config_status_);
  RefreshShape();
  LABELRW_ASSIGN_OR_RETURN(const UserRecord record,
                           transport_.FetchRecord(user));
  LABELRW_RETURN_IF_ERROR(CheckAvailable(user));
  LABELRW_RETURN_IF_ERROR(
      ChargeFetch(user, record.degree, /*need_full=*/false));
  return record.labels;
}

Result<graph::NodeId> OsnClient::RandomNode(Rng& rng) {
  LABELRW_RETURN_IF_ERROR(config_status_);
  // With an unavailable-user policy active, redraw until an accessible seed
  // comes up (directories list only public accounts). The loop terminates
  // with overwhelming probability for any rate < 1.
  for (int attempt = 0; attempt < 4096; ++attempt) {
    LABELRW_ASSIGN_OR_RETURN(const graph::NodeId seed,
                             transport_.SampleSeed(rng));
    if (!IsUnavailableUser(seed)) return seed;
  }
  return FailedPreconditionError(
      "RandomNode: could not find an accessible seed user");
}

Result<OsnClient::NeighborPage> OsnClient::FetchNeighborsPage(
    graph::NodeId user, int64_t cursor) {
  LABELRW_RETURN_IF_ERROR(config_status_);
  RefreshShape();
  LABELRW_ASSIGN_OR_RETURN(const UserRecord record,
                           transport_.FetchRecord(user));
  LABELRW_RETURN_IF_ERROR(CheckAvailable(user));

  const int64_t p = effective_page_size_;
  const int64_t total_pages = PagesForFull(record.degree);
  int64_t page_idx = 0;
  if (p > 0) {
    if (cursor < 0 || cursor % p != 0 || cursor / p >= total_pages) {
      return OutOfRangeError("FetchNeighborsPage: bad cursor");
    }
    page_idx = cursor / p;
  } else if (cursor != 0) {
    return OutOfRangeError(
        "FetchNeighborsPage: pagination disabled, cursor must be 0");
  }

  CachedPages& entry = cache_[user];
  const int64_t cached =
      cost_model_.cache_fetches ? FetchedPages(entry, total_pages) : 0;
  if (page_idx >= cached) {
    LABELRW_RETURN_IF_ERROR(FetchChargedCall());
    ++stats_.pages_fetched;
    // Cache state only grows for contiguous-from-0 access; an out-of-order
    // page fetch is served and charged but not remembered.
    if (page_idx == FetchedPages(entry, total_pages)) {
      RecordFetched(entry, page_idx + 1, total_pages);
    }
  }

  NeighborPage page;
  page.degree = record.degree;
  if (p <= 0) {
    page.friends = record.neighbors;
    page.next_cursor = -1;
  } else {
    const int64_t begin = cursor;
    const int64_t len = std::min(p, record.degree - begin);
    page.friends = record.neighbors.subspan(
        static_cast<size_t>(begin), static_cast<size_t>(std::max<int64_t>(len, 0)));
    page.next_cursor = begin + p < record.degree ? begin + p : -1;
  }
  return page;
}

Result<std::vector<OsnClient::UserView>> OsnClient::FetchUsers(
    std::span<const graph::NodeId> users) {
  LABELRW_RETURN_IF_ERROR(config_status_);
  RefreshShape();
  std::vector<UserView> views;
  views.reserve(users.size());

  // Pass 1: validate every id up front so a typo'd batch fails atomically
  // before anything is charged.
  std::vector<UserRecord> records;
  records.reserve(users.size());
  for (const graph::NodeId user : users) {
    LABELRW_ASSIGN_OR_RETURN(UserRecord record, transport_.FetchRecord(user));
    records.push_back(record);
  }

  // Pass 2: collect the uncached first pages this batch must fetch. Denied
  // users consume a slot too — the server still processes the id. With
  // caching on, duplicate ids coalesce to one slot (the second occurrence
  // would be a cache hit in the per-user sequence this call's accounting
  // mirrors); with caching off every occurrence charges, like repeated
  // GetNeighbors calls would.
  std::vector<size_t> to_fetch;  // indices into users/records
  std::unordered_set<graph::NodeId> counted;
  for (size_t i = 0; i < users.size(); ++i) {
    if (cost_model_.cache_fetches) {
      const auto cached = cache_.find(users[i]);
      if ((cached != cache_.end() && cached->second.profile) ||
          !counted.insert(users[i]).second) {
        continue;
      }
    }
    to_fetch.push_back(i);
  }
  const int64_t batch =
      effective_batch_size_ > 1 ? effective_batch_size_ : 1;
  // Charge round trip by round trip, marking each trip's first pages as
  // fetched as soon as it is paid: a strict-mode kRateLimited interruption
  // then resumes with the paid-for pages cached instead of re-charging
  // them (the bit-identical-resume contract of session.h).
  for (size_t start = 0; start < to_fetch.size();
       start += static_cast<size_t>(batch)) {
    LABELRW_RETURN_IF_ERROR(FetchChargedCall());
    ++stats_.batch_round_trips;
    if (!cost_model_.cache_fetches) continue;
    const size_t end =
        std::min(to_fetch.size(), start + static_cast<size_t>(batch));
    for (size_t j = start; j < end; ++j) {
      const graph::NodeId user = users[to_fetch[j]];
      CachedPages& entry = cache_[user];
      if (IsUnavailableUser(user)) {
        // Cache the denied verdict without counting a served profile,
        // exactly like pass 3 does.
        entry.profile = true;
      } else {
        RecordFetched(entry, 1, PagesForFull(records[to_fetch[j]].degree));
      }
    }
  }

  // Pass 3: materialize views; tail pages charge per user like GetNeighbors.
  for (size_t i = 0; i < users.size(); ++i) {
    const graph::NodeId user = users[i];
    UserView view;
    view.id = user;
    CachedPages& entry = cache_[user];
    if (IsUnavailableUser(user)) {
      ++stats_.denied_requests;
      entry.profile = true;  // cache the verdict, not the user
      views.push_back(view);
      continue;
    }
    const UserRecord& record = records[i];
    const int64_t total_pages = PagesForFull(record.degree);
    // The round-trip above already paid for page 0 (whether or not caching
    // is on), so only the friend-list tail pages remain to charge.
    const int64_t already = std::max<int64_t>(
        cost_model_.cache_fetches ? FetchedPages(entry, total_pages) : 1, 1);
    RecordFetched(entry, already, total_pages);
    const int64_t tail = total_pages - already;
    if (tail > 0 && !PerCallAccounting()) {
      const int64_t cost = tail * cost_model_.page_cost;
      if (budget_ >= 0 && api_calls_ + cost > budget_) {
        return ResourceExhaustedError("API budget exhausted");
      }
      api_calls_ += cost;
      stats_.pages_fetched += tail;
    } else {
      for (int64_t t = 0; t < tail; ++t) {
        LABELRW_RETURN_IF_ERROR(FetchChargedCall());
        ++stats_.pages_fetched;
        RecordFetched(entry, already + t + 1, total_pages);
      }
    }
    RecordFetched(entry, total_pages, total_pages);
    view.available = true;
    view.degree = record.degree;
    view.neighbors = record.neighbors;
    view.labels = record.labels;
    views.push_back(view);
  }
  return views;
}

namespace {

void WriteRngState(util::ByteWriter& w, const Rng::State& state) {
  for (uint64_t word : state.s) w.U64(word);
}

Status ReadRngState(util::ByteReader& r, Rng* rng) {
  Rng::State state;
  for (uint64_t& word : state.s) LABELRW_RETURN_IF_ERROR(r.U64(&word));
  rng->RestoreState(state);
  return Status::Ok();
}

// Cache membership is written as an ascending id list so the serialized
// bytes are a deterministic function of the cache contents.
void WriteIds(util::ByteWriter& w, std::vector<graph::NodeId>& ids) {
  std::sort(ids.begin(), ids.end());
  w.U64(ids.size());
  for (const graph::NodeId id : ids) w.I64(id);
}

/// Reads one id list, checking every id against `num_users`.
Status ReadIds(util::ByteReader& r, int64_t num_users,
               std::vector<graph::NodeId>* ids) {
  uint64_t count = 0;
  LABELRW_RETURN_IF_ERROR(r.U64(&count));
  ids->clear();
  for (uint64_t i = 0; i < count; ++i) {
    int64_t id = 0;
    LABELRW_RETURN_IF_ERROR(r.I64(&id));
    if (id < 0 || id >= num_users) {
      return DataLossError("client checkpoint: cached user id out of range");
    }
    ids->push_back(static_cast<graph::NodeId>(id));
  }
  return Status::Ok();
}

}  // namespace

void OsnClient::SaveState(util::ByteWriter& w) const {
  w.I64(api_calls_);
  w.I64(distinct_fetched_);
  w.I64(clock_.now_us());
  w.I64(last_retry_after_us_);
  w.I64(pending_fault_attempts_);
  w.I64(pending_deadline_us_);
  w.I64(effective_page_size_);
  w.I64(effective_batch_size_);
  WriteRngState(w, fault_rng_.SaveState());
  WriteRngState(w, retry_rng_.SaveState());
  w.I64(stats_.pages_fetched);
  w.I64(stats_.batch_round_trips);
  w.I64(stats_.transient_failures);
  w.I64(stats_.retries);
  w.I64(stats_.denied_requests);
  w.I64(stats_.rate_limit_stalls);
  w.I64(stats_.stalled_us);
  w.I64(stats_.rate_limited_rejections);
  w.I64(stats_.backoffs);
  w.I64(stats_.backoff_us);
  w.I64(stats_.deadline_exceeded);
  w.I64(stats_.shape_drifts);
  w.U8(limiter_.has_value() ? 1 : 0);
  if (limiter_.has_value()) {
    const RateLimiter::State limiter = limiter_->SaveState();
    w.F64(limiter.tokens);
    w.I64(limiter.last_refill_us);
    w.U64(limiter.window.size());
    for (const int64_t t : limiter.window) w.I64(t);
  }
  std::vector<graph::NodeId> profile;
  std::vector<graph::NodeId> full;
  std::vector<std::pair<graph::NodeId, int64_t>> partial;
  for (const auto& [user, e] : cache_) {
    if (e.profile) profile.push_back(user);
    if (e.full) full.push_back(user);
    if (e.partial > 0) partial.emplace_back(user, e.partial);
  }
  WriteIds(w, profile);
  WriteIds(w, full);
  std::sort(partial.begin(), partial.end());
  w.U64(partial.size());
  for (const auto& [user, pages] : partial) {
    w.I64(user);
    w.I64(pages);
  }
}

Status OsnClient::RestoreState(util::ByteReader& r) {
  LABELRW_RETURN_IF_ERROR(config_status_);
  LABELRW_RETURN_IF_ERROR(r.I64(&api_calls_));
  LABELRW_RETURN_IF_ERROR(r.I64(&distinct_fetched_));
  int64_t now_us = 0;
  LABELRW_RETURN_IF_ERROR(r.I64(&now_us));
  if (now_us < clock_.now_us()) {
    return FailedPreconditionError(
        "OsnClient::RestoreState needs a fresh client: its clock is already "
        "past the checkpointed instant");
  }
  clock_.AdvanceToUs(now_us);
  LABELRW_RETURN_IF_ERROR(r.I64(&last_retry_after_us_));
  int64_t pending_attempts = 0;
  LABELRW_RETURN_IF_ERROR(r.I64(&pending_attempts));
  pending_fault_attempts_ = static_cast<int>(pending_attempts);
  LABELRW_RETURN_IF_ERROR(r.I64(&pending_deadline_us_));
  LABELRW_RETURN_IF_ERROR(r.I64(&effective_page_size_));
  LABELRW_RETURN_IF_ERROR(r.I64(&effective_batch_size_));
  LABELRW_RETURN_IF_ERROR(ReadRngState(r, &fault_rng_));
  LABELRW_RETURN_IF_ERROR(ReadRngState(r, &retry_rng_));
  LABELRW_RETURN_IF_ERROR(r.I64(&stats_.pages_fetched));
  LABELRW_RETURN_IF_ERROR(r.I64(&stats_.batch_round_trips));
  LABELRW_RETURN_IF_ERROR(r.I64(&stats_.transient_failures));
  LABELRW_RETURN_IF_ERROR(r.I64(&stats_.retries));
  LABELRW_RETURN_IF_ERROR(r.I64(&stats_.denied_requests));
  LABELRW_RETURN_IF_ERROR(r.I64(&stats_.rate_limit_stalls));
  LABELRW_RETURN_IF_ERROR(r.I64(&stats_.stalled_us));
  LABELRW_RETURN_IF_ERROR(r.I64(&stats_.rate_limited_rejections));
  LABELRW_RETURN_IF_ERROR(r.I64(&stats_.backoffs));
  LABELRW_RETURN_IF_ERROR(r.I64(&stats_.backoff_us));
  LABELRW_RETURN_IF_ERROR(r.I64(&stats_.deadline_exceeded));
  LABELRW_RETURN_IF_ERROR(r.I64(&stats_.shape_drifts));
  uint8_t has_limiter = 0;
  LABELRW_RETURN_IF_ERROR(r.U8(&has_limiter));
  if (has_limiter != 0) {
    if (!limiter_.has_value()) {
      return FailedPreconditionError(
          "client checkpoint has rate-limiter state but this client has no "
          "rate limit configured");
    }
    RateLimiter::State limiter;
    LABELRW_RETURN_IF_ERROR(r.F64(&limiter.tokens));
    LABELRW_RETURN_IF_ERROR(r.I64(&limiter.last_refill_us));
    uint64_t window_len = 0;
    LABELRW_RETURN_IF_ERROR(r.U64(&window_len));
    limiter.window.resize(window_len);
    for (uint64_t i = 0; i < window_len; ++i) {
      LABELRW_RETURN_IF_ERROR(r.I64(&limiter.window[i]));
    }
    limiter_->RestoreState(limiter);
  } else if (limiter_.has_value()) {
    return FailedPreconditionError(
        "client checkpoint has no rate-limiter state but this client has a "
        "rate limit configured");
  }
  const int64_t num_users = transport_.num_users();
  cache_.clear();
  std::vector<graph::NodeId> ids;
  LABELRW_RETURN_IF_ERROR(ReadIds(r, num_users, &ids));
  for (const graph::NodeId id : ids) cache_[id].profile = true;
  LABELRW_RETURN_IF_ERROR(ReadIds(r, num_users, &ids));
  for (const graph::NodeId id : ids) cache_[id].full = true;
  uint64_t partial_count = 0;
  LABELRW_RETURN_IF_ERROR(r.U64(&partial_count));
  for (uint64_t i = 0; i < partial_count; ++i) {
    int64_t user = 0;
    int64_t pages = 0;
    LABELRW_RETURN_IF_ERROR(r.I64(&user));
    LABELRW_RETURN_IF_ERROR(r.I64(&pages));
    if (user < 0 || user >= num_users || pages <= 0) {
      return DataLossError("client checkpoint: bad partial-pagination entry");
    }
    cache_[static_cast<graph::NodeId>(user)].partial = pages;
  }
  return Status::Ok();
}

}  // namespace labelrw::osn
