// OsnClient: the v2 session-based access layer over an osn::Transport.
//
// One OsnClient is one crawl session against an OSN backend. It owns every
// piece of per-crawl state the v1 LocalGraphApi fused into the storage
// layer — call accounting, the crawler cache, the API budget — and adds the
// realities of production OSN crawling the flat surface could not express:
//
//   * cursor-paginated friend lists — a degree-d user's full list costs
//     ceil(d / CostModel::page_size) calls, each page charged separately
//     (FetchNeighborsPage iterates; GetNeighbors fetches the tail in bulk).
//     page_size <= 0 disables pagination and reproduces the v1
//     one-call-per-user accounting bit-for-bit (test-enforced).
//   * a batch endpoint — FetchUsers() coalesces up to CostModel::batch_size
//     first-page fetches into one charged round-trip.
//   * injectable fault policies — transient server errors with a bounded
//     retry budget, and deterministically private/deleted users.
//   * server pacing — a RateLimitPolicy (token bucket + rolling quota
//     window) over an owned SimClock, so crawl *time* is simulated
//     deterministically alongside crawl cost (see osn/sim_clock.h).
//
// OsnClient implements the v1 OsnApi surface, so every estimator, walker,
// and session runs over it unchanged; with default CostModel and faults off
// it is accounting-identical to LocalGraphApi. See docs/API.md for the
// migration table.

#ifndef LABELRW_OSN_CLIENT_H_
#define LABELRW_OSN_CLIENT_H_

#include <optional>
#include <unordered_map>
#include <vector>

#include "osn/api.h"
#include "osn/sim_clock.h"
#include "osn/transport.h"
#include "util/serialize.h"

namespace labelrw::osn {

/// Failure injection for a crawl session. All draws come from a dedicated
/// fault RNG stream (seeded below), so enabling faults never perturbs an
/// estimator's sampling stream.
struct FaultPolicy {
  /// Probability that any single page/batch round-trip fails transiently
  /// (HTTP 5xx / rate-limit hiccup). The client retries internally.
  double transient_error_rate = 0.0;
  /// Fraction of users whose profiles are private or deleted. Membership is
  /// a deterministic hash of (seed, user id): a denied user stays denied for
  /// the whole session, like a real private account.
  double unavailable_user_rate = 0.0;
  /// Retries after the first failed attempt before giving up with
  /// kUnavailable.
  int retry_budget = 3;
  /// Whether failed attempts consume quota (most production APIs charge the
  /// rate limit for 5xx responses too).
  bool charge_failed_attempts = true;
  /// Seed of the fault stream.
  uint64_t seed = 0xfa017u;

  bool any_faults() const {
    return transient_error_rate > 0.0 || unavailable_user_rate > 0.0;
  }

  Status Validate() const;
};

/// Adaptive retry for failed wire attempts. The default-constructed policy
/// reproduces the legacy fixed loop bit-for-bit: FaultPolicy::retry_budget
/// + 1 immediate attempts, no backoff, no deadline, and zero draws from the
/// jitter stream — so existing runs, golden traces, and replay are
/// untouched unless a field is set.
struct RetryPolicy {
  /// Total attempts per logical fetch. 0 = inherit the legacy
  /// FaultPolicy::retry_budget + 1.
  int max_attempts = 0;
  /// Sim-clock sleep before the first retry; each further retry multiplies
  /// it by backoff_multiplier (capped at max_backoff_us). 0 disables
  /// backoff entirely.
  int64_t initial_backoff_us = 0;
  double backoff_multiplier = 2.0;
  int64_t max_backoff_us = 60'000'000;
  /// Jitter fraction in [0, 1): each sleep is scaled by a uniform factor in
  /// [1 - jitter, 1 + jitter), drawn from a dedicated RNG stream (seeded
  /// below) so enabling jitter never perturbs the estimator's sampling
  /// stream or the fault stream. Deterministic across runs and checkpoints.
  double jitter = 0.0;
  uint64_t jitter_seed = 0xbacc0ffULL;
  /// Per-logical-call deadline on the sim clock: once backoff sleeps (or
  /// strict-mode stalls) push the clock this far past the first attempt,
  /// the fetch fails with kDeadlineExceeded instead of retrying further.
  /// 0 = no deadline.
  int64_t call_deadline_us = 0;

  bool enabled() const {
    return max_attempts > 0 || initial_backoff_us > 0 || call_deadline_us > 0;
  }

  Status Validate() const;
};

/// Per-session wire diagnostics (distinct from the charged api_calls()).
struct ClientStats {
  int64_t pages_fetched = 0;       // successful page fetches
  int64_t batch_round_trips = 0;   // charged FetchUsers round-trips
  int64_t transient_failures = 0;  // failed attempts (before retry)
  int64_t retries = 0;             // retry attempts issued
  int64_t denied_requests = 0;     // probes answered with kPermissionDenied
  int64_t rate_limit_stalls = 0;   // auto-wait sleeps taken by the limiter
  int64_t stalled_us = 0;          // sim time spent in those sleeps
  int64_t rate_limited_rejections = 0;  // strict-mode kRateLimited returns
  int64_t backoffs = 0;            // retry backoff sleeps taken
  int64_t backoff_us = 0;          // sim time spent backing off
  int64_t deadline_exceeded = 0;   // fetches abandoned at their deadline
  int64_t shape_drifts = 0;        // observed page/batch limit changes
};

class OsnClient final : public OsnApi {
 public:
  /// `transport` must outlive the client. `budget` < 0 = unlimited.
  /// Construction is O(1) whatever the graph size: the crawler cache starts
  /// empty and grows with the users the session touches.
  explicit OsnClient(const Transport& transport,
                     CostModel cost_model = CostModel(),
                     FaultPolicy faults = FaultPolicy(), int64_t budget = -1);

  // Non-copyable: a session is one crawl's ledger.
  OsnClient(const OsnClient&) = delete;
  OsnClient& operator=(const OsnClient&) = delete;

  // -------------------------------------------------------------------
  // v1 OsnApi surface. GetNeighbors fetches every not-yet-cached page of
  // the friend list; GetDegree/GetLabels only the profile (first) page.
  Result<std::span<const graph::NodeId>> GetNeighbors(
      graph::NodeId user) override;
  Result<int64_t> GetDegree(graph::NodeId user) override;
  Result<std::span<const graph::Label>> GetLabels(graph::NodeId user) override;
  /// Seed users are free and, under a fault policy, always point at
  /// accessible accounts (public directories list no private profiles).
  Result<graph::NodeId> RandomNode(Rng& rng) override;

  int64_t api_calls() const override { return api_calls_; }
  void ResetCallCount() override { api_calls_ = 0; }
  int64_t remaining_budget() const override;
  /// Forwards the transport's CSR view (prefetch hint only; see api.h).
  const graph::Graph* FastGraphView() const override {
    return transport_.FastGraphView();
  }

  // -------------------------------------------------------------------
  // v2 surface.

  /// One page of a paginated friend-list fetch.
  struct NeighborPage {
    /// The friends on this page (a slice of the sorted full list).
    std::span<const graph::NodeId> friends;
    /// Cursor of the next page, or -1 when this was the last page.
    int64_t next_cursor = -1;
    /// Total friend count (the profile rides on every page header).
    int64_t degree = 0;
  };

  /// Fetches the friend-list page starting at `cursor` (0, page_size,
  /// 2*page_size, ... — real OSN cursors are opaque, ours are offsets).
  /// Charges one page_cost unless the page is already cached. Pages fetched
  /// contiguously from 0 accumulate in the cache; once all pages of a user
  /// were fetched, GetNeighbors on that user is free.
  Result<NeighborPage> FetchNeighborsPage(graph::NodeId user,
                                          int64_t cursor = 0);

  /// One user's data as returned by the batch endpoint.
  struct UserView {
    graph::NodeId id = -1;
    /// False for private/deleted users (their spans are empty).
    bool available = false;
    int64_t degree = 0;
    std::span<const graph::NodeId> neighbors;
    std::span<const graph::Label> labels;
  };

  /// Batch endpoint: full records for `users`. Uncached first pages are
  /// coalesced into ceil(n / batch_size) charged round-trips; friend-list
  /// tail pages (degree > page_size) are charged per user as usual. With
  /// batch_size <= 1 the accounting equals one GetNeighbors per user.
  /// Unknown ids fail the whole call (NotFound); private users come back
  /// with available = false.
  Result<std::vector<UserView>> FetchUsers(
      std::span<const graph::NodeId> users);

  /// Installs a server pacing policy (sim_clock.h). Call before the first
  /// request: the limiter state and the clock start fresh from time 0. An
  /// invalid policy poisons the session like an invalid FaultPolicy.
  void ConfigureRateLimit(const RateLimitPolicy& policy);

  /// Points this session at an externally owned RateLimiter shared by many
  /// sessions (one API key's bucket/quota contended by all tenants of a
  /// traffic simulation; see traffic/engine.h). `policy` supplies the
  /// per-session knobs — auto_wait, per_call_latency_us — and must be the
  /// policy the shared limiter was built from; the limiter's dynamic state
  /// lives with its owner (it is NOT serialized by SaveState — the owner
  /// checkpoints it once, not once per attached session). The limiter must
  /// outlive the client. Replaces any previously configured owned limiter.
  void AttachSharedLimiter(const RateLimitPolicy& policy,
                           RateLimiter* limiter);

  /// Installs an adaptive retry policy (backoff / jitter / deadline). Call
  /// before the first request; reseeds the jitter stream. An invalid
  /// policy poisons the session like an invalid FaultPolicy.
  void ConfigureRetry(const RetryPolicy& policy);

  const RetryPolicy& retry() const { return retry_; }

  /// The session's simulated timeline. Advances on every wire request (per
  /// RateLimitPolicy::per_call_latency_us) and on limiter waits; frozen
  /// while requests are served from the crawler cache.
  const SimClock& clock() const { return clock_; }
  /// Mutable clock access for callers that own the retry schedule in strict
  /// (auto_wait = false) mode: advance past last_retry_after_us() and
  /// re-issue the rejected request.
  SimClock& mutable_clock() { return clock_; }

  /// Microseconds until the limiter admits a retry, as advertised by the
  /// most recent kRateLimited return. 0 if no request was ever rejected.
  int64_t last_retry_after_us() const { return last_retry_after_us_; }

  const RateLimitPolicy& rate_limit() const { return rate_policy_; }

  /// Prior knowledge forwarded from the transport (owner-published |V|,
  /// |E|, degree maxima).
  GraphPriors Priors() const { return transport_.TransportPriors(); }

  /// Number of distinct users whose profile page was fetched.
  int64_t distinct_users_fetched() const { return distinct_fetched_; }

  const ClientStats& stats() const { return stats_; }
  const CostModel& cost_model() const { return cost_model_; }

  /// Pages a full friend-list fetch of a degree-`degree` user costs, under
  /// the page size the API *currently* advertises (see ApiShape drift).
  int64_t PagesForFull(int64_t degree) const {
    const int64_t p = effective_page_size_;
    if (p <= 0 || degree <= p) return 1;
    return (degree + p - 1) / p;
  }

  /// The page/batch limits currently in effect (CostModel values unless the
  /// transport's ApiShape overrides them).
  int64_t effective_page_size() const { return effective_page_size_; }
  int64_t effective_batch_size() const { return effective_batch_size_; }

  // -------------------------------------------------------------------
  // Durable checkpointing (estimators/checkpoint.h drives this).

  /// Serializes the complete dynamic session state: accounting, stats,
  /// cache membership, clock, limiter, RNG streams, and in-flight retry
  /// state. Configuration (transport, CostModel, FaultPolicy, RetryPolicy,
  /// RateLimitPolicy, budget) is NOT serialized — restore into a freshly
  /// constructed client with identical configuration over the same backend.
  void SaveState(util::ByteWriter& w) const;

  /// Inverse of SaveState. The client must be freshly constructed (clock at
  /// 0, no requests issued); kDataLoss on malformed payloads.
  Status RestoreState(util::ByteReader& r);

 private:
  /// True when charging must walk pages one wire request at a time (faults
  /// to draw, a limiter to consult, a clock to tick, or wire-level chaos to
  /// observe) instead of taking the bulk-charge fast path.
  bool PerCallAccounting() const {
    return faults_.transient_error_rate > 0.0 || rate_policy_.enabled() ||
           rate_policy_.per_call_latency_us > 0 || transport_.HasWireEffects();
  }

  /// Re-reads the transport's advertised ApiShape and applies any drift
  /// (invalidating pagination cursors on a page-size change). Called at
  /// every public call boundary.
  void RefreshShape();

  /// Backoff sleep before retrying a fetch whose `attempt`-th try failed.
  int64_t BackoffDelayUs(int attempt);

  /// Admits one wire request against the rate limiter and ticks the clock.
  /// auto_wait sleeps the clock until admission; strict mode returns
  /// kRateLimited (free of charge and quota) with last_retry_after_us_ set.
  Status AdmitWireCall();

  /// One user's crawler-cache state. The three parts are independent of
  /// one another, exactly as the checkpoint serializes them (one id list
  /// each); an entry with none of them set caches nothing.
  struct CachedPages {
    /// The profile (page 0) was fetched, or the user's denied verdict is
    /// cached: denied users never become available, so the two share it.
    bool profile = false;
    /// Every page of the friend list was fetched.
    bool full = false;
    /// Contiguous pages fetched of a list mid-pagination (0 = none).
    int64_t partial = 0;
  };

  /// Contiguously-cached page count of `entry`'s user (0 = nothing
  /// cached) when its full list is `total_pages` long.
  static int64_t FetchedPages(const CachedPages& entry,
                              int64_t total_pages);

  /// Marks `pages_now` contiguous pages of `entry`'s user as fetched and
  /// maintains the distinct-user count. Idempotent.
  void RecordFetched(CachedPages& entry, int64_t pages_now,
                     int64_t total_pages);

  /// Charges one successful page/round-trip fetch, simulating transient
  /// failures and retries per the fault policy. Budget-checked per attempt.
  Status FetchChargedCall();

  /// Charges everything needed to serve `user` up to `need_pages` pages.
  Status ChargeFetch(graph::NodeId user, int64_t degree, bool need_full);

  /// kPermissionDenied (charging the probe once) if `user` is private.
  Status CheckAvailable(graph::NodeId user);
  bool IsUnavailableUser(graph::NodeId user) const;

  const Transport& transport_;
  CostModel cost_model_;
  FaultPolicy faults_;
  int64_t budget_;
  Status config_status_;  // invalid FaultPolicy/RateLimitPolicy surfaces
                          // on every call
  Rng fault_rng_;
  RetryPolicy retry_;
  Rng retry_rng_;  // dedicated jitter stream
  RateLimitPolicy rate_policy_;
  std::optional<RateLimiter> limiter_;
  /// Externally owned shared bucket (AttachSharedLimiter); wins over
  /// limiter_ when set. Never serialized with the session.
  RateLimiter* shared_limiter_ = nullptr;
  SimClock clock_;
  int64_t last_retry_after_us_ = 0;
  /// Failed attempts of the in-flight fetch when a strict-mode rejection
  /// interrupted it; the retried fetch resumes its retry budget there.
  int pending_fault_attempts_ = 0;
  /// Absolute sim-clock deadline of the in-flight fetch, or -1 when none is
  /// armed. Survives strict-mode interruptions like pending_fault_attempts_.
  int64_t pending_deadline_us_ = -1;
  /// Page/batch limits currently in effect (see RefreshShape).
  int64_t effective_page_size_ = 0;
  int64_t effective_batch_size_ = 1;

  int64_t api_calls_ = 0;
  int64_t distinct_fetched_ = 0;
  ClientStats stats_;

  /// The crawler cache, keyed by user id. It holds only the users this
  /// session touched (about 1% of a 1M-node store per estimate), so a
  /// client is built in O(1) and its cache grows with the crawl.
  std::unordered_map<graph::NodeId, CachedPages> cache_;
};

}  // namespace labelrw::osn

#endif  // LABELRW_OSN_CLIENT_H_
