// Admission control for the multi-tenant traffic engine.
//
// A TrafficEngine slot pool holds at most max_in_flight concurrently
// crawling sessions (each active session holds its client's crawl cache —
// one entry per user it touched — and its estimator state, so the slot
// count, not the tenant count, bounds the engine's working set). Arrivals
// that find every slot busy wait in per-priority FIFO queues up to
// max_queue_depth deep; beyond that the overflow policy decides who loses:
//
//   kReject     the newcomer is refused (StatusCode::kAdmissionRejected)
//   kShedOldest the oldest request of the lowest-priority backlogged class
//               is dropped and the newcomer queued — load shedding that
//               favors fresh work and protects high-priority tenants.
//
// Everything here is plain integer bookkeeping driven by the engine's event
// loop: no clocks, no RNG, total determinism. State serializes into the
// engine checkpoint so kill-resume runs keep the identical queue order.

#ifndef LABELRW_TRAFFIC_ADMISSION_H_
#define LABELRW_TRAFFIC_ADMISSION_H_

#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <vector>

#include "util/serialize.h"
#include "util/status.h"

namespace labelrw::traffic {

enum class OverflowPolicy : uint8_t {
  kReject = 0,
  kShedOldest = 1,
};

const char* OverflowPolicyName(OverflowPolicy policy);
Result<OverflowPolicy> OverflowPolicyFromName(const std::string& name);

struct AdmissionPolicy {
  /// Concurrently crawling sessions (the engine's slot-pool size).
  int64_t max_in_flight = 16;
  /// Queued requests across all priority classes; 0 = no queueing, every
  /// overflow goes straight to the overflow policy.
  int64_t max_queue_depth = 64;
  OverflowPolicy overflow = OverflowPolicy::kReject;

  Status Validate() const;
};

/// One session request waiting for a slot.
struct QueuedRequest {
  int64_t tenant = -1;
  /// The tenant's session ordinal (seeds derive from it).
  int64_t session_seq = 0;
  int64_t arrival_us = 0;
};

struct EnqueueOutcome {
  enum class Kind : uint8_t { kQueued = 0, kRejected = 1, kShed = 2 };
  Kind kind = Kind::kQueued;
  /// kShed only: the request dropped to make room (never the newcomer —
  /// a shed newcomer would just be kRejected).
  QueuedRequest victim;
};

class AdmissionController {
 public:
  /// `priority_classes` >= 1; priority p means queue index p (lower =
  /// more important, served first).
  AdmissionController(const AdmissionPolicy& policy, int priority_classes);

  // --- slot pool ---
  bool HasFreeSlot() const { return in_flight_ < policy_.max_in_flight; }
  void AcquireSlot() { ++in_flight_; }
  void ReleaseSlot() { --in_flight_; }
  int64_t in_flight() const { return in_flight_; }

  // --- waiting room ---
  /// Files `request` under `priority` (clamped into range). Applies the
  /// overflow policy when the total backlog is at max_queue_depth.
  EnqueueOutcome Enqueue(const QueuedRequest& request, int priority);

  /// The next request to admit: FIFO within the most important non-empty
  /// class. nullopt when nothing waits.
  std::optional<QueuedRequest> PopNext();

  int64_t queue_depth() const { return depth_; }
  int64_t queue_peak() const { return peak_; }
  int64_t rejected() const { return rejected_; }
  int64_t shed() const { return shed_; }

  const AdmissionPolicy& policy() const { return policy_; }

  /// Complete dynamic state (queues in order, counters, in-flight count)
  /// for the engine checkpoint. The policy and class count are
  /// configuration and must match at restore; mismatches fail closed.
  void SaveState(util::ByteWriter& w) const;
  Status RestoreState(util::ByteReader& r);

 private:
  AdmissionPolicy policy_;
  std::vector<std::deque<QueuedRequest>> queues_;  // one per priority class
  int64_t in_flight_ = 0;
  int64_t depth_ = 0;
  int64_t peak_ = 0;
  int64_t rejected_ = 0;
  int64_t shed_ = 0;
};

}  // namespace labelrw::traffic

#endif  // LABELRW_TRAFFIC_ADMISSION_H_
