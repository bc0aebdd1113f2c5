// Per-tenant state of the traffic engine: the arrival process, the SLO
// telemetry histograms, and the terminal-outcome counters.
//
// A tenant is one logical customer of the estimation service. Its dynamic
// state is deliberately tiny — an RNG, three LogHistograms, and a dozen
// counters, ~5 KB — because the engine carries 10,000 of them; everything
// heavy (crawl caches, estimator state) lives in the bounded in-flight
// slot pool instead (traffic/admission.h).
//
// Telemetry definitions (all on the simulated timeline):
//   latency          completion - arrival: the end-to-end SLO, queue wait
//                    included.
//   time-to-estimate completion - admission: pure crawl service time.
//   freshness        the age of the tenant's previous estimate at the
//                    moment a new one replaces it, plus one final sample at
//                    simulation end (end - last completion), so a tenant
//                    with a single session still reports how stale its
//                    estimate ended up.

#ifndef LABELRW_TRAFFIC_TENANT_H_
#define LABELRW_TRAFFIC_TENANT_H_

#include <cstdint>

#include "osn/scenario.h"
#include "util/histogram.h"
#include "util/rng.h"
#include "util/serialize.h"
#include "util/status.h"

namespace labelrw::traffic {

/// The tenant's instantaneous arrival rate in sessions per simulated
/// second: the pattern's base rate times its diurnal / hot-spot /
/// noisy-neighbor modulations, evaluated at `at_us`. Piecewise-linear
/// arithmetic only (the triangle ramp replaces the usual sinusoid), so the
/// value is bit-identical on every platform.
double ArrivalRatePerSec(const osn::TrafficPattern& pattern, int64_t tenant,
                         int64_t tenants_total, int64_t at_us);

/// One exponential inter-arrival draw at `rate_per_sec`, in microseconds,
/// clamped to >= 1 (events must advance the timeline or carry a distinct
/// tie-break; zero-length gaps are legal but pointless).
int64_t ExponentialDelayUs(Rng& rng, double rate_per_sec);

/// One closed-loop think-time draw: exponential with mean
/// pattern.think_time_us.
int64_t ThinkDelayUs(Rng& rng, const osn::TrafficPattern& pattern);

struct TenantState {
  /// Dedicated arrival stream; never shared with any session's sampling
  /// stream, so the load shape cannot perturb an estimate.
  Rng arrival_rng{0};
  int priority = 0;

  // Terminal-outcome counters. submitted = sessions whose arrival fired;
  // every submission ends in exactly one of admitted-and-(completed |
  // aborted), rejected, or shed.
  int64_t submitted = 0;
  int64_t admitted = 0;
  int64_t completed = 0;
  int64_t rejected = 0;
  int64_t shed = 0;
  int64_t aborted = 0;
  /// Strict-mode kRateLimited rejections the engine rescheduled around.
  int64_t rate_limited = 0;
  /// Charged API calls across this tenant's finished sessions.
  int64_t api_calls = 0;

  /// Sim time of the latest completion; -1 before the first one.
  int64_t last_completion_us = -1;
  double last_estimate = 0.0;
  double sum_estimate = 0.0;
  /// Sum of squared errors vs the configured ground truth (0 when the
  /// engine runs truth-free).
  double sum_sq_error = 0.0;

  util::LogHistogram latency;
  util::LogHistogram time_to_estimate;
  util::LogHistogram freshness;

  void SaveState(util::ByteWriter& w) const;
  Status RestoreState(util::ByteReader& r);
};

}  // namespace labelrw::traffic

#endif  // LABELRW_TRAFFIC_TENANT_H_
