// Epoch-stamped membership set over dense node ids.
//
// LocalGraphApi needs a "was this user's page fetched already" bit per node.
// A plain std::vector<bool> makes every API reset O(|V|): the experiment
// harness runs reps × sizes × algorithms independent simulations, each with
// a fresh cache, so on a 100k-node graph the resets alone churned tens of
// gigabytes through the allocator. An epoch-stamped uint32 array makes a
// reset O(1) (bump the epoch; all stale stamps become "absent") and lets a
// worker thread reuse one backing buffer across every rep it executes.
//
// OsnClient does not use it: its crawl cache (a hash map, osn/client.h) is
// sized to the users a session touched, not to the graph.

#ifndef LABELRW_OSN_TOUCHED_SET_H_
#define LABELRW_OSN_TOUCHED_SET_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "util/prefetch.h"

namespace labelrw::osn {

/// Set of "touched" ids in [0, n). Reset is O(1) amortized; Test/Insert are
/// single array accesses. Not thread-safe; intended as per-worker scratch.
class TouchedSet {
 public:
  /// Prepares the set for ids [0, n) and empties it. Reuses the backing
  /// store when it is already large enough, which is the common case for a
  /// per-worker scratch pool.
  void Reset(int64_t n) {
    if (static_cast<int64_t>(stamps_.size()) < n) {
      stamps_.assign(static_cast<size_t>(n), 0);
      epoch_ = 1;
      return;
    }
    if (++epoch_ == 0) {
      // Epoch counter wrapped (once per ~4 billion resets): stale stamps
      // from 2^32 resets ago would read as present, so wipe once.
      std::fill(stamps_.begin(), stamps_.end(), 0u);
      epoch_ = 1;
    }
  }

  bool Test(int64_t i) const {
    return stamps_[static_cast<size_t>(i)] == epoch_;
  }

  /// Requests `i`'s stamp into cache ahead of a Test/TestAndSet. The
  /// stamp array is 4 bytes per node — megabytes on a million-node graph
  /// — so a charge's stamp read is a third dependent random access next
  /// to a walk step's CSR offset and row; the batched walk paths
  /// prefetch it alongside those (via osn::OsnApi::PrefetchUser).
  void Prefetch(int64_t i) const {
    if (i >= 0 && static_cast<size_t>(i) < stamps_.size()) {
      LABELRW_PREFETCH_READ(stamps_.data() + i);
    }
  }

  /// Inserts `i`; returns true iff it was already present.
  bool TestAndSet(int64_t i) {
    if (stamps_[static_cast<size_t>(i)] == epoch_) return true;
    stamps_[static_cast<size_t>(i)] = epoch_;
    return false;
  }

  int64_t capacity() const { return static_cast<int64_t>(stamps_.size()); }

 private:
  std::vector<uint32_t> stamps_;
  uint32_t epoch_ = 0;  // valid only after Reset
};

}  // namespace labelrw::osn

#endif  // LABELRW_OSN_TOUCHED_SET_H_
