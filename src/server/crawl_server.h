// CrawlServer: the long-lived serving side of the shared-memory crawl
// protocol (server/shm_protocol.h).
//
// Start() opens a sharded store (store/sharded_graph.h), mmaps every shard
// once, creates the shm slab, and spins up a worker pool that drains the
// session slots' request queue. One process serves every concurrent
// OsnClient session on the machine; clients cost one slot each, not one
// store mapping each.
//
// Workers drain and batch: one doorbell wake claims EVERY pending slot the
// worker can take (preferring requests whose node routes to "their" shard —
// ShardOf(user) % num_workers == worker_index — and falling back to any
// pending request on a second pass), then serves the claimed fetches in one
// sorted pass. The batch is ordered by (shard, node id) through
// rw::AccessEngine — shard owner arrays are sorted, so ascending id is
// ascending row address within a shard — and serviced behind a two-phase
// software-prefetch pipeline (resolve + offsets, then payload), so a burst
// of 64 sessions' random gathers becomes a near-sequential sweep per
// mapping instead of 64 isolated misses. Admission/goodbye ops are served
// inline during the drain. A reaper pass piggybacked on worker 0 reclaims
// slots whose client died (pid gone) or went idle past the timeout, so
// leaked sessions never brown out admission.
//
// Stop() is clean-shutdown: alive goes 0, workers drain and exit, waiting
// clients observe the flag during their next wait tick and surface
// kUnavailable, and the shm name is unlinked. Destruction implies Stop().
//
// tools/labelrw_serverd.cc wraps this in a daemon; tests embed it
// in-process.

#ifndef LABELRW_SERVER_CRAWL_SERVER_H_
#define LABELRW_SERVER_CRAWL_SERVER_H_

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "rw/access_engine.h"
#include "server/shm_protocol.h"
#include "store/sharded_graph.h"
#include "util/status.h"

namespace labelrw::server {

struct ServerOptions {
  /// The sharded store to serve: `<prefix>.manifest` or a bare prefix.
  std::string manifest_path;
  /// POSIX shm object name ("/labelrw-crawl" style; leading '/' required).
  std::string shm_name;
  /// Concurrent session capacity. Admission beyond this fails with
  /// kResourceExhausted at the client until a slot frees.
  uint32_t num_slots = 64;
  /// Worker threads draining requests. 0 = one per shard.
  uint32_t num_workers = 0;
  /// Reclaim an admitted session with no traffic for this long. 0 disables.
  int64_t idle_timeout_ms = 30'000;
  /// Passed through to the shard mappings (store/mapped_graph.h).
  store::MapOptions map_options;
  /// Suppress startup/shutdown log lines (tests).
  bool quiet = false;
};

struct ServerStats {
  uint64_t requests_served = 0;
  uint64_t sessions_admitted = 0;
  uint64_t sessions_reaped_dead = 0;  // client pid vanished
  uint64_t sessions_reaped_idle = 0;  // idle_timeout_ms expired
  uint32_t active_sessions = 0;
  /// Fault-tolerance axis (store::ShardFaultStats plus the typed error
  /// frames): reads served by a replica after the primary went down, and
  /// fetches answered kShardUnavailable because every copy was down.
  uint64_t fetches_failed_over = 0;
  uint64_t fetches_shard_unavailable = 0;
  bool draining = false;
};

class CrawlServer {
 public:
  CrawlServer() = default;
  ~CrawlServer() { Stop(); }
  CrawlServer(const CrawlServer&) = delete;
  CrawlServer& operator=(const CrawlServer&) = delete;

  /// Opens the store, creates the slab, starts the workers. Fails closed on
  /// a bad store, an un-creatable shm object, or zero slots.
  Status Start(const ServerOptions& options);

  /// Clean shutdown; idempotent. Safe to call on a never-started server.
  void Stop();

  /// Graceful drain for shutdown: publishes the slab's `draining` flag so
  /// clients stop posting new work (they see kUnavailable and fail over to
  /// the reconnect path), then waits up to `timeout_ms` for every in-flight
  /// request to be answered. Returns true when the slab went quiescent,
  /// false on timeout — the caller Stop()s either way, the bool is for the
  /// shutdown log line. No-op (true) on a non-running server.
  bool Drain(int64_t timeout_ms);

  bool running() const { return running_; }
  const store::ShardedMappedGraph& store() const { return store_; }

  /// Chaos hooks, forwarded to the store's shard health machinery
  /// (store/sharded_graph.h): install a deterministic outage schedule and
  /// advance its clock. Benches drive these; production servers never do.
  Status SetShardFaultSchedule(store::ShardFaultSchedule schedule) {
    return store_.AttachFaultSchedule(std::move(schedule));
  }
  void AdvanceShardFaultClock(int64_t now_us) {
    store_.AdvanceFaultClock(now_us);
  }

  /// Point-in-time counters (relaxed reads; exact only when quiescent).
  ServerStats stats() const;

 private:
  /// Per-worker reusable batch state: the slots claimed for this drain
  /// (claims held until their response is published), the locality-sort
  /// queue, and the resolved owner rows, indexed by queue tag.
  struct FetchBatch {
    std::vector<uint32_t> slots;
    std::vector<store::ShardedMappedGraph::RowRef> refs;
    rw::AccessEngine engine;
  };

  void WorkerLoop(uint32_t worker_index);
  void ReapPass(int64_t now_us);
  /// Serves slot `i`'s pending non-fetch request (hello/goodbye/rejects)
  /// inline. Caller holds — and keeps — the `claimed` guard.
  void ServeControl(uint32_t i);
  /// Serves every claimed fetch in `batch` in (shard, node) order behind
  /// the prefetch pipeline, publishing each response and releasing its
  /// claim. Clears `batch.slots`.
  void ServeFetchBatch(FetchBatch& batch);
  /// Hands the slot back to admission. `quiesce` also retires any pending
  /// request (dead client, goodbye); the idle reap leaves it pending so a
  /// worker refuses it. Caller holds the `claimed` guard.
  void ResetSlot(SessionSlot* slot, bool quiesce);

  ServerOptions options_;
  store::ShardedMappedGraph store_;
  void* slab_ = nullptr;
  uint64_t slab_bytes_ = 0;
  ShmHeader* header_ = nullptr;
  bool running_ = false;
  std::vector<std::thread> workers_;

  std::atomic<uint64_t> requests_served_{0};
  std::atomic<uint64_t> sessions_admitted_{0};
  std::atomic<uint64_t> sessions_reaped_dead_{0};
  std::atomic<uint64_t> sessions_reaped_idle_{0};
  std::atomic<uint64_t> fetches_shard_unavailable_{0};
};

}  // namespace labelrw::server

#endif  // LABELRW_SERVER_CRAWL_SERVER_H_
