// ShmClient: one session on a running crawl server (server/shm_protocol.h).
//
// Connect() maps the daemon's shm slab, claims a session slot (CAS of its
// client_pid 0 -> getpid(), then state kSlotHandshake), and runs the hello
// exchange; Fetch() is the
// turn-based request/response described in shm_protocol.h. The destructor
// posts a fire-and-forget goodbye so a cleanly exiting client returns its
// slot immediately instead of waiting out the reaper.
//
// A ShmClient is NOT thread-safe: a session is one turn-based lane.
// Concurrency comes from many sessions (osn::IpcTransport holds one per
// transport; the bench opens dozens).
//
// Server death — clean Stop() or a crash — surfaces as kUnavailable from
// Fetch(), never a hang: waits tick every 50ms and re-check the slab's
// alive flag plus the server pid.

#ifndef LABELRW_SERVER_SHM_CLIENT_H_
#define LABELRW_SERVER_SHM_CLIENT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "graph/labels.h"
#include "server/shm_protocol.h"
#include "util/status.h"

namespace labelrw::server {

struct ShmClientOptions {
  /// Admission wait: slot claim + hello round trip.
  int64_t connect_timeout_ms = 2'000;
  /// Per-Fetch deadline; an overrun surfaces as kUnavailable (the server
  /// is stuck or gone — either way retryable, not a data error).
  int64_t request_timeout_ms = 10'000;
};

/// The slab header's published priors + identity, copied at connect.
struct ServerInfo {
  int64_t num_nodes = 0;
  int64_t num_edges = 0;
  int64_t max_degree = 0;
  int64_t max_line_degree = 0;
  int64_t max_label_row = 0;
  uint64_t store_fingerprint = 0;
  uint32_t num_shards = 0;
  uint64_t hash_seed = 0;
};

class ShmClient {
 public:
  /// Maps `shm_name` and admits one session. kUnavailable when no daemon
  /// serves the name (or it died); kResourceExhausted when every slot is
  /// taken.
  static Result<std::unique_ptr<ShmClient>> Connect(
      const std::string& shm_name, const ShmClientOptions& options = {});

  ~ShmClient();
  ShmClient(const ShmClient&) = delete;
  ShmClient& operator=(const ShmClient&) = delete;

  const ServerInfo& info() const { return info_; }

  /// One record round trip: `u`'s neighbor row and label row are copied out
  /// of the slot payload into the vectors (resized), `*degree` set.
  /// kNotFound for an out-of-range id; kUnavailable when the server died,
  /// the deadline passed, or the session was reaped out from under us.
  Status Fetch(graph::NodeId u, std::vector<graph::NodeId>* neighbors,
               std::vector<graph::Label>* labels, int64_t* degree);

  /// Cheap liveness probe of the serving daemon.
  bool ServerAlive() const;

 private:
  ShmClient() = default;

  /// Posts the already-written request cells and waits the turn.
  Status PostAndWait(int64_t timeout_ms);
  /// True while the slot is still this process's admitted session.
  bool OwnsActiveSlot() const;

  void* slab_ = nullptr;
  uint64_t slab_bytes_ = 0;
  ShmHeader* header_ = nullptr;
  SessionSlot* slot_ = nullptr;
  char* payload_ = nullptr;
  ServerInfo info_;
  ShmClientOptions options_;
};

}  // namespace labelrw::server

#endif  // LABELRW_SERVER_SHM_CLIENT_H_
