#include "server/crawl_server.h"

#include <fcntl.h>
#include <string.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <mutex>
#include <new>
#include <set>

#include "util/log.h"

namespace labelrw::server {
namespace {

/// Worker poll tick: the upper bound on how stale a missed doorbell wakeup
/// can go, and the reaper's scan cadence.
constexpr int64_t kWorkerTickNs = 100'000'000;  // 100ms

Status ShmError(const std::string& what, const std::string& name) {
  return InternalError("crawl server: " + what + " for shm object '" + name +
                       "': " + std::strerror(errno));
}

/// Shm names served by a running CrawlServer in this process. A slab whose
/// server_pid is this process's own pid is live only if its name is here;
/// otherwise an earlier process left it behind and the kernel has since
/// recycled that pid to us.
class ServedHere {
 public:
  static void Add(const std::string& name) {
    const std::lock_guard<std::mutex> lock(Get().mu_);
    Get().names_.insert(name);
  }
  static void Remove(const std::string& name) {
    const std::lock_guard<std::mutex> lock(Get().mu_);
    Get().names_.erase(name);
  }
  static bool Contains(const std::string& name) {
    const std::lock_guard<std::mutex> lock(Get().mu_);
    return Get().names_.count(name) != 0;
  }

 private:
  static ServedHere& Get() {
    static auto* served = new ServedHere();
    return *served;
  }
  std::mutex mu_;
  std::set<std::string> names_;
};

}  // namespace

Status CrawlServer::Start(const ServerOptions& options) {
  if (running_) {
    return FailedPreconditionError("crawl server: already running");
  }
  if (options.num_slots == 0 || options.num_slots > 4096) {
    return InvalidArgumentError(
        "crawl server: num_slots must be in [1, 4096]");
  }
  if (options.shm_name.empty() || options.shm_name[0] != '/') {
    return InvalidArgumentError(
        "crawl server: shm_name must be a POSIX shm name starting with '/'");
  }
  options_ = options;

  LABELRW_ASSIGN_OR_RETURN(
      store_,
      store::ShardedMappedGraph::Open(options.manifest_path,
                                      options.map_options));
  if (options_.num_workers == 0) options_.num_workers = store_.num_shards();
  options_.num_workers = std::clamp<uint32_t>(options_.num_workers, 1, 256);

  const uint64_t payload_capacity =
      ShmPayloadCapacity(store_.max_degree(), store_.max_label_row());
  slab_bytes_ = ShmSlabBytes(options_.num_slots, payload_capacity);

  // A stale slab from a crashed daemon is reclaimed; a *live* one is not —
  // two servers on one name would hand the same slot to two sessions.
  int fd = ::shm_open(options_.shm_name.c_str(), O_RDWR, 0);
  if (fd >= 0) {
    void* peek = ::mmap(nullptr, sizeof(ShmHeader), PROT_READ, MAP_SHARED,
                        fd, 0);
    ::close(fd);
    if (peek != MAP_FAILED) {
      const auto* old = static_cast<const ShmHeader*>(peek);
      const bool live = old->alive.load(std::memory_order_acquire) != 0 &&
                        std::memcmp(old->magic, kShmMagic,
                                    sizeof(kShmMagic)) == 0 &&
                        ShmPidAlive(old->server_pid) &&
                        (old->server_pid != ::getpid() ||
                         ServedHere::Contains(options_.shm_name));
      ::munmap(peek, sizeof(ShmHeader));
      if (live) {
        return FailedPreconditionError(
            "crawl server: shm object '" + options_.shm_name +
            "' is already served by a live daemon");
      }
    }
    ::shm_unlink(options_.shm_name.c_str());
  }

  fd = ::shm_open(options_.shm_name.c_str(), O_CREAT | O_EXCL | O_RDWR,
                  0600);
  if (fd < 0) return ShmError("shm_open", options_.shm_name);
  if (::ftruncate(fd, static_cast<off_t>(slab_bytes_)) != 0) {
    ::close(fd);
    ::shm_unlink(options_.shm_name.c_str());
    return ShmError("ftruncate", options_.shm_name);
  }
  slab_ = ::mmap(nullptr, slab_bytes_, PROT_READ | PROT_WRITE, MAP_SHARED,
                 fd, 0);
  ::close(fd);
  if (slab_ == MAP_FAILED) {
    slab_ = nullptr;
    ::shm_unlink(options_.shm_name.c_str());
    return ShmError("mmap", options_.shm_name);
  }

  // ftruncate hands back zero pages; placement-new makes the atomics'
  // lifetimes formal without touching the zeroed payload region.
  header_ = new (slab_) ShmHeader();
  for (uint32_t i = 0; i < options_.num_slots; ++i) {
    new (ShmSlotAt(slab_, i)) SessionSlot();
  }
  std::memcpy(header_->magic, kShmMagic, sizeof(kShmMagic));
  header_->version = kShmProtocolVersion;
  header_->num_slots = options_.num_slots;
  header_->slab_bytes = slab_bytes_;
  header_->payload_capacity = payload_capacity;
  header_->server_pid = static_cast<int32_t>(::getpid());
  header_->num_nodes = store_.num_nodes();
  header_->num_edges = store_.num_edges();
  header_->max_degree = store_.max_degree();
  header_->max_line_degree = store_.max_line_degree();
  header_->max_label_row = store_.max_label_row();
  header_->store_fingerprint = store_.fingerprint();
  header_->num_shards = store_.num_shards();
  header_->hash_seed = store_.hash_seed();
  header_->heartbeat_us.store(ShmNowUs(), std::memory_order_relaxed);
  // The publish: clients read no other header field before they see alive,
  // so every field above must be in place before this store.
  header_->alive.store(1, std::memory_order_release);
  ServedHere::Add(options_.shm_name);

  running_ = true;
  workers_.reserve(options_.num_workers);
  for (uint32_t w = 0; w < options_.num_workers; ++w) {
    workers_.emplace_back([this, w] { WorkerLoop(w); });
  }
  if (!options_.quiet) {
    LABELRW_ILOG(
        "crawl server: serving '%s' (%u shards, %lld nodes) on shm '%s' "
        "(%u slots, %u workers, %.1f MiB slab)",
        options_.manifest_path.c_str(), store_.num_shards(),
        static_cast<long long>(store_.num_nodes()),
        options_.shm_name.c_str(), options_.num_slots, options_.num_workers,
        static_cast<double>(slab_bytes_) / (1024.0 * 1024.0));
  }
  return Status::Ok();
}

bool CrawlServer::Drain(int64_t timeout_ms) {
  if (!running_) return true;
  header_->draining.store(1, std::memory_order_release);
  // Wake every waiting client: their next predicate re-check sees the flag
  // and stops posting. Workers keep serving what is already in flight.
  for (uint32_t i = 0; i < options_.num_slots; ++i) {
    FutexWakeAll(&ShmSlotAt(slab_, i)->resp_seq);
  }
  const int64_t deadline_us = ShmNowUs() + timeout_ms * 1'000;
  for (;;) {
    bool pending = false;
    for (uint32_t i = 0; i < options_.num_slots; ++i) {
      SessionSlot* slot = ShmSlotAt(slab_, i);
      if (slot->req_seq.load(std::memory_order_acquire) !=
          slot->resp_seq.load(std::memory_order_relaxed)) {
        pending = true;
        break;
      }
    }
    if (!pending) return true;
    if (ShmNowUs() >= deadline_us) return false;
    ::usleep(1'000);
  }
}

void CrawlServer::Stop() {
  if (!running_) return;
  header_->alive.store(0, std::memory_order_release);
  FutexWakeAll(&header_->doorbell);
  for (uint32_t i = 0; i < options_.num_slots; ++i) {
    FutexWakeAll(&ShmSlotAt(slab_, i)->resp_seq);
  }
  for (std::thread& w : workers_) w.join();
  workers_.clear();
  ::munmap(slab_, slab_bytes_);
  slab_ = nullptr;
  header_ = nullptr;
  ::shm_unlink(options_.shm_name.c_str());
  ServedHere::Remove(options_.shm_name);
  running_ = false;
  if (!options_.quiet) {
    LABELRW_ILOG("crawl server: stopped (%llu requests served)",
                 static_cast<unsigned long long>(
                     requests_served_.load(std::memory_order_relaxed)));
  }
}

ServerStats CrawlServer::stats() const {
  ServerStats stats;
  stats.requests_served = requests_served_.load(std::memory_order_relaxed);
  stats.sessions_admitted =
      sessions_admitted_.load(std::memory_order_relaxed);
  stats.sessions_reaped_dead =
      sessions_reaped_dead_.load(std::memory_order_relaxed);
  stats.sessions_reaped_idle =
      sessions_reaped_idle_.load(std::memory_order_relaxed);
  stats.fetches_shard_unavailable =
      fetches_shard_unavailable_.load(std::memory_order_relaxed);
  if (running_) {
    stats.fetches_failed_over = store_.fault_stats().failover_reads;
    stats.draining =
        header_->draining.load(std::memory_order_acquire) != 0;
    for (uint32_t i = 0; i < options_.num_slots; ++i) {
      if (ShmSlotAt(slab_, i)->state.load(std::memory_order_acquire) ==
          kSlotActive) {
        ++stats.active_sessions;
      }
    }
  }
  return stats;
}

void CrawlServer::ResetSlot(SessionSlot* slot, bool quiesce) {
  // Free first: from here on a request the old owner posts is refused as
  // not admitted. The claim word is cleared last (release), so a connecting
  // client whose pid CAS reads 0 sees every store above — from that moment
  // every cell belongs to the new session.
  slot->state.store(kSlotFree, std::memory_order_release);
  slot->last_active_us.store(0, std::memory_order_relaxed);
  if (quiesce) {
    slot->resp_seq.store(slot->req_seq.load(std::memory_order_relaxed),
                         std::memory_order_release);
  }
  slot->client_pid.store(0, std::memory_order_release);
}

void CrawlServer::ServeControl(uint32_t i) {
  SessionSlot* slot = ShmSlotAt(slab_, i);
  const uint32_t req = slot->req_seq.load(std::memory_order_acquire);
  const uint32_t opcode = slot->opcode.load(std::memory_order_relaxed);
  slot->last_active_us.store(ShmNowUs(), std::memory_order_relaxed);
  requests_served_.fetch_add(1, std::memory_order_relaxed);

  if (opcode == kOpGoodbye) {
    // Fire-and-forget: the client is already gone. ResetSlot retires the
    // goodbye's turn and hands the slot back to admission; no wake.
    ResetSlot(slot, /*quiesce=*/true);
    return;
  }

  switch (opcode) {
    case kOpHello: {
      if (header_->draining.load(std::memory_order_acquire) != 0) {
        // A draining daemon admits nobody: the connecting client retries
        // against the successor via its reconnect backoff.
        slot->status_code = static_cast<int32_t>(StatusCode::kUnavailable);
      } else if (slot->state.load(std::memory_order_acquire) ==
                 kSlotHandshake) {
        slot->status_code = static_cast<int32_t>(StatusCode::kOk);
        slot->state.store(kSlotActive, std::memory_order_release);
        sessions_admitted_.fetch_add(1, std::memory_order_relaxed);
      } else {
        slot->status_code =
            static_cast<int32_t>(StatusCode::kFailedPrecondition);
      }
      break;
    }
    case kOpFetchRecord: {
      // Only the reject arms: a serviceable fetch goes through
      // ServeFetchBatch instead of this inline path.
      if (slot->state.load(std::memory_order_acquire) != kSlotActive) {
        slot->status_code =
            static_cast<int32_t>(StatusCode::kFailedPrecondition);
      } else {
        slot->status_code = static_cast<int32_t>(StatusCode::kNotFound);
      }
      break;
    }
    default:
      slot->status_code = static_cast<int32_t>(StatusCode::kUnimplemented);
      break;
  }

  slot->resp_seq.store(req, std::memory_order_release);
  FutexWakeAll(&slot->resp_seq);
}

void CrawlServer::ServeFetchBatch(FetchBatch& batch) {
  // Sort the drained fetches by (shard, node id): shard owner arrays are
  // ascending, so this is ascending row address within each mapping — one
  // near-sequential sweep per shard instead of |batch| isolated misses.
  // Tags index batch.slots.
  batch.engine.Clear();
  batch.engine.Reserve(batch.slots.size());
  batch.refs.assign(batch.slots.size(), store::ShardedMappedGraph::RowRef{});
  for (size_t idx = 0; idx < batch.slots.size(); ++idx) {
    const graph::NodeId user = ShmSlotAt(slab_, batch.slots[idx])
                                   ->user.load(std::memory_order_relaxed);
    batch.engine.Add(rw::ShardLocalityKey(store_.ShardOf(user),
                                          static_cast<uint32_t>(user)),
                     static_cast<uint32_t>(idx));
  }
  batch.engine.SortByLocality();
  const int64_t now_us = ShmNowUs();
  (void)batch.engine.ServiceAll(
      [&](uint32_t tag) {
        // Far stage: resolve the owner row (binary searches also run in
        // sorted order, so they walk warming regions of the owner arrays)
        // and request its offset cells.
        const SessionSlot* slot = ShmSlotAt(slab_, batch.slots[tag]);
        batch.refs[tag] =
            store_.Resolve(slot->user.load(std::memory_order_relaxed));
        store_.PrefetchRowOffsets(batch.refs[tag]);
      },
      [&](uint32_t tag) { store_.PrefetchRowPayload(batch.refs[tag]); },
      [&](uint32_t tag) {
        const uint32_t i = batch.slots[tag];
        SessionSlot* slot = ShmSlotAt(slab_, i);
        const uint32_t req = slot->req_seq.load(std::memory_order_acquire);
        if (batch.refs[tag].shard_down) {
          // Every copy of the owning shard is down: a typed error frame —
          // the client's retry machinery treats kShardUnavailable like
          // kUnavailable — instead of a wedged slot or a bogus empty row.
          slot->degree = 0;
          slot->n_neighbors = 0;
          slot->n_labels = 0;
          slot->status_code =
              static_cast<int32_t>(StatusCode::kShardUnavailable);
          slot->last_active_us.store(now_us, std::memory_order_relaxed);
          requests_served_.fetch_add(1, std::memory_order_relaxed);
          fetches_shard_unavailable_.fetch_add(1, std::memory_order_relaxed);
          slot->resp_seq.store(req, std::memory_order_release);
          FutexWakeAll(&slot->resp_seq);
          slot->claimed.store(0, std::memory_order_release);
          return Status::Ok();
        }
        const std::span<const graph::NodeId> neighbors =
            store_.NeighborsAt(batch.refs[tag]);
        const std::span<const graph::Label> labels =
            store_.LabelsAt(batch.refs[tag]);
        char* payload = ShmPayloadAt(slab_, *header_, i);
        std::memcpy(payload, neighbors.data(),
                    neighbors.size() * sizeof(graph::NodeId));
        std::memcpy(payload + neighbors.size() * sizeof(graph::NodeId),
                    labels.data(), labels.size() * sizeof(graph::Label));
        slot->degree = static_cast<int64_t>(neighbors.size());
        slot->n_neighbors = static_cast<uint32_t>(neighbors.size());
        slot->n_labels = static_cast<uint32_t>(labels.size());
        slot->status_code = static_cast<int32_t>(StatusCode::kOk);
        slot->last_active_us.store(now_us, std::memory_order_relaxed);
        requests_served_.fetch_add(1, std::memory_order_relaxed);
        slot->resp_seq.store(req, std::memory_order_release);
        FutexWakeAll(&slot->resp_seq);
        slot->claimed.store(0, std::memory_order_release);
        return Status::Ok();
      });
  batch.slots.clear();
}

void CrawlServer::ReapPass(int64_t now_us) {
  const int64_t idle_us = options_.idle_timeout_ms * 1'000;
  for (uint32_t i = 0; i < options_.num_slots; ++i) {
    SessionSlot* slot = ShmSlotAt(slab_, i);
    // A non-zero pid is an owner, whatever the state: a client that died
    // between its pid CAS and its state store is reclaimed here too.
    if (slot->client_pid.load(std::memory_order_acquire) == 0) continue;
    uint32_t zero = 0;
    if (!slot->claimed.compare_exchange_strong(zero, 1,
                                               std::memory_order_acq_rel)) {
      continue;
    }
    // Under the claim the pid is stable: only ResetSlot clears it.
    const int32_t pid = slot->client_pid.load(std::memory_order_acquire);
    if (pid != 0) {
      const bool pending =
          slot->req_seq.load(std::memory_order_acquire) !=
          slot->resp_seq.load(std::memory_order_relaxed);
      if (!ShmPidAlive(pid)) {
        // The dead client may have died mid-request; quiescing the turn
        // counters retires that request too.
        ResetSlot(slot, /*quiesce=*/true);
        sessions_reaped_dead_.fetch_add(1, std::memory_order_relaxed);
      } else if (idle_us > 0 && !pending &&
                 slot->state.load(std::memory_order_acquire) ==
                     kSlotActive &&
                 now_us - slot->last_active_us.load(
                              std::memory_order_relaxed) >
                     idle_us) {
        // The owner is alive and may post at any moment, so its turn
        // counters are left alone: a request posted after the pending
        // check above stays pending and a worker refuses it (the slot is
        // no longer Active), rather than reading as answered.
        ResetSlot(slot, /*quiesce=*/false);
        sessions_reaped_idle_.fetch_add(1, std::memory_order_relaxed);
      }
    }
    slot->claimed.store(0, std::memory_order_release);
  }
}

void CrawlServer::WorkerLoop(uint32_t worker_index) {
  const uint32_t num_workers = options_.num_workers;
  FetchBatch batch;
  batch.slots.reserve(options_.num_slots);
  while (header_->alive.load(std::memory_order_acquire) != 0) {
    // The ticket is read BEFORE the scan: a request posted during the scan
    // bumps the doorbell past it, so the wait below returns immediately
    // instead of losing the wakeup.
    const uint32_t ticket = header_->doorbell.load(std::memory_order_acquire);
    bool saw_pending = false;
    // Drain, don't pick: one wake claims every pending slot this worker
    // can take. Pass 0 takes only its preferred slots (fetches routing to
    // its shards); pass 1 takes anything still pending — locality when the
    // partition is balanced, no cross-worker stalls when it is not.
    // Control ops are answered inline; serviceable fetches accumulate
    // (claims held) and are served in one sorted pass below.
    for (int pass = 0; pass < 2; ++pass) {
      for (uint32_t i = 0; i < options_.num_slots; ++i) {
        SessionSlot* slot = ShmSlotAt(slab_, i);
        if (slot->req_seq.load(std::memory_order_acquire) ==
            slot->resp_seq.load(std::memory_order_relaxed)) {
          continue;
        }
        saw_pending = true;
        if (pass == 0 && num_workers > 1) {
          // Peek is unguarded: a stale read only misroutes the preference,
          // never the request (the claimed owner re-reads everything).
          const graph::NodeId user =
              slot->user.load(std::memory_order_relaxed);
          const bool preferred =
              slot->opcode.load(std::memory_order_relaxed) == kOpFetchRecord
                  ? store_.ShardOf(user) % num_workers == worker_index
                  : worker_index == 0;
          if (!preferred) continue;
        }
        uint32_t zero = 0;
        if (!slot->claimed.compare_exchange_strong(
                zero, 1, std::memory_order_acq_rel)) {
          continue;
        }
        if (slot->req_seq.load(std::memory_order_acquire) ==
            slot->resp_seq.load(std::memory_order_relaxed)) {
          slot->claimed.store(0, std::memory_order_release);
          continue;
        }
        if (slot->opcode.load(std::memory_order_relaxed) == kOpFetchRecord &&
            slot->state.load(std::memory_order_acquire) == kSlotActive &&
            store_.IsValidNode(slot->user.load(std::memory_order_relaxed))) {
          batch.slots.push_back(i);  // claim rides along to the batch pass
        } else {
          ServeControl(i);
          slot->claimed.store(0, std::memory_order_release);
        }
      }
    }
    if (!batch.slots.empty()) ServeFetchBatch(batch);
    if (worker_index == 0) {
      const int64_t now_us = ShmNowUs();
      header_->heartbeat_us.store(now_us, std::memory_order_relaxed);
      ReapPass(now_us);
    }
    // saw_pending covers the claim-lost case too: another worker holds the
    // slot, so spin once more instead of sleeping on a doorbell that will
    // never ring again for that request.
    if (!saw_pending) {
      FutexWait(&header_->doorbell, ticket, kWorkerTickNs);
    }
  }
}

}  // namespace labelrw::server
