#include "server/shm_client.h"

#include <fcntl.h>
#include <string.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

namespace labelrw::server {
namespace {

/// Client wait tick: liveness re-check cadence while blocked on a turn.
constexpr int64_t kClientTickNs = 50'000'000;  // 50ms

Status ServerGoneError(const std::string& what) {
  return UnavailableError("ipc: crawl server " + what +
                          "; retry after the daemon is restarted");
}

Status StatusFromSlotCode(int32_t code) {
  const auto status_code = static_cast<StatusCode>(code);
  switch (status_code) {
    case StatusCode::kOk:
      return Status::Ok();
    case StatusCode::kNotFound:
      return NotFoundError("FetchRecord: unknown user");
    case StatusCode::kFailedPrecondition:
      return FailedPreconditionError(
          "ipc: crawl server rejected the request (session not admitted)");
    default:
      return Status(status_code,
                    "ipc: crawl server returned " +
                        std::string(StatusCodeName(status_code)));
  }
}

}  // namespace

Result<std::unique_ptr<ShmClient>> ShmClient::Connect(
    const std::string& shm_name, const ShmClientOptions& options) {
  const int fd = ::shm_open(shm_name.c_str(), O_RDWR, 0);
  if (fd < 0) {
    return UnavailableError("ipc: no crawl server at shm '" + shm_name +
                            "' (" + std::strerror(errno) +
                            "); start labelrw_serverd first");
  }
  struct stat st {};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return InternalError("ipc: cannot stat shm '" + shm_name +
                         "': " + std::strerror(errno));
  }
  const auto mapped_bytes = static_cast<uint64_t>(st.st_size);
  if (mapped_bytes < sizeof(ShmHeader)) {
    ::close(fd);
    return UnavailableError("ipc: shm '" + shm_name +
                            "' is smaller than the protocol header (daemon "
                            "still initializing or not a crawl server)");
  }
  void* slab = ::mmap(nullptr, mapped_bytes, PROT_READ | PROT_WRITE,
                      MAP_SHARED, fd, 0);
  ::close(fd);
  if (slab == MAP_FAILED) {
    return InternalError("ipc: cannot map shm '" + shm_name +
                         "': " + std::strerror(errno));
  }

  auto client = std::unique_ptr<ShmClient>(new ShmClient());
  client->slab_ = slab;
  client->slab_bytes_ = mapped_bytes;
  client->header_ = static_cast<ShmHeader*>(slab);
  ShmHeader* header = client->header_;

  // The daemon publishes its header with the release store of `alive`:
  // until then the slab may still be zeros (the daemon is initializing) and
  // no other header field may be read.
  if (header->alive.load(std::memory_order_acquire) == 0) {
    return ServerGoneError("at shm '" + shm_name + "' is not alive");
  }
  if (std::memcmp(header->magic, kShmMagic, sizeof(kShmMagic)) != 0) {
    return InvalidArgumentError("ipc: shm '" + shm_name +
                                "' is not a labelrw crawl server slab");
  }
  if (header->version != kShmProtocolVersion) {
    return FailedPreconditionError(
        "ipc: crawl server speaks protocol version " +
        std::to_string(header->version) + ", this build speaks " +
        std::to_string(kShmProtocolVersion));
  }
  if (!ShmPidAlive(header->server_pid)) {
    return ServerGoneError("at shm '" + shm_name + "' is not alive");
  }
  if (header->draining.load(std::memory_order_acquire) != 0) {
    return ServerGoneError("at shm '" + shm_name +
                           "' is draining for shutdown");
  }
  if (header->num_slots == 0 ||
      ShmSlabBytes(header->num_slots, header->payload_capacity) >
          mapped_bytes) {
    return InvalidArgumentError("ipc: shm '" + shm_name +
                                "' header describes a slab larger than the "
                                "object (corrupt or torn)");
  }

  // Admission: claim any free slot through its claim word, client_pid
  // (shm_protocol.h). The pid is in place before the slot leaves kSlotFree,
  // so the reaper sees a live owner, never a pid of 0 it would take for a
  // dead one; the last_active stamp lands before the state store too.
  const auto self = static_cast<int32_t>(::getpid());
  for (uint32_t i = 0; i < header->num_slots; ++i) {
    SessionSlot* slot = ShmSlotAt(slab, i);
    int32_t free_pid = 0;
    if (!slot->client_pid.compare_exchange_strong(free_pid, self,
                                                  std::memory_order_acq_rel)) {
      continue;
    }
    slot->last_active_us.store(ShmNowUs(), std::memory_order_relaxed);
    slot->state.store(kSlotHandshake, std::memory_order_release);
    client->slot_ = slot;
    client->payload_ = ShmPayloadAt(slab, *header, i);

    slot->opcode.store(kOpHello, std::memory_order_relaxed);
    const Status admitted = client->PostAndWait(options.connect_timeout_ms);
    if (!admitted.ok()) {
      // The hello may still be pending server-side; hand the slot back via
      // goodbye (fire-and-forget works whether or not anyone drains it —
      // the reaper retires our pid's slots once this process exits).
      slot->opcode.store(kOpGoodbye, std::memory_order_relaxed);
      slot->req_seq.fetch_add(1, std::memory_order_release);
      header->doorbell.fetch_add(1, std::memory_order_release);
      FutexWakeAll(&header->doorbell);
      client->slot_ = nullptr;  // destructor must not re-post goodbye
      return admitted;
    }

    client->options_ = options;
    client->info_.num_nodes = header->num_nodes;
    client->info_.num_edges = header->num_edges;
    client->info_.max_degree = header->max_degree;
    client->info_.max_line_degree = header->max_line_degree;
    client->info_.max_label_row = header->max_label_row;
    client->info_.store_fingerprint = header->store_fingerprint;
    client->info_.num_shards = header->num_shards;
    client->info_.hash_seed = header->hash_seed;
    return client;
  }
  return ResourceExhaustedError(
      "ipc: crawl server at shm '" + shm_name + "' has no free session slot (" +
      std::to_string(header->num_slots) + " in use)");
}

ShmClient::~ShmClient() {
  if (slot_ != nullptr) {
    slot_->opcode.store(kOpGoodbye, std::memory_order_relaxed);
    slot_->req_seq.fetch_add(1, std::memory_order_release);
    header_->doorbell.fetch_add(1, std::memory_order_release);
    FutexWakeAll(&header_->doorbell);
  }
  if (slab_ != nullptr) ::munmap(slab_, slab_bytes_);
}

bool ShmClient::OwnsActiveSlot() const {
  return slot_->state.load(std::memory_order_acquire) == kSlotActive &&
         slot_->client_pid.load(std::memory_order_acquire) ==
             static_cast<int32_t>(::getpid());
}

bool ShmClient::ServerAlive() const {
  return header_ != nullptr &&
         header_->alive.load(std::memory_order_acquire) != 0 &&
         ShmPidAlive(header_->server_pid);
}

Status ShmClient::PostAndWait(int64_t timeout_ms) {
  SessionSlot* slot = slot_;
  const uint32_t req =
      slot->req_seq.fetch_add(1, std::memory_order_release) + 1;
  header_->doorbell.fetch_add(1, std::memory_order_release);
  FutexWakeAll(&header_->doorbell);

  const int64_t deadline_us = ShmNowUs() + timeout_ms * 1'000;
  for (;;) {
    // Predicate first: a response that landed while the previous wait was
    // interrupted or woken spuriously is consumed before any liveness or
    // deadline verdict — a signal mid-wait can never turn a served
    // request into kUnavailable.
    const uint32_t resp = slot->resp_seq.load(std::memory_order_acquire);
    if (resp == req) break;
    if (!ServerAlive()) return ServerGoneError("died mid-request");
    const int64_t remaining_ns = (deadline_us - ShmNowUs()) * 1'000;
    if (remaining_ns <= 0) {
      return ServerGoneError("did not answer within " +
                             std::to_string(timeout_ms) + "ms");
    }
    // Each wait is clamped to the time left, so EINTR/spurious wakes
    // re-arm only what remains: the loop's total blocking time is bounded
    // by the deadline no matter how many signals land (FutexWaitResult).
    FutexWait(&slot->resp_seq, resp, std::min(kClientTickNs, remaining_ns));
  }
  return StatusFromSlotCode(slot->status_code);
}

Status ShmClient::Fetch(graph::NodeId u,
                        std::vector<graph::NodeId>* neighbors,
                        std::vector<graph::Label>* labels, int64_t* degree) {
  SessionSlot* slot = slot_;
  if (slot == nullptr) {
    return FailedPreconditionError("ipc: Fetch on a disconnected session");
  }
  // Reap guard: if the server retired this session (idle timeout) our
  // writes would land in a slot that is no longer ours. The idle reaper
  // skips a slot with a request in flight and leaves a reaped slot's turn
  // counters alone, so a post that races its reset stays pending and a
  // worker refuses it (the slot is no longer Active); the same check after
  // the wait turns that refusal into the reclaimed error. It does not
  // close the window in which a second session claims the freed slot
  // before our post lands.
  if (!OwnsActiveSlot()) {
    slot_ = nullptr;  // lane lost; do not goodbye someone else's slot
    return ServerGoneError("reclaimed this session's slot");
  }

  // A draining daemon answers what is already in flight but takes nothing
  // new; refusing here (kUnavailable) routes this fetch to the transport's
  // reconnect path against the successor daemon.
  if (header_->draining.load(std::memory_order_acquire) != 0) {
    return ServerGoneError("is draining for shutdown");
  }

  slot->opcode.store(kOpFetchRecord, std::memory_order_relaxed);
  slot->user.store(u, std::memory_order_relaxed);
  const Status served = PostAndWait(options_.request_timeout_ms);
  if (!served.ok()) {
    if (!OwnsActiveSlot()) {
      slot_ = nullptr;
      return ServerGoneError("reclaimed this session's slot");
    }
    return served;
  }

  const uint32_t n_neighbors = slot->n_neighbors;
  const uint32_t n_labels = slot->n_labels;
  const uint64_t bytes =
      static_cast<uint64_t>(n_neighbors) * sizeof(graph::NodeId) +
      static_cast<uint64_t>(n_labels) * sizeof(graph::Label);
  if (bytes > header_->payload_capacity) {
    return DataLossError("ipc: response larger than the slot payload "
                         "(corrupt slab)");
  }
  *degree = slot->degree;
  neighbors->resize(n_neighbors);
  std::memcpy(neighbors->data(), payload_,
              n_neighbors * sizeof(graph::NodeId));
  labels->resize(n_labels);
  std::memcpy(labels->data(), payload_ + n_neighbors * sizeof(graph::NodeId),
              n_labels * sizeof(graph::Label));
  return Status::Ok();
}

}  // namespace labelrw::server
