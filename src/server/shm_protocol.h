// Wire layout of the crawl server's shared-memory slab and the futex
// helpers both sides use.
//
// One labelrw_serverd daemon owns a POSIX shm object (`shm_open`), maps the
// sharded store once, and serves N concurrent client sessions out of a
// fixed slab:
//
//   [ShmHeader]                    identity, priors, liveness, doorbell
//   [SessionSlot x num_slots]      one cache-line-aligned slot per session
//   [payload x num_slots]          per-slot response region, fixed capacity
//
// Everything is plain shared memory — no sockets, no serialization. A
// request is a turn-based seq-counter exchange on the client's slot:
//
//   client: write request cells -> req_seq++ (release)
//           -> doorbell++ + FUTEX_WAKE(doorbell)
//   worker: sees req_seq != resp_seq, CASes the slot's `claimed` guard,
//           executes, writes response cells + payload,
//           resp_seq = req_seq (release) -> FUTEX_WAKE(resp_seq)
//   client: FUTEX_WAIT(resp_seq) in short ticks, re-checking server
//           liveness and its own deadline between ticks
//
// All futex ops go through the *shared* (non-PRIVATE) futex path: the
// waiters live in different processes.
//
// Admission: `client_pid` is the slot's claim word. A connecting client
// CASes it 0 -> getpid(), stamps `last_active_us`, and only then stores
// state = kSlotHandshake (release) and posts its hello. The owner is thus
// visible before the slot leaves kSlotFree, so the reaper never mistakes a
// connecting session for a dead one. Reclaiming a slot runs the other way:
// state goes back to kSlotFree first and `client_pid` is cleared last
// (release), so a pid that reads 0 always means a free, reset slot.
//
// Crash safety is asymmetric by design. A dead client is detected by the
// server's reaper and its slot reclaimed: the reaper visits every slot
// whose `client_pid` is non-zero and reclaims it when that pid vanished
// (`kill(pid, 0)` == ESRCH), whatever the slot's state — a client that dies
// between its pid CAS and its state store is reclaimed too. The idle
// timeout applies only to kSlotActive slots with no request in flight. A
// dead server is detected by clients via the `alive` flag + server pid
// liveness during their wait ticks, surfacing as kUnavailable — the one
// code osn::RetryPolicy retries.

#ifndef LABELRW_SERVER_SHM_PROTOCOL_H_
#define LABELRW_SERVER_SHM_PROTOCOL_H_

#include <linux/futex.h>
#include <signal.h>
#include <sys/syscall.h>
#include <time.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdint>

#include "graph/graph.h"
#include "graph/labels.h"

namespace labelrw::server {

inline constexpr char kShmMagic[8] = {'L', 'R', 'W', 'G', 'S', 'H', 'M', '1'};
/// v2 turned the header's reserved cell into the `draining` flag (graceful
/// shutdown). The slab is ephemeral per-daemon state — no cross-version
/// compatibility to keep — so the version simply gates mixed builds.
inline constexpr uint32_t kShmProtocolVersion = 2;

/// SessionSlot::state values.
enum SlotState : uint32_t {
  kSlotFree = 0,       // no admitted session (claimable once client_pid is 0)
  kSlotHandshake = 1,  // client claimed it, admission pending
  kSlotActive = 2,     // admitted; FetchRecord requests allowed
};

/// SessionSlot request opcodes.
enum Opcode : uint32_t {
  kOpNone = 0,
  kOpHello = 1,        // admission request (slot in kSlotHandshake)
  kOpFetchRecord = 2,  // degree + neighbors + labels of one node
  kOpGoodbye = 3,      // fire-and-forget release; client does not wait
};

struct ShmHeader {
  char magic[8] = {};
  uint32_t version = 0;
  uint32_t num_slots = 0;
  uint64_t slab_bytes = 0;         // total shm object size
  uint64_t payload_capacity = 0;   // bytes of payload per slot
  int32_t server_pid = 0;
  /// 1 while the daemon serves; 0 after clean shutdown. A crashed daemon
  /// leaves it 1 — clients disambiguate with kill(server_pid, 0).
  std::atomic<uint32_t> alive{0};
  /// Bumped by every request post; the workers' shared futex word. Wake-all
  /// semantics: every worker rescans, the one whose CAS wins executes.
  std::atomic<uint32_t> doorbell{0};
  /// CLOCK_MONOTONIC microseconds of the server's last scheduler pass.
  std::atomic<int64_t> heartbeat_us{0};

  // GraphPriors + identity of the store behind this server, published once
  // at startup so IpcTransport::Connect never round-trips for them.
  int64_t num_nodes = 0;
  int64_t num_edges = 0;
  int64_t max_degree = 0;
  int64_t max_line_degree = 0;
  int64_t max_label_row = 0;
  uint64_t store_fingerprint = 0;  // ShardedMappedGraph::fingerprint()
  uint32_t num_shards = 0;
  /// 1 while the daemon drains for shutdown: in-flight requests finish,
  /// but clients must stop posting new work (Fetch/Connect return
  /// kUnavailable, which the transport's reconnect path retries against
  /// the successor daemon).
  std::atomic<uint32_t> draining{0};
  uint64_t hash_seed = 0;
};

/// One client session. The seq counters carry the turn: req_seq != resp_seq
/// means a request is pending (the client owns the request cells and must
/// not touch them); req_seq == resp_seq means the slot is quiescent (the
/// response cells + payload are the client's to read).
struct alignas(64) SessionSlot {
  std::atomic<uint32_t> state{kSlotFree};
  std::atomic<uint32_t> req_seq{0};
  std::atomic<uint32_t> resp_seq{0};  // clients FUTEX_WAIT on this word
  /// Single-owner guard shared by workers and the reaper: whoever CASes
  /// 0 -> 1 owns the slot's server-side processing until they store 0.
  std::atomic<uint32_t> claimed{0};
  /// The claim word: 0 while the slot is free, else the owning client's
  /// pid. Set only by the client's CAS from 0, cleared only by ResetSlot.
  std::atomic<int32_t> client_pid{0};
  std::atomic<int64_t> last_active_us{0};

  // Request cells (written by the client before req_seq++). Atomic only
  // because a worker may peek them unguarded to pick its preferred slots;
  // req_seq's release/acquire publishes them, so every access is relaxed.
  std::atomic<uint32_t> opcode{kOpNone};
  std::atomic<graph::NodeId> user{0};

  // Response cells (written by a worker before resp_seq = req_seq).
  int32_t status_code = 0;  // util StatusCode numeric value
  int64_t degree = 0;
  uint32_t n_neighbors = 0;  // NodeIds at payload offset 0
  uint32_t n_labels = 0;     // Labels right after the neighbors
};

static_assert(sizeof(std::atomic<uint32_t>) == sizeof(uint32_t) &&
                  sizeof(std::atomic<graph::NodeId>) == sizeof(graph::NodeId) &&
                  alignof(std::atomic<graph::NodeId>) ==
                      alignof(graph::NodeId),
              "the request cells must keep the plain fields' size and "
              "offset: the slot layout is shared between processes");
static_assert(sizeof(SessionSlot) % 64 == 0,
              "SessionSlot must stay cache-line sized: false sharing between "
              "adjacent sessions would serialize independent clients");

/// Slab geometry. The payload region holds one full worst-case response:
/// max_degree neighbors + max_label_row labels.
inline constexpr uint64_t kShmSlotArrayOffset = 4096;  // header page
inline uint64_t ShmPayloadCapacity(int64_t max_degree, int64_t max_label_row) {
  const uint64_t bytes =
      static_cast<uint64_t>(max_degree) * sizeof(graph::NodeId) +
      static_cast<uint64_t>(max_label_row) * sizeof(graph::Label);
  return (bytes + 63) & ~uint64_t{63};
}
inline uint64_t ShmPayloadArrayOffset(uint32_t num_slots) {
  const uint64_t end = kShmSlotArrayOffset + num_slots * sizeof(SessionSlot);
  return (end + 4095) & ~uint64_t{4095};
}
inline uint64_t ShmSlabBytes(uint32_t num_slots, uint64_t payload_capacity) {
  return ShmPayloadArrayOffset(num_slots) + num_slots * payload_capacity;
}

inline SessionSlot* ShmSlotAt(void* base, uint32_t index) {
  return reinterpret_cast<SessionSlot*>(static_cast<char*>(base) +
                                        kShmSlotArrayOffset) +
         index;
}
inline char* ShmPayloadAt(void* base, const ShmHeader& header,
                          uint32_t index) {
  return static_cast<char*>(base) + ShmPayloadArrayOffset(header.num_slots) +
         index * header.payload_capacity;
}

/// Why a FutexWait returned. Every cause — including a wake that turns
/// out to be spurious — requires the caller to re-check its predicate;
/// the distinction exists so wait loops can bound their *total* blocking
/// time instead of re-arming a full tick after every signal.
enum class FutexWaitResult {
  kChanged,      // *word != expected at syscall entry (EAGAIN)
  kWoken,        // FUTEX_WAKE delivered — possibly spurious
  kTimeout,      // the bounded wait expired (ETIMEDOUT)
  kInterrupted,  // a signal landed mid-wait (EINTR)
};

/// Shared-process futex wait, bounded by `timeout_ns`: returns when
/// *word != expected, on wake, on timeout, or when a signal interrupts
/// the sleep. A non-positive timeout does not block at all (reported as
/// kTimeout) — callers clamp their tick to the time left before their
/// deadline, so "no time left" must not become an unbounded wait.
inline FutexWaitResult FutexWait(std::atomic<uint32_t>* word,
                                 uint32_t expected, int64_t timeout_ns) {
  if (timeout_ns <= 0) return FutexWaitResult::kTimeout;
  timespec ts;
  ts.tv_sec = timeout_ns / 1'000'000'000;
  ts.tv_nsec = timeout_ns % 1'000'000'000;
  const long rc = ::syscall(SYS_futex, reinterpret_cast<uint32_t*>(word),
                            FUTEX_WAIT, expected, &ts, nullptr, 0);
  if (rc == 0) return FutexWaitResult::kWoken;
  switch (errno) {
    case EAGAIN:
      return FutexWaitResult::kChanged;
    case EINTR:
      return FutexWaitResult::kInterrupted;
    case ETIMEDOUT:
      return FutexWaitResult::kTimeout;
    default:
      // Unknown failure: report as a (spurious) wake; the caller's
      // predicate re-check and deadline clamp keep the loop bounded.
      return FutexWaitResult::kWoken;
  }
}

inline void FutexWakeAll(std::atomic<uint32_t>* word) {
  ::syscall(SYS_futex, reinterpret_cast<uint32_t*>(word), FUTEX_WAKE,
            INT32_MAX, nullptr, nullptr, 0);
}

/// CLOCK_MONOTONIC in microseconds — the slab's shared time base for
/// heartbeats and idle timeouts.
inline int64_t ShmNowUs() {
  timespec ts;
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000 + ts.tv_nsec / 1'000;
}

/// True when `pid` names a live process (or one we may not signal — alive
/// either way); false only on ESRCH.
inline bool ShmPidAlive(int32_t pid) {
  if (pid <= 0) return false;
  return ::kill(pid, 0) == 0 || errno != ESRCH;
}

}  // namespace labelrw::server

#endif  // LABELRW_SERVER_SHM_PROTOCOL_H_
