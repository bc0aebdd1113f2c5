// End-to-end tests for the shared-memory crawl server stack
// (server/crawl_server.h, server/shm_client.h, osn/ipc_transport.h):
// record identity against the store backend, the full ten-algorithm sweep
// bit-identity gate, session admission and slot reclamation after a client
// crash, and server-restart recovery through the OsnClient retry path.

#include <fcntl.h>
#include <gtest/gtest.h>
#include <sys/mman.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "estimators/estimator.h"
#include "estimators/session.h"
#include "eval/experiment.h"
#include "osn/client.h"
#include "osn/ipc_transport.h"
#include "osn/local_api.h"
#include "server/crawl_server.h"
#include "server/shm_client.h"
#include "store/mapped_graph.h"
#include "store/shard_writer.h"
#include "store/sharded_graph.h"
#include "store/store_transport.h"
#include "store/store_writer.h"
#include "tests/test_util.h"

namespace labelrw {
namespace {

using testing::RandomConnectedGraph;
using testing::RandomLabels;

/// Unique-per-process store paths, like ShmName below: two copies of this
/// binary running at once (say a Release and a TSan build) would otherwise
/// truncate each other's mmap'd stores.
std::string TempPath(const char* name) {
  return (std::filesystem::temp_directory_path() /
          ("labelrw_ipc_test_" + std::to_string(::getpid()) + "_" + name))
      .string();
}

/// Unique-per-process shm names so parallel ctest invocations of this
/// binary never collide on /dev/shm.
std::string ShmName(const char* tag) {
  return "/labelrw-test-" + std::string(tag) + "-" +
         std::to_string(::getpid());
}

/// A monolithic snapshot + its sharded twin + a running in-process server.
class ServedStore {
 public:
  ServedStore(const char* name, int64_t n, int64_t extra_edges,
              uint32_t num_shards, uint64_t seed = 21)
      : graph_(RandomConnectedGraph(n, extra_edges, seed)),
        labels_(RandomLabels(n, 4, seed + 1)) {
    store_path_ = TempPath((std::string(name) + ".lgs").c_str());
    prefix_ = TempPath(name);
    num_shards_ = num_shards;
    EXPECT_OK(store::WriteStore(graph_, labels_, store_path_));
    auto stats = store::WriteShardedStore(store_path_, prefix_, num_shards);
    EXPECT_TRUE(stats.ok()) << stats.status().ToString();
    manifest_path_ = stats->manifest_path;
  }

  ~ServedStore() {
    std::remove(store_path_.c_str());
    std::remove(manifest_path_.c_str());
    for (uint32_t k = 0; k < num_shards_; ++k) {
      std::remove(store::ShardFilePath(prefix_, k).c_str());
    }
  }

  server::ServerOptions Options(const std::string& shm_name) const {
    server::ServerOptions options;
    options.manifest_path = manifest_path_;
    options.shm_name = shm_name;
    options.quiet = true;
    return options;
  }

  const graph::Graph& graph() const { return graph_; }
  const graph::LabelStore& labels() const { return labels_; }
  const std::string& store_path() const { return store_path_; }
  const std::string& manifest_path() const { return manifest_path_; }

 private:
  graph::Graph graph_;
  graph::LabelStore labels_;
  std::string store_path_;
  std::string prefix_;
  std::string manifest_path_;
  uint32_t num_shards_ = 0;
};

/// Spins until `predicate` holds or ~5s pass (the reaper ticks at 100ms).
template <typename Pred>
bool WaitFor(Pred predicate) {
  for (int i = 0; i < 250; ++i) {
    if (predicate()) return true;
    ::usleep(20'000);
  }
  return predicate();
}

TEST(ShmClient, ConnectWithoutServerIsUnavailable) {
  const auto result = server::ShmClient::Connect(ShmName("nosrv"));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
}

/// Creates shm object `name` of `bytes` zero bytes, as a daemon's slab is
/// between its shm_open and its header publish, and maps it.
void* CreateZeroedShm(const std::string& name, size_t bytes) {
  const int fd = ::shm_open(name.c_str(), O_CREAT | O_EXCL | O_RDWR, 0600);
  if (fd < 0) return nullptr;
  void* base = ::ftruncate(fd, static_cast<off_t>(bytes)) == 0
                   ? ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                            MAP_SHARED, fd, 0)
                   : MAP_FAILED;
  ::close(fd);
  return base == MAP_FAILED ? nullptr : base;
}

// A daemon mid-start has created its slab but not yet published the
// header: connecting then is "no server yet" (retryable kUnavailable), not
// a foreign object — the reconnect path must keep trying.
TEST(ShmClient, ConnectToUnpublishedSlabIsUnavailable) {
  const std::string shm = ShmName("unpublished");
  const size_t bytes = 4 * server::kShmSlotArrayOffset;
  void* slab = CreateZeroedShm(shm, bytes);
  ASSERT_NE(slab, nullptr);
  const auto result = server::ShmClient::Connect(shm);
  ::munmap(slab, bytes);
  ::shm_unlink(shm.c_str());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable)
      << result.status().ToString();
}

// A slab left by a crashed process whose pid the kernel later handed to
// this process reads as "alive with a live pid"; it is still stale, since
// no server in this process serves it, and Start must reclaim it.
TEST(CrawlServer, StaleSlabWithRecycledOwnPidIsReclaimed) {
  const ServedStore served("recycled", 100, 80, 1);
  const std::string shm = ShmName("recycled");
  void* stale = CreateZeroedShm(shm, server::kShmSlotArrayOffset);
  ASSERT_NE(stale, nullptr);
  auto* header = new (stale) server::ShmHeader();
  std::memcpy(header->magic, server::kShmMagic, sizeof(server::kShmMagic));
  header->version = server::kShmProtocolVersion;
  header->server_pid = static_cast<int32_t>(::getpid());
  header->alive.store(1);
  ::munmap(stale, server::kShmSlotArrayOffset);

  server::CrawlServer crawl_server;
  ASSERT_OK(crawl_server.Start(served.Options(shm)));
  ASSERT_OK_AND_ASSIGN(const std::unique_ptr<server::ShmClient> client,
                       server::ShmClient::Connect(shm));
  EXPECT_EQ(client->info().num_nodes, served.graph().num_nodes());
  // A name this process does serve is still refused to a second server.
  server::CrawlServer second;
  EXPECT_EQ(second.Start(served.Options(shm)).code(),
            StatusCode::kFailedPrecondition);
}

TEST(ShmClient, ServesExactRowsAndRejectsUnknownIds) {
  const ServedStore served("rows", 600, 1200, 3);
  const std::string shm = ShmName("rows");
  server::CrawlServer crawl_server;
  ASSERT_OK(crawl_server.Start(served.Options(shm)));

  ASSERT_OK_AND_ASSIGN(const std::unique_ptr<server::ShmClient> client,
                       server::ShmClient::Connect(shm));
  EXPECT_EQ(client->info().num_nodes, served.graph().num_nodes());
  EXPECT_EQ(client->info().num_edges, served.graph().num_edges());
  EXPECT_TRUE(client->ServerAlive());

  std::vector<graph::NodeId> neighbors;
  std::vector<graph::Label> labels;
  int64_t degree = 0;
  for (graph::NodeId u = 0; u < served.graph().num_nodes(); u += 7) {
    ASSERT_OK(client->Fetch(u, &neighbors, &labels, &degree));
    const auto expected_row = served.graph().neighbors(u);
    ASSERT_EQ(degree, served.graph().degree(u)) << "node " << u;
    ASSERT_EQ(neighbors.size(), expected_row.size()) << "node " << u;
    for (size_t i = 0; i < expected_row.size(); ++i) {
      ASSERT_EQ(neighbors[i], expected_row[i]) << "node " << u;
    }
    const auto expected_labels = served.labels().labels(u);
    ASSERT_EQ(labels.size(), expected_labels.size()) << "node " << u;
    for (size_t i = 0; i < expected_labels.size(); ++i) {
      ASSERT_EQ(labels[i], expected_labels[i]) << "node " << u;
    }
  }
  const Status unknown =
      client->Fetch(served.graph().num_nodes() + 5, &neighbors, &labels,
                    &degree);
  EXPECT_EQ(unknown.code(), StatusCode::kNotFound);
  const Status negative = client->Fetch(-1, &neighbors, &labels, &degree);
  EXPECT_EQ(negative.code(), StatusCode::kNotFound);
  EXPECT_GT(crawl_server.stats().requests_served, 0u);
}

TEST(ShmClient, AdmissionFailsWhenSlotsAreFull) {
  const ServedStore served("full", 100, 80, 2);
  const std::string shm = ShmName("full");
  server::ServerOptions options = served.Options(shm);
  options.num_slots = 1;
  server::CrawlServer crawl_server;
  ASSERT_OK(crawl_server.Start(options));

  ASSERT_OK_AND_ASSIGN(const std::unique_ptr<server::ShmClient> first,
                       server::ShmClient::Connect(shm));
  server::ShmClientOptions client_options;
  client_options.connect_timeout_ms = 200;
  const auto second = server::ShmClient::Connect(shm, client_options);
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kResourceExhausted);
}

// A client that dies without a goodbye (child process hard-exits holding
// its slot) must be reaped by pid liveness, freeing the slot for the next
// session — leaked sessions never brown out admission.
TEST(CrawlServer, DeadClientSlotIsReaped) {
  const ServedStore served("reap", 200, 160, 2);
  const std::string shm = ShmName("reap");
  server::ServerOptions options = served.Options(shm);
  options.num_slots = 1;  // the dead session holds the ONLY slot
  server::CrawlServer crawl_server;
  ASSERT_OK(crawl_server.Start(options));

  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    // In the child: admit a session, touch it, and die without a goodbye.
    auto session = server::ShmClient::Connect(shm);
    if (!session.ok()) ::_exit(1);
    std::vector<graph::NodeId> neighbors;
    std::vector<graph::Label> labels;
    int64_t degree = 0;
    if (!(*session)->Fetch(0, &neighbors, &labels, &degree).ok()) ::_exit(2);
    (*session).release();  // leak: no destructor, no goodbye
    ::_exit(0);
  }
  int wait_status = 0;
  ASSERT_EQ(::waitpid(child, &wait_status, 0), child);
  ASSERT_TRUE(WIFEXITED(wait_status));
  ASSERT_EQ(WEXITSTATUS(wait_status), 0);

  ASSERT_TRUE(WaitFor(
      [&] { return crawl_server.stats().sessions_reaped_dead >= 1; }))
      << "reaper never reclaimed the dead client's slot";
  // The reclaimed slot admits a fresh session.
  ASSERT_OK_AND_ASSIGN(const std::unique_ptr<server::ShmClient> next,
                       server::ShmClient::Connect(shm));
  EXPECT_TRUE(next->ServerAlive());
}

// Admission under churn with the reaper live: many short sessions from
// several threads claim, use and release slots while worker 0 reaps after
// every scan. A connecting client must never look dead to the reaper, so
// every Connect succeeds and no live session is reaped as dead.
TEST(CrawlServer, AdmissionChurnNeverReapsALiveClient) {
  const ServedStore served("churn", 300, 500, 2);
  const std::string shm = ShmName("churn");
  server::ServerOptions options = served.Options(shm);
  options.num_workers = 2;
  server::CrawlServer crawl_server;
  ASSERT_OK(crawl_server.Start(options));

  constexpr int kThreads = 4;
  constexpr int kCycles = 300;
  std::atomic<int> failures{0};
  std::vector<std::string> first_error(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::vector<graph::NodeId> neighbors;
      std::vector<graph::Label> labels;
      int64_t degree = 0;
      for (int c = 0; c < kCycles; ++c) {
        auto session = server::ShmClient::Connect(shm);
        Status status = session.status();
        if (session.ok()) {
          const auto u = static_cast<graph::NodeId>(
              (t * kCycles + c) % served.graph().num_nodes());
          status = (*session)->Fetch(u, &neighbors, &labels, &degree);
          if (status.ok() && degree != served.graph().degree(u)) {
            status = InternalError("wrong degree for node " +
                                   std::to_string(u));
          }
        }
        if (!status.ok()) {
          failures.fetch_add(1);
          if (first_error[t].empty()) first_error[t] = status.ToString();
        }
      }  // each session is dropped (goodbye) before the next connect
    });
  }
  for (std::thread& thread : threads) thread.join();

  std::string errors;
  for (const std::string& e : first_error) {
    if (!e.empty()) errors += e + "\n";
  }
  EXPECT_EQ(failures.load(), 0) << errors;
  EXPECT_EQ(crawl_server.stats().sessions_reaped_dead, 0u);
}

// A client that dies after its pid claim but before it moves the slot out
// of kSlotFree still owns the slot: the reaper must reclaim it by pid
// liveness, or that slot is lost to admission for the daemon's lifetime.
TEST(CrawlServer, ClientDeadMidClaimIsReaped) {
  const ServedStore served("midclaim", 100, 80, 1);
  const std::string shm = ShmName("midclaim");
  server::ServerOptions options = served.Options(shm);
  options.num_slots = 1;  // the half-claimed slot is the ONLY slot
  server::CrawlServer crawl_server;
  ASSERT_OK(crawl_server.Start(options));

  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) ::_exit(0);
  int wait_status = 0;
  ASSERT_EQ(::waitpid(child, &wait_status, 0), child);  // pid now gone

  const int fd = ::shm_open(shm.c_str(), O_RDWR, 0);
  ASSERT_GE(fd, 0);
  const size_t bytes =
      server::kShmSlotArrayOffset + sizeof(server::SessionSlot);
  void* slab =
      ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  ::close(fd);
  ASSERT_NE(slab, MAP_FAILED);
  server::SessionSlot* slot = server::ShmSlotAt(slab, 0);
  ASSERT_EQ(slot->state.load(), server::kSlotFree);
  int32_t free_pid = 0;
  ASSERT_TRUE(slot->client_pid.compare_exchange_strong(
      free_pid, static_cast<int32_t>(child)));
  ::munmap(slab, bytes);

  ASSERT_TRUE(WaitFor(
      [&] { return crawl_server.stats().sessions_reaped_dead >= 1; }))
      << "reaper never reclaimed the half-claimed slot";
  ASSERT_OK_AND_ASSIGN(const std::unique_ptr<server::ShmClient> next,
                       server::ShmClient::Connect(shm));
  EXPECT_TRUE(next->ServerAlive());
}

TEST(CrawlServer, IdleSessionIsReaped) {
  const ServedStore served("idle", 100, 80, 1);
  const std::string shm = ShmName("idle");
  server::ServerOptions options = served.Options(shm);
  options.idle_timeout_ms = 200;
  server::CrawlServer crawl_server;
  ASSERT_OK(crawl_server.Start(options));
  ASSERT_OK_AND_ASSIGN(const std::unique_ptr<server::ShmClient> client,
                       server::ShmClient::Connect(shm));
  ASSERT_TRUE(WaitFor(
      [&] { return crawl_server.stats().sessions_reaped_idle >= 1; }))
      << "idle reaper never fired";
}

// IpcTransport must hand out records identical to StoreTransport over the
// same snapshot — the wire layer adds no transformation.
TEST(IpcTransport, RecordsMatchStoreTransport) {
  const ServedStore served("records", 500, 900, 4);
  const std::string shm = ShmName("records");
  server::CrawlServer crawl_server;
  ASSERT_OK(crawl_server.Start(served.Options(shm)));

  ASSERT_OK_AND_ASSIGN(const store::MappedGraph mapped,
                       store::MappedGraph::Open(served.store_path()));
  const store::StoreTransport store_transport(mapped);
  ASSERT_OK_AND_ASSIGN(const std::unique_ptr<osn::IpcTransport> ipc,
                       osn::IpcTransport::Connect(shm));

  const osn::GraphPriors sp = store_transport.TransportPriors();
  const osn::GraphPriors ip = ipc->TransportPriors();
  EXPECT_EQ(sp.num_nodes, ip.num_nodes);
  EXPECT_EQ(sp.num_edges, ip.num_edges);
  EXPECT_EQ(sp.max_degree, ip.max_degree);
  EXPECT_EQ(sp.max_line_degree, ip.max_line_degree);

  for (graph::NodeId u = 0; u < served.graph().num_nodes(); u += 3) {
    ASSERT_OK_AND_ASSIGN(const osn::UserRecord via_store,
                         store_transport.FetchRecord(u));
    ASSERT_OK_AND_ASSIGN(const osn::UserRecord via_ipc, ipc->FetchRecord(u));
    ASSERT_EQ(via_ipc.degree, via_store.degree) << "node " << u;
    ASSERT_EQ(via_ipc.neighbors.size(), via_store.neighbors.size());
    for (size_t i = 0; i < via_store.neighbors.size(); ++i) {
      ASSERT_EQ(via_ipc.neighbors[i], via_store.neighbors[i]);
    }
    ASSERT_EQ(via_ipc.labels.size(), via_store.labels.size());
    for (size_t i = 0; i < via_store.labels.size(); ++i) {
      ASSERT_EQ(via_ipc.labels[i], via_store.labels[i]);
    }
  }
  // Same seed stream (the bit-identity contract includes seed sampling).
  Rng rng_a(7), rng_b(7);
  for (int i = 0; i < 20; ++i) {
    ASSERT_OK_AND_ASSIGN(const graph::NodeId a,
                         store_transport.SampleSeed(rng_a));
    ASSERT_OK_AND_ASSIGN(const graph::NodeId b, ipc->SampleSeed(rng_b));
    ASSERT_EQ(a, b);
  }
  const auto unknown = ipc->FetchRecord(served.graph().num_nodes() + 1);
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.status().code(), StatusCode::kNotFound);
}

// The acceptance gate: the full sweep harness over IpcTransport sessions
// produces cell tables bit-identical to the in-memory run for all ten
// algorithms. Any deviation in estimates, api-call accounting, or seed
// streams anywhere in the server/client/transport stack fails this.
TEST(IpcTransport, SweepBitIdenticalOnAllTenAlgorithms) {
  const ServedStore served("sweep", 1200, 2400, 3);
  const std::string shm = ShmName("sweep");
  server::CrawlServer crawl_server;
  ASSERT_OK(crawl_server.Start(served.Options(shm)));

  eval::SweepConfig config;
  config.sample_fractions = {0.01, 0.03};
  config.reps = 3;
  config.threads = 2;
  config.seed = 777;
  config.burn_in = 40;
  config.algorithms = estimators::AllAlgorithms();
  const graph::TargetLabel target{1, 2};

  ASSERT_OK_AND_ASSIGN(
      const eval::SweepResult memory_result,
      eval::RunSweep(served.graph(), served.labels(), target, config));
  const eval::TransportFactory factory =
      [&shm]() -> Result<std::unique_ptr<osn::Transport>> {
    auto transport = osn::IpcTransport::Connect(shm);
    if (!transport.ok()) return transport.status();
    return std::unique_ptr<osn::Transport>(std::move(*transport));
  };
  ASSERT_OK_AND_ASSIGN(
      const eval::SweepResult ipc_result,
      eval::RunTransportSweep(served.graph(), served.labels(), target, config,
                              factory));

  ASSERT_EQ(memory_result.truth, ipc_result.truth);
  ASSERT_EQ(memory_result.cells.size(), ipc_result.cells.size());
  for (size_t a = 0; a < memory_result.cells.size(); ++a) {
    for (size_t s = 0; s < memory_result.cells[a].size(); ++s) {
      const eval::CellResult& mem = memory_result.cells[a][s];
      const eval::CellResult& ipc = ipc_result.cells[a][s];
      EXPECT_EQ(mem.nrmse, ipc.nrmse)
          << estimators::AlgorithmName(config.algorithms[a]) << " size " << s;
      EXPECT_EQ(mem.mean_estimate, ipc.mean_estimate);
      EXPECT_EQ(mem.relative_bias, ipc.relative_bias);
      EXPECT_EQ(mem.mean_api_calls, ipc.mean_api_calls);
      EXPECT_EQ(mem.availability, ipc.availability);
    }
  }
  EXPECT_GT(crawl_server.stats().requests_served, 0u);
}

// Daemon restart under a live session: the next call surfaces kUnavailable
// through the retry policy (never a hang), and once a daemon serving the
// SAME store returns, the transport reconnects and serves again. A daemon
// serving a DIFFERENT store is refused as kFailedPrecondition — silently
// mixing stores mid-crawl would corrupt the estimate.
TEST(IpcTransport, ServerRestartSurfacesUnavailableThenRecovers) {
  const ServedStore served("restart", 400, 700, 2);
  const std::string shm = ShmName("restart");
  auto server_a = std::make_unique<server::CrawlServer>();
  ASSERT_OK(server_a->Start(served.Options(shm)));

  ASSERT_OK_AND_ASSIGN(const std::unique_ptr<osn::IpcTransport> ipc,
                       osn::IpcTransport::Connect(shm));
  osn::OsnClient client(*ipc);
  osn::RetryPolicy retry;
  retry.max_attempts = 3;
  retry.initial_backoff_us = 1'000;  // sim-clock backoff: no real sleeping
  client.ConfigureRetry(retry);

  ASSERT_OK_AND_ASSIGN(const auto row_before, client.GetNeighbors(10));
  const std::vector<graph::NodeId> expected(row_before.begin(),
                                            row_before.end());

  server_a->Stop();
  const auto down = client.GetNeighbors(20);  // uncached: must hit the wire
  ASSERT_FALSE(down.ok());
  EXPECT_EQ(down.status().code(), StatusCode::kUnavailable)
      << down.status().ToString();

  // Same store, same shm name: the transport reconnects lazily and the
  // session continues (fresh slot on the new daemon).
  server::CrawlServer server_b;
  ASSERT_OK(server_b.Start(served.Options(shm)));
  ASSERT_OK_AND_ASSIGN(const auto row_after, client.GetNeighbors(20));
  EXPECT_EQ(row_after.size(),
            static_cast<size_t>(served.graph().degree(20)));
  // The pre-restart record is still served (client cache) and unchanged.
  ASSERT_OK_AND_ASSIGN(const auto row_cached, client.GetNeighbors(10));
  ASSERT_EQ(row_cached.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(row_cached[i], expected[i]);
  }
  server_b.Stop();

  // Different store behind the same name: refused, not silently mixed.
  const ServedStore other("restart_other", 400, 700, 2, /*seed=*/97);
  server::CrawlServer server_c;
  ASSERT_OK(server_c.Start(other.Options(shm)));
  const auto mixed = client.GetNeighbors(30);
  ASSERT_FALSE(mixed.ok());
  EXPECT_EQ(mixed.status().code(), StatusCode::kFailedPrecondition)
      << mixed.status().ToString();
}

// ---------------------------------------------------------------------------
// Reconnect-and-resume matrix: the transport's own ReconnectPolicy (not the
// OsnClient retry loop above it — FetchRecord errors bypass that) must make
// a daemon restart invisible: kill between fetches, kill with the daemon
// returning mid-backoff, and kill mid-estimator-run must all resume with
// exact rows and bit-identical estimates; a restart onto a DIFFERENT store
// must refuse with kFailedPrecondition, never resume silently.
// ---------------------------------------------------------------------------

osn::IpcTransport::Options ReconnectOptions(uint32_t attempts,
                                            int64_t backoff_us = 2'000) {
  osn::IpcTransport::Options options;
  options.reconnect.max_attempts = attempts;
  options.reconnect.initial_backoff_us = backoff_us;
  options.reconnect.max_backoff_us = 50'000;
  return options;
}

// Daemon killed between fetches: the next (uncached) fetch reconnects to
// the replacement daemon and returns the exact row — no caller-visible
// error, one reconnect episode in the stats.
TEST(IpcTransportReconnect, KilledBetweenFetchesResumesTransparently) {
  const ServedStore served("rc_pages", 400, 700, 2);
  const std::string shm = ShmName("rc_pages");
  auto server_a = std::make_unique<server::CrawlServer>();
  ASSERT_OK(server_a->Start(served.Options(shm)));

  ASSERT_OK_AND_ASSIGN(
      const std::unique_ptr<osn::IpcTransport> ipc,
      osn::IpcTransport::Connect(shm, ReconnectOptions(/*attempts=*/8)));
  for (graph::NodeId u = 0; u < 40; u += 4) {
    ASSERT_OK(ipc->FetchRecord(u).status());
  }

  server_a->Stop();
  server::CrawlServer server_b;
  ASSERT_OK(server_b.Start(served.Options(shm)));

  for (graph::NodeId u = 100; u < 140; u += 4) {  // never fetched: must
    ASSERT_OK_AND_ASSIGN(const osn::UserRecord record,  // cross the wire
                         ipc->FetchRecord(u));
    const auto expected = served.graph().neighbors(u);
    ASSERT_EQ(record.degree, served.graph().degree(u)) << "node " << u;
    ASSERT_EQ(record.neighbors.size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      ASSERT_EQ(record.neighbors[i], expected[i]) << "node " << u;
    }
  }
  const osn::IpcTransportStats stats = ipc->ipc_stats();
  EXPECT_EQ(stats.reconnects, 1u);
  EXPECT_GE(stats.reconnect_attempts, 1u);
}

// Daemon killed and the replacement arrives only while the transport is
// mid-backoff: the bounded retry loop must pick it up instead of failing
// on the first dead attempt.
TEST(IpcTransportReconnect, DaemonReturningDuringBackoffIsPickedUp) {
  const ServedStore served("rc_backoff", 300, 500, 2);
  const std::string shm = ShmName("rc_backoff");
  auto server_a = std::make_unique<server::CrawlServer>();
  ASSERT_OK(server_a->Start(served.Options(shm)));

  ASSERT_OK_AND_ASSIGN(
      const std::unique_ptr<osn::IpcTransport> ipc,
      osn::IpcTransport::Connect(
          shm, ReconnectOptions(/*attempts=*/50, /*backoff_us=*/10'000)));
  ASSERT_OK(ipc->FetchRecord(1).status());

  server_a->Stop();
  server::CrawlServer server_b;
  std::thread restarter([&] {
    ::usleep(120'000);  // several backoff steps pass with no daemon at all
    ASSERT_OK(server_b.Start(served.Options(shm)));
  });
  const auto record = ipc->FetchRecord(200);
  restarter.join();
  ASSERT_OK(record.status());
  EXPECT_EQ(record->degree, served.graph().degree(200));
  const osn::IpcTransportStats stats = ipc->ipc_stats();
  EXPECT_EQ(stats.reconnects, 1u);
  EXPECT_GT(stats.reconnect_attempts, 1u);  // some attempts found no daemon
}

// The replacement daemon serves a different store: resuming would splice
// rows from two snapshots into one walk. Refuse with kFailedPrecondition —
// and keep refusing; reconnect never silently "recovers" onto it.
TEST(IpcTransportReconnect, FingerprintChangeRefusesResume) {
  const ServedStore served("rc_fp", 300, 500, 2);
  const ServedStore other("rc_fp_other", 300, 500, 2, /*seed=*/97);
  const std::string shm = ShmName("rc_fp");
  auto server_a = std::make_unique<server::CrawlServer>();
  ASSERT_OK(server_a->Start(served.Options(shm)));

  ASSERT_OK_AND_ASSIGN(
      const std::unique_ptr<osn::IpcTransport> ipc,
      osn::IpcTransport::Connect(shm, ReconnectOptions(/*attempts=*/8)));
  ASSERT_OK(ipc->FetchRecord(1).status());

  server_a->Stop();
  server::CrawlServer server_b;
  ASSERT_OK(server_b.Start(other.Options(shm)));

  const auto refused = ipc->FetchRecord(2);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kFailedPrecondition)
      << refused.status().ToString();
  const auto still_refused = ipc->FetchRecord(3);
  ASSERT_FALSE(still_refused.ok());
  EXPECT_EQ(still_refused.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(ipc->ipc_stats().reconnects, 0u);
}

// The headline contract: a daemon restart in the middle of an estimator
// session changes NOTHING — estimate, charged api calls, and iteration
// count are bit-identical to the uninterrupted run, for every algorithm.
// The session surface gives a deterministic injection point (step a few
// iterations, restart the daemon, run to completion).
TEST(IpcTransportReconnect, MidRunRestartKeepsEstimatesBitIdentical) {
  const ServedStore served("rc_bits", 800, 1500, 3);
  const std::string shm = ShmName("rc_bits");
  const graph::TargetLabel target{1, 2};
  estimators::EstimateOptions options;
  options.api_budget = 250;
  options.burn_in = 30;
  options.seed = 555;

  for (const estimators::AlgorithmId algorithm :
       estimators::AllAlgorithms()) {
    // Fault-free reference run.
    estimators::EstimateResult reference;
    {
      server::CrawlServer crawl_server;
      ASSERT_OK(crawl_server.Start(served.Options(shm)));
      ASSERT_OK_AND_ASSIGN(const std::unique_ptr<osn::IpcTransport> ipc,
                           osn::IpcTransport::Connect(shm));
      osn::OsnClient client(*ipc);
      ASSERT_OK_AND_ASSIGN(
          reference,
          estimators::Estimate(algorithm, client, target,
                               ipc->TransportPriors(), options));
    }

    // Same run with the daemon killed and replaced five iterations in.
    auto server_a = std::make_unique<server::CrawlServer>();
    ASSERT_OK(server_a->Start(served.Options(shm)));
    ASSERT_OK_AND_ASSIGN(
        const std::unique_ptr<osn::IpcTransport> ipc,
        osn::IpcTransport::Connect(shm, ReconnectOptions(/*attempts=*/10)));
    osn::OsnClient client(*ipc);
    ASSERT_OK_AND_ASSIGN(
        const std::unique_ptr<estimators::EstimatorSession> session,
        estimators::EstimatorSession::Create(algorithm, client, target,
                                             ipc->TransportPriors(), options));
    ASSERT_OK(session->Step(5).status());
    server_a->Stop();
    server::CrawlServer server_b;
    ASSERT_OK(server_b.Start(served.Options(shm)));
    ASSERT_OK(session->Run());
    ASSERT_OK_AND_ASSIGN(const estimators::EstimateResult chaos,
                         session->Snapshot());

    EXPECT_EQ(chaos.estimate, reference.estimate)
        << estimators::AlgorithmName(algorithm);
    EXPECT_EQ(chaos.api_calls, reference.api_calls)
        << estimators::AlgorithmName(algorithm);
    EXPECT_EQ(chaos.iterations, reference.iterations)
        << estimators::AlgorithmName(algorithm);
    EXPECT_EQ(ipc->ipc_stats().reconnects, 1u)
        << estimators::AlgorithmName(algorithm);
  }
}

}  // namespace
}  // namespace labelrw
