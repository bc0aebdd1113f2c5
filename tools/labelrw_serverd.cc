// labelrw_serverd: the crawl-server daemon (server/crawl_server.h).
//
// Maps a sharded store once and serves every concurrent OsnClient session
// on the machine over the shared-memory protocol of server/shm_protocol.h:
//
//   graphstore_cli shard --store=g.lgs --out=g --shards=8
//   labelrw_serverd --manifest=g.manifest --shm=/labelrw &
//   labelrw_cli estimate --backend=ipc --server=/labelrw ...   # x N
//
// Runs in the foreground until SIGINT/SIGTERM, then shuts down gracefully:
// the slab's draining flag goes up (clients stop posting; their transports
// fail over to the reconnect path), in-flight requests drain for up to
// --drain-timeout-ms, the shm name is unlinked, and a distinct clean-
// shutdown line is logged. --ready-file names a file created (with the shm
// name as its contents) only after the slab is live — scripts poll it
// instead of racing the startup.
//
// --supervise runs a fork-per-generation supervisor: the child serves, and
// if it crashes (signal or nonzero exit) the parent restarts it — the new
// generation's Start() reclaims the crashed child's stale slab — up to
// --max-restarts times. Shutdown signals are forwarded to the child, whose
// clean exit ends supervision.
//
// Exit codes: 0 clean shutdown, 1 startup failure, 2 usage, 3 supervision
// restart budget exhausted.

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "server/crawl_server.h"
#include "util/flags.h"

namespace {

using namespace labelrw;

std::atomic<int> g_signal{0};

void OnSignal(int sig) { g_signal.store(sig, std::memory_order_relaxed); }

int Usage() {
  std::fprintf(
      stderr,
      "usage: labelrw_serverd --manifest=P --shm=/name [flags]\n"
      "\n"
      "flags:\n"
      "  --manifest=P       sharded store manifest (or bare prefix)\n"
      "  --shm=/name        POSIX shm name to serve on (leading '/')\n"
      "  --slots=N          concurrent session capacity (default 64)\n"
      "  --workers=N        worker threads (default: one per shard)\n"
      "  --idle-timeout-ms=T  reclaim idle sessions after T ms (default\n"
      "                     30000; 0 disables)\n"
      "  --drain-timeout-ms=T  graceful-drain bound on shutdown (default\n"
      "                     5000)\n"
      "  --supervise        fork-per-generation supervision: restart the\n"
      "                     serving child if it crashes\n"
      "  --max-restarts=N   supervision restart budget (default 16);\n"
      "                     exhausting it exits 3\n"
      "  --ready-file=F     create F once serving (startup handshake for\n"
      "                     scripts)\n"
      "  --quiet            suppress startup/shutdown log lines\n");
  return 2;
}

struct Flag {
  const char* name;
  std::string value;
  bool set = false;
};

void ParseFlags(int argc, char** argv, std::vector<Flag*> known) {
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--help") == 0 || std::strcmp(arg, "-h") == 0) {
      Usage();
      std::exit(0);
    }
    const char* eq = std::strchr(arg, '=');
    const size_t name_len =
        eq != nullptr ? static_cast<size_t>(eq - arg) : std::strlen(arg);
    Flag* match = nullptr;
    for (Flag* flag : known) {
      if (name_len == std::strlen(flag->name) &&
          std::strncmp(arg, flag->name, name_len) == 0) {
        match = flag;
        break;
      }
    }
    if (match == nullptr) {
      std::fprintf(stderr, "unknown flag: %s\n", arg);
      std::exit(2);
    }
    match->value = eq != nullptr ? eq + 1 : "1";
    match->set = true;
  }
}

void InstallSignalHandlers() {
  struct sigaction sa = {};
  sa.sa_handler = OnSignal;
  ::sigaction(SIGINT, &sa, nullptr);
  ::sigaction(SIGTERM, &sa, nullptr);
}

/// One serving generation: start, serve until a shutdown signal, drain,
/// stop. Returns the process exit code.
int ServeOnce(const server::ServerOptions& options,
              const std::string& ready_file, int64_t drain_timeout_ms) {
  // Handlers go in before the slab exists: a SIGTERM that lands the moment
  // the ready file appears must still drain, unlink the slab and exit 0.
  InstallSignalHandlers();
  server::CrawlServer crawl_server;
  const Status started = crawl_server.Start(options);
  if (!started.ok()) {
    std::fprintf(stderr, "labelrw_serverd: %s\n", started.ToString().c_str());
    return 1;
  }

  if (!ready_file.empty()) {
    std::FILE* f = std::fopen(ready_file.c_str(), "w");
    if (f != nullptr) {
      std::fprintf(f, "%s\n", options.shm_name.c_str());
      std::fclose(f);
    }
  }

  while (g_signal.load(std::memory_order_relaxed) == 0) {
    ::usleep(100'000);
  }

  const bool drained = crawl_server.Drain(drain_timeout_ms);
  crawl_server.Stop();
  if (!ready_file.empty()) std::remove(ready_file.c_str());
  if (!options.quiet) {
    // The distinct clean-shutdown line: its presence (plus exit 0)
    // separates a graceful stop from a supervised crash in logs.
    std::fprintf(stderr, "labelrw_serverd: clean shutdown (%s)\n",
                 drained ? "in-flight requests drained"
                         : "drain timed out; stopped anyway");
  }
  return 0;
}

/// Fork-per-generation supervisor. The child runs ServeOnce; a crashed
/// child (signal, or nonzero exit after having served) is restarted with
/// the next generation's Start() reclaiming the stale slab. Shutdown
/// signals are forwarded; the child's clean exit ends supervision.
int Supervise(const server::ServerOptions& options,
              const std::string& ready_file, int64_t drain_timeout_ms,
              int64_t max_restarts) {
  InstallSignalHandlers();
  int64_t restarts = 0;
  for (;;) {
    const pid_t child = ::fork();
    if (child < 0) {
      std::perror("labelrw_serverd: fork");
      return 1;
    }
    if (child == 0) {
      g_signal.store(0, std::memory_order_relaxed);
      std::exit(ServeOnce(options, ready_file, drain_timeout_ms));
    }

    bool shutdown_requested = false;
    int wstatus = 0;
    for (;;) {
      const int sig = g_signal.exchange(0, std::memory_order_relaxed);
      if (sig != 0) {
        shutdown_requested = true;
        ::kill(child, sig);
      }
      const pid_t waited = ::waitpid(child, &wstatus, WNOHANG);
      if (waited == child) break;
      ::usleep(50'000);
    }

    const bool clean_exit =
        WIFEXITED(wstatus) && WEXITSTATUS(wstatus) == 0;
    if (shutdown_requested || clean_exit) {
      return WIFEXITED(wstatus) ? WEXITSTATUS(wstatus) : 0;
    }
    if (WIFEXITED(wstatus) && restarts == 0 && WEXITSTATUS(wstatus) != 0) {
      // The first generation never came up (bad manifest, shm conflict):
      // restarting re-runs the same failure. Propagate it instead.
      return WEXITSTATUS(wstatus);
    }
    ++restarts;
    if (restarts > max_restarts) {
      std::fprintf(stderr,
                   "labelrw_serverd: supervision restart budget (%lld) "
                   "exhausted\n",
                   static_cast<long long>(max_restarts));
      return 3;
    }
    if (!options.quiet) {
      if (WIFSIGNALED(wstatus)) {
        std::fprintf(stderr,
                     "labelrw_serverd: serving child killed by signal %d; "
                     "restarting (%lld/%lld)\n",
                     WTERMSIG(wstatus), static_cast<long long>(restarts),
                     static_cast<long long>(max_restarts));
      } else {
        std::fprintf(stderr,
                     "labelrw_serverd: serving child exited %d; restarting "
                     "(%lld/%lld)\n",
                     WEXITSTATUS(wstatus), static_cast<long long>(restarts),
                     static_cast<long long>(max_restarts));
      }
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  Flag manifest_flag{"--manifest"}, shm_flag{"--shm"}, slots_flag{"--slots"},
      workers_flag{"--workers"}, idle_flag{"--idle-timeout-ms"},
      drain_flag{"--drain-timeout-ms"}, supervise_flag{"--supervise"},
      max_restarts_flag{"--max-restarts"}, ready_flag{"--ready-file"},
      quiet_flag{"--quiet"};
  ParseFlags(argc, argv,
             {&manifest_flag, &shm_flag, &slots_flag, &workers_flag,
              &idle_flag, &drain_flag, &supervise_flag, &max_restarts_flag,
              &ready_flag, &quiet_flag});
  if (!manifest_flag.set || !shm_flag.set) return Usage();

  server::ServerOptions options;
  options.manifest_path = manifest_flag.value;
  options.shm_name = shm_flag.value;
  if (slots_flag.set) {
    options.num_slots = static_cast<uint32_t>(flags::ParseIntAtLeastOrDie(
        "--slots", slots_flag.value.c_str(), 1));
  }
  if (workers_flag.set) {
    options.num_workers = static_cast<uint32_t>(flags::ParseIntAtLeastOrDie(
        "--workers", workers_flag.value.c_str(), 1));
  }
  if (idle_flag.set) {
    options.idle_timeout_ms =
        flags::ParseIntAtLeastOrDie("--idle-timeout-ms",
                                    idle_flag.value.c_str(), 0);
  }
  options.quiet = quiet_flag.set;

  int64_t drain_timeout_ms = 5'000;
  if (drain_flag.set) {
    drain_timeout_ms = flags::ParseIntAtLeastOrDie(
        "--drain-timeout-ms", drain_flag.value.c_str(), 0);
  }
  int64_t max_restarts = 16;
  if (max_restarts_flag.set) {
    max_restarts = flags::ParseIntAtLeastOrDie(
        "--max-restarts", max_restarts_flag.value.c_str(), 0);
  }

  const std::string ready_file = ready_flag.set ? ready_flag.value : "";
  if (supervise_flag.set) {
    return Supervise(options, ready_file, drain_timeout_ms, max_restarts);
  }
  return ServeOnce(options, ready_file, drain_timeout_ms);
}
