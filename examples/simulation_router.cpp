// simulation_router - the cluster tier front end (see docs/ARCHITECTURE.md
// "Cluster tier"):
//
//   router     service::ClusterRouter: consistent-hash routing of every
//              request's cache key across worker servers, reply merging
//              (byte-identical to one server in ordered mode), stats
//              fan-out, failover with bounded jittered retries
//   workers    ordinary example_simulation_server processes - spawned on
//              ephemeral ports (--spawn N) or attached (--worker
//              HOST:PORT, repeatable)
//
// Stdio mode serves one routed session over stdin/stdout; --listen PORT
// serves concurrent TCP sessions, each routed across the same worker
// fleet. With --spawn and --cache-file BASE, worker i persists its shard
// cache to BASE.shard<i>; on shutdown the router drains the workers
// (SIGTERM, so each saves its shard) and merges the shards into BASE.
//
// Run `simulation_router --help` for every flag; see service/cli.hpp for
// the parsed grammar.
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstdint>
#include <cstring>
#include <iostream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "service/cli.hpp"
#include "service/router.hpp"
#include "service/transport.hpp"

namespace {

/// One spawned worker server process.
struct SpawnedWorker {
  std::string shard_id;
  pid_t pid = -1;
  int stderr_fd = -1;  ///< read end of the child's stderr pipe
  std::uint16_t port = 0;
  std::thread drain;  ///< forwards the child's stderr, prefixed
};

/// Reads one '\n'-terminated line from a raw fd (the child stderr pipe).
/// Returns false on EOF with nothing buffered.
bool read_fd_line(int fd, std::string& buffer, std::string& line) {
  for (;;) {
    const std::size_t newline = buffer.find('\n');
    if (newline != std::string::npos) {
      line = buffer.substr(0, newline);
      buffer.erase(0, newline + 1);
      return true;
    }
    char chunk[512];
    const ssize_t got = ::read(fd, chunk, sizeof(chunk));
    if (got <= 0) {
      if (got < 0 && errno == EINTR) continue;
      if (buffer.empty()) return false;
      line = std::move(buffer);
      buffer.clear();
      return true;
    }
    buffer.append(chunk, static_cast<std::size_t>(got));
  }
}

/// The worker binary expected next to this one when --server-bin is not
/// given.
std::string default_server_bin() {
  char path[4096];
  const ssize_t got = ::readlink("/proc/self/exe", path, sizeof(path) - 1);
  if (got <= 0) return "./example_simulation_server";
  path[got] = '\0';
  std::string self(path);
  const std::size_t slash = self.rfind('/');
  const std::string dir = slash == std::string::npos ? "." : self.substr(0, slash);
  return dir + "/example_simulation_server";
}

/// Forks one worker server on an ephemeral port, scraping the bound port
/// from its "listening on 127.0.0.1:PORT" stderr line. Returns false (with
/// the reason on stderr) when the worker dies before announcing a port.
bool spawn_worker(const edea::service::RouterCliConfig& config,
                  const std::string& server_bin, int index,
                  SpawnedWorker* out) {
  out->shard_id = "shard" + std::to_string(index);

  int fds[2];
  if (::pipe(fds) != 0) {
    std::cerr << "simulation_router: pipe() failed: " << std::strerror(errno)
              << "\n";
    return false;
  }

  std::vector<std::string> args = {server_bin, "--listen", "0"};
  if (!config.cache_file.empty()) {
    args.push_back("--cache-file");
    args.push_back(config.cache_file + "." + out->shard_id);
  }

  const pid_t pid = ::fork();
  if (pid < 0) {
    std::cerr << "simulation_router: fork() failed: " << std::strerror(errno)
              << "\n";
    ::close(fds[0]);
    ::close(fds[1]);
    return false;
  }
  if (pid == 0) {
    // Child: stderr into the pipe, then become the worker server.
    ::dup2(fds[1], 2);
    ::close(fds[0]);
    ::close(fds[1]);
    std::vector<char*> argv;
    argv.reserve(args.size() + 1);
    for (std::string& arg : args) argv.push_back(arg.data());
    argv.push_back(nullptr);
    ::execv(argv[0], argv.data());
    // Only reached when exec failed; stderr already points at the pipe.
    std::cerr << "simulation_router: cannot exec worker binary '" << args[0]
              << "': " << std::strerror(errno) << "\n";
    ::_exit(127);
  }

  ::close(fds[1]);
  out->pid = pid;
  out->stderr_fd = fds[0];

  // Scrape the bound port. Lines before the announcement (cache load
  // reports) forward to our stderr, prefixed with the shard id.
  constexpr const char* kPrefix = "listening on 127.0.0.1:";
  std::string buffer;
  std::string line;
  while (read_fd_line(out->stderr_fd, buffer, line)) {
    if (line.rfind(kPrefix, 0) == 0) {
      std::uint64_t port = 0;
      std::size_t pos = std::string(kPrefix).size();
      while (pos < line.size() && line[pos] >= '0' && line[pos] <= '9') {
        port = port * 10 + static_cast<std::uint64_t>(line[pos] - '0');
        ++pos;
      }
      if (port == 0 || port > 65535) break;
      out->port = static_cast<std::uint16_t>(port);
      std::cerr << "[" << out->shard_id << "] " << line << "\n";
      return true;
    }
    std::cerr << "[" << out->shard_id << "] " << line << "\n";
  }
  std::cerr << "simulation_router: worker " << out->shard_id
            << " exited before announcing its port\n";
  return false;
}

/// SIGINT/SIGTERM stop accepting so serve() returns, workers get drained,
/// and shard caches merge - ::shutdown(2) is async-signal-safe, so this is
/// the whole handler. Set only while socket mode is serving.
edea::service::SocketTransport* g_transport = nullptr;

extern "C" void handle_stop_signal(int) {
  if (g_transport != nullptr) g_transport->shutdown();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace edea;

  service::RouterCliConfig config =
      service::parse_router_args(argc - 1, argv + 1);
  if (!config.error.empty()) {
    std::cerr << "simulation_router: " << config.error << "\n\n"
              << service::router_usage();
    return 2;
  }
  if (config.help) {
    std::cout << service::router_usage();
    return 0;
  }

  // --- membership: spawn a fleet or attach to one ------------------------
  std::vector<SpawnedWorker> spawned;

  const auto reap_workers = [&spawned]() {
    int failures = 0;
    for (SpawnedWorker& worker : spawned) {
      if (worker.pid > 0) ::kill(worker.pid, SIGTERM);
    }
    for (SpawnedWorker& worker : spawned) {
      if (worker.pid <= 0) continue;
      int status = 0;
      while (::waitpid(worker.pid, &status, 0) < 0 && errno == EINTR) {
      }
      if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
        std::cerr << "simulation_router: worker " << worker.shard_id
                  << " exited abnormally\n";
        ++failures;
      }
      if (worker.drain.joinable()) worker.drain.join();
      if (worker.stderr_fd >= 0) ::close(worker.stderr_fd);
      worker.pid = -1;
    }
    return failures;
  };

  if (config.spawn > 0) {
    const std::string server_bin =
        config.server_bin.empty() ? default_server_bin() : config.server_bin;
    spawned.resize(static_cast<std::size_t>(config.spawn));
    for (int i = 0; i < config.spawn; ++i) {
      if (!spawn_worker(config, server_bin, i, &spawned[static_cast<std::size_t>(i)])) {
        reap_workers();
        return 1;
      }
    }
    for (SpawnedWorker& worker : spawned) {
      config.router.workers.push_back(service::WorkerEndpoint{
          worker.shard_id, "127.0.0.1", worker.port});
      // Keep forwarding worker stderr (cache saves, crashes) for the rest
      // of its life, prefixed so shard logs stay attributable.
      worker.drain = std::thread([&worker] {
        std::string buffer;
        std::string line;
        while (read_fd_line(worker.stderr_fd, buffer, line)) {
          std::cerr << "[" + worker.shard_id + "] " + line + "\n";
        }
      });
    }
  }

  int exit_code = 0;
  {
    service::ClusterRouter router(std::move(config.router));

    if (config.listen) {
      // --- socket mode: concurrent routed sessions over loopback TCP ----
      service::SocketTransport transport(config.socket);
      std::cerr << "listening on 127.0.0.1:" << transport.port()
                << (config.socket.max_sessions != 0
                        ? " for " +
                              std::to_string(config.socket.max_sessions) +
                              " session(s)\n"
                        : "\n");
      g_transport = &transport;
      std::signal(SIGINT, handle_stop_signal);
      std::signal(SIGTERM, handle_stop_signal);
      transport.serve(
          [&](service::Stream& stream) { router.serve(stream); });
      std::signal(SIGINT, SIG_DFL);
      std::signal(SIGTERM, SIG_DFL);
      g_transport = nullptr;
    } else {
      // --- stdio mode: one routed session over stdin/stdout -------------
      service::StdioStream stream(std::cin, std::cout);
      const service::RouterSessionStats stats = router.serve(stream);
      std::cerr << "routed " << stats.runs << " requests across "
                << router.live_workers().size() << " live worker(s) ("
                << stats.retries << " retries, " << stats.failovers
                << " failovers)\n";
      if (stats.protocol_errors != 0) exit_code = 1;
    }
  }

  // --- drain: stop workers (each saves its shard cache), then merge ------
  if (!spawned.empty()) {
    if (reap_workers() != 0) exit_code = 1;
    if (!config.cache_file.empty()) {
      std::vector<std::string> shard_paths;
      shard_paths.reserve(spawned.size());
      for (const SpawnedWorker& worker : spawned) {
        shard_paths.push_back(config.cache_file + "." + worker.shard_id);
      }
      try {
        const std::size_t merged =
            service::merge_cache_files(shard_paths, config.cache_file);
        std::cerr << "cache: merged " << spawned.size() << " shard file(s), "
                  << merged << " entries into " << config.cache_file << "\n";
      } catch (const std::exception& e) {
        std::cerr << "simulation_router: failed to merge shard caches: "
                  << e.what() << "\n";
        exit_code = 1;
      }
    }
  }
  return exit_code;
}
