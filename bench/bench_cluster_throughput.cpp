// bench_cluster_throughput - shard-scaling benchmark for the cluster tier
// (service/router.hpp).
//
// Spins up a worker fleet in process - one SocketTransport + Session +
// SimulationService per shard, each pinned to worker_threads=1 so a
// shard's capacity is one core and scaling across shards is real compute
// parallelism, not pool oversubscription - and drives a ClusterRouter over
// it with a scripted stdio stream, sweeping
//
//   shard count {1, 2, 4}   x   {cache-hit, cache-miss}
//
// The cache-miss workload is all fresh simulations: each lands on its
// key's owner and runs there, so requests/sec should scale with the shard
// count (minus consistent-hash imbalance) on a multi-core host. The
// cache-hit workload replays a warmed key set, so the router + wire
// protocol is the whole cost and shard count mostly should not hurt -
// the routing overhead the cluster tier pays for its capacity.
//
// Headline number: miss-workload requests/sec at 4 shards vs 1 shard,
// from the median of three rounds of the miss cells (the hit cells run
// once). --require-speedup X turns a ratio below X into a nonzero exit
// (the CI gate demands >= 2x on its multi-core runner; the flag stays off
// by default because a single-core host has no parallelism to measure).
// --json PATH archives every cell as BENCH_cluster.json, the CI artifact
// docs/BENCHMARKS.md tabulates.
//
// --check-failover runs the fault-injection leg instead: one of three
// shards sits behind a ChaosProxy that is killed mid-serve, and the leg
// asserts the routed output is still byte-identical to the single-process
// reference (no reply lost, duplicated, or reordered) with exactly one
// failover observed.
//
// Usage:
//   bench_cluster_throughput [--json PATH] [--require-speedup X]
//                            [--requests N] [--miss-requests N]
//   bench_cluster_throughput --check-failover
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "service/chaos_proxy.hpp"
#include "service/router.hpp"
#include "service/session.hpp"
#include "service/simulation_service.hpp"
#include "service/transport.hpp"

namespace {

using edea::service::ChaosProxy;
using edea::service::ClusterRouter;
using edea::service::RouterOptions;
using edea::service::RouterSessionStats;
using edea::service::SimulationService;
using edea::service::SocketTransport;
using edea::service::SocketTransportOptions;
using edea::service::WorkerEndpoint;
using edea::service::WorkloadCatalog;

/// One in-process shard: transport + accept thread + single-core service.
class LoopbackWorker {
 public:
  LoopbackWorker() {
    edea::service::ServiceOptions service_options;
    service_options.worker_threads = 1;  // one core per shard, by design
    service_ = std::make_unique<SimulationService>(service_options);
    SocketTransportOptions transport_options;
    transport_options.port = 0;  // ephemeral: no CI port collisions
    transport_ = std::make_unique<SocketTransport>(transport_options);
    serve_thread_ = std::thread([this] {
      transport_->serve([this](edea::service::Stream& stream) {
        edea::service::Session(*service_, catalog_).serve(stream);
      });
    });
  }

  ~LoopbackWorker() {
    transport_->shutdown();
    serve_thread_.join();
  }

  [[nodiscard]] std::uint16_t port() const { return transport_->port(); }

 private:
  std::unique_ptr<SimulationService> service_;
  WorkloadCatalog catalog_;
  std::unique_ptr<SocketTransport> transport_;
  std::thread serve_thread_;
};

/// A fleet of `shards` workers plus a router over them.
struct Cluster {
  std::vector<std::unique_ptr<LoopbackWorker>> workers;
  std::unique_ptr<ClusterRouter> router;

  explicit Cluster(std::size_t shards) {
    RouterOptions options;
    for (std::size_t s = 0; s < shards; ++s) {
      workers.push_back(std::make_unique<LoopbackWorker>());
      options.workers.push_back(WorkerEndpoint{
          "shard" + std::to_string(s), "127.0.0.1", workers.back()->port()});
    }
    router = std::make_unique<ClusterRouter>(std::move(options));
  }
};

/// Serves `lines` through the router over string streams and returns the
/// response lines.
std::vector<std::string> serve(ClusterRouter& router,
                               const std::vector<std::string>& lines,
                               RouterSessionStats* stats_out = nullptr) {
  std::ostringstream joined;
  for (const std::string& line : lines) joined << line << "\n";
  std::istringstream in(joined.str());
  std::ostringstream out;
  edea::service::StdioStream stream(in, out);
  const RouterSessionStats stats = router.serve(stream);
  if (stats_out != nullptr) *stats_out = stats;
  std::vector<std::string> responses;
  std::istringstream replay(out.str());
  std::string line;
  while (std::getline(replay, line)) responses.push_back(line);
  return responses;
}

/// `n` fresh simulations, each of a network of its own. A shard's session
/// thread materializes the network before its one worker simulates it;
/// batch=9 keeps the simulation the larger cost by far, so a shard's
/// capacity stays one core. (The batch is part of the routing key: at 9
/// the default 64 keys spread over four shards at most 18 on one, where
/// 8 would put 24 on one.)
std::vector<std::string> miss_requests(std::size_t n, std::uint64_t base) {
  std::vector<std::string> lines;
  lines.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    lines.push_back("run edeanet-64 seed=" + std::to_string(base + i) +
                    " batch=9");
  }
  return lines;
}

/// `n` requests cycling a set of `distinct` warmed keys: every reply is a
/// shard-cache hit, so the cell times the router + wire, not simulation.
std::vector<std::string> hit_requests(std::size_t n, std::size_t distinct) {
  std::vector<std::string> lines;
  lines.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    lines.push_back("run edeanet-64 seed=" + std::to_string(1 + i % distinct));
  }
  return lines;
}

struct Cell {
  std::string workload;  ///< "hit" or "miss"
  std::size_t shards = 0;
  std::size_t requests = 0;
  double seconds = 0.0;
  double rps = 0.0;
};

/// Runs one timed cell against a fresh fleet. Exits the process on any
/// non-ok reply (a broken benchmark must not report a number).
Cell run_cell(const std::string& workload, std::size_t shards,
              const std::vector<std::string>& warmup,
              const std::vector<std::string>& timed) {
  Cluster cluster(shards);
  if (!warmup.empty()) {
    const std::vector<std::string> warmed = serve(*cluster.router, warmup);
    if (warmed.size() != warmup.size()) {
      std::cerr << "bench_cluster_throughput: warmup answered "
                << warmed.size() << " of " << warmup.size() << " requests\n";
      std::exit(1);
    }
  }

  const auto start = std::chrono::steady_clock::now();
  const std::vector<std::string> responses = serve(*cluster.router, timed);
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;

  if (responses.size() != timed.size()) {
    std::cerr << "bench_cluster_throughput: " << responses.size() << " of "
              << timed.size() << " requests answered\n";
    std::exit(1);
  }
  for (const std::string& response : responses) {
    if (response.rfind("ok ", 0) != 0) {
      std::cerr << "bench_cluster_throughput: unexpected response '"
                << response << "'\n";
      std::exit(1);
    }
  }

  Cell cell;
  cell.workload = workload;
  cell.shards = shards;
  cell.requests = timed.size();
  cell.seconds = elapsed.count();
  cell.rps = cell.seconds > 0.0
                 ? static_cast<double>(cell.requests) / cell.seconds
                 : 0.0;
  return cell;
}

/// The --check-failover leg. Returns the process exit code.
int check_failover() {
  constexpr std::size_t kRequests = 48;

  // Single-process reference for the same stream (all distinct keys, so
  // rerouted re-runs cannot change a byte of any reply).
  std::vector<std::string> lines;
  for (std::size_t i = 0; i < kRequests; ++i) {
    lines.push_back("run mobilenet-0.25x seed=" + std::to_string(500 + i) +
                    " td=16");
  }
  std::vector<std::string> expected;
  {
    SimulationService service;
    WorkloadCatalog catalog;
    std::ostringstream joined;
    for (const std::string& line : lines) joined << line << "\n";
    std::istringstream in(joined.str());
    std::ostringstream out;
    edea::service::StdioStream stream(in, out);
    (void)edea::service::Session(service, catalog).serve(stream);
    std::istringstream replay(out.str());
    std::string line;
    while (std::getline(replay, line)) expected.push_back(line);
  }

  LoopbackWorker w0, w1, w2;
  ChaosProxy proxy("127.0.0.1", w2.port());
  RouterOptions options;
  options.workers.push_back(WorkerEndpoint{"shard0", "127.0.0.1", w0.port()});
  options.workers.push_back(WorkerEndpoint{"shard1", "127.0.0.1", w1.port()});
  options.workers.push_back(
      WorkerEndpoint{"shard2", "127.0.0.1", proxy.port()});
  options.retry_base_ms = 1;
  ClusterRouter router(std::move(options));

  // Kill the proxied shard as soon as the router has connected through the
  // proxy (plus a beat, so requests are genuinely in flight through it).
  std::atomic<bool> done{false};
  std::thread killer([&] {
    while (!done.load() && proxy.connections() == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    proxy.kill();
  });

  RouterSessionStats stats;
  const std::vector<std::string> responses = serve(router, lines, &stats);
  done.store(true);
  killer.join();

  bool ok = true;
  if (responses != expected) {
    std::cerr << "FAILOVER FAIL: routed output differs from the "
                 "single-process reference ("
              << responses.size() << " vs " << expected.size() << " lines)\n";
    for (std::size_t i = 0; i < responses.size() && i < expected.size();
         ++i) {
      if (responses[i] != expected[i]) {
        std::cerr << "  first diff at line " << i << ":\n    served:   "
                  << responses[i] << "\n    expected: " << expected[i] << "\n";
        break;
      }
    }
    ok = false;
  }
  if (stats.failovers != 1) {
    std::cerr << "FAILOVER FAIL: expected exactly 1 failover, observed "
              << stats.failovers << "\n";
    ok = false;
  }
  if (router.live_workers().size() != 2) {
    std::cerr << "FAILOVER FAIL: expected 2 survivors, have "
              << router.live_workers().size() << "\n";
    ok = false;
  }
  if (ok) {
    std::cerr << "failover OK: shard2 killed mid-serve, " << stats.retries
              << " retries rerouted its traffic, all " << kRequests
              << " replies byte-identical to the single-process reference\n";
  }
  return ok ? 0 : 1;
}

std::string cell_key(const Cell& cell) {
  return "cluster_throughput/" + cell.workload +
         "/shards=" + std::to_string(cell.shards);
}

bool write_json(const std::string& path, const std::vector<Cell>& cells,
                double one_shard_rps, double four_shard_rps, double ratio) {
  std::ofstream out(path, std::ios::trunc);
  if (!out.good()) {
    std::cerr << "bench_cluster_throughput: cannot write --json file '"
              << path << "'\n";
    return false;
  }
  out << "{\n";
  for (const Cell& cell : cells) {
    out << "  \"" << cell_key(cell) << "\": {"
        << "\"requests\": " << cell.requests << ", "
        << "\"seconds\": " << cell.seconds << ", "
        << "\"requests_per_sec\": " << cell.rps << "},\n";
  }
  out << "  \"cluster_speedup/miss_4_shards_vs_1\": {"
      << "\"one_shard_rps\": " << one_shard_rps << ", "
      << "\"four_shard_rps\": " << four_shard_rps << ", "
      << "\"ratio\": " << ratio << "}\n";
  out << "}\n";
  out.flush();
  if (!out.good()) {
    std::cerr << "bench_cluster_throughput: failed writing '" << path
              << "'\n";
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  double require_speedup = 0.0;   // 0 = gate off (single-core hosts)
  std::size_t hit_count = 512;    // timed hit requests per cell
  std::size_t miss_count = 64;    // timed miss requests per cell
  bool failover = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto number = [&](const char* flag) -> long {
      if (i + 1 >= argc) {
        std::cerr << "bench_cluster_throughput: " << flag
                  << " needs a value\n";
        std::exit(2);
      }
      char* end = nullptr;
      const long value = std::strtol(argv[++i], &end, 10);
      if (end == argv[i] || *end != '\0' || value < 1) {
        std::cerr << "bench_cluster_throughput: bad " << flag << " value '"
                  << argv[i] << "'\n";
        std::exit(2);
      }
      return value;
    };
    if (arg == "--json") {
      if (i + 1 >= argc) {
        std::cerr << "bench_cluster_throughput: --json needs a file path\n";
        return 2;
      }
      json_path = argv[++i];
    } else if (arg == "--require-speedup") {
      if (i + 1 >= argc) {
        std::cerr << "bench_cluster_throughput: --require-speedup needs a "
                     "minimum ratio\n";
        return 2;
      }
      char* end = nullptr;
      require_speedup = std::strtod(argv[i + 1], &end);
      if (end == argv[i + 1] || *end != '\0' || require_speedup <= 0.0) {
        std::cerr << "bench_cluster_throughput: bad --require-speedup value '"
                  << argv[i + 1] << "' (want a ratio > 0)\n";
        return 2;
      }
      ++i;
    } else if (arg == "--requests") {
      hit_count = static_cast<std::size_t>(number("--requests"));
    } else if (arg == "--miss-requests") {
      miss_count = static_cast<std::size_t>(number("--miss-requests"));
    } else if (arg == "--check-failover") {
      failover = true;
    } else {
      std::cerr << "bench_cluster_throughput: unknown option '" << arg
                << "'\n";
      return 2;
    }
  }

  if (failover) return check_failover();

  const std::vector<std::size_t> shard_counts = {1, 2, 4};
  constexpr std::size_t kDistinctHitKeys = 64;

  // Miss cells: fresh fleet, fresh seeds - all simulation, split across
  // the shards by the ring. Every miss also materializes its network on
  // the process-wide pool, beside the shard runners, so one round's
  // ratio moves with whatever else the host runs; the gate reads the
  // round with the median ratio of three.
  constexpr std::size_t kMissRounds = 3;
  const auto ratio_of = [](const std::vector<Cell>& round) {
    return round.front().rps > 0.0 ? round.back().rps / round.front().rps
                                   : 0.0;
  };
  std::vector<std::vector<Cell>> rounds(kMissRounds);
  for (std::size_t r = 0; r < kMissRounds; ++r) {
    for (const std::size_t shards : shard_counts) {
      rounds[r].push_back(
          run_cell("miss", shards, {}, miss_requests(miss_count, 20000)));
    }
    std::cerr << "miss round " << r + 1 << ": " << ratio_of(rounds[r])
              << "x\n";
  }
  std::sort(rounds.begin(), rounds.end(),
            [&](const std::vector<Cell>& a, const std::vector<Cell>& b) {
              return ratio_of(a) < ratio_of(b);
            });
  std::vector<Cell> cells = rounds[kMissRounds / 2];

  for (const std::size_t shards : shard_counts) {
    // Hit cell: warm the key set once (untimed misses), then replay -
    // all protocol + routing.
    cells.push_back(run_cell("hit", shards,
                             hit_requests(kDistinctHitKeys, kDistinctHitKeys),
                             hit_requests(hit_count, kDistinctHitKeys)));
  }

  for (const Cell& cell : cells) {
    std::cerr << cell_key(cell) << ": " << static_cast<long>(cell.rps)
              << " req/s (" << cell.requests << " requests in "
              << cell.seconds << " s)\n";
  }
  const double one_shard_rps = rounds[kMissRounds / 2].front().rps;
  const double four_shard_rps = rounds[kMissRounds / 2].back().rps;
  const double ratio = ratio_of(rounds[kMissRounds / 2]);
  std::cerr << "cluster_speedup/miss_4_shards_vs_1: " << ratio << "x ("
            << static_cast<long>(four_shard_rps) << " vs "
            << static_cast<long>(one_shard_rps)
            << " req/s; median of " << kMissRounds << " rounds)\n";

  if (!json_path.empty() &&
      !write_json(json_path, cells, one_shard_rps, four_shard_rps, ratio)) {
    return 1;
  }

  if (require_speedup > 0.0 && ratio < require_speedup) {
    std::cerr << "bench_cluster_throughput: miss_4_shards_vs_1 = " << ratio
              << "x is below the required " << require_speedup << "x floor\n";
    return 1;
  }
  return 0;
}
