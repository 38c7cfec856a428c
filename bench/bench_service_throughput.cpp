// bench_service_throughput - saturation benchmark for the pipelined wire
// protocol (service/protocol.hpp "Pipelining", service/pipeline_client.hpp).
//
// Spins up the real service stack in process - SocketTransport on an
// ephemeral loopback port, one Session per connection, a shared
// SimulationService - and drives it with multi-client load, sweeping
//
//   in-flight depth   x   session count   x   {cache-hit, cache-miss}
//
// where depth 1 is the one-line-per-RTT baseline (run_serial: write a
// request, wait for its reply, repeat) and deeper cells pipeline batch
// frames with run_pipelined. The cache-hit workload repeats one design
// point, so the server side is almost pure protocol + transport work -
// the regime where keeping the wire full matters most; the cache-miss
// workload is all fresh simulations, so throughput saturates at the
// worker pool and pipelining mostly hides the protocol overhead.
//
// Headline number: requests/sec pipelined vs serial on the single-session
// cache-hit workload. --require-speedup X turns a ratio below X into a
// nonzero exit (the CI gate demands >= 2x); --json PATH archives every
// cell plus the ratio as BENCH_service.json, the CI artifact that
// docs/BENCHMARKS.md tabulates.
//
// --check-overload runs the admission-control validation leg instead of
// the sweep: a bounded service (--max-queue semantics, max_queue=2) is
// flooded with more in-flight requests than it admits, and the leg
// asserts that busy replies were actually issued, that every request
// still completed after jittered backoff, that peak_queue never exceeded
// the bound, and that the drained reply set is byte-identical to the
// single-line stdio reference in ordered mode.
//
// Usage:
//   bench_service_throughput [--json PATH] [--require-speedup X]
//                            [--requests N] [--miss-requests N]
//   bench_service_throughput --check-overload
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "service/pipeline_client.hpp"
#include "service/session.hpp"
#include "service/simulation_service.hpp"
#include "service/transport.hpp"

namespace {

using edea::service::PipelineOptions;
using edea::service::PipelineReport;
using edea::service::SessionOptions;
using edea::service::SimulationService;
using edea::service::SocketTransport;
using edea::service::SocketTransportOptions;
using edea::service::WorkloadCatalog;

/// An in-process server: transport + accept thread + shared service.
/// Clients connect to 127.0.0.1:port() like any external process would -
/// the benchmark measures the full socket code path, not a shortcut.
class LoopbackServer {
 public:
  explicit LoopbackServer(edea::service::ServiceOptions service_options,
                          SessionOptions session_options = SessionOptions())
      : service_(service_options) {
    SocketTransportOptions transport_options;
    transport_options.port = 0;  // ephemeral: no CI port collisions
    transport_ = std::make_unique<SocketTransport>(transport_options);
    serve_thread_ = std::thread([this, session_options] {
      transport_->serve([this, session_options](edea::service::Stream& s) {
        edea::service::Session(service_, catalog_, session_options).serve(s);
      });
    });
  }

  ~LoopbackServer() {
    transport_->shutdown();
    serve_thread_.join();
  }

  [[nodiscard]] std::uint16_t port() const { return transport_->port(); }
  [[nodiscard]] SimulationService& service() { return service_; }

 private:
  SimulationService service_;
  WorkloadCatalog catalog_;
  std::unique_ptr<SocketTransport> transport_;
  std::thread serve_thread_;
};

std::vector<std::string> hit_requests(std::size_t n) {
  // One design point, n times: after the first miss everything is served
  // from cache, so the measured cost is protocol + transport.
  return std::vector<std::string>(n, "run edeanet-64 seed=1");
}

std::vector<std::string> miss_requests(std::size_t n, std::uint64_t base) {
  // Distinct seeds: every request is a fresh simulation.
  std::vector<std::string> lines;
  lines.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    lines.push_back("run edeanet-64 seed=" + std::to_string(base + i));
  }
  return lines;
}

struct Cell {
  std::string workload;  ///< "hit" or "miss"
  std::size_t sessions = 0;
  std::size_t depth = 0;  ///< 1 = serial one-line-per-RTT baseline
  std::size_t requests = 0;
  double seconds = 0.0;
  double rps = 0.0;
};

/// Runs one sweep cell: `sessions` concurrent clients, each replaying its
/// own request list with the given in-flight depth. Returns requests/sec;
/// exits the process on any incomplete replay (a broken benchmark must
/// not report a number).
Cell run_cell(const std::string& workload, std::uint16_t port,
              const std::vector<std::vector<std::string>>& per_session,
              std::size_t depth) {
  std::vector<std::thread> clients;
  std::vector<PipelineReport> reports(per_session.size());

  const auto start = std::chrono::steady_clock::now();
  for (std::size_t s = 0; s < per_session.size(); ++s) {
    clients.emplace_back([&, s] {
      std::unique_ptr<edea::service::Stream> stream =
          edea::service::connect_socket("127.0.0.1", port, /*retry_ms=*/5000);
      PipelineOptions options;
      options.window = depth > 1 ? depth : 1;
      options.backoff_seed = 0xB0FF + s;  // decorrelate client backoff
      reports[s] = depth > 1
                       ? edea::service::run_pipelined(*stream, per_session[s],
                                                      options)
                       : edea::service::run_serial(*stream, per_session[s],
                                                   options);
    });
  }
  for (std::thread& t : clients) t.join();
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;

  Cell cell;
  cell.workload = workload;
  cell.sessions = per_session.size();
  cell.depth = depth;
  for (std::size_t s = 0; s < per_session.size(); ++s) {
    if (!reports[s].complete) {
      std::cerr << "bench_service_throughput: session " << s
                << " did not complete: " << reports[s].error << "\n";
      std::exit(1);
    }
    for (const std::string& response : reports[s].responses) {
      if (!response.empty() && response.rfind("ok ", 0) != 0) {
        std::cerr << "bench_service_throughput: unexpected response '"
                  << response << "'\n";
        std::exit(1);
      }
    }
    cell.requests += per_session[s].size();
  }
  cell.seconds = elapsed.count();
  cell.rps = cell.seconds > 0.0
                 ? static_cast<double>(cell.requests) / cell.seconds
                 : 0.0;
  return cell;
}

/// The single-line stdio reference: the same request lines through the
/// same Session code path over string streams against a fresh unbounded
/// service - what the overload leg's drained reply set must match.
std::vector<std::string> stdio_reference(
    const std::vector<std::string>& requests) {
  std::ostringstream joined;
  for (const std::string& line : requests) joined << line << "\n";
  std::istringstream in(joined.str());
  std::ostringstream out;
  SimulationService service;
  WorkloadCatalog catalog;
  edea::service::StdioStream stream(in, out);
  (void)edea::service::Session(service, catalog).serve(stream);
  std::vector<std::string> lines;
  std::istringstream replay(out.str());
  std::string line;
  while (std::getline(replay, line)) lines.push_back(line);
  return lines;
}

/// The --check-overload leg. Returns the process exit code.
int check_overload() {
  constexpr std::size_t kMaxQueue = 2;
  constexpr std::size_t kWindow = 16;
  constexpr std::size_t kRequests = 48;

  edea::service::ServiceOptions service_options;
  service_options.max_queue = kMaxQueue;
  service_options.worker_threads = 2;
  SessionOptions session_options;
  session_options.busy_retry_ms = 1;
  LoopbackServer server(service_options, session_options);

  // Every request simulates a network of its own, which the session
  // materializes before admission. batch=8 keeps each simulation well
  // above that materialization, so the window keeps more fresh work in
  // flight than the bound admits.
  std::vector<std::string> requests = miss_requests(kRequests, 9000);
  for (std::string& line : requests) line += " batch=8";
  std::unique_ptr<edea::service::Stream> stream =
      edea::service::connect_socket("127.0.0.1", server.port(),
                                    /*retry_ms=*/5000);
  PipelineOptions options;
  options.window = kWindow;
  options.ordered = true;  // the byte-exact reference mode
  const PipelineReport report =
      edea::service::run_pipelined(*stream, requests, options);

  bool ok = true;
  if (!report.complete) {
    std::cerr << "OVERLOAD FAIL: replay incomplete: " << report.error << "\n";
    ok = false;
  }
  if (report.busy_replies == 0) {
    std::cerr << "OVERLOAD FAIL: " << kWindow << " in flight against "
              << "max_queue=" << kMaxQueue
              << " never drew a busy reply - admission control did not "
                 "engage\n";
    ok = false;
  }
  const edea::service::CacheStats stats = server.service().cache_stats();
  if (stats.peak_queue > kMaxQueue) {
    std::cerr << "OVERLOAD FAIL: peak_queue=" << stats.peak_queue
              << " exceeded max_queue=" << kMaxQueue << "\n";
    ok = false;
  }
  if (stats.rejected != report.busy_replies) {
    std::cerr << "OVERLOAD FAIL: service counted " << stats.rejected
              << " rejections but the client saw " << report.busy_replies
              << " busy replies\n";
    ok = false;
  }

  const std::vector<std::string> expected = stdio_reference(requests);
  if (report.responses.size() != expected.size()) {
    std::cerr << "OVERLOAD FAIL: " << report.responses.size()
              << " responses, stdio reference has " << expected.size() << "\n";
    ok = false;
  } else {
    for (std::size_t i = 0; i < expected.size(); ++i) {
      if (report.responses[i] != expected[i]) {
        std::cerr << "OVERLOAD FAIL: response " << i
                  << " differs from the stdio reference\n  served:   "
                  << report.responses[i] << "\n  expected: " << expected[i]
                  << "\n";
        ok = false;
      }
    }
  }

  if (ok) {
    std::cerr << "overload OK: " << report.busy_replies
              << " busy replies absorbed by backoff, all " << kRequests
              << " requests completed, peak_queue=" << stats.peak_queue
              << " <= max_queue=" << kMaxQueue
              << ", drained replies byte-identical to the stdio reference\n";
  }
  return ok ? 0 : 1;
}

std::string cell_key(const Cell& cell) {
  return "service_throughput/" + cell.workload +
         "/sessions=" + std::to_string(cell.sessions) +
         (cell.depth > 1 ? "/depth=" + std::to_string(cell.depth)
                         : "/depth=serial");
}

bool write_json(const std::string& path, const std::vector<Cell>& cells,
                double serial_rps, double pipelined_rps, double ratio) {
  std::ofstream out(path, std::ios::trunc);
  if (!out.good()) {
    std::cerr << "bench_service_throughput: cannot write --json file '"
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
  out << "  \"service_speedup/pipelined_vs_serial_hit\": {"
      << "\"serial_rps\": " << serial_rps << ", "
      << "\"pipelined_rps\": " << pipelined_rps << ", "
      << "\"ratio\": " << ratio << "}\n";
  out << "}\n";
  out.flush();
  if (!out.good()) {
    std::cerr << "bench_service_throughput: failed writing '" << path
              << "'\n";
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  double require_speedup = 0.0;  // 0 = gate off
  std::size_t hit_count = 1024;  // per session
  std::size_t miss_count = 24;   // per session
  bool overload = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto number = [&](const char* flag) -> long {
      if (i + 1 >= argc) {
        std::cerr << "bench_service_throughput: " << flag
                  << " needs a value\n";
        std::exit(2);
      }
      char* end = nullptr;
      const long value = std::strtol(argv[++i], &end, 10);
      if (end == argv[i] || *end != '\0' || value < 1) {
        std::cerr << "bench_service_throughput: bad " << flag << " value '"
                  << argv[i] << "'\n";
        std::exit(2);
      }
      return value;
    };
    if (arg == "--json") {
      if (i + 1 >= argc) {
        std::cerr << "bench_service_throughput: --json needs a file path\n";
        return 2;
      }
      json_path = argv[++i];
    } else if (arg == "--require-speedup") {
      if (i + 1 >= argc) {
        std::cerr << "bench_service_throughput: --require-speedup needs a "
                     "minimum ratio\n";
        return 2;
      }
      char* end = nullptr;
      require_speedup = std::strtod(argv[i + 1], &end);
      if (end == argv[i + 1] || *end != '\0' || require_speedup <= 0.0) {
        std::cerr << "bench_service_throughput: bad --require-speedup value '"
                  << argv[i + 1] << "' (want a ratio > 0)\n";
        return 2;
      }
      ++i;
    } else if (arg == "--requests") {
      hit_count = static_cast<std::size_t>(number("--requests"));
    } else if (arg == "--miss-requests") {
      miss_count = static_cast<std::size_t>(number("--miss-requests"));
    } else if (arg == "--check-overload") {
      overload = true;
    } else {
      std::cerr << "bench_service_throughput: unknown option '" << arg
                << "'\n";
      return 2;
    }
  }

  if (overload) return check_overload();

  const std::vector<std::size_t> depths = {1, 8, 32};
  const std::vector<std::size_t> session_counts = {1, 4};
  std::vector<Cell> cells;

  // --- cache-hit sweep: one shared warm service -------------------------
  {
    LoopbackServer server((edea::service::ServiceOptions()));
    // Warm the single design point so every timed cell is pure hits.
    {
      std::unique_ptr<edea::service::Stream> stream =
          edea::service::connect_socket("127.0.0.1", server.port(),
                                        /*retry_ms=*/5000);
      const PipelineReport warm =
          edea::service::run_serial(*stream, hit_requests(1), {});
      if (!warm.complete) {
        std::cerr << "bench_service_throughput: warmup failed: " << warm.error
                  << "\n";
        return 1;
      }
    }
    for (const std::size_t sessions : session_counts) {
      for (const std::size_t depth : depths) {
        const std::vector<std::vector<std::string>> per_session(
            sessions, hit_requests(hit_count));
        cells.push_back(
            run_cell("hit", server.port(), per_session, depth));
      }
    }
  }

  // --- cache-miss sweep: fresh seeds per cell ---------------------------
  {
    LoopbackServer server((edea::service::ServiceOptions()));
    std::uint64_t seed_base = 100000;
    for (const std::size_t sessions : session_counts) {
      for (const std::size_t depth : depths) {
        std::vector<std::vector<std::string>> per_session;
        for (std::size_t s = 0; s < sessions; ++s) {
          per_session.push_back(miss_requests(miss_count, seed_base));
          seed_base += 1000;
        }
        cells.push_back(
            run_cell("miss", server.port(), per_session, depth));
      }
    }
  }

  double serial_rps = 0.0;
  double pipelined_rps = 0.0;
  for (const Cell& cell : cells) {
    std::cerr << cell_key(cell) << ": " << static_cast<long>(cell.rps)
              << " req/s (" << cell.requests << " requests in "
              << cell.seconds << " s)\n";
    if (cell.workload == "hit" && cell.sessions == 1) {
      if (cell.depth == 1) serial_rps = cell.rps;
      if (cell.depth == depths.back()) pipelined_rps = cell.rps;
    }
  }
  const double ratio = serial_rps > 0.0 ? pipelined_rps / serial_rps : 0.0;
  std::cerr << "service_speedup/pipelined_vs_serial_hit: " << ratio
            << "x (" << static_cast<long>(pipelined_rps) << " vs "
            << static_cast<long>(serial_rps) << " req/s)\n";

  if (!json_path.empty() &&
      !write_json(json_path, cells, serial_rps, pipelined_rps, ratio)) {
    return 1;
  }

  if (require_speedup > 0.0 && ratio < require_speedup) {
    std::cerr << "bench_service_throughput: pipelined_vs_serial_hit = "
              << ratio << "x is below the required " << require_speedup
              << "x floor\n";
    return 1;
  }
  return 0;
}
