// harness.hpp - the serving stack under test and the closed-loop client
// that drives it.
//
// Stack builds the real serving tier in process over loopback TCP:
// SocketTransport -> Session -> SimulationService per server, and for a
// sharded shape a ClusterRouter behind its own SocketTransport in front of
// the shards. While a traced pass runs, the transport handlers wrap every
// session Stream in a TracedServerStream.
//
// The client replays a workload's stream through service::run_pipelined
// (unordered mode, batch frames) over ClientStream, one connection per
// chunk, and checks every reply as it comes back.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "service/hash_ring.hpp"
#include "service/protocol.hpp"
#include "service/router.hpp"
#include "service/session.hpp"
#include "service/simulation_service.hpp"
#include "service/transport.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

/// One simulation server: SocketTransport -> Session -> SimulationService.
class Server {
 public:
  Server(unsigned pool_threads, std::size_t cache_capacity, int shard,
         std::uint64_t trace_stride);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  [[nodiscard]] std::uint16_t port() const { return transport_->port(); }
  [[nodiscard]] edea::service::SimulationService& service() {
    return *service_;
  }
  [[nodiscard]] edea::service::WorkloadCatalog& catalog() { return catalog_; }

 private:
  int shard_;
  std::uint64_t trace_stride_;
  std::unique_ptr<edea::service::SimulationService> service_;
  edea::service::WorkloadCatalog catalog_;
  std::unique_ptr<edea::service::SocketTransport> transport_;
  std::thread serve_thread_;
};

/// A ClusterRouter behind its own SocketTransport.
class RouterServer {
 public:
  RouterServer(edea::service::RouterOptions options,
               std::uint64_t trace_stride);
  ~RouterServer();

  RouterServer(const RouterServer&) = delete;
  RouterServer& operator=(const RouterServer&) = delete;

  [[nodiscard]] std::uint16_t port() const { return transport_->port(); }
  /// RouterSessionStats::retries summed over finished client sessions.
  [[nodiscard]] std::uint64_t retries();

 private:
  std::uint64_t trace_stride_;
  edea::service::ClusterRouter router_;
  std::mutex mutex_;
  std::uint64_t retries_ = 0;
  std::unique_ptr<edea::service::SocketTransport> transport_;
  std::thread serve_thread_;
};

/// The serving stack of one workload.
class Stack {
 public:
  explicit Stack(const LoadShape& shape);

  /// The port clients connect to.
  [[nodiscard]] std::uint16_t port() const;
  /// Every simulation server, shards in ring-id order.
  [[nodiscard]] std::vector<Server*> servers();
  /// Index of the server that simulates `line` (the ring owner when
  /// routed, else 0).
  [[nodiscard]] std::size_t owner(const std::string& line) const;
  /// Cache counters summed over the servers.
  [[nodiscard]] edea::service::CacheStats cache_totals() const;
  /// Per-server submissions (hits + misses).
  [[nodiscard]] std::vector<std::uint64_t> submissions() const;
  [[nodiscard]] std::uint64_t router_retries() const;
  [[nodiscard]] unsigned pool_threads() const;

 private:
  LoadShape shape_;
  std::vector<std::unique_ptr<Server>> servers_;
  std::unique_ptr<edea::service::HashRing> ring_;
  std::unique_ptr<RouterServer> router_;
};

/// The job a session submits for `request` on a resolved workload.
edea::core::SweepJob job_for(
    const edea::service::Request& request,
    const edea::service::WorkloadCatalog::Workload& workload);

/// Replaces the cache= field so replies compare regardless of hit/miss.
std::string without_cache_field(const std::string& reply);

/// One (point, served reply) pair kept for the checks after a phase.
struct Served {
  Point point;
  std::string reply;
};

/// What one phase did.
struct PhaseResult {
  std::uint64_t sent = 0;
  std::uint64_t succeeded = 0;
  std::uint64_t failed = 0;
  double wall_s = 0.0;
  std::vector<std::string> failures;  ///< the first few, for the report
  /// Every fresh (non-hot) point served, in stream order. Only the
  /// single-connection workloads have fresh points, at most a few
  /// thousand per phase.
  std::vector<Served> fresh;
};

/// The closed-loop client of one workload against one stack.
class Client {
 public:
  Client(Workload& workload, Stack& stack, std::uint64_t seed)
      : workload_(workload), stack_(stack), seed_(seed) {}

  /// Sends `points` over one connection with the workload's window and
  /// checks each reply against `expected[i]` (see check_reply; a missing
  /// or null entry checks the reply's shape only). `replies`, when given,
  /// receives every reply in order.
  PhaseResult send(std::vector<Point> points, LatencySink& sink,
                   Recorder* recorder,
                   const std::vector<const std::string*>& expected = {},
                   std::vector<std::string>* replies = nullptr);

  /// The timed phase: every connection replays its stream chunk by chunk
  /// until `seconds` have passed. Hot-set replies must equal
  /// `hot_replies` up to the cache= field.
  PhaseResult run(double seconds, LatencySink& sink, Recorder* recorder,
                  const std::vector<std::string>& hot_replies);

 private:
  Workload& workload_;
  Stack& stack_;
  std::uint64_t seed_;
};

/// One pass of a workload: set-up (server start, catalog pre-warm, hot-set
/// warm-up), the timed phase, then more set-ups. With `min_setups` > 1 the
/// set-up runs at least that often, half before and half after the timed
/// phase (the last one before it serves the phase); 1 = once, before.
struct Pass {
  /// The timed phase's stack; with `min_setups` > 1 it is shut down
  /// before the later set-ups, so only a single-set-up pass keeps it.
  std::unique_ptr<Stack> stack;
  std::vector<double> setup_s;
  PhaseResult warm;
  std::vector<std::string> hot_replies;  ///< warm-up replies by hot index
  PhaseResult timed;
  std::unique_ptr<LatencySink> sink;  ///< the timed phase's latencies
  std::int64_t timed_start = 0;
  std::int64_t timed_end = 0;
  edea::service::CacheStats before;  ///< summed over servers
  edea::service::CacheStats after;
  std::vector<std::uint64_t> submissions_before;  ///< per server
  std::vector<std::uint64_t> submissions_after;
  std::uint64_t retries = 0;  ///< router re-sends during the timed phase
  double rss_mb = 0.0;        ///< peak RSS at the end of the timed phase

  [[nodiscard]] double req_per_s() const {
    return timed.wall_s > 0.0 ? static_cast<double>(timed.succeeded) /
                                    timed.wall_s
                              : 0.0;
  }
};

Pass run_pass(Workload& workload, double seconds, int min_setups,
              Recorder* recorder, std::uint64_t seed);

/// Checks the reply to request `line`. `expected` is the reply the line
/// must produce up to the cache= field, or null when only its shape is
/// known (an `ok` reply for the line's job). Returns an empty string when
/// the reply is right.
std::string check_reply(const std::string& line, const std::string& reply,
                        const std::string* expected);

/// Pointers to every element of `replies`, for Client::send's `expected`.
std::vector<const std::string*> addresses(
    const std::vector<std::string>& replies);

/// Recomputes every served point serially (core::evaluate_job, then
/// format_outcome_line) on `threads` threads and compares byte for byte,
/// ignoring cache=. Returns the mismatches.
std::vector<std::string> recompute(const std::vector<Served>& served,
                                   unsigned threads);

/// FNV-1a digest of the simulated fields (cycles=, ops=, out=, layers=)
/// of every reply, in order.
std::uint64_t simulated_digest(const std::vector<std::string>& replies);

/// Peak resident set of this process in MiB.
double peak_rss_mb();

}  // namespace perfbench
