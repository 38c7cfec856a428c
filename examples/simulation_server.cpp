// simulation_server - the simulation service composed from its three
// layers (see docs/ARCHITECTURE.md "Service layering"):
//
//   transport  a StdioStream over stdin/stdout (default) or a
//              SocketTransport (--listen): where request lines come from
//              and response lines go to
//   session    Session + WorkloadCatalog: framing, request ids, ordered
//              write-back, error replies - one session per connection
//   dispatch   SimulationService: concurrent simulation, memoizing LRU
//              cache, optional persistence (--cache-file) so repeated
//              design points survive restarts
//
// Stdio mode serves one session over stdin/stdout; --listen PORT serves
// concurrent TCP sessions on 127.0.0.1:PORT (one thread per connection,
// all sharing one service and one catalog). Responses over TCP are
// bit-identical to the stdio driver for the same request stream - the CI
// loopback leg and examples/simulation_client.cpp enforce exactly that.
//
// Run `simulation_server --help` for every flag; see service/cli.hpp for
// the parsed grammar.
#include <csignal>
#include <cstdint>
#include <iostream>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/sweep_runner.hpp"
#include "service/cli.hpp"
#include "service/protocol.hpp"
#include "service/session.hpp"
#include "service/simulation_service.hpp"
#include "service/transport.hpp"

namespace {

using edea::core::SweepJob;
using edea::core::SweepOutcome;

bool outcome_identical(const SweepOutcome& served, const SweepOutcome& serial) {
  if (served.ok != serial.ok || served.error != serial.error) return false;
  if (!served.ok) return true;
  if (served.summary_only) {
    // Cache-served outcomes (warm hits, coalesced duplicates, persisted
    // replays) carry no per-layer result; the summary - which includes
    // the output hash and total cycles - is the protocol-visible
    // contract and must match the serial run exactly. Each distinct
    // workload still gets the full per-layer comparison once, at the
    // miss that simulated it.
    return served.summary == serial.summary;
  }
  return served.result.total_cycles() == serial.result.total_cycles() &&
         served.result.output.storage() == serial.result.output.storage() &&
         served.summary == serial.summary;
}

/// The --verify gate: serial bit-identity plus exact cache accounting.
/// Returns true when everything checks out.
bool verify_session(const edea::service::SessionStats& stats,
                    const edea::service::CacheStats& cache,
                    std::size_t cache_capacity) {
  bool all_ok = true;

  // Every scripted request must have resolved to a real simulation - if a
  // zoo network is renamed (or the script has a typo), serving 0 requests
  // must fail the gate, not silently pass it.
  if (stats.jobs.size() != stats.runs || stats.jobs.empty()) {
    std::cerr << "VERIFY FAIL: only " << stats.jobs.size() << " of "
              << stats.runs << " run requests resolved to servable networks\n";
    all_ok = false;
  }

  const std::vector<SweepOutcome> serial =
      edea::core::SweepRunner(edea::core::SweepRunner::Options{1})
          .run(stats.jobs);
  for (std::size_t i = 0; i < stats.jobs.size(); ++i) {
    if (!outcome_identical(stats.outcomes[i], serial[i])) {
      std::cerr << "VERIFY FAIL: request " << i << " ("
                << stats.outcomes[i].name
                << ") differs from the serial SweepRunner reference\n";
      all_ok = false;
    }
  }

  // Structural cache accounting: within one session, the first occurrence
  // of each cache key either simulates (a miss) or lands in the preloaded
  // persisted cache (a hit); every repeat is a hit.
  // This prediction only holds when nothing gets evicted, i.e. the
  // capacity covers every distinct key; with a smaller --cache, eviction
  // timing decides which repeats re-simulate, so only bit-identity is
  // checked.
  using Key = edea::service::SimulationService::Key;
  std::unordered_map<Key, int, edea::service::SimulationService::KeyHash> seen;
  std::uint64_t expect_misses = 0;
  for (std::size_t i = 0; i < stats.jobs.size(); ++i) {
    const SweepJob& job = stats.jobs[i];
    // The outcome echoes the job's key.
    const Key key{edea::core::network_fingerprint(*job.layers, *job.input),
                  stats.outcomes[i]};
    if (seen[key]++ == 0 && !stats.outcomes[i].summary_only) ++expect_misses;
  }
  if (cache_capacity >= seen.size()) {
    const std::uint64_t expect_hits = stats.jobs.size() - expect_misses;
    if (cache.misses != expect_misses || cache.hits != expect_hits) {
      std::cerr << "VERIFY FAIL: cache stats hits=" << cache.hits
                << " misses=" << cache.misses << ", expected hits="
                << expect_hits << " misses=" << expect_misses << "\n";
      all_ok = false;
    }
    std::uint64_t flagged_hits = 0;
    for (const SweepOutcome& o : stats.outcomes) {
      flagged_hits += o.cache_hit ? 1 : 0;
    }
    if (flagged_hits != expect_hits) {
      std::cerr << "VERIFY FAIL: " << flagged_hits
                << " outcomes flagged cache=hit, expected " << expect_hits
                << "\n";
      all_ok = false;
    }
    // Summary-only delivery is exclusively a cache phenomenon (warm
    // hits, coalesced duplicates, persisted replays) - a summary-only
    // outcome not flagged as a hit means a fresh simulation lost its
    // per-layer result somewhere.
    for (const SweepOutcome& o : stats.outcomes) {
      if (o.summary_only && !o.cache_hit) {
        std::cerr << "VERIFY FAIL: " << o.name
                  << " served summary-only but not flagged cache=hit\n";
        all_ok = false;
      }
    }
  }

  std::cerr << (all_ok ? "verify OK: all outcomes bit-identical to serial, "
                         "cache accounting exact\n"
                       : "verify FAILED\n");
  return all_ok;
}

/// SIGINT/SIGTERM stop accepting so serve() returns and the cache is
/// flushed - ::shutdown(2) is async-signal-safe, so this is the whole
/// handler. Set only while socket mode is serving.
edea::service::SocketTransport* g_transport = nullptr;

extern "C" void handle_stop_signal(int) {
  if (g_transport != nullptr) g_transport->shutdown();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace edea;

  const service::ServerConfig config =
      service::parse_server_args(argc - 1, argv + 1);
  if (!config.error.empty()) {
    std::cerr << "simulation_server: " << config.error << "\n\n"
              << service::server_usage();
    return 2;
  }
  if (config.help) {
    std::cout << service::server_usage();
    return 0;
  }

  service::SimulationService svc(config.service);
  if (!config.cache_file.empty()) {
    try {
      const std::size_t loaded = svc.load_cache(config.cache_file);
      std::cerr << "cache: loaded " << loaded << " persisted entries from "
                << config.cache_file << "\n";
    } catch (const std::exception& e) {
      std::cerr << "simulation_server: refusing corrupt cache file: "
                << e.what() << "\n";
      return 2;
    }
  }
  service::WorkloadCatalog catalog;
  int exit_code = 0;

  if (config.listen) {
    // --- socket mode: concurrent sessions over loopback TCP --------------
    service::SocketTransport transport(config.socket);
    std::cerr << "listening on 127.0.0.1:" << transport.port()
              << (config.socket.max_sessions != 0
                      ? " for " + std::to_string(config.socket.max_sessions) +
                            " session(s)\n"
                      : "\n");
    g_transport = &transport;
    std::signal(SIGINT, handle_stop_signal);
    std::signal(SIGTERM, handle_stop_signal);
    transport.serve([&](service::Stream& stream) {
      service::Session(svc, catalog, config.session).serve(stream);
    });
    std::signal(SIGINT, SIG_DFL);
    std::signal(SIGTERM, SIG_DFL);
    g_transport = nullptr;
  } else {
    // --- stdio mode: one session over stdin/stdout ------------------------
    service::StdioStream stream(std::cin, std::cout);
    service::Session session(svc, catalog, config.session);
    const service::SessionStats stats = session.serve(stream);

    const service::CacheStats cache = svc.cache_stats();
    // `runs` counts every run line; `jobs` is filled only under --verify.
    std::cerr << "served " << stats.runs << " requests (" << cache.hits
              << " cache hits, " << cache.misses << " misses, "
              << cache.evictions << " evictions)\n";

    if (stats.protocol_errors != 0) exit_code = 1;
    if (config.verify &&
        !verify_session(stats, cache, config.service.cache_capacity)) {
      exit_code = 1;
    }
  }

  if (!config.cache_file.empty()) {
    try {
      const std::size_t saved = svc.save_cache(config.cache_file);
      std::cerr << "cache: saved " << saved << " entries to "
                << config.cache_file << "\n";
    } catch (const std::exception& e) {
      std::cerr << "simulation_server: failed to save cache: " << e.what()
                << "\n";
      return 1;
    }
  }
  return exit_code;
}
