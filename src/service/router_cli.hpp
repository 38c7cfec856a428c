// router_cli.hpp - command line of the simulation router example, as a
// library component so the flag grammar and --help text are unit testable
// (tests/server_cli_test.cpp carries the battery) instead of living
// untestably in main().
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "service/hash_ring.hpp"
#include "service/router.hpp"

namespace edea::service {

/// Parsed router command line. `error` empty means the parse succeeded.
struct RouterCliConfig {
  bool help = false;    ///< --help: print usage, exit 0
  bool listen = false;  ///< --listen given: TCP socket mode
  std::uint16_t port = 0;        ///< --listen PORT (0 = ephemeral)
  std::size_t max_sessions = 0;  ///< --max-sessions N (0 = unlimited)

  /// --worker HOST:PORT, repeatable: attach to running servers. The given
  /// string doubles as the stable ring id.
  std::vector<WorkerEndpoint> workers;
  /// --spawn N: fork N worker server processes instead (ring ids
  /// shard0..shardN-1; 0 = attach mode).
  int spawn = 0;
  /// --server-bin PATH: the worker binary --spawn launches ("" = the
  /// example_simulation_server next to the router binary).
  std::string server_bin;
  /// --cache-file BASE (spawn mode): worker i persists to BASE.shard<i>,
  /// and the router merges the shards into BASE after draining them.
  std::string cache_file;

  int replicas = HashRing::kDefaultReplicas;  ///< --replicas N
  int max_attempts = 5;                       ///< --retry-attempts N
  bool ordered = false;  ///< --ordered: refuse `mode unordered`

  std::string error;  ///< non-empty: bad usage, message says why
};

/// Parses argv (past argv[0]). Never throws; any problem - unknown flag,
/// malformed host:port, contradictory flags (--spawn with --worker,
/// --cache-file without --spawn) - comes back in `error`.
[[nodiscard]] RouterCliConfig parse_router_args(int argc,
                                                const char* const* argv);

/// The full usage/help text; the single source of truth the --help
/// satellite test pins each documented option against.
[[nodiscard]] std::string router_usage();

}  // namespace edea::service
