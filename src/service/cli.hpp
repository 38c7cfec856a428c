// cli.hpp - the command lines of the three service programs
// (examples/simulation_{server,router,client}.cpp), unit testable as a
// library (tests/server_cli_test.cpp) instead of living in main().
//
// Each flag is parsed once, straight into the option struct its main()
// hands on - SocketTransportOptions, SessionOptions, RouterOptions - and
// those structs keep the defaults. The parsers share one argv walker, one
// integer grammar (parse_strict_u64 plus a range check), one
// --listen/--max-sessions handler and one HOST:PORT parser. They never
// throw: a bad flag, value or combination comes back in `error`.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "service/router.hpp"
#include "service/session.hpp"
#include "service/simulation_service.hpp"
#include "service/transport.hpp"

namespace edea::service {

/// Parsed server command line. `error` empty means the parse succeeded.
struct ServerConfig {
  bool help = false;    ///< --help: print usage, exit 0
  bool verify = false;  ///< --verify: stdio mode only, serial cross-check
  bool listen = false;  ///< --listen given: TCP socket mode
  std::string cache_file;         ///< --cache-file PATH ("" = none)
  SocketTransportOptions socket;  ///< --listen PORT, --max-sessions N
  /// --workers, --cache, --max-queue and --tile-parallelism.
  ServiceOptions service;
  /// --ordered clears allow_unordered, --busy-retry-ms sets busy_retry_ms,
  /// --verify sets record_traffic (the traffic its cross-check replays).
  SessionOptions session;

  std::string error;  ///< non-empty: bad usage, message says why
};

/// Parsed router command line. `error` empty means the parse succeeded.
struct RouterCliConfig {
  bool help = false;              ///< --help: print usage, exit 0
  bool listen = false;            ///< --listen given: TCP socket mode
  SocketTransportOptions socket;  ///< --listen PORT, --max-sessions N
  /// --worker HOST:PORT (repeatable; the string is the stable ring id),
  /// --replicas, --retry-attempts (max_attempts) and --ordered.
  RouterOptions router;
  /// --spawn N: fork N worker server processes instead (ring ids
  /// shard0..shardN-1; 0 = attach mode).
  int spawn = 0;
  /// --server-bin PATH: the worker binary --spawn launches ("" = the
  /// example_simulation_server next to the router binary).
  std::string server_bin;
  /// --cache-file BASE (spawn mode): worker i persists to BASE.shard<i>,
  /// and the router merges the shards into BASE after draining them.
  std::string cache_file;

  std::string error;  ///< non-empty: bad usage, message says why
};

/// Parsed client command line. `error` empty means the parse succeeded.
struct ClientConfig {
  bool help = false;  ///< --help: print usage, exit 0
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;  ///< --connect HOST:PORT
  bool connect_given = false;
  bool verify = false;           ///< --verify: byte-compare vs stdio reference
  bool expect_all_hits = false;  ///< --expect-all-hits: persisted replay
  /// --pipeline N: requests kept in flight (service/pipeline_client.hpp),
  /// in [1, kMaxFrameLines]; 0 = the legacy one-shot sender. Responses
  /// still print in request order, so --verify composes.
  std::size_t pipeline = 0;
  /// --ordered: with --pipeline, skip the `mode unordered` negotiation
  /// and pipeline over the byte-exact ordered reference protocol.
  bool ordered = false;

  std::string error;  ///< non-empty: bad usage, message says why
};

/// Parse argv (past argv[0]). Contradictory flags are errors too (say,
/// --max-sessions without --listen); under --help the router skips those
/// checks, and the client its --connect requirement.
[[nodiscard]] ServerConfig parse_server_args(int argc,
                                             const char* const* argv);
[[nodiscard]] RouterCliConfig parse_router_args(int argc,
                                                const char* const* argv);
[[nodiscard]] ClientConfig parse_client_args(int argc,
                                             const char* const* argv);

/// The full usage/help texts: every flag with its value shape and a
/// description - what each program prints for --help, and what the help
/// tests pin against the parsers in both directions.
[[nodiscard]] std::string server_usage();
[[nodiscard]] std::string router_usage();
[[nodiscard]] std::string client_usage();

}  // namespace edea::service
