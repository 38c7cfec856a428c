// client_cli.hpp - command line of the simulation client example, as a
// library component so the flag grammar and the --help text are unit
// testable (tests/server_cli_test.cpp asserts every documented flag
// appears in the help output) - the same treatment server_cli.hpp gives
// the server, applied to the client.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace edea::service {

/// Parsed client command line. `error` empty means the parse succeeded.
struct ClientConfig {
  bool help = false;             ///< --help: print usage, exit 0
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;        ///< --connect HOST:PORT
  bool connect_given = false;
  bool verify = false;           ///< --verify: byte-compare vs stdio reference
  bool expect_all_hits = false;  ///< --expect-all-hits: persisted replay
  /// --pipeline N: keep up to N requests in flight using batch frames and
  /// `mode unordered` streaming (service/pipeline_client.hpp); responses
  /// still print in request order, so --verify composes. Validated in
  /// [1, kMaxFrameLines] at parse time; 0 = the legacy one-shot sender.
  std::size_t pipeline = 0;
  /// --ordered: with --pipeline, skip the `mode unordered` negotiation
  /// and pipeline over the byte-exact ordered reference protocol.
  bool ordered = false;

  std::string error;  ///< non-empty: bad usage, message says why
};

/// Parses argv (past argv[0]). Never throws; any problem - unknown flag,
/// missing or malformed value (bad HOST:PORT, --expect-all-hits without
/// --verify, missing --connect) - comes back in `error`.
[[nodiscard]] ClientConfig parse_client_args(int argc,
                                             const char* const* argv);

/// The full usage/help text: every flag with its value shape and a
/// one-line description - the single source of truth the --help test pins
/// each documented option against.
[[nodiscard]] std::string client_usage();

}  // namespace edea::service
