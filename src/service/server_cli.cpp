#include "service/server_cli.hpp"

#include <limits>

#include "service/protocol.hpp"

namespace edea::service {

bool parse_flag_count(const std::string& text, std::uint64_t min,
                      std::uint64_t max, std::uint64_t* out) {
  std::uint64_t value = 0;
  if (!parse_strict_u64(text, &value) || value < min || value > max) {
    return false;
  }
  *out = value;
  return true;
}

std::string server_usage() {
  return
      "usage: simulation_server [options] < requests.txt   (stdio mode)\n"
      "       simulation_server --listen PORT [options]    (TCP socket mode)\n"
      "\n"
      "Serves the EDEA simulation line protocol (run <network> [key=value\n"
      "...] | stats) over stdin/stdout or a loopback TCP socket, one\n"
      "session per connection, with a memoizing result cache.\n"
      "\n"
      "options:\n"
      "  --help                 print this help and exit\n"
      "  --listen PORT          serve TCP on 127.0.0.1:PORT instead of\n"
      "                         stdio (0 = ephemeral; the bound port is\n"
      "                         printed to stderr)\n"
      "  --max-sessions N       socket mode: exit after serving N\n"
      "                         connections (0 = unlimited; default 0)\n"
      "  --cache-file PATH      load the persisted result cache from PATH\n"
      "                         at startup (if it exists) and save it back\n"
      "                         on shutdown, so repeated design points\n"
      "                         survive restarts\n"
      "  --workers N            service worker threads (0 = shared pool;\n"
      "                         default 0)\n"
      "  --max-queue N          admit at most N in-flight fresh\n"
      "                         simulations; beyond that a run request\n"
      "                         answers `busy id=<n> retry_ms=<m>` instead\n"
      "                         of queueing (0 = unbounded; default 0).\n"
      "                         Cache hits and coalesced duplicates are\n"
      "                         always admitted\n"
      "  --busy-retry-ms N      the retry hint busy replies advertise\n"
      "                         (>= 1; default 25; needs --max-queue)\n"
      "  --ordered              refuse `mode unordered` switches: every\n"
      "                         session keeps the byte-exact ordered reply\n"
      "                         protocol (the verified reference mode)\n"
      "  --cache N              result-cache capacity in completed entries\n"
      "                         (0 disables memoization; default 256)\n"
      "  --tile-parallelism N   split each layer's buffer tiles over N\n"
      "                         shared-pool workers inside every request\n"
      "                         (>= 1; results are bit-identical at every\n"
      "                         width; default 1)\n"
      "  --verify               stdio mode only: recompute every request\n"
      "                         on a strictly serial SweepRunner and exit\n"
      "                         nonzero on any outcome or cache-accounting\n"
      "                         deviation (the CI gate)\n";
}

ServerConfig parse_server_args(int argc, const char* const* argv) {
  constexpr std::uint64_t kMaxSize = std::numeric_limits<std::size_t>::max();
  ServerConfig config;
  bool max_sessions_given = false;
  bool busy_retry_given = false;

  const auto value_of = [&](int& i, const std::string& flag,
                            std::string* out) {
    if (i + 1 >= argc) {
      config.error = flag + " needs a value";
      return false;
    }
    *out = argv[++i];
    return true;
  };

  for (int i = 0; i < argc && config.error.empty(); ++i) {
    const std::string arg = argv[i];
    std::string value;
    std::uint64_t count = 0;
    if (arg == "--help") {
      config.help = true;
    } else if (arg == "--verify") {
      config.verify = true;
    } else if (arg == "--listen") {
      if (!value_of(i, arg, &value)) break;
      if (!parse_flag_count(value, 0, 65535, &count)) {
        config.error = "--listen needs a port in [0, 65535], got '" + value +
                       "'";
        break;
      }
      config.listen = true;
      config.port = static_cast<std::uint16_t>(count);
    } else if (arg == "--max-sessions") {
      if (!value_of(i, arg, &value)) break;
      if (!parse_flag_count(value, 0, kMaxSize, &count)) {
        config.error = "--max-sessions needs a non-negative count, got '" +
                       value + "'";
        break;
      }
      config.max_sessions = static_cast<std::size_t>(count);
      max_sessions_given = true;
    } else if (arg == "--cache-file") {
      if (!value_of(i, arg, &value)) break;
      if (value.empty()) {
        config.error = "--cache-file needs a non-empty path";
        break;
      }
      config.cache_file = value;
    } else if (arg == "--workers") {
      if (!value_of(i, arg, &value)) break;
      if (!parse_flag_count(value, 0, std::numeric_limits<unsigned>::max(),
                            &count)) {
        config.error = "--workers needs a non-negative count, got '" + value +
                       "'";
        break;
      }
      config.service.worker_threads = static_cast<unsigned>(count);
    } else if (arg == "--cache") {
      if (!value_of(i, arg, &value)) break;
      if (!parse_flag_count(value, 0, kMaxSize, &count)) {
        config.error = "--cache needs a non-negative capacity, got '" + value +
                       "'";
        break;
      }
      config.service.cache_capacity = static_cast<std::size_t>(count);
    } else if (arg == "--max-queue") {
      if (!value_of(i, arg, &value)) break;
      if (!parse_flag_count(value, 0, kMaxSize, &count)) {
        config.error = "--max-queue needs a non-negative count, got '" +
                       value + "'";
        break;
      }
      config.service.max_queue = static_cast<std::size_t>(count);
    } else if (arg == "--busy-retry-ms") {
      if (!value_of(i, arg, &value)) break;
      if (!parse_strict_count(value, &config.busy_retry_ms)) {
        config.error =
            "--busy-retry-ms needs a positive count, got '" + value + "'";
        break;
      }
      busy_retry_given = true;
    } else if (arg == "--ordered") {
      config.ordered = true;
    } else if (arg == "--tile-parallelism") {
      if (!value_of(i, arg, &value)) break;
      if (!parse_strict_count(value, &config.service.tile_parallelism)) {
        config.error =
            "--tile-parallelism needs a positive width, got '" + value + "'";
        break;
      }
    } else {
      config.error = "unknown option '" + arg + "'";
    }
  }

  if (config.error.empty() && config.verify && config.listen) {
    config.error =
        "--verify is stdio-only (in socket mode the client verifies; see "
        "simulation_client --verify)";
  }
  if (config.error.empty() && max_sessions_given && !config.listen) {
    config.error = "--max-sessions only applies with --listen";
  }
  if (config.error.empty() && busy_retry_given &&
      config.service.max_queue == 0) {
    // Without a bounded queue no busy reply is ever sent - a retry hint
    // that can never reach a client is an operator error, not a knob.
    config.error = "--busy-retry-ms only applies with --max-queue";
  }
  if (config.error.empty() && !config.cache_file.empty() &&
      config.service.cache_capacity == 0) {
    // load_cache is a no-op at capacity 0, but save-on-shutdown would
    // still rewrite the file with the (empty) cache - silently destroying
    // every persisted design point. Contradictory; refuse up front.
    config.error =
        "--cache-file needs memoization; it cannot be combined with "
        "--cache 0";
  }
  return config;
}

}  // namespace edea::service
