#include "service/router_cli.hpp"

#include <algorithm>
#include <limits>

#include "service/protocol.hpp"
#include "service/server_cli.hpp"

namespace edea::service {

namespace {

/// Most workers one --spawn may launch. Far above any sane shard count on
/// one machine; a larger N is almost certainly a typo'd port number.
constexpr int kMaxSpawn = 64;

/// Upper bound for --replicas: past this the ring build cost buys nothing
/// (balance improves as ~1/sqrt(replicas)).
constexpr int kMaxReplicas = 65536;

/// Strict HOST:PORT parse. The host must be non-empty (a numeric IPv4
/// address or 'localhost' - connect_socket's vocabulary), the port a
/// plain integer in [1, 65535]: port 0 means "ephemeral" to a listener
/// and nothing to a connector.
bool parse_endpoint(const std::string& text, WorkerEndpoint* out) {
  const std::size_t colon = text.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 >= text.size()) {
    return false;
  }
  std::uint64_t port = 0;
  if (!parse_flag_count(text.substr(colon + 1), 1, 65535, &port)) {
    return false;
  }
  out->id = text;
  out->host = text.substr(0, colon);
  out->port = static_cast<std::uint16_t>(port);
  return true;
}

}  // namespace

std::string router_usage() {
  return
      "usage: simulation_router --spawn N [options] < requests.txt\n"
      "       simulation_router --worker HOST:PORT [--worker ...] [options]\n"
      "       simulation_router --listen PORT (--spawn N | --worker ...)\n"
      "\n"
      "Routes the EDEA simulation line protocol across worker\n"
      "simulation_server processes by consistent-hashing each request's\n"
      "cache key, merging replies so the routed wire is byte-identical to\n"
      "a single server. Worker death reroutes the ring and retries\n"
      "in-flight requests on the survivors.\n"
      "\n"
      "options:\n"
      "  --help                 print this help and exit\n"
      "  --spawn N              fork N worker servers on ephemeral ports\n"
      "                         (ring ids shard0..shardN-1; drained and\n"
      "                         reaped on shutdown; 1-" +
      std::to_string(kMaxSpawn) +
      ")\n"
      "  --worker HOST:PORT     attach to a running worker server\n"
      "                         (repeatable; the string is the stable ring\n"
      "                         id, so keep addresses fixed across restarts\n"
      "                         to keep per-shard caches routable)\n"
      "  --server-bin PATH      worker binary for --spawn (default: the\n"
      "                         example_simulation_server next to this\n"
      "                         binary)\n"
      "  --cache-file BASE      spawn mode: worker i persists its shard\n"
      "                         cache to BASE.shard<i>; on shutdown the\n"
      "                         shards are merged into BASE via the\n"
      "                         merge-on-resave path\n"
      "  --replicas N           virtual nodes per worker on the hash ring\n"
      "                         (1-" +
      std::to_string(kMaxReplicas) +
      "; default " + std::to_string(HashRing::kDefaultReplicas) +
      ")\n"
      "  --retry-attempts N     forwarding attempts per request across\n"
      "                         busy replies and worker deaths before the\n"
      "                         router answers an error/busy line itself\n"
      "                         (>= 1; default 5)\n"
      "  --listen PORT          serve TCP on 127.0.0.1:PORT instead of\n"
      "                         stdio (0 = ephemeral; the bound port is\n"
      "                         printed to stderr)\n"
      "  --max-sessions N       socket mode: exit after serving N\n"
      "                         connections (0 = unlimited; default 0)\n"
      "  --ordered              refuse `mode unordered` switches: every\n"
      "                         session keeps the byte-exact ordered reply\n"
      "                         protocol (the verified reference mode)\n";
}

RouterCliConfig parse_router_args(int argc, const char* const* argv) {
  RouterCliConfig config;
  bool max_sessions_given = false;

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
    } else if (arg == "--worker") {
      if (!value_of(i, arg, &value)) break;
      WorkerEndpoint worker;
      if (!parse_endpoint(value, &worker)) {
        config.error = "--worker needs HOST:PORT with a port in [1, 65535], "
                       "got '" +
                       value + "'";
        break;
      }
      const bool duplicate =
          std::any_of(config.workers.begin(), config.workers.end(),
                      [&](const WorkerEndpoint& w) { return w.id == worker.id; });
      if (duplicate) {
        config.error = "--worker '" + value + "' given twice";
        break;
      }
      config.workers.push_back(std::move(worker));
    } else if (arg == "--spawn") {
      if (!value_of(i, arg, &value)) break;
      if (!parse_flag_count(value, 1, kMaxSpawn, &count)) {
        config.error = "--spawn needs a worker count in [1, " +
                       std::to_string(kMaxSpawn) + "], got '" + value + "'";
        break;
      }
      config.spawn = static_cast<int>(count);
    } else if (arg == "--server-bin") {
      if (!value_of(i, arg, &value)) break;
      if (value.empty()) {
        config.error = "--server-bin needs a non-empty path";
        break;
      }
      config.server_bin = value;
    } else if (arg == "--cache-file") {
      if (!value_of(i, arg, &value)) break;
      if (value.empty()) {
        config.error = "--cache-file needs a non-empty path";
        break;
      }
      config.cache_file = value;
    } else if (arg == "--replicas") {
      if (!value_of(i, arg, &value)) break;
      if (!parse_flag_count(value, 1, kMaxReplicas, &count)) {
        config.error = "--replicas needs a count in [1, " +
                       std::to_string(kMaxReplicas) + "], got '" + value + "'";
        break;
      }
      config.replicas = static_cast<int>(count);
    } else if (arg == "--retry-attempts") {
      if (!value_of(i, arg, &value)) break;
      if (!parse_strict_count(value, &config.max_attempts)) {
        config.error =
            "--retry-attempts needs a positive count, got '" + value + "'";
        break;
      }
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
      if (!parse_flag_count(value, 0, std::numeric_limits<std::size_t>::max(),
                            &count)) {
        config.error = "--max-sessions needs a non-negative count, got '" +
                       value + "'";
        break;
      }
      config.max_sessions = static_cast<std::size_t>(count);
      max_sessions_given = true;
    } else if (arg == "--ordered") {
      config.ordered = true;
    } else {
      config.error = "unknown option '" + arg + "'";
    }
  }
  if (!config.error.empty() || config.help) return config;

  if (config.spawn > 0 && !config.workers.empty()) {
    // Two membership sources would make ring ids ambiguous (shard<i> vs
    // host:port) - exactly the instability stable ids exist to prevent.
    config.error = "--spawn and --worker are mutually exclusive";
  } else if (config.spawn == 0 && config.workers.empty()) {
    config.error = "need workers: --spawn N or at least one --worker "
                   "HOST:PORT";
  } else if (!config.server_bin.empty() && config.spawn == 0) {
    config.error = "--server-bin only applies with --spawn";
  } else if (!config.cache_file.empty() && config.spawn == 0) {
    // Attached workers own their own --cache-file flags; the router can
    // neither name their shard files nor merge what it cannot drain.
    config.error = "--cache-file only applies with --spawn";
  } else if (max_sessions_given && !config.listen) {
    config.error = "--max-sessions only applies with --listen";
  }
  return config;
}

}  // namespace edea::service
