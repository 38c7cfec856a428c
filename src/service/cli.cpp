#include "service/cli.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "service/protocol.hpp"

namespace edea::service {

namespace {

constexpr std::uint64_t kMaxSize = std::numeric_limits<std::size_t>::max();
constexpr std::uint64_t kMaxInt = std::numeric_limits<int>::max();

/// Most workers one --spawn may launch. Far above any sane shard count on
/// one machine; a larger N is almost certainly a typo'd port number.
constexpr int kMaxSpawn = 64;

/// Upper bound for --replicas: past this the ring build cost buys nothing
/// (balance improves as ~1/sqrt(replicas)).
constexpr int kMaxReplicas = 65536;

/// The one integer grammar of every command line: parse_strict_u64 plus
/// the range check [min, max]. Leaves *out untouched on rejection.
bool parse_count(const std::string& text, std::uint64_t min,
                 std::uint64_t max, std::uint64_t* out) {
  std::uint64_t value = 0;
  if (!parse_strict_u64(text, &value) || value < min || value > max) {
    return false;
  }
  *out = value;
  return true;
}

enum class Endpoint { kOk, kBadShape, kBadPort };

/// Strict HOST:PORT parse, split at the last ':': a non-empty host and a
/// port in [min_port, 65535] (1 for a router's --worker: port 0 means
/// "ephemeral" to a listener). Sets *host and *port only on success.
Endpoint parse_endpoint(const std::string& text, std::uint64_t min_port,
                        std::string* host, std::uint16_t* port) {
  const std::size_t colon = text.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 >= text.size()) {
    return Endpoint::kBadShape;
  }
  std::uint64_t value = 0;
  if (!parse_count(text.substr(colon + 1), min_port, 65535, &value)) {
    return Endpoint::kBadPort;
  }
  *host = text.substr(0, colon);
  *port = static_cast<std::uint16_t>(value);
  return Endpoint::kOk;
}

/// One pass over argv: a parser takes each flag with next() and reads its
/// value through the walker, which sets the target only when the value is
/// valid. The first failure records its message in `error`, ending the walk.
class ArgWalker {
 public:
  ArgWalker(int argc, const char* const* argv, std::string& error)
      : argc_(argc), argv_(argv), error_(error) {}

  /// Moves to the next flag; false at the end of argv or after a failure.
  bool next() {
    if (!error_.empty() || ++index_ >= argc_) return false;
    flag_ = argv_[index_];
    return true;
  }

  [[nodiscard]] bool is(const char* flag) const { return flag_ == flag; }

  /// Records `message` as the parse error. Returns false.
  bool fail(std::string message) {
    error_ = std::move(message);
    return false;
  }

  void unknown() { fail("unknown option '" + flag_ + "'"); }

  /// The flag's value, or a failure "<flag> needs a value" at argv's end.
  bool value(std::string* out) {
    if (index_ + 1 >= argc_) return fail(flag_ + " needs a value");
    *out = argv_[++index_];
    return true;
  }

  /// A non-empty value, or a failure "<flag> needs a non-empty path".
  bool path(std::string* out) {
    std::string text;
    if (!value(&text)) return false;
    if (text.empty()) return fail(flag_ + " needs a non-empty path");
    *out = std::move(text);
    return true;
  }

  /// A count in [min, max], or a failure
  /// "<flag> needs <what>, got '<value>'".
  template <class T>
  bool count(std::uint64_t min, std::uint64_t max, const std::string& what,
             T* out) {
    std::string text;
    std::uint64_t parsed = 0;
    if (!value(&text)) return false;
    if (!parse_count(text, min, max, &parsed)) {
      return fail(flag_ + " needs " + what + ", got '" + text + "'");
    }
    *out = static_cast<T>(parsed);
    return true;
  }

 private:
  int argc_;
  const char* const* argv_;
  std::string& error_;
  int index_ = -1;
  std::string flag_;
};

/// --listen PORT and --max-sessions N, shared by the server and the
/// router. Returns false when the current flag is neither.
bool socket_flag(ArgWalker& args, bool* listen, bool* sessions_given,
                 SocketTransportOptions* socket) {
  if (args.is("--listen")) {
    if (args.count(0, 65535, "a port in [0, 65535]", &socket->port)) {
      *listen = true;
    }
    return true;
  }
  if (args.is("--max-sessions")) {
    if (args.count(0, kMaxSize, "a non-negative count",
                   &socket->max_sessions)) {
      *sessions_given = true;
    }
    return true;
  }
  return false;
}

// Usage text every program (kOptionsUsage), or the server and the router
// (the other two), print the same.
constexpr const char* kOptionsUsage =
    "\noptions:\n"
    "  --help                 print this help and exit\n";

constexpr const char* kListenUsage =
    "  --listen PORT          serve TCP on 127.0.0.1:PORT instead of\n"
    "                         stdio (0 = ephemeral; the bound port is\n"
    "                         printed to stderr)\n"
    "  --max-sessions N       socket mode: exit after serving N\n"
    "                         connections (0 = unlimited; default 0)\n";

constexpr const char* kOrderedUsage =
    "  --ordered              refuse `mode unordered` switches: every\n"
    "                         session keeps the byte-exact ordered reply\n"
    "                         protocol (the verified reference mode)\n";

}  // namespace

// --- server ----------------------------------------------------------------

std::string server_usage() {
  return std::string(
      "usage: simulation_server [options] < requests.txt   (stdio mode)\n"
      "       simulation_server --listen PORT [options]    (TCP socket mode)\n"
      "\n"
      "Serves the EDEA simulation line protocol (run <network> [key=value\n"
      "...] | stats) over stdin/stdout or a loopback TCP socket, one\n"
      "session per connection, with a memoizing result cache.\n") +
      kOptionsUsage + kListenUsage +
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
      "                         (>= 1; default 25; needs --max-queue)\n" +
      kOrderedUsage +
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
  ServerConfig config;
  bool sessions_given = false;
  bool busy_retry_given = false;
  ArgWalker args(argc, argv, config.error);
  while (args.next()) {
    if (args.is("--help")) {
      config.help = true;
    } else if (args.is("--verify")) {
      config.verify = config.session.record_traffic = true;
    } else if (args.is("--ordered")) {
      config.session.allow_unordered = false;
    } else if (args.is("--cache-file")) {
      args.path(&config.cache_file);
    } else if (args.is("--workers")) {
      args.count(0, std::numeric_limits<unsigned>::max(),
                 "a non-negative count", &config.service.worker_threads);
    } else if (args.is("--cache")) {
      args.count(0, kMaxSize, "a non-negative capacity",
                 &config.service.cache_capacity);
    } else if (args.is("--max-queue")) {
      args.count(0, kMaxSize, "a non-negative count",
                 &config.service.max_queue);
    } else if (args.is("--busy-retry-ms")) {
      busy_retry_given = args.count(1, kMaxInt, "a positive count",
                                    &config.session.busy_retry_ms);
    } else if (args.is("--tile-parallelism")) {
      args.count(1, kMaxInt, "a positive width",
                 &config.service.tile_parallelism);
    } else if (!socket_flag(args, &config.listen, &sessions_given,
                            &config.socket)) {
      args.unknown();
    }
  }
  if (!config.error.empty()) return config;

  if (config.verify && config.listen) {
    config.error =
        "--verify is stdio-only (in socket mode the client verifies; see "
        "simulation_client --verify)";
  } else if (sessions_given && !config.listen) {
    config.error = "--max-sessions only applies with --listen";
  } else if (busy_retry_given && config.service.max_queue == 0) {
    // Without a bounded queue no busy reply is ever sent - a retry hint
    // that can never reach a client is an operator error, not a knob.
    config.error = "--busy-retry-ms only applies with --max-queue";
  } else if (!config.cache_file.empty() &&
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

// --- router ----------------------------------------------------------------

std::string router_usage() {
  return std::string(
      "usage: simulation_router --spawn N [options] < requests.txt\n"
      "       simulation_router --worker HOST:PORT [--worker ...] [options]\n"
      "       simulation_router --listen PORT (--spawn N | --worker ...)\n"
      "\n"
      "Routes the EDEA simulation line protocol across worker\n"
      "simulation_server processes by consistent-hashing each request's\n"
      "cache key, merging replies so the routed wire is byte-identical to\n"
      "a single server. Worker death reroutes the ring and retries\n"
      "in-flight requests on the survivors.\n") +
      kOptionsUsage +
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
      std::to_string(kMaxReplicas) + "; default " +
      std::to_string(RouterOptions().replicas) +
      ")\n"
      "  --retry-attempts N     forwarding attempts per request across\n"
      "                         busy replies and worker deaths before the\n"
      "                         router answers an error/busy line itself\n"
      "                         (>= 1; default " +
      std::to_string(RouterOptions().max_attempts) + ")\n" + kListenUsage +
      kOrderedUsage;
}

RouterCliConfig parse_router_args(int argc, const char* const* argv) {
  RouterCliConfig config;
  bool sessions_given = false;
  ArgWalker args(argc, argv, config.error);
  while (args.next()) {
    if (args.is("--help")) {
      config.help = true;
    } else if (args.is("--ordered")) {
      config.router.allow_unordered = false;
    } else if (args.is("--worker")) {
      WorkerEndpoint worker;
      if (!args.value(&worker.id)) break;
      std::vector<WorkerEndpoint>& workers = config.router.workers;
      if (parse_endpoint(worker.id, 1, &worker.host, &worker.port) !=
          Endpoint::kOk) {
        args.fail("--worker needs HOST:PORT with a port in [1, 65535], got '" +
                  worker.id + "'");
      } else if (std::any_of(workers.begin(), workers.end(), [&](auto& w) {
                   return w.id == worker.id;
                 })) {
        args.fail("--worker '" + worker.id + "' given twice");
      } else {
        workers.push_back(std::move(worker));
      }
    } else if (args.is("--spawn")) {
      args.count(1, kMaxSpawn,
                 "a worker count in [1, " + std::to_string(kMaxSpawn) + "]",
                 &config.spawn);
    } else if (args.is("--server-bin")) {
      args.path(&config.server_bin);
    } else if (args.is("--cache-file")) {
      args.path(&config.cache_file);
    } else if (args.is("--replicas")) {
      args.count(1, kMaxReplicas,
                 "a count in [1, " + std::to_string(kMaxReplicas) + "]",
                 &config.router.replicas);
    } else if (args.is("--retry-attempts")) {
      args.count(1, kMaxInt, "a positive count", &config.router.max_attempts);
    } else if (!socket_flag(args, &config.listen, &sessions_given,
                            &config.socket)) {
      args.unknown();
    }
  }
  if (!config.error.empty() || config.help) return config;

  if (config.spawn > 0 && !config.router.workers.empty()) {
    // Two membership sources would make ring ids ambiguous (shard<i> vs
    // host:port) - exactly the instability stable ids exist to prevent.
    config.error = "--spawn and --worker are mutually exclusive";
  } else if (config.spawn == 0 && config.router.workers.empty()) {
    config.error = "need workers: --spawn N or at least one --worker "
                   "HOST:PORT";
  } else if (!config.server_bin.empty() && config.spawn == 0) {
    config.error = "--server-bin only applies with --spawn";
  } else if (!config.cache_file.empty() && config.spawn == 0) {
    // Attached workers own their own --cache-file flags; the router can
    // neither name their shard files nor merge what it cannot drain.
    config.error = "--cache-file only applies with --spawn";
  } else if (sessions_given && !config.listen) {
    config.error = "--max-sessions only applies with --listen";
  }
  return config;
}

// --- client ----------------------------------------------------------------

std::string client_usage() {
  return std::string(
      "usage: simulation_client --connect HOST:PORT [options] < requests.txt\n"
      "\n"
      "Replays a request stream of the EDEA simulation line protocol over\n"
      "TCP against a running simulation_server and prints the server's\n"
      "responses to stdout in request order.\n") +
      kOptionsUsage +
      "  --connect HOST:PORT    server to connect to (required; retries\n"
      "                         while the server is still binding)\n"
      "  --verify               recompute the reference responses in\n"
      "                         process (the stdio Session code path) and\n"
      "                         exit nonzero unless the server's responses\n"
      "                         are bit-identical\n"
      "  --expect-all-hits      with --verify: additionally require every\n"
      "                         run response to be flagged cache=hit and\n"
      "                         the stats line to report zero misses (the\n"
      "                         persisted-cache replay gate)\n"
      "  --pipeline N           keep up to N requests in flight using\n"
      "                         batch frames and unordered streaming,\n"
      "                         retrying busy rejections with jittered\n"
      "                         backoff; responses still print in request\n"
      "                         order (1..4096; default: send everything,\n"
      "                         then read - the legacy one-shot mode)\n"
      "  --ordered              with --pipeline: stay on the byte-exact\n"
      "                         ordered reply protocol instead of\n"
      "                         negotiating `mode unordered`\n";
}

ClientConfig parse_client_args(int argc, const char* const* argv) {
  ClientConfig config;
  ArgWalker args(argc, argv, config.error);
  while (args.next()) {
    if (args.is("--help")) {
      config.help = true;
    } else if (args.is("--verify")) {
      config.verify = true;
    } else if (args.is("--expect-all-hits")) {
      config.expect_all_hits = true;
    } else if (args.is("--ordered")) {
      config.ordered = true;
    } else if (args.is("--pipeline")) {
      args.count(1, kMaxFrameLines,
                 "a window in [1, " + std::to_string(kMaxFrameLines) + "]",
                 &config.pipeline);
    } else if (args.is("--connect")) {
      std::string target;
      if (!args.value(&target)) break;
      const Endpoint parsed =
          parse_endpoint(target, 0, &config.host, &config.port);
      if (parsed == Endpoint::kBadShape) {
        args.fail("--connect needs HOST:PORT, got '" + target + "'");
      } else if (parsed == Endpoint::kBadPort) {
        // The same port grammar as the server's --listen.
        args.fail("--connect: port in '" + target +
                  "' must be a number in [0, 65535]");
      } else {
        config.connect_given = true;
      }
    } else {
      args.unknown();
    }
  }
  if (!config.error.empty()) return config;

  if (!config.help && !config.connect_given) {
    config.error = "--connect HOST:PORT is required";
  } else if (config.expect_all_hits && !config.verify) {
    config.error = "--expect-all-hits requires --verify";
  } else if (config.ordered && config.pipeline == 0) {
    // The legacy one-shot sender never negotiates a mode, so it is
    // ordered by construction - the flag would be a silent no-op.
    config.error = "--ordered only applies with --pipeline";
  }
  return config;
}

}  // namespace edea::service
