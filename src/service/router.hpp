// router.hpp - the cluster tier: consistent-hash request routing across
// worker simulation servers.
//
// One simulation_server process tops out when its dispatch layer saturates
// (see bench_service_throughput). The cluster router is the next level of
// the same idea the dispatch cache already embodies - route each request
// to the owner of its data instead of funneling everything through one
// serialized path: a ClusterRouter speaks the ordinary line protocol to
// clients, shards every `run` line across N worker server processes by its
// *cache key* (network@seed plus the request's core::JobKey - hashed
// through service/hash_ring.hpp), and merges the replies back into the
// client's session.
//
// Invariants the tests pin (tests/router_test.cpp):
//
//   byte-identity   In ordered mode, a routed serve is byte-identical to a
//                   single-process stdio serve of the same request stream.
//                   Routing by full cache key is what makes this hold: a
//                   repeated key lands on the same worker, so the cluster's
//                   hit/miss/coalescing pattern equals the single process's,
//                   and replies are emitted in request-id order regardless
//                   of which shard produced them. The client-facing wire -
//                   protocol errors, mode echoes, frame violations, reply
//                   slots, the corking writer - is the same WireFront a
//                   Session runs (service/wire_front.hpp), not a copy.
//
//   merged stats    `stats` is a cluster barrier: after every preceding
//                   request completes, the router fans `stats` out to every
//                   live worker and sums the per-shard counters in sorted
//                   worker order - deterministic, and equal to the
//                   single-process counters for any stream that fits in
//                   every shard's LRU (no evictions to split).
//
//   failover        A worker death (connection drop) removes its node from
//                   the ring and re-forwards its in-flight requests - its
//                   channel's id map, stolen in wire-id order - to the
//                   surviving owners under jittered exponential backoff
//                   (util/backoff.hpp), bounded by max_attempts. Replies
//                   are never lost (every request finalizes exactly once:
//                   a reply, a busy give-up, or an error line naming the
//                   failure) and never duplicated (a request is in at most
//                   one channel's id map at a time; it is re-sent only
//                   after its entry is matched by a busy line or stolen
//                   from a dead connection). Deterministic simulations
//                   make the re-run idempotent.
//
// Workers are unmodified simulation_server processes that allow `mode
// unordered` (the default): the router holds one connection per worker
// per client session, opened with a synchronous `mode unordered`
// handshake, so each worker answers its lines as they complete and a
// cache hit never waits behind a fresh simulation queued ahead of it.
// Every line sent takes the worker's next wire id; a per-channel map from
// wire id to pending request matches run replies, `busy id=<n>` lines
// and the `stats` reply alike. A worker that answers the handshake `mode
// ordered` (--ordered) is an attach error, handled like an unreachable
// worker. Client-side `mode unordered` is honored by the router's own
// front (replies stream in cluster-wide completion order with `id=<n> `
// prefixes); ordered clients get request-id order either way. The
// router forwards raw request lines, which every process parses to the
// same job (a key a line leaves out takes JobKey's default everywhere),
// so any worker serves any line.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "service/hash_ring.hpp"
#include "service/protocol.hpp"
#include "service/wire_front.hpp"

namespace edea::service {

class Stream;

/// One worker server. `id` is the *stable* ring name (shard0..shardN-1 for
/// spawned workers, the host:port string for attached ones) - ring
/// placement, and therefore which persisted shard cache owns which keys,
/// follows the id, not the ephemeral address.
struct WorkerEndpoint {
  std::string id;
  std::string host;
  std::uint16_t port = 0;
};

/// Configuration of a ClusterRouter: the client-facing wire policy
/// (WireOptions, exactly like a Session's: whether `mode unordered` is
/// honored) plus routing.
struct RouterOptions : WireOptions {
  /// Worker membership at startup. At least one; ids must be unique.
  std::vector<WorkerEndpoint> workers;

  /// Virtual nodes per worker on the hash ring (--replicas).
  int replicas = HashRing::kDefaultReplicas;

  /// Forwarding attempts per request (initial send + re-sends after
  /// worker death or busy replies) before the router gives up and
  /// answers an error / busy line itself.
  int max_attempts = 5;

  /// Backoff base for failover re-sends, and the retry_ms the router's
  /// own give-up busy lines advertise. Busy retries use the worker's
  /// retry_ms hint as the base instead.
  int retry_base_ms = 25;

  /// connect_socket budget per worker connection attempt.
  int connect_timeout_ms = 5000;

  /// Seed for the jittered backoff schedule (deterministic tests).
  std::uint64_t backoff_seed = 0x726f757465726267ull;
};

/// Counters of one routed client session (ClusterRouter::serve call): the
/// front's wire counters plus the routing ones.
struct RouterSessionStats : WireStats {
  std::uint64_t forwarded = 0;       ///< lines sent to workers, incl. re-sends
  std::uint64_t retries = 0;         ///< re-sends (busy + failover)
  std::uint64_t busy_replies = 0;    ///< busy lines received from workers
  std::uint64_t failovers = 0;       ///< worker deaths observed
};

/// The ring key of one parsed request: FNV-1a over the network name and
/// seed, then the request's JobKey (JobKey::feed, the same feed the
/// dispatch layer's own KeyHash uses). Requests that are the same cache
/// entry are the same ring key, so shard-local hit/miss behavior
/// reproduces the single-process cache exactly. (The network is keyed by
/// name@seed rather than weight fingerprint - materializing weights just
/// to route would defeat the point; name+seed and the key's transforms
/// determine the fingerprint, so the partition is the same.) The value is
/// pinned: persisted shard caches are placed by it.
[[nodiscard]] std::uint64_t route_key(const Request& request);

/// A consistent-hash router over worker simulation servers. Construct
/// once, then serve() each client connection (thread-safe; worker
/// liveness is shared across sessions - a death observed by one session
/// reroutes every session).
class ClusterRouter {
 public:
  explicit ClusterRouter(RouterOptions options);

  /// Serves one client session over `stream` until EOF, routing its
  /// requests across the live workers. Same wire as Session::serve.
  RouterSessionStats serve(Stream& stream);

  /// Ids of workers still on the ring, sorted.
  [[nodiscard]] std::vector<std::string> live_workers() const;

  [[nodiscard]] const RouterOptions& options() const { return options_; }

 private:
  friend class RouterSession;

  /// The live owner of `key`, or nullopt when every worker is dead.
  [[nodiscard]] std::optional<WorkerEndpoint> owner_of(
      std::uint64_t key) const;

  /// Removes a worker from the ring. Returns false when it was already
  /// dead (concurrent observers of one death race here; only the first
  /// counts).
  bool mark_dead(const std::string& id);

  RouterOptions options_;
  mutable std::mutex membership_mutex_;
  HashRing ring_;                                ///< live workers only
  std::map<std::string, WorkerEndpoint> endpoints_;  ///< all configured
};

/// Merges per-shard persisted cache files into `out_path` via the
/// existing merge-on-resave path: each shard file is loaded into one
/// service (load_cache keeps already-resident keys, so the first file
/// wins a key collision - collisions are bit-identical by construction
/// when shards agree on the simulation), then saved as a single
/// deterministic sorted file. Missing shard files are skipped (a worker
/// that served no traffic may never have written one). Returns the
/// number of entries in the merged file.
std::size_t merge_cache_files(const std::vector<std::string>& shard_paths,
                              const std::string& out_path);

}  // namespace edea::service
