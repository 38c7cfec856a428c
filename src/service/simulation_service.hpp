// simulation_service.hpp - a long-running simulation front end over the
// sweep runtime.
//
// Design-space studies are embarrassingly request-parallel: every request
// is an independent simulation of one workload at one design point. The
// service accepts such requests asynchronously, runs them on a
// util::ThreadPool, and memoizes completed results in a bounded LRU cache
// keyed by (network fingerprint, core::JobKey) - the JobKey being the
// EdeaConfig, backend id, batch, dilation and depth multiplier
// (core/job_key.hpp). In DSE refinement the same points are revisited
// constantly, and a revisit should cost a hash lookup, not a simulation.
// Every dimension of the key changes the result: a different dataflow
// has different cycles and traffic (core/backend.hpp), a batched run
// can report a different planned peak (peak_arena_bytes), and a
// transformed workload computes something else.
//
// Concurrency contract:
//   - submit_streaming()/cache_stats() are thread-safe; many client
//     threads may hammer one service instance. submit_streaming is the
//     one entry point: every submission is delivered to a callback,
//   - identical requests in flight are coalesced: the second submitter
//     waits on the first simulation instead of launching a duplicate
//     (and is accounted as a cache hit),
//   - results are bit-identical to a serial core::SweepRunner run of the
//     same jobs. The cache stores each outcome's summary (ok/error text
//     plus the RunSummary, output hash and total cycles included); only
//     the submitter whose miss ran the simulation also receives the
//     per-layer result. Every other waiter gets the stored summary with
//     its own `name`,
//   - the destructor drains in-flight work before returning, so a service
//     never outlives its tasks.
//
// Lifetime contract: like SweepJob everywhere else, the pointed-to layers
// and input tensor must stay alive until the request's callback has run.
// Do not block on an outcome from inside a task running on the same pool
// - a fully busy pool of blocked waiters cannot make progress.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/sweep_runner.hpp"
#include "util/hash.hpp"

namespace edea::util {
class ThreadPool;
}

namespace edea::service {

/// Counters of the memoizing result cache. `hits + misses` equals the
/// number of submissions; every submission increments exactly one of the
/// two under the service lock, so the counters are exact even under
/// concurrent submission.
struct CacheStats {
  std::uint64_t hits = 0;        ///< served from cache (or coalesced)
  std::uint64_t misses = 0;      ///< required a fresh simulation
  std::uint64_t evictions = 0;   ///< completed results dropped by the LRU
  std::size_t entries = 0;       ///< resident entries (all kinds)
  /// Requests currently simulating (submitted, not yet completed). Unlike
  /// the counters above this is a gauge - a snapshot, not a running total.
  std::uint64_t in_flight = 0;

  // --- admission control (meaningful when max_queue > 0) ------------------
  /// Gauge: admitted jobs sitting in the fair queue, not yet picked up by
  /// a runner. Zero at any stats barrier (the session drains first).
  std::uint64_t queued = 0;
  /// Streaming submissions answered `busy` instead of admitted (total).
  std::uint64_t rejected = 0;
  /// High-water mark of the in_flight gauge. Bounded by max_queue *by
  /// construction*: the admission check rejects before the gauge could
  /// exceed it, so peak_queue <= max_queue is an invariant, not a hope.
  std::uint64_t peak_queue = 0;
  /// The configured ServiceOptions::max_queue (0 = unbounded). Carried in
  /// the snapshot so format_stats_line knows whether to echo the trio.
  std::uint64_t max_queue = 0;

  friend bool operator==(const CacheStats&, const CacheStats&) = default;
};

/// Configuration of a SimulationService.
struct ServiceOptions {
  /// 0 = run requests on the process-wide ThreadPool::shared();
  /// n > 0 = own a dedicated pool of n workers.
  unsigned worker_threads = 0;

  /// Maximum number of *completed* results the cache retains (LRU beyond
  /// that); entries loaded from a cache file do not count. 0 disables
  /// memoization entirely: every submission simulates, and identical
  /// in-flight requests are not coalesced.
  std::size_t cache_capacity = 256;

  /// Tile-level parallelism inside each simulated request: every layer's
  /// buffer tiles split over at most this many workers on the shared pool
  /// (see SweepOptions::tile_parallelism). 1 = serial tiles (default).
  /// Zero and negative values are a PreconditionError at construction -
  /// results are bit-identical at every width, so the knob only trades
  /// request latency against pool pressure, and an accidental 0 from
  /// caller arithmetic must not silently pick a policy.
  int tile_parallelism = 1;

  /// Bounded admission: while this many fresh simulations are in
  /// flight, submit_streaming answers Admission::kBusy for any request
  /// that would start another. Cache hits and coalescing onto an
  /// in-flight duplicate are always admitted - they start no new work. 0
  /// (default) disables the bound entirely and keeps every counter and
  /// stats line exactly as before.
  std::size_t max_queue = 0;
};

/// Verdict of an admission-checked submission (submit_streaming).
enum class Admission {
  kAdmitted,  ///< the outcome will be delivered to the callback
  kBusy,      ///< rejected by the bounded queue - retry later; the
              ///< callback will never run
};

/// The ok=false outcome of a job that produced no result: the job's name
/// and key echoed with `error` as the message. What every layer reports
/// for a request it could not run - an unresolvable network, a failed
/// launch or delivery, a cluster give-up.
[[nodiscard]] core::SweepOutcome failed_outcome(const core::SweepJob& job,
                                                std::string error);

class SimulationService {
 public:
  using Options = ServiceOptions;
  /// Completion delivery for submit_streaming. Runs inline on the
  /// submitting thread for cache hits, or on a pool runner thread when
  /// the simulation finishes. Must be cheap and must never block on the
  /// service (it may run inside the completion path) or throw.
  ///
  /// Result fidelity: only the submitter whose miss ran a fresh
  /// simulation receives the per-layer result. Anything served from
  /// cache - a warm hit, a duplicate coalesced onto an in-flight
  /// simulation, a hit on an entry loaded from a cache file - arrives
  /// summary-only (SweepOutcome::summary_only == true, empty result): the
  /// cache stores nothing below the summary, which is all the wire
  /// protocol and the cache file report.
  using CompletionCallback = std::function<void(core::SweepOutcome)>;

  explicit SimulationService(Options options = Options());
  ~SimulationService();

  SimulationService(const SimulationService&) = delete;
  SimulationService& operator=(const SimulationService&) = delete;

  /// Hands out a fresh fair-scheduling lane id. Each session takes one at
  /// construction; ids start at 1, so in-process callers share lane 0.
  [[nodiscard]] std::uint64_t new_session_id();

  /// Submits one request: admission-checked, fair-scheduled,
  /// callback-delivered. Returns kBusy - and does nothing except count
  /// the rejection - when the job would start a fresh simulation while
  /// ServiceOptions::max_queue of them are already in flight. Otherwise
  /// the outcome reaches `done` exactly once (inline for hits, from a
  /// pool runner for misses; a failed simulation task delivers an
  /// ok=false outcome rather than an exception). Fresh simulations are
  /// queued per `session_id` and dispatched round-robin across sessions
  /// with pending work, so one bulk submitter cannot starve interactive
  /// sessions. Throws PreconditionError for a malformed job (no network,
  /// non-finite clock, unknown backend, non-positive counts) - always
  /// *before* the callback is registered, so on a throw the callback has
  /// not run and never will.
  [[nodiscard]] Admission submit_streaming(core::SweepJob job,
                                           std::uint64_t session_id,
                                           CompletionCallback done);

  /// Snapshot of the cache counters.
  [[nodiscard]] CacheStats cache_stats() const;

  /// Blocks until no request is in flight (callbacks may still be
  /// running, but all simulations have finished).
  void wait_idle();

  // --- cache persistence (survives service restarts) -----------------------
  //
  // A cache file stores (network fingerprint, JobKey) -> outcome
  // *summaries* - everything the line protocol reports (ok/error text
  // plus the RunSummary), not per-layer tensors - in a versioned,
  // checksummed binary format (util/binary.hpp + util/hash.hpp); each
  // entry's key is JobKey::encode's. The format is at version 4 (version
  // 1 predates backend-keyed entries, version 2 predates batch-keyed
  // entries and the summary's peak_arena_bytes field, version 3 predates
  // the dilation/depth-multiplier key fields); files of any other version
  // are rejected loudly, never migrated - a v1 file cannot say which
  // dataflow produced its summaries, a v2 file can neither say which
  // batch nor decode into today's wider RunSummary, and a v3 file cannot
  // say which workload transform its fingerprints were computed over.
  // Loaded entries join the one cache table, pinned: ready at once, never
  // in the LRU, never evicted, and not counted against cache_capacity
  // (the file bounds them). A hit on one is served like any other hit -
  // the stored summary, formatting bit-identically to the line the
  // original simulation produced.

  /// Writes every completed result - simulated here or loaded - to
  /// `path`, atomically enough for a service restart (full rewrite,
  /// deterministic entry order). Returns the number of entries written.
  /// Throws ResourceError if the file cannot be written. Call after
  /// draining traffic (e.g. at shutdown); in-flight entries are not
  /// persisted.
  std::size_t save_cache(const std::string& path) const;

  /// Loads a cache file previously written by save_cache. Returns the
  /// number of entries loaded; a missing file is not an error (a first
  /// start has no cache) and returns 0. A malformed file - bad magic,
  /// version mismatch, truncation, checksum failure, trailing garbage -
  /// throws PreconditionError and leaves the cache unchanged. A key that
  /// is already resident or in flight keeps its entry and is not counted.
  /// No-op when cache_capacity is 0 (memoization disabled disables
  /// persistence too).
  std::size_t load_cache(const std::string& path);

  /// Cache key: the workload fingerprint plus the job's key. The
  /// fingerprint is a content hash (collisions possible in principle)
  /// that already reflects the transformed layer specs; the JobKey is
  /// compared exactly - a fingerprint collision across different
  /// configs, dataflows, batch sizes, or transforms can never alias.
  /// Public so callers can predict the cache's hits and misses (the
  /// server's --verify gate).
  struct Key {
    std::uint64_t fingerprint = 0;
    core::JobKey job;

    friend bool operator==(const Key&, const Key&) = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const noexcept {
      util::Fnv1a64 h;
      h.pod(k.fingerprint);
      k.job.feed(h);
      return static_cast<std::size_t>(h.digest());
    }
  };

 private:
  /// One client of a submission: how it hears its outcome, under its own
  /// job name.
  struct Waiter {
    CompletionCallback callback;
    std::string name;
  };

  struct Entry {
    /// The summary view of the finished outcome; null while simulating.
    /// Shared (immutable) so hit paths can copy it for their client
    /// *outside* the service lock.
    std::shared_ptr<const core::SweepOutcome> outcome;
    std::vector<Waiter> waiters;   ///< coalesced duplicates while simulating
    /// Loaded from a cache file: never in lru_, never evicted.
    bool pinned = false;
    std::list<Key>::iterator lru;  ///< position in lru_ (ready, unpinned)
  };

  /// One admitted fresh simulation waiting in (or picked from) the fair
  /// queue. `waiter` is the submitter whose miss it is: the one client
  /// that receives the full outcome.
  struct LaneJob {
    Key key;
    core::SweepJob job;
    Waiter waiter;
  };

  /// Validates a submission's invariants (network present, finite clock,
  /// a valid key).
  static void validate_job(const core::SweepJob& job);

  /// Delivers the ok=false outcome of `job` under `w`'s name - the wire
  /// has no exception channel, only error lines. Never throws.
  static void fail(Waiter& w, const core::SweepJob& job,
                   const std::string& message);

  /// Whether completed outcomes are memoized (cache_capacity > 0).
  [[nodiscard]] bool use_cache() const { return options_.cache_capacity > 0; }

  /// Stores a finished simulation's summary (marks its entry ready,
  /// applies LRU eviction), hands the full outcome to the submitter whose
  /// miss it was and the summary to every coalesced duplicate. Runs on
  /// the pool at the end of each task.
  void complete(LaneJob& item, core::SweepOutcome outcome);

  /// Failure path of a launch or a pool task (e.g. out-of-memory while
  /// storing the outcome): drops the pending entry so a resubmission
  /// retries, and fails every waiter instead of leaving it hanging.
  void abandon(LaneJob& item, const std::string& message);

  /// Enqueues a fresh simulation into `session_id`'s lane and ensures
  /// enough runner tasks are active to drain it. Caller holds mutex_.
  /// Throws, leaving `item` untouched, when no runner could be started.
  void enqueue_lane(std::uint64_t session_id, LaneJob& item);

  /// Pops the next job round-robin across sessions with pending work.
  /// Caller holds mutex_. Returns false when every lane is empty.
  bool next_lane_job(LaneJob* out);

  /// Body of one runner task: drains lane jobs until none are pending.
  void runner_loop();

  Options options_;
  std::unique_ptr<util::ThreadPool> owned_pool_;  ///< when worker_threads > 0
  util::ThreadPool* pool_;                        ///< never null

  mutable std::mutex mutex_;
  std::condition_variable idle_cv_;
  std::size_t in_flight_ = 0;
  /// Every entry: in flight, ready, or pinned (loaded from a file).
  std::unordered_map<Key, Entry, KeyHash> cache_;
  std::list<Key> lru_;  ///< ready unpinned entries, most recently used first
  CacheStats stats_;

  // --- fair scheduling + admission (guarded by mutex_) --------------------
  std::atomic<std::uint64_t> next_session_id_{1};
  /// Pending fresh simulations, one FIFO lane per session id.
  std::unordered_map<std::uint64_t, std::deque<LaneJob>> lanes_;
  /// Rotation of session ids with a non-empty lane (round-robin order).
  std::deque<std::uint64_t> lane_order_;
  std::size_t waiting_ = 0;         ///< jobs in lanes (the queued gauge)
  std::size_t active_runners_ = 0;  ///< runner tasks alive on the pool
};

}  // namespace edea::service
