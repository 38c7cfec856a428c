// simulation_service.hpp - a long-running simulation front end over the
// sweep runtime.
//
// Design-space studies are embarrassingly request-parallel: every request
// is an independent (network, accelerator config, backend) simulation.
// The service accepts such requests asynchronously, runs them on a
// util::ThreadPool, and memoizes completed results in a bounded LRU cache
// keyed by (network fingerprint, EdeaConfig, backend id, batch) - in DSE
// refinement the same points are revisited constantly, and a revisit
// should cost a hash lookup, not a simulation. The backend id is part of
// the key because the same workload and configuration on different
// dataflows are different experiments (different cycles and traffic, see
// core/backend.hpp); batch is part of it because a batched run plans a
// different arena (different peak_arena_bytes in the summary).
//
// Concurrency contract:
//   - submit()/submit_streaming()/serve()/cache_stats() are thread-safe;
//     many client threads may hammer one service instance. All of them
//     take one submission path: submit() is a promise wrapper over the
//     callback delivery submit_streaming exposes,
//   - identical requests in flight are coalesced: the second submitter
//     waits on the first simulation instead of launching a duplicate
//     (and is accounted as a cache hit),
//   - results are bit-identical to a serial core::SweepRunner run of the
//     same jobs - the cache returns stored outcomes verbatim (only `name`
//     and `cache_hit` are rewritten per request),
//   - the destructor drains in-flight work before returning, so a service
//     never outlives its tasks.
//
// Lifetime contract: like SweepJob everywhere else, the pointed-to layers
// and input tensor must stay alive until the request's future is ready.
// Do not call future.get() from inside a task running on the same pool -
// a fully busy pool of blocked waiters cannot make progress.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
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
  std::size_t entries = 0;       ///< resident entries (live + persisted)
  /// Requests currently simulating (submitted, not yet completed). Unlike
  /// the counters above this is a gauge - a snapshot, not a running total.
  std::uint64_t in_flight = 0;

  // --- admission control (meaningful when max_queue > 0) ------------------
  /// Gauge: admitted jobs sitting in the fair queue, not yet picked up by
  /// a runner. Zero at any stats barrier (the session drains first).
  std::uint64_t queued = 0;
  /// Streaming submissions answered `busy` instead of admitted (total).
  std::uint64_t rejected = 0;
  /// High-water mark of admission-counted jobs in flight. Bounded by
  /// max_queue *by construction*: the admission check rejects before the
  /// gauge could exceed it, so peak_queue <= max_queue is an invariant,
  /// not a hope.
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
  /// that). 0 disables memoization entirely: every submission simulates,
  /// and identical in-flight requests are not coalesced.
  std::size_t cache_capacity = 256;

  /// Tile-level parallelism inside each simulated request: every layer's
  /// buffer tiles split over at most this many workers on the shared pool
  /// (see SweepOptions::tile_parallelism). 1 = serial tiles (default).
  /// Zero and negative values are a PreconditionError at construction -
  /// results are bit-identical at every width, so the knob only trades
  /// request latency against pool pressure, and an accidental 0 from
  /// caller arithmetic must not silently pick a policy.
  int tile_parallelism = 1;

  /// Bounded admission for streaming (wire-facing) submissions: while
  /// this many admission-counted jobs are in flight, submit_streaming
  /// answers Admission::kBusy for any request that would start a *fresh*
  /// simulation. Cache hits and coalescing onto an in-flight duplicate
  /// are always admitted - they start no new work. 0 (default) disables
  /// the bound entirely and keeps every counter and stats line exactly as
  /// before. Direct submit()/serve() callers are in-process batch code,
  /// not wire traffic, and bypass the bound.
  std::size_t max_queue = 0;
};

/// Verdict of an admission-checked submission (submit_streaming).
enum class Admission {
  kAdmitted,  ///< the outcome will be delivered to the callback
  kBusy,      ///< rejected by the bounded queue - retry later; the
              ///< callback will never run
};

/// The ok=false outcome of a job that produced no result: the job's
/// identity echoed (name, config, resolved backend, batch, transforms)
/// with `error` as the message. What every layer reports for a request
/// it could not run - an unresolvable network, a failed launch or
/// delivery, a cluster give-up.
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
  /// Result fidelity: only the outcome of a *fresh* simulation carries
  /// the per-layer result. Anything served from cache - a warm hit, a
  /// duplicate coalesced onto an in-flight simulation, a persisted-store
  /// hit - arrives summary-only (SweepOutcome::summary_only == true,
  /// empty result): the wire protocol reports nothing below the summary,
  /// and deep-copying the cached activation tensors per request was the
  /// dominant cost of the hit serving path. Callers needing per-layer
  /// data from cached results must use submit(), which always delivers
  /// full outcomes for in-memory hits.
  using CompletionCallback = std::function<void(core::SweepOutcome)>;

  explicit SimulationService(Options options = Options());
  ~SimulationService();

  SimulationService(const SimulationService&) = delete;
  SimulationService& operator=(const SimulationService&) = delete;

  /// Submits one request: a promise wrapper over the streaming path,
  /// exempt from the admission bound. The returned future resolves to the
  /// job's outcome: a cache hit resolves immediately (cache_hit = true;
  /// in-memory hits carry the full per-layer result), a miss when its
  /// simulation finishes on the pool. A launch or delivery failure
  /// resolves it with an ok=false outcome, never an exception. Throws
  /// PreconditionError for a malformed job (no network, non-finite
  /// clock, unknown backend, non-positive counts).
  [[nodiscard]] std::future<core::SweepOutcome> submit(core::SweepJob job);

  /// Hands out a fresh fair-scheduling lane id. Each session takes one at
  /// construction; direct submit() traffic shares lane 0.
  [[nodiscard]] std::uint64_t new_session_id();

  /// The streaming (wire-facing) submission path: admission-checked,
  /// fair-scheduled, callback-delivered. Returns kBusy - and does nothing
  /// except count the rejection - when the job would start a fresh
  /// simulation while ServiceOptions::max_queue admission-counted jobs
  /// are already in flight. Otherwise the outcome reaches `done` exactly
  /// once (inline for hits, from a pool runner for misses; a failed
  /// simulation task delivers an ok=false outcome rather than an
  /// exception). Fresh simulations are queued per `session_id` and
  /// dispatched round-robin across sessions with pending work, so one
  /// bulk submitter cannot starve interactive sessions. Throws
  /// PreconditionError for the same malformed jobs submit() rejects -
  /// always *before* the callback is registered, so on a throw the
  /// callback has not run and never will.
  [[nodiscard]] Admission submit_streaming(core::SweepJob job,
                                           std::uint64_t session_id,
                                           CompletionCallback done);

  /// Convenience blocking batch: submit everything (all in flight
  /// concurrently), wait for everything. Outcome i corresponds to
  /// jobs[i], exactly like SweepRunner::run.
  [[nodiscard]] std::vector<core::SweepOutcome> serve(
      std::vector<core::SweepJob> jobs);

  /// Snapshot of the cache counters.
  [[nodiscard]] CacheStats cache_stats() const;

  /// Blocks until no request is in flight (futures may still be pending
  /// delivery to their waiters, but all simulations have finished).
  void wait_idle();

  // --- cache persistence (survives service restarts) -----------------------
  //
  // A cache file stores (network fingerprint, EdeaConfig, backend id,
  // batch, dilation, depth multiplier) -> outcome *summaries* -
  // everything the line protocol reports (ok/error text plus the
  // RunSummary), not per-layer tensors - in a versioned, checksummed
  // binary format (util/binary.hpp + util/hash.hpp). The format is at
  // version 4 (version 1 predates backend-keyed entries, version 2
  // predates batch-keyed entries and the summary's peak_arena_bytes
  // field, version 3 predates the dilation/depth-multiplier key fields);
  // files of any other version are rejected loudly, never migrated - a
  // v1 file cannot say which dataflow produced its summaries, a v2 file
  // can neither say which batch nor decode into today's wider RunSummary,
  // and a v3 file cannot say which workload transform its fingerprints
  // were computed over. A request
  // that hits a persisted entry resolves immediately with a summary-only
  // outcome (SweepOutcome::summary_only) that formats bit-identically to
  // the line the original simulation produced, and is accounted as a
  // cache hit. Persisted entries are pinned: they never count against
  // cache_capacity and are never evicted (the file bounds them).

  /// Writes every completed result - live LRU entries plus previously
  /// loaded persisted entries - to `path`, atomically enough for a service
  /// restart (full rewrite, deterministic entry order). Returns the number
  /// of entries written. Throws ResourceError if the file cannot be
  /// written. Call after draining traffic (e.g. at shutdown); in-flight
  /// entries are not persisted.
  std::size_t save_cache(const std::string& path) const;

  /// Loads a cache file previously written by save_cache. Returns the
  /// number of entries loaded; a missing file is not an error (a first
  /// start has no cache) and returns 0. A malformed file - bad magic,
  /// version mismatch, truncation, checksum failure, trailing garbage -
  /// throws PreconditionError and leaves the cache unchanged. Keys already
  /// resident stay resident (the live entry wins). No-op when
  /// cache_capacity is 0 (memoization disabled disables persistence too).
  std::size_t load_cache(const std::string& path);

 private:
  /// Cache key: the workload fingerprint plus the exact configuration
  /// plus the backend id plus the batch size plus the workload-transform
  /// knobs (dilation, depth multiplier). The fingerprint is a content
  /// hash (collisions possible in principle) that already reflects the
  /// transformed layer specs; the other fields are compared exactly, and
  /// the map's equality uses all of them - a collision across different
  /// configs, dataflows, batch sizes, or transforms can never alias.
  struct Key {
    std::uint64_t fingerprint = 0;
    core::EdeaConfig config;
    std::string backend;
    int batch = 1;
    int dilation = 1;
    int depth_multiplier = 1;

    friend bool operator==(const Key&, const Key&) = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const noexcept {
      util::Fnv1a64 h;
      h.pod(k.fingerprint).pod(k.config.hash()).str(k.backend).pod(k.batch);
      h.pod(k.dilation).pod(k.depth_multiplier);
      return static_cast<std::size_t>(h.digest());
    }
  };

  /// One client of a submission: how it hears its outcome and what it is
  /// owed. Every waiter is a callback - submit() wraps a promise in one -
  /// and each hears the view its kind is owed (view_for).
  struct Waiter {
    CompletionCallback callback;
    std::string name;  ///< the waiter's own job name
    bool hit = false;  ///< whether this waiter was accounted as a hit
    /// submit() (in-process batch code): hits deliver the full outcome
    /// and the admission bound does not apply. Wire waiters
    /// (submit_streaming) hear hits summary-only and are bounded.
    bool in_process = false;
  };

  struct Entry {
    bool ready = false;
    /// Valid once ready. Shared (immutable) so hit paths can copy the
    /// outcome for their client *outside* the service lock.
    std::shared_ptr<const core::SweepOutcome> outcome;
    std::vector<Waiter> waiters;      ///< pending clients while simulating
    std::list<Key>::iterator lru;     ///< position in lru_ (ready only)
  };

  /// One admitted fresh simulation waiting in (or picked from) the fair
  /// queue. `use_cache` is false only on the cache_capacity == 0 path,
  /// where there is no Entry to complete - the runner delivers straight
  /// to `direct`.
  struct LaneJob {
    Key key;
    core::SweepJob job;
    bool use_cache = true;
    Waiter direct;  ///< armed iff !use_cache
    bool admission_counted = false;
  };

  /// Validates a submission's invariants (network present, finite clock,
  /// known backend, positive counts) and resolves the default backend.
  static void validate_job(core::SweepJob& job);

  /// The one submission path: validate, then serve a hit, coalesce onto
  /// an in-flight duplicate, or admit and launch a fresh simulation.
  /// Returns kBusy only for a wire waiter at the admission bound.
  Admission dispatch(core::SweepJob job, std::uint64_t session_id,
                     Waiter waiter);

  /// What `w` hears of a stored outcome: summary-only for a wire waiter's
  /// hit (see CompletionCallback), the full outcome otherwise.
  static core::SweepOutcome view_for(Waiter& w,
                                     const core::SweepOutcome& stored);

  /// Delivers the ok=false outcome of `job` under `w`'s name - the wire
  /// has no exception channel, only error lines. Never throws.
  static void fail(Waiter& w, const core::SweepJob& job,
                   const std::string& message);

  /// Stores a finished simulation (marks its entry complete, applies LRU
  /// eviction) and delivers it to every waiter. Runs on the pool at the
  /// end of each task.
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
  std::unordered_map<Key, Entry, KeyHash> cache_;
  std::list<Key> lru_;  ///< ready entries, most recently used first
  /// Entries loaded from a cache file: pinned (never evicted),
  /// summary-only outcomes. A key is never in both maps - persisted keys
  /// hit before they could miss into `cache_`, and load_cache skips keys
  /// already live.
  std::unordered_map<Key, std::shared_ptr<const core::SweepOutcome>, KeyHash>
      persisted_;
  CacheStats stats_;

  // --- fair scheduling + admission (guarded by mutex_) --------------------
  std::atomic<std::uint64_t> next_session_id_{1};
  /// Pending fresh simulations, one FIFO lane per session id.
  std::unordered_map<std::uint64_t, std::deque<LaneJob>> lanes_;
  /// Rotation of session ids with a non-empty lane (round-robin order).
  std::deque<std::uint64_t> lane_order_;
  std::size_t waiting_ = 0;         ///< jobs in lanes (the queued gauge)
  std::size_t admitted_ = 0;        ///< admission-counted jobs in flight
  std::size_t active_runners_ = 0;  ///< runner tasks alive on the pool
};

}  // namespace edea::service
