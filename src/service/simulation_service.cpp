#include "service/simulation_service.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <utility>

#include "util/binary.hpp"
#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace edea::service {

namespace {

/// Cache file framing: magic + version up front, FNV-1a digest of every
/// preceding byte at the end. The magic doubles as an endianness probe -
/// it is written through ByteWriter::pod like everything else, so a file
/// from a foreign-endian host fails the magic check before anything is
/// decoded.
// Encoded so the *file bytes* (little-endian pod write) spell "EDEACAS\0":
// 'E'=0x45 'D'=0x44 'E'=0x45 'A'=0x41 'C'=0x43 'A'=0x41 'S'=0x53 0x00.
constexpr std::uint64_t kCacheMagic = 0x0053414341454445ull;
// Version 2: entries gained the backend id (the cache key became
// (fingerprint, config, backend)). Version 3: entries gained the batch
// size (the key became (fingerprint, config, backend, batch)) and
// RunSummary gained peak_arena_bytes. Version 4: entries gained the
// workload-transform knobs (the key became (fingerprint, config,
// backend, batch, dilation, depth_multiplier)). Older files are
// rejected, not migrated: a v1 file cannot say which dataflow produced
// its summaries, a v2 file can neither say which batch nor decode into
// the wider summary, and a v3 file cannot say which workload transform
// its fingerprints were computed over.
constexpr std::uint32_t kCacheVersion = 4;

/// Summary-level view of a cached outcome: everything the wire protocol
/// reports (verdict, error text, summary, config echo) and none of the
/// per-layer result payload. Streaming hits deliver this instead of a
/// deep copy of the cached outcome - the full result drags hundreds of
/// kilobytes of activation tensors per request through the allocator,
/// and it dominated the cache-hit serving path that pipelined sessions
/// are bounded by.
core::SweepOutcome summary_view(const core::SweepOutcome& full,
                                std::string name) {
  core::SweepOutcome out;
  out.name = std::move(name);
  out.config = full.config;
  out.backend = full.backend;
  out.batch = full.batch;
  out.dilation = full.dilation;
  out.depth_multiplier = full.depth_multiplier;
  out.ok = full.ok;
  out.error = full.error;
  out.summary = full.summary;
  out.cache_hit = true;
  out.summary_only = true;
  return out;
}

/// The message of the exception being handled. Call only inside a catch.
std::string current_error() {
  try {
    throw;
  } catch (const std::exception& e) {
    return e.what();
  } catch (...) {
    return "unknown simulation failure";
  }
}

}  // namespace

core::SweepOutcome failed_outcome(const core::SweepJob& job,
                                  std::string error) {
  core::SweepOutcome out;
  out.name = job.name;
  out.config = job.config;
  out.backend = job.backend;
  out.batch = job.batch;
  out.dilation = job.dilation;
  out.depth_multiplier = job.depth_multiplier;
  out.error = std::move(error);
  return out;
}

SimulationService::SimulationService(Options options)
    : options_(options),
      owned_pool_(options.worker_threads > 0
                      ? std::make_unique<util::ThreadPool>(
                            options.worker_threads)
                      : nullptr),
      pool_(owned_pool_ ? owned_pool_.get() : &util::ThreadPool::shared()) {
  EDEA_REQUIRE(options_.tile_parallelism >= 1,
               "service tile_parallelism must be >= 1 (1 = serial tiles)");
}

SimulationService::~SimulationService() { wait_idle(); }

void SimulationService::wait_idle() {
  std::unique_lock<std::mutex> lock(mutex_);
  // Runners count too: a runner that just completed the last job still
  // touches service state on its way out, and the destructor must not
  // pull that state out from under it.
  idle_cv_.wait(lock,
                [this] { return in_flight_ == 0 && active_runners_ == 0; });
}

CacheStats SimulationService::cache_stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  CacheStats snapshot = stats_;
  snapshot.entries = cache_.size() + persisted_.size();
  snapshot.in_flight = static_cast<std::uint64_t>(in_flight_);
  snapshot.queued = static_cast<std::uint64_t>(waiting_);
  snapshot.max_queue = static_cast<std::uint64_t>(options_.max_queue);
  return snapshot;
}

std::uint64_t SimulationService::new_session_id() {
  return next_session_id_.fetch_add(1, std::memory_order_relaxed);
}

void SimulationService::validate_job(core::SweepJob& job) {
  EDEA_REQUIRE(job.layers != nullptr && job.input != nullptr,
               "service request '" + job.name + "' must reference a network");
  // A NaN in the key would make it unequal to itself and strand the cache
  // entry (NaN != NaN); reject at the boundary instead.
  EDEA_REQUIRE(std::isfinite(job.config.clock_ghz),
               "service request '" + job.name + "' has a non-finite clock");
  // Resolve the backend up front: the cache key must use the id the
  // simulation will actually run on, and an unknown id must fail the
  // submitter here, not surface later as a broken future from the pool.
  if (job.backend.empty()) job.backend = std::string(core::kDefaultBackendId);
  EDEA_REQUIRE(core::backend_known(job.backend),
               "service request '" + job.name + "' names unknown backend '" +
                   job.backend +
                   "' (known: " + core::known_backends_string() + ")");
  EDEA_REQUIRE(job.batch >= 1,
               "service request '" + job.name +
                   "' must run a positive batch, got " +
                   std::to_string(job.batch));
  EDEA_REQUIRE(job.dilation >= 1,
               "service request '" + job.name +
                   "' must have dilation >= 1, got " +
                   std::to_string(job.dilation));
  EDEA_REQUIRE(job.depth_multiplier >= 1,
               "service request '" + job.name +
                   "' must have depth_multiplier >= 1, got " +
                   std::to_string(job.depth_multiplier));
}

core::SweepOutcome SimulationService::view_for(
    Waiter& w, const core::SweepOutcome& stored) {
  // A wire waiter's hit reads nothing below the summary, and copying the
  // cached per-layer result for it would be pure overhead - a measured
  // 6 us per request, the bulk of the hit path. In-process waiters and
  // the miss that simulated the entry get the full result: in-process
  // callers do read per-layer data, and a miss pays a whole simulation
  // anyway.
  if (w.hit && !w.in_process) return summary_view(stored, std::move(w.name));
  core::SweepOutcome out = stored;
  out.name = std::move(w.name);
  out.cache_hit = w.hit;
  return out;
}

void SimulationService::fail(Waiter& w, const core::SweepJob& job,
                             const std::string& message) {
  try {
    core::SweepOutcome failed = failed_outcome(job, message);
    failed.name = std::move(w.name);
    w.callback(std::move(failed));
  } catch (...) {
    // Callbacks are documented non-throwing; nothing more can be done.
  }
}

void SimulationService::enqueue_lane(std::uint64_t session_id,
                                     LaneJob& item) {
  // Runners are plain pool tasks; more than the pool's width could never
  // run concurrently, and a runner exits the moment every lane is dry, so
  // over-spawning costs one no-op task at most. The runner is spawned
  // before the job is queued, so a failed spawn leaves `item` untouched
  // (and a spawned runner cannot look for work before the caller releases
  // mutex_).
  if (active_runners_ < pool_->size()) {
    try {
      (void)pool_->submit([this] { runner_loop(); });
      ++active_runners_;
    } catch (...) {
      if (active_runners_ == 0) throw;  // nothing would ever run the job
      // A live runner will drain the lane.
    }
  }
  std::deque<LaneJob>& lane = lanes_[session_id];
  if (lane.empty()) lane_order_.push_back(session_id);
  lane.push_back(std::move(item));
  ++waiting_;
}

bool SimulationService::next_lane_job(LaneJob* out) {
  // Round-robin across sessions: take the front session's oldest job,
  // then rotate the session to the back if it still has work. One bulk
  // session with a deep lane advances one job per turn, so interactive
  // sessions interleave instead of queueing behind it.
  while (!lane_order_.empty()) {
    const std::uint64_t sid = lane_order_.front();
    lane_order_.pop_front();
    auto it = lanes_.find(sid);
    if (it == lanes_.end() || it->second.empty()) continue;
    *out = std::move(it->second.front());
    it->second.pop_front();
    if (it->second.empty()) {
      lanes_.erase(it);
    } else {
      lane_order_.push_back(sid);
    }
    return true;
  }
  return false;
}

void SimulationService::runner_loop() {
  for (;;) {
    LaneJob item;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (!next_lane_job(&item)) {
        --active_runners_;
        if (in_flight_ == 0 && active_runners_ == 0) idle_cv_.notify_all();
        return;
      }
      --waiting_;
    }

    // Any escape here (evaluate_job never throws simulation failures,
    // but allocation can fail) must still resolve the waiters and the
    // in-flight count - a dropped exception would hang clients.
    try {
      complete(item, core::evaluate_job(item.job, options_.tile_parallelism));
    } catch (...) {
      abandon(item, current_error());
    }

    if (item.admission_counted) {
      const std::lock_guard<std::mutex> lock(mutex_);
      --admitted_;
    }
  }
}

std::future<core::SweepOutcome> SimulationService::submit(core::SweepJob job) {
  // std::function needs a copyable target, so the promise is shared.
  auto promise = std::make_shared<std::promise<core::SweepOutcome>>();
  std::future<core::SweepOutcome> future = promise->get_future();
  Waiter waiter;
  waiter.callback = [promise](core::SweepOutcome outcome) {
    promise->set_value(std::move(outcome));
  };
  waiter.in_process = true;  // exempt from the bound: never busy
  (void)dispatch(std::move(job), 0, std::move(waiter));
  return future;
}

Admission SimulationService::submit_streaming(core::SweepJob job,
                                              std::uint64_t session_id,
                                              CompletionCallback done) {
  EDEA_REQUIRE(done != nullptr,
               "submit_streaming for '" + job.name +
                   "' needs a completion callback");
  Waiter waiter;
  waiter.callback = std::move(done);
  return dispatch(std::move(job), session_id, std::move(waiter));
}

Admission SimulationService::dispatch(core::SweepJob job,
                                      std::uint64_t session_id,
                                      Waiter waiter) {
  validate_job(job);

  // The fingerprint walks the whole workload - reuse the one the caller
  // precomputed (WorkloadCatalog materialization); hash only when absent,
  // and outside the lock.
  const Key key{job.fingerprint != 0
                    ? job.fingerprint
                    : core::network_fingerprint(*job.layers, *job.input),
                job.config,
                job.backend,
                job.batch,
                job.dilation,
                job.depth_multiplier};
  waiter.name = job.name;
  const bool bounded = options_.max_queue > 0 && !waiter.in_process;
  // Memoization disabled (capacity 0): every submission is a fresh
  // simulation with no entry to coalesce onto.
  const bool use_cache = options_.cache_capacity > 0;

  std::shared_ptr<const core::SweepOutcome> cached;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    if (use_cache) {
      if (auto it = cache_.find(key); it != cache_.end()) {
        ++stats_.hits;
        waiter.hit = true;
        Entry& entry = it->second;
        if (!entry.ready) {
          // Coalescing starts no new work - always admitted, even at the
          // bound: rejecting it would punish exactly the duplicate the
          // cache exists to absorb.
          entry.waiters.push_back(std::move(waiter));
          return Admission::kAdmitted;
        }
        lru_.splice(lru_.begin(), lru_, entry.lru);  // touch
        cached = entry.outcome;
      } else if (auto pit = persisted_.find(key); pit != persisted_.end()) {
        // Served from the restart-surviving summary cache: no simulation,
        // accounted as a hit.
        ++stats_.hits;
        waiter.hit = true;
        cached = pit->second;
      }
    }

    if (!cached) {
      if (bounded && admitted_ >= options_.max_queue) {
        ++stats_.rejected;
        return Admission::kBusy;
      }
      ++stats_.misses;
      ++in_flight_;
      if (bounded) {
        ++admitted_;
        stats_.peak_queue = std::max<std::uint64_t>(
            stats_.peak_queue, static_cast<std::uint64_t>(admitted_));
      }
      LaneJob item;
      item.key = key;
      item.job = std::move(job);
      item.use_cache = use_cache;
      item.admission_counted = bounded;
      if (use_cache) {
        cache_[key].waiters.push_back(std::move(waiter));
      } else {
        item.direct = std::move(waiter);
      }
      try {
        enqueue_lane(session_id, item);
      } catch (...) {
        // Launch failure after admission: unwind the accounting and fail
        // every waiter with an ok=false outcome - once kAdmitted is
        // decided the waiter always hears back, so nothing is rethrown.
        if (bounded) --admitted_;
        lock.unlock();
        abandon(item, current_error());
      }
      return Admission::kAdmitted;
    }
  }

  // A hit: the copy (or summary view) happens outside the lock.
  waiter.callback(view_for(waiter, *cached));
  return Admission::kAdmitted;
}

void SimulationService::complete(LaneJob& item, core::SweepOutcome outcome) {
  // Allocations come before any state mutation: if one throws, the entry
  // is still cleanly pending and the caller's abandon() path takes over
  // without losing waiters.
  std::shared_ptr<const core::SweepOutcome> stored;
  std::vector<Waiter> waiters;
  if (item.use_cache) {
    stored = std::make_shared<const core::SweepOutcome>(std::move(outcome));
  } else {
    waiters.push_back(std::move(item.direct));
  }
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (item.use_cache) {
      auto it = cache_.find(item.key);
      EDEA_ASSERT(it != cache_.end() && !it->second.ready,
                  "service completed a request with no pending cache entry");
      Entry& entry = it->second;
      lru_.push_front(item.key);  // the only throwing op under the lock
      entry.lru = lru_.begin();
      entry.outcome = stored;
      entry.ready = true;
      waiters = std::move(entry.waiters);
      entry.waiters.clear();
      // Evict least-recently-used completed results beyond capacity.
      // In-flight entries are never in lru_, so they are pinned, and the
      // just-inserted front entry survives (capacity here is >= 1).
      while (lru_.size() > options_.cache_capacity) {
        const Key victim = lru_.back();
        lru_.pop_back();
        cache_.erase(victim);
        ++stats_.evictions;
      }
    }
    --in_flight_;  // idle waiters hear from this runner's exit
  }
  // Fulfill outside the lock: delivery may run waiter continuations
  // (future::get in another thread, a session callback) that immediately
  // resubmit. A copy failure for one waiter must not strand the others.
  for (Waiter& w : waiters) {
    try {
      w.callback(stored ? view_for(w, *stored) : std::move(outcome));
    } catch (...) {
      // The waiter must still hear *something* or its reply slot hangs
      // forever; a summary-free error outcome is the best effort.
      fail(w, item.job, "result delivery failed");
    }
  }
}

void SimulationService::abandon(LaneJob& item, const std::string& message) {
  std::vector<Waiter> waiters;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (!item.use_cache) {
      waiters.push_back(std::move(item.direct));
    } else if (auto it = cache_.find(item.key);
               it != cache_.end() && !it->second.ready) {
      waiters = std::move(it->second.waiters);
      cache_.erase(it);  // pending entries are never in lru_
    }
    --in_flight_;
    if (in_flight_ == 0 && active_runners_ == 0) idle_cv_.notify_all();
  }
  for (Waiter& w : waiters) fail(w, item.job, message);
}

std::size_t SimulationService::save_cache(const std::string& path) const {
  // Snapshot under the lock: previously loaded persisted entries plus
  // every *ready* live entry (in-flight entries have no result yet). The
  // two maps never share a key, so the merge is a plain concatenation.
  std::vector<std::pair<Key, std::shared_ptr<const core::SweepOutcome>>>
      entries;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    entries.reserve(persisted_.size() + cache_.size());
    for (const auto& [key, outcome] : persisted_) {
      entries.emplace_back(key, outcome);
    }
    for (const auto& [key, entry] : cache_) {
      if (entry.ready) entries.emplace_back(key, entry.outcome);
    }
  }
  // Deterministic file bytes: unordered_map iteration order must not leak
  // into the artifact (same cache state -> same file, diffable).
  std::sort(entries.begin(), entries.end(),
            [](const auto& a, const auto& b) {
              if (a.first.fingerprint != b.first.fingerprint) {
                return a.first.fingerprint < b.first.fingerprint;
              }
              if (a.first.config.hash() != b.first.config.hash()) {
                return a.first.config.hash() < b.first.config.hash();
              }
              if (a.first.backend != b.first.backend) {
                return a.first.backend < b.first.backend;
              }
              if (a.first.batch != b.first.batch) {
                return a.first.batch < b.first.batch;
              }
              if (a.first.dilation != b.first.dilation) {
                return a.first.dilation < b.first.dilation;
              }
              return a.first.depth_multiplier < b.first.depth_multiplier;
            });

  util::ByteWriter w;
  w.pod(kCacheMagic);
  w.pod(kCacheVersion);
  w.pod(static_cast<std::uint64_t>(entries.size()));
  for (const auto& [key, outcome] : entries) {
    w.pod(key.fingerprint);
    key.config.encode(w);
    w.str(key.backend);
    w.pod(static_cast<std::int32_t>(key.batch));
    w.pod(static_cast<std::int32_t>(key.dilation));
    w.pod(static_cast<std::int32_t>(key.depth_multiplier));
    w.pod(static_cast<std::uint8_t>(outcome->ok ? 1 : 0));
    w.str(outcome->error);
    outcome->summary.encode(w);
  }
  const std::uint64_t digest =
      util::Fnv1a64().bytes(w.buffer().data(), w.buffer().size()).digest();

  // Write-then-rename: a crash mid-write must leave the previous cache
  // file intact, never a checksum-invalid torso that blocks the next
  // start. rename(2) on the same filesystem is atomic.
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (out.good()) {
      out.write(w.buffer().data(),
                static_cast<std::streamsize>(w.buffer().size()));
      out.write(reinterpret_cast<const char*>(&digest), sizeof(digest));
      out.flush();
    }
    if (!out.good()) {
      throw ResourceError("cannot write cache file '" + tmp + "'");
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw ResourceError("cannot move cache file into place at '" + path +
                        "'");
  }
  return entries.size();
}

std::size_t SimulationService::load_cache(const std::string& path) {
  if (options_.cache_capacity == 0) return 0;  // memoization disabled

  std::ifstream in(path, std::ios::binary);
  if (!in.good()) return 0;  // a first start has no cache file
  std::ostringstream content;
  content << in.rdbuf();
  const std::string bytes = content.str();

  EDEA_REQUIRE(bytes.size() >= sizeof(kCacheMagic) + sizeof(kCacheVersion) +
                                   sizeof(std::uint64_t) * 2,
               "cache file '" + path + "' is truncated");
  const std::size_t payload_size = bytes.size() - sizeof(std::uint64_t);
  std::uint64_t stored_digest = 0;
  std::memcpy(&stored_digest, bytes.data() + payload_size,
              sizeof(stored_digest));
  const std::uint64_t digest =
      util::Fnv1a64().bytes(bytes.data(), payload_size).digest();
  EDEA_REQUIRE(digest == stored_digest,
               "cache file '" + path + "' failed its checksum (corrupted)");

  util::ByteReader r(std::string_view(bytes).substr(0, payload_size));
  EDEA_REQUIRE(r.pod<std::uint64_t>() == kCacheMagic,
               "cache file '" + path + "' has the wrong magic");
  const auto version = r.pod<std::uint32_t>();
  EDEA_REQUIRE(version == kCacheVersion,
               "cache file '" + path + "' has unsupported version " +
                   std::to_string(version));
  const auto count = r.pod<std::uint64_t>();

  // Decode fully before touching service state, so a malformed tail can
  // never leave a half-loaded cache behind.
  // Each entry decodes straight into the summary-only outcome a hit on
  // it is served from; its key is read back out of the outcome.
  std::vector<std::pair<Key, std::shared_ptr<const core::SweepOutcome>>>
      entries;
  entries.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    const auto fingerprint = r.pod<std::uint64_t>();
    auto out = std::make_shared<core::SweepOutcome>();
    out->config = core::EdeaConfig::decode(r);
    out->backend = r.str();
    EDEA_REQUIRE(core::backend_known(out->backend),
                 "cache file '" + path + "' names unknown backend '" +
                     out->backend +
                     "' (known: " + core::known_backends_string() +
                     ") - entries could never be served");
    out->batch = static_cast<int>(r.pod<std::int32_t>());
    EDEA_REQUIRE(out->batch >= 1,
                 "cache file '" + path + "' has an entry with batch " +
                     std::to_string(out->batch) + " (must be >= 1)");
    out->dilation = static_cast<int>(r.pod<std::int32_t>());
    EDEA_REQUIRE(out->dilation >= 1,
                 "cache file '" + path + "' has an entry with dilation " +
                     std::to_string(out->dilation) + " (must be >= 1)");
    out->depth_multiplier = static_cast<int>(r.pod<std::int32_t>());
    EDEA_REQUIRE(out->depth_multiplier >= 1,
                 "cache file '" + path +
                     "' has an entry with depth_multiplier " +
                     std::to_string(out->depth_multiplier) +
                     " (must be >= 1)");
    out->ok = r.pod<std::uint8_t>() != 0;
    out->error = r.str();
    out->summary = core::RunSummary::decode(r);
    out->summary_only = true;
    Key key{fingerprint,   out->config,   out->backend,
            out->batch,    out->dilation, out->depth_multiplier};
    entries.emplace_back(std::move(key), std::move(out));
  }
  EDEA_REQUIRE(r.exhausted(),
               "cache file '" + path + "' has trailing garbage");

  std::size_t loaded = 0;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (auto& [key, outcome] : entries) {
      if (cache_.find(key) != cache_.end()) continue;  // live entry wins
      persisted_.insert_or_assign(key, std::move(outcome));
      ++loaded;
    }
  }
  return loaded;
}

std::vector<core::SweepOutcome> SimulationService::serve(
    std::vector<core::SweepJob> jobs) {
  std::vector<std::future<core::SweepOutcome>> futures;
  futures.reserve(jobs.size());
  for (core::SweepJob& job : jobs) futures.push_back(submit(std::move(job)));
  std::vector<core::SweepOutcome> outcomes;
  outcomes.reserve(futures.size());
  for (std::future<core::SweepOutcome>& f : futures) {
    outcomes.push_back(f.get());
  }
  return outcomes;
}

}  // namespace edea::service
