#include "service/simulation_service.hpp"

#include <algorithm>
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
// size and RunSummary gained peak_arena_bytes. Version 4: entries gained
// the workload-transform knobs; since then an entry's key is exactly
// core::JobKey::encode's, so a new key dimension means a new version.
// Older files are rejected, not migrated: a v1 file cannot say which
// dataflow produced its summaries, a v2 file can neither say which batch
// nor decode into the wider summary, and a v3 file cannot say which
// workload transform its fingerprints were computed over.
constexpr std::uint32_t kCacheVersion = 4;

/// Summary-level view of an outcome under `name`, as a hit hears it:
/// everything the wire protocol and the cache file report (verdict, error
/// text, summary, key echo) and none of the per-layer result. This is
/// what the cache stores, so an entry costs a few hundred bytes rather
/// than its run's activation tensors (64-233 KB for the zoo networks).
core::SweepOutcome summary_view(const core::SweepOutcome& full,
                                std::string name) {
  core::SweepOutcome out;
  static_cast<core::JobKey&>(out) = full;
  out.name = std::move(name);
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
  static_cast<core::JobKey&>(out) = job;
  out.name = job.name;
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
  snapshot.entries = cache_.size();
  snapshot.in_flight = static_cast<std::uint64_t>(in_flight_);
  snapshot.queued = static_cast<std::uint64_t>(waiting_);
  snapshot.max_queue = static_cast<std::uint64_t>(options_.max_queue);
  return snapshot;
}

std::uint64_t SimulationService::new_session_id() {
  return next_session_id_.fetch_add(1, std::memory_order_relaxed);
}

void SimulationService::validate_job(const core::SweepJob& job) {
  EDEA_REQUIRE(job.layers != nullptr && job.input != nullptr,
               "service request '" + job.name + "' must reference a network");
  // A non-finite clock, an unknown backend or a count < 1 must fail the
  // submitter here, not surface later as a failed outcome from the pool.
  job.validate("service request", job.name);
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
  }
}

Admission SimulationService::submit_streaming(core::SweepJob job,
                                              std::uint64_t session_id,
                                              CompletionCallback done) {
  EDEA_REQUIRE(done != nullptr,
               "submit_streaming for '" + job.name +
                   "' needs a completion callback");
  validate_job(job);

  // The fingerprint walks the whole workload - reuse the one the caller
  // precomputed (WorkloadCatalog materialization); hash only when absent,
  // and outside the lock.
  const Key key{job.fingerprint != 0
                    ? job.fingerprint
                    : core::network_fingerprint(*job.layers, *job.input),
                job};
  Waiter waiter{std::move(done), job.name};
  const bool bounded = options_.max_queue > 0;

  std::shared_ptr<const core::SweepOutcome> cached;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    if (auto it = cache_.find(key); it != cache_.end()) {
      ++stats_.hits;
      Entry& entry = it->second;
      if (!entry.outcome) {
        // Coalescing starts no new work - always admitted, even at the
        // bound: rejecting it would punish exactly the duplicate the
        // cache exists to absorb.
        entry.waiters.push_back(std::move(waiter));
        return Admission::kAdmitted;
      }
      if (!entry.pinned) lru_.splice(lru_.begin(), lru_, entry.lru);  // touch
      cached = entry.outcome;
    } else {
      if (bounded && in_flight_ >= options_.max_queue) {
        ++stats_.rejected;
        return Admission::kBusy;
      }
      ++stats_.misses;
      ++in_flight_;
      if (bounded) {
        stats_.peak_queue = std::max<std::uint64_t>(
            stats_.peak_queue, static_cast<std::uint64_t>(in_flight_));
      }
      LaneJob item{key, std::move(job), std::move(waiter)};
      try {
        // The pending entry later duplicates coalesce onto. Memoization
        // disabled (capacity 0): no entry, every submission simulates.
        if (use_cache()) cache_.try_emplace(key);
        enqueue_lane(session_id, item);
      } catch (...) {
        // Launch failure after admission: unwind the accounting and fail
        // every waiter with an ok=false outcome - once kAdmitted is
        // decided the waiter always hears back, so nothing is rethrown.
        lock.unlock();
        abandon(item, current_error());
      }
      return Admission::kAdmitted;
    }
  }

  // A hit: the summary copy happens outside the lock.
  waiter.callback(summary_view(*cached, std::move(waiter.name)));
  return Admission::kAdmitted;
}

void SimulationService::complete(LaneJob& item, core::SweepOutcome outcome) {
  // Allocations come before any state mutation: if one throws, the entry
  // is still cleanly pending and the caller's abandon() path takes over
  // without losing waiters.
  std::shared_ptr<const core::SweepOutcome> stored;
  std::vector<Waiter> waiters;
  if (use_cache()) {
    stored = std::make_shared<const core::SweepOutcome>(
        summary_view(outcome, std::string()));
  }
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (use_cache()) {
      auto it = cache_.find(item.key);
      EDEA_ASSERT(it != cache_.end() && !it->second.outcome,
                  "service completed a request with no pending cache entry");
      Entry& entry = it->second;
      lru_.push_front(item.key);  // the only throwing op under the lock
      entry.lru = lru_.begin();
      entry.outcome = stored;
      waiters = std::move(entry.waiters);
      entry.waiters.clear();
      // Evict least-recently-used completed results beyond capacity.
      // In-flight and pinned entries are never in lru_, and the
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
  // Fulfill outside the lock: delivery may run waiter continuations (a
  // promise's reader, a session callback) that immediately resubmit. The
  // submitter takes the full outcome; a copy failure for one duplicate
  // must not strand the others.
  try {
    item.waiter.callback(std::move(outcome));
  } catch (...) {
    // The waiter must still hear *something* or its reply slot hangs
    // forever; a summary-free error outcome is the best effort.
    fail(item.waiter, item.job, "result delivery failed");
  }
  for (Waiter& w : waiters) {
    try {
      w.callback(summary_view(*stored, std::move(w.name)));
    } catch (...) {
      fail(w, item.job, "result delivery failed");
    }
  }
}

void SimulationService::abandon(LaneJob& item, const std::string& message) {
  std::vector<Waiter> waiters;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (auto it = cache_.find(item.key);
        it != cache_.end() && !it->second.outcome) {
      waiters = std::move(it->second.waiters);
      cache_.erase(it);  // pending entries are never in lru_
    }
    --in_flight_;
    if (in_flight_ == 0 && active_runners_ == 0) idle_cv_.notify_all();
  }
  fail(item.waiter, item.job, message);
  for (Waiter& w : waiters) fail(w, item.job, message);
}

std::size_t SimulationService::save_cache(const std::string& path) const {
  // Snapshot under the lock: every ready entry, pinned or not (in-flight
  // entries have no result yet).
  std::vector<std::pair<Key, std::shared_ptr<const core::SweepOutcome>>>
      entries;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    entries.reserve(cache_.size());
    for (const auto& [key, entry] : cache_) {
      if (entry.outcome) entries.emplace_back(key, entry.outcome);
    }
  }
  // Deterministic file bytes: unordered_map iteration order must not leak
  // into the artifact (same cache state -> same file, diffable).
  std::sort(entries.begin(), entries.end(),
            [](const auto& a, const auto& b) {
              if (a.first.fingerprint != b.first.fingerprint) {
                return a.first.fingerprint < b.first.fingerprint;
              }
              return a.first.job.precedes(b.first.job);
            });

  util::ByteWriter w;
  w.pod(kCacheMagic);
  w.pod(kCacheVersion);
  w.pod(static_cast<std::uint64_t>(entries.size()));
  for (const auto& [key, outcome] : entries) {
    w.pod(key.fingerprint);
    key.job.encode(w);
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
  if (!use_cache()) return 0;  // memoization disabled

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
  // Every entry holds at least its fingerprint and two length-prefixed
  // strings, so a count the rest of the payload cannot hold is corrupt -
  // rejected before anything is allocated for it.
  EDEA_REQUIRE(count <= r.remaining() / (3 * sizeof(std::uint64_t)),
               "cache file '" + path + "' claims " + std::to_string(count) +
                   " entries in " + std::to_string(r.remaining()) +
                   " bytes");

  // Decode fully before touching service state, so a malformed tail can
  // never leave a half-loaded cache behind.
  // Each entry decodes straight into the summary view a hit on it is
  // served from; its key is read back out of the outcome.
  std::vector<std::pair<Key, std::shared_ptr<const core::SweepOutcome>>>
      entries;
  entries.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    const auto fingerprint = r.pod<std::uint64_t>();
    auto out = std::make_shared<core::SweepOutcome>();
    static_cast<core::JobKey&>(*out) = core::JobKey::decode(r, path);
    out->ok = r.pod<std::uint8_t>() != 0;
    out->error = r.str();
    out->summary = core::RunSummary::decode(r);
    out->summary_only = true;
    Key key{fingerprint, *out};
    entries.emplace_back(std::move(key), std::move(out));
  }
  EDEA_REQUIRE(r.exhausted(),
               "cache file '" + path + "' has trailing garbage");

  std::size_t loaded = 0;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (auto& [key, outcome] : entries) {
      auto [it, inserted] = cache_.try_emplace(key);
      if (!inserted) continue;  // a resident or in-flight entry wins
      it->second.outcome = std::move(outcome);
      it->second.pinned = true;
      ++loaded;
    }
  }
  return loaded;
}

}  // namespace edea::service
