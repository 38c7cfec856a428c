#include "service/router.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <memory>
#include <thread>
#include <unordered_map>
#include <utility>

#include "core/sweep_runner.hpp"
#include "service/simulation_service.hpp"
#include "service/transport.hpp"
#include "util/backoff.hpp"
#include "util/check.hpp"
#include "util/hash.hpp"
#include "util/random.hpp"

namespace edea::service {

namespace {

using Clock = std::chrono::steady_clock;

/// Reply-FIFO entry for a fanned-out `stats` line. Request ids start at 1,
/// so 0 is free to mark the one reply per channel that belongs to the
/// stats aggregator instead of a pending request.
constexpr std::uint64_t kStatsMarker = 0;

}  // namespace

std::uint64_t route_key(const Request& request) {
  return util::Fnv1a64()
      .str(request.network)
      .pod(request.seed)
      .pod(request.config.hash())
      .str(request.backend)
      .pod(request.batch)
      .pod(request.dilation)
      .pod(request.depth_multiplier)
      .digest();
}

ClusterRouter::ClusterRouter(RouterOptions options)
    : options_(std::move(options)), ring_(options_.replicas) {
  EDEA_REQUIRE(!options_.workers.empty(),
               "cluster router needs at least one worker");
  validate_wire_options(options_, "router");
  EDEA_REQUIRE(options_.max_attempts >= 1,
               "router max_attempts must be >= 1, got " +
                   std::to_string(options_.max_attempts));
  EDEA_REQUIRE(options_.retry_base_ms >= 1,
               "router retry_base_ms must be >= 1, got " +
                   std::to_string(options_.retry_base_ms));
  EDEA_REQUIRE(options_.connect_timeout_ms >= 1,
               "router connect_timeout_ms must be >= 1, got " +
                   std::to_string(options_.connect_timeout_ms));
  for (const WorkerEndpoint& worker : options_.workers) {
    // add_node rejects empty and duplicate ids for us.
    ring_.add_node(worker.id);
    endpoints_.emplace(worker.id, worker);
  }
}

std::vector<std::string> ClusterRouter::live_workers() const {
  const std::lock_guard<std::mutex> lock(membership_mutex_);
  return ring_.nodes();
}

std::optional<WorkerEndpoint> ClusterRouter::owner_of(
    std::uint64_t key) const {
  const std::lock_guard<std::mutex> lock(membership_mutex_);
  if (ring_.empty()) return std::nullopt;
  return endpoints_.at(ring_.owner(key));
}

bool ClusterRouter::mark_dead(const std::string& id) {
  const std::lock_guard<std::mutex> lock(membership_mutex_);
  return ring_.remove_node(id);
}

/// One routed client session: the client's WireFront, dispatching every
/// run line to a worker over per-worker forwarding channels:
///
///   channel     one ordered-mode connection to one worker, opened lazily
///               on first use, plus a reader thread matching its replies
///               FIFO against the ids sent down it. The id is pushed onto
///               the FIFO and the line written under one per-channel write
///               lock, so FIFO order always equals wire order.
///   pending     every forwarded request until it finalizes: the parsed
///               request (for rerouting after a death), the raw line (what
///               re-sends forward), the reply slot, and the attempt count.
///   retry pump  a timer thread re-sending requests whose worker answered
///               busy or died, after a jittered backoff. A request is
///               re-sent only once its FIFO entry is gone (popped for busy,
///               stolen by the death handler), so it is on at most one
///               worker at a time - the no-duplicates half of the failover
///               invariant; finalize-exactly-once is the no-loss half.
class RouterSession final : public WireFront::Dispatch {
 public:
  RouterSession(ClusterRouter& router, Stream& client)
      : router_(router),
        opt_(router.options_),
        front_(client, opt_, stats_),
        rng_(opt_.backoff_seed) {}

  RouterSessionStats serve();

  void submit(std::uint64_t id, const Request& request,
              const std::string& line,
              const WireFront::Reply& reply) override;
  std::string stats_line() override;
  void drained() override;

 private:
  struct Pending {
    Request request;       ///< for rerouting and give-up error lines
    std::string raw_line;  ///< forwarded verbatim on every attempt
    WireFront::Reply reply;
    int attempts = 0;  ///< forwarding attempts consumed (sends + failed
                       ///< connects)
  };

  struct Channel {
    std::string worker_id;
    std::unique_ptr<Stream> stream;
    std::thread reader;
    /// Serializes {FIFO push + wire write} so FIFO order is wire order.
    std::mutex write_mutex;
    /// Ids awaiting replies, in wire order (guarded by mutex_).
    std::deque<std::uint64_t> fifo;
    bool broken = false;  ///< guarded by mutex_; death handled once
  };

  void finalize_line_locked(std::uint64_t id, std::string payload,
                            bool self_identifying);
  void finalize_error_locked(std::uint64_t id, const std::string& message);
  void schedule_retry_locked(std::uint64_t id, std::int64_t delay_ms);
  void pump_retries();
  void resend(std::uint64_t id);
  bool send_run(Channel* channel, std::uint64_t id);
  void send_stats(Channel* channel);
  Channel* get_or_create_channel(const WorkerEndpoint& worker);
  void channel_reader(Channel* channel);
  /// Consumes one reply line on a channel. Returns false on a FIFO/parse
  /// desync - wire corruption, treated as a worker death.
  bool handle_reply(Channel* channel, const std::string& line);
  void handle_channel_death(Channel* channel);

  ClusterRouter& router_;
  const RouterOptions& opt_;
  RouterSessionStats stats_;
  WireFront front_;

  std::mutex mutex_;
  std::condition_variable retry_cv_;  // retry pump waits for due work
  std::condition_variable fan_cv_;    // stats barrier waits for replies
  std::unordered_map<std::uint64_t, Pending> pending_;
  bool closing_ = false;     ///< clean shutdown: channel EOFs are not deaths
  bool stop_retry_ = false;  ///< retry pump may exit once retries_ drains
  std::vector<std::pair<Clock::time_point, std::uint64_t>> retries_;
  Rng rng_;  ///< backoff jitter (guarded by mutex_)

  /// The (single, barrier-serialized) in-flight stats fan-out.
  struct Fanout {
    std::size_t awaiting = 0;
    std::vector<std::pair<std::string, CacheStats>> collected;
  } fan_;

  std::mutex channels_mutex_;  ///< serializes channel creation/lookup
  std::map<std::string, std::unique_ptr<Channel>> channels_;

  std::thread pump_;  ///< the retry pump; joined in drained()
};

void RouterSession::finalize_line_locked(std::uint64_t id, std::string payload,
                                         bool self_identifying) {
  const auto it = pending_.find(id);
  EDEA_ASSERT(it != pending_.end(),
              "router finalized request " + std::to_string(id) + " twice");
  const WireFront::Reply reply = std::move(it->second.reply);
  pending_.erase(it);
  front_.finish(reply, std::move(payload), self_identifying);
}

void RouterSession::finalize_error_locked(std::uint64_t id,
                                          const std::string& message) {
  finalize_line_locked(
      id,
      format_outcome_line(failed_outcome(pending_.at(id).request.job(),
                                         message)),
      false);
}

void RouterSession::schedule_retry_locked(std::uint64_t id,
                                          std::int64_t delay_ms) {
  retries_.emplace_back(Clock::now() + std::chrono::milliseconds(delay_ms),
                        id);
  retry_cv_.notify_all();
}

void RouterSession::resend(std::uint64_t id) {
  for (;;) {
    std::uint64_t key = 0;
    int attempts = 0;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      const auto it = pending_.find(id);
      if (it == pending_.end()) return;  // already finalized
      key = route_key(it->second.request);
      attempts = it->second.attempts;
    }
    if (attempts >= opt_.max_attempts) {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (pending_.find(id) != pending_.end()) {
        finalize_error_locked(
            id, "cluster: request failed after " + std::to_string(attempts) +
                    " attempts (no reachable worker)");
      }
      return;
    }
    const std::optional<WorkerEndpoint> owner = router_.owner_of(key);
    if (!owner.has_value()) {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (pending_.find(id) != pending_.end()) {
        finalize_error_locked(id, "cluster: no live workers");
      }
      return;
    }
    Channel* channel = get_or_create_channel(*owner);
    if (channel == nullptr) {
      // Unreachable worker: treat exactly like a death and burn one
      // attempt, so a cluster of black holes converges on the error line
      // instead of looping.
      const bool first_observer = router_.mark_dead(owner->id);
      const std::lock_guard<std::mutex> lock(mutex_);
      if (first_observer) ++stats_.failovers;
      const auto it = pending_.find(id);
      if (it == pending_.end()) return;
      ++it->second.attempts;
      if (it->second.attempts > 1) ++stats_.retries;
      continue;
    }
    if (send_run(channel, id)) return;
    // The channel broke between lookup and send: route again.
  }
}

bool RouterSession::send_run(Channel* channel, std::uint64_t id) {
  const std::lock_guard<std::mutex> write_lock(channel->write_mutex);
  std::string raw;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (channel->broken) return false;
    const auto it = pending_.find(id);
    if (it == pending_.end()) return true;  // finalized while routing
    channel->fifo.push_back(id);
    ++it->second.attempts;
    ++stats_.forwarded;
    if (it->second.attempts > 1) ++stats_.retries;
    raw = it->second.raw_line;
  }
  if (!channel->stream->write_line(raw)) {
    // The death handler steals the FIFO entry just pushed and reschedules
    // (or finalizes) it - accounting is complete either way.
    handle_channel_death(channel);
  }
  return true;
}

void RouterSession::send_stats(Channel* channel) {
  const std::lock_guard<std::mutex> write_lock(channel->write_mutex);
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (channel->broken) return;
    channel->fifo.push_back(kStatsMarker);
    ++fan_.awaiting;
  }
  if (!channel->stream->write_line("stats")) handle_channel_death(channel);
}

RouterSession::Channel* RouterSession::get_or_create_channel(
    const WorkerEndpoint& worker) {
  const std::lock_guard<std::mutex> lock(channels_mutex_);
  const auto it = channels_.find(worker.id);
  if (it != channels_.end()) return it->second.get();
  std::unique_ptr<Stream> stream;
  try {
    stream = connect_socket(worker.host, worker.port, opt_.connect_timeout_ms);
  } catch (const std::exception&) {
    return nullptr;
  }
  auto channel = std::make_unique<Channel>();
  channel->worker_id = worker.id;
  channel->stream = std::move(stream);
  Channel* raw = channel.get();
  channels_.emplace(worker.id, std::move(channel));
  raw->reader = std::thread([this, raw] { channel_reader(raw); });
  return raw;
}

bool RouterSession::handle_reply(Channel* channel, const std::string& line) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (channel->fifo.empty()) return false;  // reply with nothing in flight
  const std::uint64_t front = channel->fifo.front();

  if (front == kStatsMarker) {
    CacheStats parsed;
    if (!parse_stats_line(line, &parsed)) return false;
    channel->fifo.pop_front();
    fan_.collected.emplace_back(channel->worker_id, parsed);
    --fan_.awaiting;
    fan_cv_.notify_all();
    return true;
  }

  std::uint64_t worker_wire_id = 0;
  int retry_ms = 0;
  if (parse_busy_line(line, &worker_wire_id, &retry_ms)) {
    // The embedded id is the *worker's* wire id, not ours - FIFO position
    // is the match. The router owns the retry (the client asked us, not
    // the worker); only when attempts run out does the client see a busy
    // line, re-written with its own id.
    channel->fifo.pop_front();
    ++stats_.busy_replies;
    Pending& pending = pending_.at(front);
    if (pending.attempts >= opt_.max_attempts) {
      finalize_line_locked(front, format_busy_line(front, retry_ms), true);
    } else {
      schedule_retry_locked(
          front, jittered_backoff_ms(pending.attempts, retry_ms, rng_));
    }
    return true;
  }

  channel->fifo.pop_front();
  finalize_line_locked(front, line, false);
  return true;
}

void RouterSession::channel_reader(Channel* channel) {
  std::string line;
  while (channel->stream->read_line(line)) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (channel->broken) return;  // death already handled elsewhere
    }
    if (!handle_reply(channel, line)) break;
  }
  handle_channel_death(channel);
}

void RouterSession::handle_channel_death(Channel* channel) {
  std::deque<std::uint64_t> stolen;
  bool was_closing = false;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (channel->broken) return;  // first observer wins
    channel->broken = true;
    stolen.swap(channel->fifo);
    was_closing = closing_;
  }
  // A clean shutdown EOF (close_write drained the worker) is not a death:
  // the worker stays on the ring for other sessions. Anything still on
  // the FIFO means the connection dropped mid-flight - that *is* a death.
  if (was_closing && stolen.empty()) return;
  router_.mark_dead(channel->worker_id);
  const std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.failovers;
  for (const std::uint64_t entry : stolen) {
    if (entry == kStatsMarker) {
      --fan_.awaiting;
      fan_cv_.notify_all();
      continue;
    }
    Pending& pending = pending_.at(entry);
    if (pending.attempts >= opt_.max_attempts) {
      finalize_error_locked(
          entry, "cluster: request failed after " +
                     std::to_string(pending.attempts) + " attempts (worker '" +
                     channel->worker_id + "' died)");
    } else {
      schedule_retry_locked(
          entry,
          jittered_backoff_ms(pending.attempts, opt_.retry_base_ms, rng_));
    }
  }
}

std::string RouterSession::stats_line() {
  // Cluster barrier: the front asks only once every preceding request has
  // finalized, so each worker has completed (and replied to) everything
  // this session sent it - their counters are quiescent with respect to
  // this session.
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    fan_.awaiting = 0;
    fan_.collected.clear();
  }
  // Fan out to *every* live worker, not just ones this session has
  // routed to: a shard's persisted entries count even when no request
  // of ours has landed on it yet, and the single-process stats line the
  // merge must reproduce counts all of them.
  for (const std::string& worker_id : router_.live_workers()) {
    Channel* channel = get_or_create_channel(router_.endpoints_.at(worker_id));
    if (channel == nullptr) {
      const bool first_observer = router_.mark_dead(worker_id);
      if (first_observer) {
        const std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.failovers;
      }
      continue;
    }
    send_stats(channel);
  }
  std::unique_lock<std::mutex> lock(mutex_);
  fan_cv_.wait(lock, [&] { return fan_.awaiting == 0; });
  // Deterministic merge: sum in sorted worker order. Addition commutes,
  // but the order is part of the contract so future non-commutative
  // fields (or debugging output) stay reproducible.
  std::sort(fan_.collected.begin(), fan_.collected.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  CacheStats merged;
  for (const auto& [worker_id, shard] : fan_.collected) {
    merged.hits += shard.hits;
    merged.misses += shard.misses;
    merged.evictions += shard.evictions;
    merged.entries += shard.entries;
    merged.in_flight += shard.in_flight;
    merged.queued += shard.queued;
    merged.rejected += shard.rejected;
    merged.peak_queue += shard.peak_queue;
    merged.max_queue += shard.max_queue;  // presence flag: any shard
  }
  return format_stats_line(merged);
}

void RouterSession::submit(std::uint64_t id, const Request& request,
                           const std::string& line,
                           const WireFront::Reply& reply) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    pending_.emplace(id, Pending{request, line, reply});
  }
  // The initial send is attempt 1 of the same bounded loop re-sends use -
  // routing, connecting, and failure handling are one path.
  resend(id);
}

void RouterSession::pump_retries() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    if (retries_.empty()) {
      if (stop_retry_) return;
      retry_cv_.wait(lock);
      continue;
    }
    const auto earliest = std::min_element(
        retries_.begin(), retries_.end(),
        [](const auto& a, const auto& b) { return a.first < b.first; });
    if (Clock::now() >= earliest->first) {
      const std::uint64_t id = earliest->second;
      retries_.erase(earliest);
      lock.unlock();
      resend(id);
      lock.lock();
    } else {
      retry_cv_.wait_until(lock, earliest->first);
    }
  }
}

void RouterSession::drained() {
  // Every forwarded request has finalized (reply, busy give-up, or error
  // line) - retries kept pumping until then, so a mid-drain worker death
  // still rerouted rather than losing replies.
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stop_retry_ = true;
    closing_ = true;
  }
  retry_cv_.notify_all();
  pump_.join();

  // Half-close every channel; each worker session drains and closes, the
  // channel reader sees EOF and exits (not a death - `closing_` is set
  // and the FIFOs are empty). No lock needed for the joins: channels are
  // only created by the front's reader thread and the (now joined) retry
  // pump.
  {
    const std::lock_guard<std::mutex> lock(channels_mutex_);
    for (auto& [worker_id, channel] : channels_) {
      channel->stream->close_write();
    }
  }
  for (auto& [worker_id, channel] : channels_) {
    channel->reader.join();
  }
}

RouterSessionStats RouterSession::serve() {
  pump_ = std::thread([this] { pump_retries(); });
  front_.serve(*this);
  return stats_;
}

RouterSessionStats ClusterRouter::serve(Stream& stream) {
  RouterSession session(*this, stream);
  return session.serve();
}

std::size_t merge_cache_files(const std::vector<std::string>& shard_paths,
                              const std::string& out_path) {
  // One service big enough to hold every shard's entries; load_cache
  // keeps already-resident keys, so the first file wins a collision
  // (collisions are bit-identical when shards agree on the simulation,
  // which deterministic workers guarantee).
  ServiceOptions options;
  options.worker_threads = 1;
  options.cache_capacity = std::size_t{1} << 20;
  SimulationService service(options);
  for (const std::string& path : shard_paths) {
    service.load_cache(path);  // missing shard files load as empty
  }
  return service.save_cache(out_path);
}

}  // namespace edea::service
