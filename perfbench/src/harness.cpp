#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>

#include "core/sweep_runner.hpp"
#include "service/pipeline_client.hpp"
#include "service/protocol.hpp"
#include "util/hash.hpp"

namespace perfbench {

namespace {

using edea::service::CacheStats;

constexpr std::size_t kMaxFailures = 8;

/// Set-up time each side of the timed phase should span at least.
constexpr double kSetupSpan = 2.0;

void note_failure(PhaseResult& result, std::string why) {
  ++result.failed;
  if (result.failures.size() < kMaxFailures) {
    result.failures.push_back(std::move(why));
  }
}

void merge(PhaseResult& into, PhaseResult&& from) {
  into.sent += from.sent;
  into.succeeded += from.succeeded;
  into.failed += from.failed;
  for (std::string& f : from.failures) {
    if (into.failures.size() < kMaxFailures) into.failures.push_back(f);
  }
  for (Served& s : from.fresh) into.fresh.push_back(std::move(s));
}

/// The value of `key=` in a reply, or "" when absent.
std::string field(const std::string& reply, const std::string& key) {
  const std::size_t at = reply.find(" " + key + "=");
  if (at == std::string::npos) return "";
  const std::size_t begin = at + key.size() + 2;
  const std::size_t end = reply.find(' ', begin);
  return reply.substr(begin, end == std::string::npos ? std::string::npos
                                                      : end - begin);
}

}  // namespace

Server::Server(unsigned pool_threads, std::size_t cache_capacity, int shard,
               std::uint64_t trace_stride)
    : shard_(shard), trace_stride_(trace_stride) {
  edea::service::ServiceOptions options;
  options.worker_threads = pool_threads;
  options.cache_capacity = cache_capacity;
  service_ = std::make_unique<edea::service::SimulationService>(options);
  transport_ = std::make_unique<edea::service::SocketTransport>(
      edea::service::SocketTransportOptions{});
  serve_thread_ = std::thread([this] {
    transport_->serve([this](edea::service::Stream& stream) {
      Recorder* recorder = active_recorder();
      if (recorder == nullptr) {
        (void)edea::service::Session(*service_, catalog_).serve(stream);
        return;
      }
      TracedServerStream traced(stream, *recorder, Side::kSession, shard_,
                                trace_stride_);
      (void)edea::service::Session(*service_, catalog_).serve(traced);
    });
  });
}

Server::~Server() {
  transport_->shutdown();
  serve_thread_.join();
}

RouterServer::RouterServer(edea::service::RouterOptions options,
                           std::uint64_t trace_stride)
    : trace_stride_(trace_stride), router_(std::move(options)) {
  transport_ = std::make_unique<edea::service::SocketTransport>(
      edea::service::SocketTransportOptions{});
  serve_thread_ = std::thread([this] {
    transport_->serve([this](edea::service::Stream& stream) {
      Recorder* recorder = active_recorder();
      edea::service::RouterSessionStats stats;
      if (recorder == nullptr) {
        stats = router_.serve(stream);
      } else {
        TracedServerStream traced(stream, *recorder, Side::kRouter, -1,
                                  trace_stride_);
        stats = router_.serve(traced);
      }
      const std::lock_guard<std::mutex> lock(mutex_);
      retries_ += stats.retries;
    });
  });
}

RouterServer::~RouterServer() {
  transport_->shutdown();
  serve_thread_.join();
}

std::uint64_t RouterServer::retries() {
  const std::lock_guard<std::mutex> lock(mutex_);
  return retries_;
}

Stack::Stack(const LoadShape& shape) : shape_(shape) {
  const int servers = shape.shards > 0 ? shape.shards : 1;
  for (int s = 0; s < servers; ++s) {
    servers_.push_back(std::make_unique<Server>(
        shape.pool_threads, shape.cache_capacity, shape.shards > 0 ? s : -1,
        shape.trace_stride));
  }
  if (shape.shards == 0) return;
  edea::service::RouterOptions options;
  ring_ = std::make_unique<edea::service::HashRing>(options.replicas);
  for (int s = 0; s < shape.shards; ++s) {
    const std::string id = "shard" + std::to_string(s);
    options.workers.push_back(
        edea::service::WorkerEndpoint{id, "127.0.0.1", servers_[s]->port()});
    ring_->add_node(id);
  }
  router_ = std::make_unique<RouterServer>(std::move(options),
                                           shape.trace_stride);
}

std::uint16_t Stack::port() const {
  return router_ ? router_->port() : servers_.front()->port();
}

std::vector<Server*> Stack::servers() {
  std::vector<Server*> out;
  for (auto& s : servers_) out.push_back(s.get());
  return out;
}

std::size_t Stack::owner(const std::string& line) const {
  if (!ring_) return 0;
  const edea::service::ParsedLine parsed =
      edea::service::parse_request_line(line);
  const std::string& id =
      ring_->owner(edea::service::route_key(parsed.request));
  return static_cast<std::size_t>(std::stoi(id.substr(5)));
}

CacheStats Stack::cache_totals() const {
  CacheStats total;
  for (const auto& s : servers_) {
    const CacheStats c = s->service().cache_stats();
    total.hits += c.hits;
    total.misses += c.misses;
    total.evictions += c.evictions;
    total.entries += c.entries;
  }
  return total;
}

std::vector<std::uint64_t> Stack::submissions() const {
  std::vector<std::uint64_t> out;
  for (const auto& s : servers_) {
    const CacheStats c = s->service().cache_stats();
    out.push_back(c.hits + c.misses);
  }
  return out;
}

std::uint64_t Stack::router_retries() const {
  return router_ ? router_->retries() : 0;
}

unsigned Stack::pool_threads() const {
  return shape_.pool_threads * static_cast<unsigned>(servers_.size());
}

edea::core::SweepJob job_for(
    const edea::service::Request& request,
    const edea::service::WorkloadCatalog::Workload& workload) {
  edea::core::SweepJob job;
  job.name = request.job_name();
  job.config = request.config;
  job.backend = request.backend;
  job.batch = request.batch;
  job.dilation = request.dilation;
  job.depth_multiplier = request.depth_multiplier;
  job.layers = &workload.layers;
  job.input = &workload.input;
  job.fingerprint = workload.fingerprint;
  return job;
}

std::string without_cache_field(const std::string& reply) {
  for (const char* token : {" cache=hit", " cache=miss"}) {
    const std::size_t at = reply.find(token);
    if (at != std::string::npos) {
      return reply.substr(0, at) + " cache=" +
             reply.substr(at + std::string(token).size());
    }
  }
  return reply;
}

std::string check_reply(const std::string& line, const std::string& reply,
                        const std::string* expected) {
  if (reply.empty()) return "no reply to '" + line + "'";
  std::uint64_t id = 0;
  int retry_ms = 0;
  if (edea::service::parse_busy_line(reply, &id, &retry_ms)) {
    return "busy after every retry: '" + line + "'";
  }
  if (expected != nullptr) {
    if (reply == *expected ||
        without_cache_field(reply) == without_cache_field(*expected)) {
      return "";
    }
    return "wrong reply to '" + line + "': '" + reply + "', expected '" +
           *expected + "'";
  }
  const edea::service::ParsedLine parsed =
      edea::service::parse_request_line(line);
  const std::string head = "ok " + parsed.request.job_name() + " ";
  if (reply.rfind(head, 0) != 0 ||
      reply.find(" cache=") == std::string::npos) {
    return "malformed reply to '" + line + "': '" + reply + "'";
  }
  return "";
}

std::vector<const std::string*> addresses(
    const std::vector<std::string>& replies) {
  std::vector<const std::string*> out;
  out.reserve(replies.size());
  for (const std::string& r : replies) out.push_back(&r);
  return out;
}

PhaseResult Client::send(std::vector<Point> points, LatencySink& sink,
                         Recorder* recorder,
                         const std::vector<const std::string*>& expected,
                         std::vector<std::string>* replies) {
  PhaseResult result;
  // The lines move out of the points, so a chunk holds each line once.
  std::vector<std::string> lines;
  lines.reserve(points.size());
  for (Point& p : points) lines.push_back(std::move(p.line));
  result.sent = lines.size();

  edea::service::PipelineReport report;
  try {
    ClientStream stream(
        edea::service::connect_socket("127.0.0.1", stack_.port(), 5000), sink,
        recorder, workload_.shape().trace_stride);
    edea::service::PipelineOptions options;
    options.window = workload_.shape().window;
    options.backoff_seed = seed_;
    report = edea::service::run_pipelined(stream, lines, options);
  } catch (const std::exception& e) {
    report.error = e.what();
  }
  if (!report.complete && report.responses.size() != lines.size()) {
    report.responses.assign(lines.size(), "");
  }
  for (std::size_t i = 0; i < points.size(); ++i) {
    const std::string& reply = report.responses[i];
    const std::string why = check_reply(
        lines[i], reply, i < expected.size() ? expected[i] : nullptr);
    if (why.empty()) {
      ++result.succeeded;
    } else {
      note_failure(result, why);
    }
    if (points[i].hot < 0) {
      points[i].line = lines[i];
      result.fresh.push_back(Served{std::move(points[i]), reply});
    }
  }
  // Unanswered requests are already counted above; keep the cause.
  if (!report.complete && result.failures.size() < kMaxFailures) {
    result.failures.push_back("connection failed: " + report.error);
  }
  if (replies != nullptr) *replies = std::move(report.responses);
  return result;
}

Pass run_pass(Workload& workload, double seconds, int min_setups,
              Recorder* recorder, std::uint64_t seed) {
  workload.restart();
  Pass pass;
  // One set-up: start the stack, pre-warm the catalogs, warm the hot set
  // through the wire. Returns its wall time.
  const auto set_up = [&](std::unique_ptr<Stack>& stack, PhaseResult& warm,
                          std::vector<std::string>* replies,
                          const std::vector<std::string>& expected) {
    const std::int64_t start = now_ns();
    stack = std::make_unique<Stack>(workload.shape());
    for (Server* server : stack->servers()) {
      for (const auto& [network, wseed, dilation, multiplier] :
           workload.prewarm_keys()) {
        (void)server->catalog().resolve(network, wseed, dilation, multiplier);
      }
    }
    if (!workload.hot_set().empty()) {
      LatencySink warm_sink(seed);
      Client client(workload, *stack, seed);
      merge(warm, client.send(workload.hot_set(), warm_sink, recorder,
                              addresses(expected), replies));
    }
    return seconds_since(start);
  };
  // Set-ups before the timed phase (the last one serves it) and as many
  // after it: the host's speed drifts on a scale of seconds, so spreading
  // them around the phase makes their median steadier than back-to-back
  // reps. Short set-ups repeat until each side spans kSetupSpan.
  pass.setup_s.push_back(set_up(pass.stack, pass.warm, &pass.hot_replies, {}));
  const int before =
      min_setups <= 1
          ? 1
          : std::max((min_setups + 1) / 2,
                     static_cast<int>(std::ceil(kSetupSpan /
                                                pass.setup_s.front())));
  for (int rep = 1; rep < before; ++rep) {
    pass.stack.reset();  // tear the previous set-up down outside the timing
    const std::vector<std::string> previous = pass.hot_replies;
    pass.setup_s.push_back(
        set_up(pass.stack, pass.warm, &pass.hot_replies, previous));
  }

  Stack& stack = *pass.stack;
  pass.sink = std::make_unique<LatencySink>(seed);
  pass.before = stack.cache_totals();
  pass.submissions_before = stack.submissions();
  const std::uint64_t retries_before = stack.router_retries();
  // Hot-set replies come back as hits: compare against the warm-up reply
  // with its cache field flipped, which makes the common case one
  // string comparison.
  std::vector<std::string> expected;
  for (const std::string& reply : pass.hot_replies) {
    const std::size_t at = reply.find(" cache=miss");
    expected.push_back(at == std::string::npos
                           ? reply
                           : reply.substr(0, at) + " cache=hit" +
                                 reply.substr(at + 11));
  }
  Client client(workload, stack, seed);
  pass.timed_start = now_ns();
  pass.timed = client.run(seconds, *pass.sink, recorder, expected);
  pass.timed_end = now_ns();
  pass.rss_mb = peak_rss_mb();
  pass.after = stack.cache_totals();
  pass.submissions_after = stack.submissions();
  pass.retries = stack.router_retries() - retries_before;

  // The later set-ups must warm the hot set to the same replies. They
  // start after the timed phase's stack, and the session threads its
  // transport kept, are gone.
  if (min_setups > 1) pass.stack.reset();
  for (int rep = 0; min_setups > 1 && rep < before; ++rep) {
    std::unique_ptr<Stack> extra;
    pass.setup_s.push_back(set_up(extra, pass.warm, nullptr, pass.hot_replies));
  }
  return pass;
}

PhaseResult Client::run(double seconds, LatencySink& sink, Recorder* recorder,
                        const std::vector<std::string>& hot_replies) {
  const LoadShape& shape = workload_.shape();
  const std::int64_t start = now_ns();
  const std::int64_t deadline =
      start + static_cast<std::int64_t>(seconds * 1e9);

  // One loop per connection: the calling thread drives connection 0, a
  // second thread connection 1 - with run_pipelined's reader threads that
  // is at most four client threads.
  const auto loop = [&](std::size_t connection, PhaseResult& out) {
    while (now_ns() < deadline) {
      std::vector<Point> points;
      std::vector<const std::string*> expected;
      points.reserve(shape.chunk);
      expected.reserve(shape.chunk);
      for (std::size_t i = 0; i < shape.chunk; ++i) {
        points.push_back(workload_.next(connection));
        const int hot = points.back().hot;
        expected.push_back(hot >= 0 && static_cast<std::size_t>(hot) <
                                           hot_replies.size()
                               ? &hot_replies[static_cast<std::size_t>(hot)]
                               : nullptr);
      }
      merge(out, send(std::move(points), sink, recorder, expected));
    }
  };

  std::vector<PhaseResult> results(shape.connections);
  std::vector<std::thread> others;
  for (std::size_t c = 1; c < shape.connections; ++c) {
    others.emplace_back(loop, c, std::ref(results[c]));
  }
  loop(0, results[0]);
  for (std::thread& t : others) t.join();

  PhaseResult total;
  for (PhaseResult& r : results) merge(total, std::move(r));
  total.wall_s = seconds_since(start);
  return total;
}

std::vector<std::string> recompute(const std::vector<Served>& served,
                                   unsigned threads) {
  edea::service::WorkloadCatalog catalog;
  std::vector<std::string> mismatches;
  std::mutex mutex;
  std::atomic<std::size_t> next{0};
  const auto work = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= served.size()) return;
      const Served& s = served[i];
      std::string line;
      try {
        const edea::service::ParsedLine parsed =
            edea::service::parse_request_line(s.point.line);
        const edea::service::Request& r = parsed.request;
        const auto& workload = catalog.resolve(r.network, r.seed, r.dilation,
                                               r.depth_multiplier);
        line = edea::service::format_outcome_line(
            edea::core::evaluate_job(job_for(r, workload)));
      } catch (const std::exception& e) {
        line = std::string("recompute threw: ") + e.what();
      }
      if (without_cache_field(line) != without_cache_field(s.reply)) {
        const std::lock_guard<std::mutex> lock(mutex);
        mismatches.push_back("reply to '" + s.point.line + "' was '" +
                             s.reply + "', recomputed '" + line + "'");
      }
    }
  };
  std::vector<std::thread> pool;
  for (unsigned t = 1; t < threads; ++t) pool.emplace_back(work);
  work();
  for (std::thread& t : pool) t.join();
  return mismatches;
}

std::uint64_t simulated_digest(const std::vector<std::string>& replies) {
  edea::util::Fnv1a64 h;
  for (const std::string& reply : replies) {
    if (reply.rfind("ok ", 0) != 0) {
      h.str("error");
      continue;
    }
    for (const char* key : {"cycles", "ops", "out", "layers"}) {
      h.str(field(reply, key));
    }
  }
  return h.digest();
}

double peak_rss_mb() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace perfbench
