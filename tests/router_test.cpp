// router_test - the cluster tier (service/router.hpp): consistent-hash
// routing across worker simulation servers. The acceptance criteria of
// the cluster PR are pinned directly:
//
//   * a routed ordered serve is byte-identical to a single-process stdio
//     serve of the same stream, for every versioned request corpus the
//     examples ship;
//   * unordered mode answers every request id exactly once with the same
//     payloads, in some completion order;
//   * killing a worker mid-stream (through a ChaosProxy) loses no reply,
//     duplicates no reply, and leaves the output byte-identical - failover
//     reroutes the dead worker's in-flight requests to the survivors;
//   * merged `stats` equals the single-process stats line and is
//     deterministic across identical runs;
//   * per-shard persisted caches merge into one file equal to what a
//     single process would have persisted.
#include "service/router.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "service/chaos_proxy.hpp"
#include "service/hash_ring.hpp"
#include "service/protocol.hpp"
#include "service/session.hpp"
#include "service/transport.hpp"
#include "util/check.hpp"

namespace edea::service {
namespace {

/// An in-process worker: a real SocketTransport serving real Sessions, so
/// the router talks to exactly the wire a spawned server process exposes.
struct LoopbackWorker {
  SimulationService svc;
  WorkloadCatalog catalog;
  SocketTransport transport;
  std::thread thread;

  explicit LoopbackWorker(SessionOptions session_options = SessionOptions())
      : transport(SocketTransportOptions{}) {
    thread = std::thread([this, session_options] {
      transport.serve([this, session_options](Stream& stream) {
        Session(svc, catalog, session_options).serve(stream);
      });
    });
  }

  ~LoopbackWorker() {
    transport.shutdown();
    if (thread.joinable()) thread.join();
  }
};

/// Routes `lines` through a ClusterRouter over a stdio stream and returns
/// the response lines.
std::vector<std::string> serve_routed(ClusterRouter& router,
                                      const std::vector<std::string>& lines,
                                      RouterSessionStats* stats_out = nullptr,
                                      Stream* custom_stream = nullptr) {
  std::ostringstream joined;
  for (const std::string& line : lines) joined << line << "\n";
  std::istringstream in(joined.str());
  std::ostringstream out;
  StdioStream stdio(in, out);
  RouterSessionStats stats =
      router.serve(custom_stream != nullptr ? *custom_stream : stdio);
  if (stats_out != nullptr) *stats_out = stats;

  std::vector<std::string> responses;
  std::istringstream replay(out.str());
  std::string line;
  while (std::getline(replay, line)) responses.push_back(line);
  return responses;
}

/// The single-process reference: one stdio Session against a fresh
/// service, the bytes every routed serve is compared to.
std::vector<std::string> serve_reference(
    const std::vector<std::string>& lines) {
  SimulationService svc;
  WorkloadCatalog catalog;
  std::ostringstream joined;
  for (const std::string& line : lines) joined << line << "\n";
  std::istringstream in(joined.str());
  std::ostringstream out;
  StdioStream stream(in, out);
  Session(svc, catalog).serve(stream);

  std::vector<std::string> responses;
  std::istringstream replay(out.str());
  std::string line;
  while (std::getline(replay, line)) responses.push_back(line);
  return responses;
}

std::vector<std::string> read_corpus(const std::string& name) {
  const std::string path = std::string(EDEA_EXAMPLES_DIR) + "/" + name;
  std::ifstream file(path);
  EDEA_REQUIRE(file.good(), "cannot open request corpus " + path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(file, line)) lines.push_back(line);
  return lines;
}

RouterOptions attach(const std::vector<const LoopbackWorker*>& workers) {
  RouterOptions options;
  for (std::size_t i = 0; i < workers.size(); ++i) {
    options.workers.push_back(WorkerEndpoint{
        "shard" + std::to_string(i), "127.0.0.1", workers[i]->transport.port()});
  }
  return options;
}

/// N cheap distinct-key run lines (every one a miss wherever it lands, so
/// placement and rerouting cannot change a byte of any reply).
std::vector<std::string> distinct_runs(int count) {
  std::vector<std::string> lines;
  for (int i = 0; i < count; ++i) {
    lines.push_back("run mobilenet-0.25x seed=" + std::to_string(100 + i) +
                    " td=16");
  }
  return lines;
}

TEST(RouteKeyTest, PartitionsByEveryCacheKeyDimension) {
  const auto key_of = [](const std::string& line) {
    const ParsedLine parsed = parse_request_line(line, "edea", 1, 1, 1);
    EDEA_REQUIRE(parsed.kind == ParsedLine::Kind::kRun, "want a run line");
    return route_key(parsed.request);
  };
  const std::uint64_t base = key_of("run mobilenet-0.25x seed=3 td=16");
  EXPECT_EQ(key_of("run mobilenet-0.25x seed=3 td=16"), base)
      << "identical requests must land on the same shard";
  EXPECT_NE(key_of("run mobilenet-0.25x seed=4 td=16"), base);
  EXPECT_NE(key_of("run mobilenet-0.25x seed=3 td=32"), base);
  EXPECT_NE(key_of("run mobilenet-0.25x seed=3 td=16 batch=2"), base);
  EXPECT_NE(key_of("run mobilenet-0.25x seed=3 td=16 dilation=2"), base);
  EXPECT_NE(key_of("run mobilenet-0.25x seed=3 td=16 depth_multiplier=2"),
            base);
  EXPECT_NE(key_of("run mobilenet-0.25x seed=3 td=16 backend=serialized"),
            base);
  EXPECT_NE(key_of("run edeanet-64 seed=3 td=16"), base);
}

TEST(RouteKeyTest, RingPlacementIsPinned) {
  // Ring keys must not move between releases: a restarted --worker
  // cluster would send every key to a shard that never cached it.
  // perfbench's Stack::owner predicts shards with route_key too.
  const auto key_of = [](const std::string& line) {
    const ParsedLine parsed = parse_request_line(line);
    EDEA_REQUIRE(parsed.kind == ParsedLine::Kind::kRun, "want a run line");
    return route_key(parsed.request);
  };
  EXPECT_EQ(key_of("run mobilenet-0.25x seed=3 td=16"),
            0x0bc39973dcf885d9ull);
  EXPECT_EQ(key_of("run mobilenet-0.25x seed=3 td=16 backend=serialized "
                   "batch=2 dilation=2 depth_multiplier=3"),
            0x10a78e1345950a90ull);
}

TEST(ClusterRouterTest, OrderedServeIsByteIdenticalToStdioForEveryCorpus) {
  // The tentpole acceptance criterion, over the same versioned request
  // corpora the CI loopback legs replay.
  for (const char* corpus :
       {"simulation_requests.txt", "simulation_requests_backends.txt",
        "simulation_requests_transforms.txt"}) {
    SCOPED_TRACE(corpus);
    const std::vector<std::string> lines = read_corpus(corpus);
    const std::vector<std::string> expected = serve_reference(lines);

    LoopbackWorker w0, w1, w2;
    ClusterRouter router(attach({&w0, &w1, &w2}));
    RouterSessionStats stats;
    EXPECT_EQ(serve_routed(router, lines, &stats), expected);
    EXPECT_EQ(stats.failovers, 0u);
    EXPECT_EQ(stats.retries, 0u);
  }
}

TEST(ClusterRouterTest, RepeatedServesAgainstWarmShardsTurnIntoHits) {
  // Same-key -> same-shard routing means a second identical session hits
  // every shard cache, mirroring a warm single process.
  const std::vector<std::string> lines = read_corpus("simulation_requests.txt");
  LoopbackWorker w0, w1;
  ClusterRouter router(attach({&w0, &w1}));
  (void)serve_routed(router, lines);

  std::vector<std::string> warm_lines = lines;
  warm_lines.push_back("stats");
  const std::vector<std::string> warm = serve_routed(router, warm_lines);
  ASSERT_FALSE(warm.empty());
  const std::string stats_line = warm.back();
  CacheStats merged;
  ASSERT_TRUE(parse_stats_line(stats_line, &merged)) << stats_line;
  EXPECT_EQ(merged.misses, 10u) << "all misses happened in the cold session";
  EXPECT_GE(merged.hits, 15u) << "warm session answers from shard caches";
}

TEST(ClusterRouterTest, UnorderedModeAnswersEveryIdExactlyOnce) {
  const std::vector<std::string> runs = distinct_runs(12);
  const std::vector<std::string> expected = serve_reference(runs);

  std::vector<std::string> lines;
  lines.push_back("mode unordered");
  lines.insert(lines.end(), runs.begin(), runs.end());
  lines.push_back("walk nowhere");  // protocol error, answered locally

  LoopbackWorker w0, w1, w2;
  ClusterRouter router(attach({&w0, &w1, &w2}));
  const std::vector<std::string> responses = serve_routed(router, lines);

  // Every line is id-prefixed; ids 1..14 appear exactly once.
  ASSERT_EQ(responses.size(), lines.size());
  std::map<std::uint64_t, std::string> by_id;
  for (const std::string& response : responses) {
    std::uint64_t id = 0;
    std::string rest;
    ASSERT_TRUE(parse_unordered_line(response, &id, &rest)) << response;
    EXPECT_TRUE(by_id.emplace(id, rest).second)
        << "id " << id << " answered twice";
  }
  ASSERT_EQ(by_id.size(), lines.size());
  EXPECT_EQ(by_id.at(1), "mode unordered");
  EXPECT_EQ(by_id.at(14).rfind("protocol-error ", 0), 0u) << by_id.at(14);
  for (std::size_t i = 0; i < runs.size(); ++i) {
    EXPECT_EQ(by_id.at(i + 2), expected[i])
        << "unordered payloads must match the ordered reference";
  }
}

TEST(ClusterRouterTest, OrderedOptionRefusesUnorderedSwitch) {
  const std::vector<std::string> runs = distinct_runs(3);
  std::vector<std::string> lines;
  lines.push_back("mode unordered");
  lines.insert(lines.end(), runs.begin(), runs.end());

  LoopbackWorker w0, w1;
  RouterOptions options = attach({&w0, &w1});
  options.allow_unordered = false;
  ClusterRouter router(std::move(options));
  const std::vector<std::string> responses = serve_routed(router, lines);

  ASSERT_EQ(responses.size(), 4u);
  EXPECT_EQ(responses[0], "mode ordered") << "the switch is refused";
  EXPECT_EQ(std::vector<std::string>(responses.begin() + 1, responses.end()),
            serve_reference(runs));
}

TEST(ClusterRouterTest, BatchFramesAndProtocolErrorsMatchSessionBytes) {
  // Frames, frame violations, and malformed lines are all answered by the
  // router locally; the bytes must still equal the single-process serve.
  const std::vector<std::string> lines = {
      "batch-begin 2",
      "run mobilenet-0.25x seed=201 td=16",
      "run mobilenet-0.25x seed=202 td=16",
      "batch-end",
      "batch-end",                           // outside a frame
      "batch-begin 3",
      "run mobilenet-0.25x seed=203 td=16",
      "batch-end",                           // early: 1 of 3
      "walk nowhere",
      "batch-begin 1",
      "batch-begin 1",                       // nested
      "batch-end",
      "batch-begin 2",
      "run mobilenet-0.25x seed=204 td=16",  // truncated by EOF
  };
  const std::vector<std::string> expected = serve_reference(lines);
  LoopbackWorker w0, w1;
  ClusterRouter router(attach({&w0, &w1}));
  RouterSessionStats stats;
  EXPECT_EQ(serve_routed(router, lines, &stats), expected);
  EXPECT_EQ(stats.frames, 4u);
  EXPECT_EQ(stats.protocol_errors, 5u);

  // Two more cases the Session suite pins (service_stream_test): the
  // overrun line, and the unordered -> ordered switch-back. Spliced in
  // ahead of the EOF-truncated frame, which must stay last.
  std::vector<std::string> corpus(lines.begin(), lines.end() - 2);
  corpus.insert(corpus.end(), {
                                  "batch-begin 1",
                                  "run mobilenet-0.25x seed=205 td=16",
                                  "run mobilenet-0.25x seed=206 td=16",  // overrun
                                  "batch-end",  // then outside a frame
                                  "mode unordered",
                                  "mode ordered",  // switch back
                                  "run mobilenet-0.25x seed=207 td=16",
                              });
  corpus.insert(corpus.end(), lines.end() - 2, lines.end());
  // Fresh workers per serve: every run must be a miss, as in the fresh
  // single-process reference.
  const auto routed = [](const std::vector<std::string>& stream) {
    LoopbackWorker a, b;
    ClusterRouter cold(attach({&a, &b}));
    return serve_routed(cold, stream);
  };
  EXPECT_EQ(routed(corpus), serve_reference(corpus));

  // The same corpus after `mode unordered`: completion order is free, but
  // every id answers the Session's payload. Replies after the switch-back
  // are bare and leave in id order, so they take the ids no prefixed
  // reply claimed.
  const auto by_id = [](const std::vector<std::string>& responses) {
    std::map<std::uint64_t, std::string> payloads;
    std::vector<std::string> bare;
    for (const std::string& response : responses) {
      std::uint64_t id = 0;
      std::string rest;
      if (parse_unordered_line(response, &id, &rest)) {
        EXPECT_TRUE(payloads.emplace(id, rest).second) << "id " << id;
      } else {
        bare.push_back(response);
      }
    }
    std::uint64_t next = 1;
    for (const std::string& response : bare) {
      while (payloads.count(next) != 0) ++next;
      payloads.emplace(next, response);
    }
    return payloads;
  };
  std::vector<std::string> unordered = {"mode unordered"};
  unordered.insert(unordered.end(), corpus.begin(), corpus.end());
  const std::map<std::uint64_t, std::string> session_payloads =
      by_id(serve_reference(unordered));
  EXPECT_EQ(by_id(routed(unordered)), session_payloads);
  EXPECT_EQ(session_payloads.rbegin()->first, session_payloads.size())
      << "ids 1..N each answered once";
}

TEST(ClusterRouterTest, MergedStatsAreDeterministicAndMatchSingleProcess) {
  std::vector<std::string> lines = read_corpus("simulation_requests.txt");
  lines.push_back("stats");
  const std::vector<std::string> expected = serve_reference(lines);

  for (int repeat = 0; repeat < 2; ++repeat) {
    SCOPED_TRACE(repeat);
    LoopbackWorker w0, w1;
    ClusterRouter router(attach({&w0, &w1}));
    EXPECT_EQ(serve_routed(router, lines), expected)
        << "per-shard counters must merge to the single-process stats line";
  }
}

/// A stdio stream that fires a kill switch when the reader asks for line
/// `kill_before` - after every earlier line was read AND forwarded (the
/// router routes each request before reading the next line), so requests
/// routed to the killed worker are verifiably in flight or already
/// answered, never silently unread.
class KillSwitchStream : public Stream {
 public:
  KillSwitchStream(std::vector<std::string> lines, std::size_t kill_before,
                   ChaosProxy& proxy, std::ostringstream& out)
      : lines_(std::move(lines)),
        kill_before_(kill_before),
        proxy_(proxy),
        out_(out) {}

  bool read_line(std::string& line) override {
    if (next_ == kill_before_) proxy_.kill();
    if (next_ >= lines_.size()) return false;
    line = lines_[next_++];
    return true;
  }

  bool write_line(const std::string& line) override {
    out_ << line << "\n";
    return true;
  }

  bool write_lines(const std::vector<std::string>& lines) override {
    for (const std::string& line : lines) out_ << line << "\n";
    return true;
  }

 private:
  std::vector<std::string> lines_;
  std::size_t kill_before_;
  ChaosProxy& proxy_;
  std::ostringstream& out_;
  std::size_t next_ = 0;
};

TEST(ClusterRouterTest, KillingAWorkerMidStreamLosesAndDuplicatesNothing) {
  // Three workers; shard2 is reached through a chaos proxy that dies after
  // every request line has been read and routed. shard2's in-flight
  // requests are reroute onto the survivors; with all-distinct keys every
  // reply is a miss wherever it runs, so the output must still be
  // byte-identical to the single-process reference - which simultaneously
  // proves no reply was lost, duplicated, or reordered.
  const std::vector<std::string> lines = distinct_runs(48);
  const std::vector<std::string> expected = serve_reference(lines);

  LoopbackWorker w0, w1, w2;
  ChaosProxy proxy("127.0.0.1", w2.transport.port());

  RouterOptions options = attach({&w0, &w1});
  options.workers.push_back(WorkerEndpoint{"shard2", "127.0.0.1",
                                           proxy.port()});
  options.retry_base_ms = 1;  // keep the failover pause test-fast

  // Sanity: the ring must actually route something through the proxy,
  // otherwise the kill would test nothing. Mirrors the router's ring.
  HashRing ring(options.replicas);
  ring.add_node("shard0");
  ring.add_node("shard1");
  ring.add_node("shard2");
  std::size_t proxied = 0;
  for (const std::string& line : lines) {
    const ParsedLine parsed = parse_request_line(line, "edea", 1, 1, 1);
    if (ring.owner(route_key(parsed.request)) == "shard2") ++proxied;
  }
  ASSERT_GT(proxied, 0u) << "pick seeds that hash onto the proxied shard";

  ClusterRouter router(std::move(options));
  std::ostringstream out;
  KillSwitchStream stream(lines, lines.size(), proxy, out);
  const RouterSessionStats stats = router.serve(stream);

  std::vector<std::string> responses;
  std::istringstream replay(out.str());
  std::string line;
  while (std::getline(replay, line)) responses.push_back(line);

  EXPECT_EQ(responses, expected);
  EXPECT_EQ(stats.failovers, 1u) << "exactly one worker died";
  EXPECT_EQ(router.live_workers(),
            (std::vector<std::string>{"shard0", "shard1"}));
  EXPECT_GE(stats.forwarded, lines.size());
}

/// A scripted worker on a loopback socket: it accepts the `mode
/// unordered` handshake, then answers its lines in bursts of scripted
/// sizes, each burst in reverse arrival order with `id=` prefixes - the
/// payloads computed by a real Session over its own service, in arrival
/// order. The line with wire id `busy_wire_id` is answered
/// `busy id=<n> retry_ms=1` instead (and not simulated), so its re-send
/// arrives as a later burst. EOF ends the conversation early.
struct ScriptedWorker {
  SimulationService svc;
  WorkloadCatalog catalog;
  SocketTransport transport{SocketTransportOptions{}};
  std::vector<std::size_t> bursts;
  std::uint64_t busy_wire_id;
  std::thread thread;

  ScriptedWorker(std::vector<std::size_t> burst_sizes, std::uint64_t busy)
      : bursts(std::move(burst_sizes)), busy_wire_id(busy) {
    thread = std::thread(
        [this] { transport.serve([this](Stream& s) { converse(s); }); });
  }
  ~ScriptedWorker() {
    transport.shutdown();
    thread.join();
  }

  void converse(Stream& stream) {
    std::uint64_t next_id = 1;
    std::vector<std::pair<std::uint64_t, std::string>> held;
    std::string line;
    if (stream.read_line(line)) {
      if (line == "mode unordered") {
        (void)stream.write_line(
            format_unordered_line(next_id++, "mode unordered"));
      } else {
        held.emplace_back(next_id++, line);
      }
    }
    for (const std::size_t size : bursts) {
      while (held.size() < size && stream.read_line(line)) {
        held.emplace_back(next_id++, line);
      }
      std::vector<std::string> simulated;
      for (const auto& [id, text] : held) {
        if (id != busy_wire_id) simulated.push_back(text);
      }
      const std::vector<std::string> payloads = serve_on(simulated);
      std::vector<std::string> replies;
      std::size_t next_payload = 0;
      for (const auto& [id, text] : held) {
        replies.push_back(id == busy_wire_id
                              ? format_busy_line(id, 1)
                              : format_unordered_line(
                                    id, payloads.at(next_payload++)));
      }
      (void)stream.write_lines({replies.rbegin(), replies.rend()});
      held.clear();
    }
    while (stream.read_line(line)) {
    }  // like a real worker, hold the connection until the router's EOF
  }

  /// The ordered replies of one Session over `lines`, against svc.
  std::vector<std::string> serve_on(const std::vector<std::string>& lines) {
    std::ostringstream joined;
    for (const std::string& l : lines) joined << l << "\n";
    std::istringstream in(joined.str());
    std::ostringstream out;
    StdioStream stdio(in, out);
    Session(svc, catalog).serve(stdio);
    std::vector<std::string> replies;
    std::istringstream replay(out.str());
    std::string l;
    while (std::getline(replay, l)) replies.push_back(l);
    return replies;
  }
};

TEST(ClusterRouterTest, RepliesMatchByWireIdInAnyOrder) {
  // One shard answering six runs in reverse order - the third as busy,
  // its re-send in a burst of its own - then the stats barrier, then two
  // more runs, reversed. Matching by the worker's wire id must restore
  // the single-process bytes; matching by FIFO position cannot.
  std::vector<std::string> lines = distinct_runs(8);
  lines.insert(lines.begin() + 6, "stats");
  const std::vector<std::string> expected = serve_reference(lines);

  // Wire ids: 1 the handshake, 2-7 the first six runs (4 answered busy),
  // 8 its re-send, 9 stats, 10-11 the last two runs.
  ScriptedWorker worker({6, 1, 1, 2}, 4);
  RouterOptions options;
  options.workers.push_back(
      WorkerEndpoint{"shard0", "127.0.0.1", worker.transport.port()});
  ClusterRouter router(std::move(options));
  RouterSessionStats stats;
  EXPECT_EQ(serve_routed(router, lines, &stats), expected);
  EXPECT_EQ(stats.busy_replies, 1u);
  EXPECT_EQ(stats.retries, 1u);
  EXPECT_EQ(stats.failovers, 0u);
}

TEST(ClusterRouterTest, WorkerRefusingUnorderedModeIsAnAttachError) {
  // shard0 runs --ordered: its handshake answers `mode ordered`, so it is
  // dropped like an unreachable worker and its keys reroute to shard1.
  SessionOptions ordered_only;
  ordered_only.allow_unordered = false;
  const std::vector<std::string> lines = distinct_runs(12);
  {
    LoopbackWorker refusing(ordered_only), w1;
    ClusterRouter router(attach({&refusing, &w1}));
    RouterSessionStats stats;
    EXPECT_EQ(serve_routed(router, lines, &stats), serve_reference(lines));
    EXPECT_EQ(stats.failovers, 1u);
    EXPECT_EQ(router.live_workers(), (std::vector<std::string>{"shard1"}));
  }
  // With no other worker, every request ends in a bounded error line.
  LoopbackWorker refusing(ordered_only);
  ClusterRouter router(attach({&refusing}));
  const std::vector<std::string> responses = serve_routed(router, lines);
  ASSERT_EQ(responses.size(), lines.size());
  for (const std::string& response : responses) {
    EXPECT_EQ(response.rfind("error mobilenet-0.25x@", 0), 0u) << response;
    EXPECT_NE(response.find("cluster: "), std::string::npos) << response;
  }
}

TEST(ClusterRouterTest, AllWorkersDeadAnswersBoundedErrorLines) {
  // Grab an ephemeral port with nothing behind it: every connect is
  // refused, the lone worker is marked dead, and each request must come
  // back as a bounded error line instead of hanging or crashing.
  std::uint16_t dead_port = 0;
  {
    SocketTransport probe{SocketTransportOptions{}};
    dead_port = probe.port();
    probe.shutdown();
  }
  RouterOptions options;
  options.workers.push_back(WorkerEndpoint{"gone", "127.0.0.1", dead_port});
  options.connect_timeout_ms = 50;
  options.max_attempts = 2;
  ClusterRouter router(std::move(options));

  RouterSessionStats stats;
  const std::vector<std::string> responses =
      serve_routed(router, distinct_runs(2), &stats);
  ASSERT_EQ(responses.size(), 2u);
  for (const std::string& response : responses) {
    EXPECT_EQ(response.rfind("error mobilenet-0.25x@", 0), 0u) << response;
    EXPECT_NE(response.find("cluster: no live workers"), std::string::npos)
        << response;
  }
  EXPECT_TRUE(router.live_workers().empty());
  EXPECT_EQ(stats.failovers, 1u) << "one death, however many requests";
}

TEST(ClusterRouterTest, ValidatesItsOptions) {
  const auto with = [](auto mutate) {
    RouterOptions options;
    options.workers.push_back(WorkerEndpoint{"w", "127.0.0.1", 1});
    mutate(options);
    return options;
  };
  EXPECT_THROW(ClusterRouter(RouterOptions{}), PreconditionError)
      << "no workers";
  EXPECT_THROW(
      ClusterRouter(with([](RouterOptions& o) { o.batch = 0; })),
      PreconditionError);
  EXPECT_THROW(
      ClusterRouter(with([](RouterOptions& o) { o.backend = "nope"; })),
      PreconditionError);
  EXPECT_THROW(
      ClusterRouter(with([](RouterOptions& o) { o.max_attempts = 0; })),
      PreconditionError);
  EXPECT_THROW(
      ClusterRouter(with([](RouterOptions& o) { o.replicas = 0; })),
      PreconditionError);
  EXPECT_THROW(ClusterRouter(with([](RouterOptions& o) {
                 o.workers.push_back(o.workers.front());
               })),
               PreconditionError)
      << "duplicate worker ids";
}

TEST(MergeCacheFilesTest, MergesShardsSkipsMissingAndMatchesSinglePersist) {
  const std::string dir = ::testing::TempDir();
  const std::string shard_a = dir + "router_shard_a.cache";
  const std::string shard_b = dir + "router_shard_b.cache";
  const std::string merged = dir + "router_merged.cache";
  const std::string reference = dir + "router_reference.cache";

  // Two disjoint halves of one workload, persisted separately - exactly
  // what two spawned workers leave behind.
  const std::vector<std::string> half_a = distinct_runs(6);
  const std::vector<std::string> all = distinct_runs(10);
  const std::vector<std::string> half_b(all.begin() + 6, all.end());
  const auto persist = [](const std::vector<std::string>& lines,
                          const std::string& path) {
    SimulationService svc;
    WorkloadCatalog catalog;
    std::ostringstream joined;
    for (const std::string& line : lines) joined << line << "\n";
    std::istringstream in(joined.str());
    std::ostringstream out;
    StdioStream stream(in, out);
    Session(svc, catalog).serve(stream);
    return svc.save_cache(path);
  };
  ASSERT_EQ(persist(half_a, shard_a), 6u);
  ASSERT_EQ(persist(half_b, shard_b), 4u);
  ASSERT_EQ(persist(all, reference), 10u);

  const std::string missing = dir + "router_never_written.cache";
  EXPECT_EQ(merge_cache_files({shard_a, shard_b, missing}, merged), 10u)
      << "disjoint shards merge losslessly; absent shard files are skipped";

  // The merged file must be byte-identical to what one process serving
  // the whole stream would have persisted (save_cache writes entries in
  // deterministic sorted order).
  const auto slurp = [](const std::string& path) {
    std::ifstream file(path, std::ios::binary);
    std::ostringstream content;
    content << file.rdbuf();
    return content.str();
  };
  EXPECT_EQ(slurp(merged), slurp(reference));

  std::remove(shard_a.c_str());
  std::remove(shard_b.c_str());
  std::remove(merged.c_str());
  std::remove(reference.c_str());
}

}  // namespace
}  // namespace edea::service
