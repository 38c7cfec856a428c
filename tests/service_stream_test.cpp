// service_stream_test - the pipelined wire protocol end to end: batch
// frames, reply framing modes, bounded admission, the summary-only result
// contract of the streaming dispatch path, and the client-side pipeline
// driver. The load-bearing property throughout mirrors the transport
// tests: whatever the wire mode, the logical response stream stays
// byte-comparable to the ordered stdio reference.
#include "service/pipeline_client.hpp"
#include "service/session.hpp"
#include "service/transport.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <future>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/sweep_runner.hpp"
#include "service/protocol.hpp"
#include "service/simulation_service.hpp"
#include "service_submit.hpp"
#include "util/check.hpp"

namespace edea::service {
namespace {

/// Serves `lines` through one stdio session and returns the response
/// lines - the reference code path everything is compared to.
std::vector<std::string> serve_stdio(SimulationService& svc,
                                     WorkloadCatalog& catalog,
                                     const std::vector<std::string>& lines,
                                     SessionOptions options = SessionOptions(),
                                     SessionStats* stats_out = nullptr) {
  std::ostringstream joined;
  for (const std::string& line : lines) joined << line << "\n";
  std::istringstream in(joined.str());
  std::ostringstream out;
  StdioStream stream(in, out);
  SessionStats stats = Session(svc, catalog, options).serve(stream);
  if (stats_out != nullptr) *stats_out = std::move(stats);

  std::vector<std::string> responses;
  std::istringstream replay(out.str());
  std::string line;
  while (std::getline(replay, line)) responses.push_back(line);
  return responses;
}

/// Builds a submittable job from a protocol line against `catalog`.
/// Mirrors exactly what Session does between parse and submit.
core::SweepJob make_job(WorkloadCatalog& catalog, const std::string& line) {
  const ParsedLine parsed = parse_request_line(line);
  EDEA_REQUIRE(parsed.kind == ParsedLine::Kind::kRun,
               "make_job needs a run line");
  const Request& request = parsed.request;
  const WorkloadCatalog::Workload& workload = catalog.resolve(
      request.network, request.seed, request.dilation,
      request.depth_multiplier);
  core::SweepJob job;
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

/// mobilenet-0.25x with td=16 is the fastest zoo simulation - the same
/// cheap workload the transport tests script.
const char* kFastRun = "run mobilenet-0.25x seed=3 td=16";

// --- batch frames at the session level --------------------------------------

TEST(SessionFrameTest, FramedStreamIsByteIdenticalToBareLines) {
  const std::vector<std::string> bare = {
      kFastRun,
      "run mobilenet-0.25x seed=3 td=16 tk=32",
      kFastRun,  // repeat -> hit
      "stats",
  };
  const std::vector<std::string> framed = {
      "batch-begin 3",
      bare[0],
      bare[1],
      bare[2],
      "batch-end",
      "stats",
  };
  SimulationService svc_a, svc_b;
  WorkloadCatalog catalog_a, catalog_b;
  SessionStats stats;
  const std::vector<std::string> framed_responses =
      serve_stdio(svc_a, catalog_a, framed, SessionOptions(), &stats);
  EXPECT_EQ(framed_responses,
            serve_stdio(svc_b, catalog_b, bare));
  // The control lines answered nothing and took no ids ...
  EXPECT_EQ(stats.requests, 4u);
  // ... but the frame itself was counted.
  EXPECT_EQ(stats.frames, 1u);
}

TEST(SessionFrameTest, BlankAndCommentLinesDoNotConsumeFrameSlots) {
  // Only answering lines count against the declared frame size, so a
  // commented request file can be framed wholesale.
  SimulationService svc;
  WorkloadCatalog catalog;
  const std::vector<std::string> responses = serve_stdio(
      svc, catalog,
      {"batch-begin 1", "", "# a comment", "stats", "batch-end"});
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].rfind("stats ", 0), 0u) << responses[0];
}

TEST(SessionFrameTest, FramingViolationsAnswerProtocolErrors) {
  SimulationService svc;
  WorkloadCatalog catalog;

  // batch-end with no open frame.
  {
    const std::vector<std::string> r =
        serve_stdio(svc, catalog, {"batch-end"});
    ASSERT_EQ(r.size(), 1u);
    EXPECT_EQ(r[0], "protocol-error batch-end outside a frame");
  }
  // A frame closed before its declared count names the shortfall.
  {
    const std::vector<std::string> r =
        serve_stdio(svc, catalog, {"batch-begin 2", "stats", "batch-end"});
    ASSERT_EQ(r.size(), 2u);
    EXPECT_EQ(r[1], "protocol-error batch-end after 1 of 2 frame lines");
  }
  // Frames do not nest; the inner begin burns one of the outer's slots.
  {
    const std::vector<std::string> r = serve_stdio(
        svc, catalog, {"batch-begin 1", "batch-begin 1", "batch-end"});
    ASSERT_EQ(r.size(), 1u);
    EXPECT_EQ(r[0], "protocol-error nested batch-begin inside a frame");
  }
  // An answering line past the declared count is an error (and drops the
  // frame state, so the stray batch-end is then outside any frame).
  {
    const std::vector<std::string> r = serve_stdio(
        svc, catalog, {"batch-begin 1", "stats", "stats", "batch-end"});
    ASSERT_EQ(r.size(), 3u);
    EXPECT_EQ(r[0].rfind("stats ", 0), 0u);
    EXPECT_EQ(r[1],
              "protocol-error expected batch-end after 1 frame lines, "
              "got 'stats'");
    EXPECT_EQ(r[2], "protocol-error batch-end outside a frame");
  }
  // EOF inside a frame is the peer breaking its own framing promise.
  {
    SessionStats stats;
    const std::vector<std::string> r =
        serve_stdio(svc, catalog, {"batch-begin 3", "stats"},
                    SessionOptions(), &stats);
    ASSERT_EQ(r.size(), 2u);
    EXPECT_EQ(r[1],
              "protocol-error batch frame truncated: got 1 of 3 lines "
              "before EOF (missing batch-end)");
    EXPECT_EQ(stats.protocol_errors, 1u);
  }
}

// --- reply framing modes ----------------------------------------------------

TEST(SessionModeTest, UnorderedRepliesCarryIdsAndCoverEveryRequest) {
  SimulationService svc;
  WorkloadCatalog catalog;
  const std::vector<std::string> responses = serve_stdio(
      svc, catalog,
      {"mode unordered", kFastRun, kFastRun, "walk nowhere", "stats"});

  ASSERT_EQ(responses.size(), 5u);
  // The mode echo itself is the first unordered reply.
  EXPECT_EQ(responses[0], "id=1 mode unordered");
  // stats is a barrier, so it is last on the wire even in unordered mode.
  EXPECT_EQ(responses[4].rfind("id=5 stats ", 0), 0u) << responses[4];

  // In between, completion order is the server's choice - but every id
  // answers exactly once, and reordering by id reproduces the ordered
  // reference stream.
  std::vector<std::pair<std::uint64_t, std::string>> framed;
  for (const std::string& line : responses) {
    const std::size_t space = line.find(' ');
    ASSERT_EQ(line.rfind("id=", 0), 0u) << line;
    framed.emplace_back(std::stoull(line.substr(3, space - 3)),
                        line.substr(space + 1));
  }
  std::sort(framed.begin(), framed.end());
  SimulationService reference_svc;
  WorkloadCatalog reference_catalog;
  const std::vector<std::string> expected =
      serve_stdio(reference_svc, reference_catalog,
                  {kFastRun, kFastRun, "walk nowhere", "stats"});
  ASSERT_EQ(framed.size(), expected.size() + 1);
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(framed[i + 1].first, i + 2);
    EXPECT_EQ(framed[i + 1].second, expected[i]) << "id " << i + 2;
  }
}

TEST(SessionModeTest, OrderedServerRefusesTheSwitchStatingTheMode) {
  SimulationService svc;
  WorkloadCatalog catalog;
  SessionOptions options;
  options.allow_unordered = false;  // the server's --ordered flag
  const std::vector<std::string> responses = serve_stdio(
      svc, catalog, {"mode unordered", kFastRun, "stats"}, options);

  ASSERT_EQ(responses.size(), 3u);
  // The reply states what is actually in effect, formatted in that mode:
  // a bare line, no id prefix - byte-exact reference behavior throughout.
  EXPECT_EQ(responses[0], "mode ordered");
  EXPECT_EQ(responses[1].rfind("ok mobilenet-0.25x@3 ", 0), 0u);
  EXPECT_EQ(responses[2].rfind("stats ", 0), 0u);
}

TEST(SessionModeTest, SwitchingBackToOrderedRestoresBareReplies) {
  SimulationService svc;
  WorkloadCatalog catalog;
  const std::vector<std::string> responses = serve_stdio(
      svc, catalog, {"mode unordered", "mode ordered", kFastRun, "stats"});
  ASSERT_EQ(responses.size(), 4u);
  EXPECT_EQ(responses[0], "id=1 mode unordered");
  // The switch-back is answered in the mode it established.
  EXPECT_EQ(responses[1], "mode ordered");
  EXPECT_EQ(responses[2].rfind("ok mobilenet-0.25x@3 ", 0), 0u);
  EXPECT_EQ(responses[3].rfind("stats ", 0), 0u);
}

// --- bounded admission ------------------------------------------------------

TEST(ServiceAdmissionTest, BoundedQueueRejectsOnlyFreshSimulations) {
  // One dedicated worker and a queue bound of 1: the first fresh job
  // occupies the whole admission budget for the milliseconds it
  // simulates, so fresh jobs submitted in the microseconds after it are
  // rejected; a retry after the drain is admitted. Hits never compete.
  // batch=8 keeps each simulation several milliseconds long on a fast
  // host, so the window holds on a loaded one too.
  ServiceOptions options;
  options.worker_threads = 1;
  options.max_queue = 1;
  SimulationService svc(options);
  WorkloadCatalog catalog;
  const std::uint64_t session = svc.new_session_id();

  std::promise<core::SweepOutcome> first;
  ASSERT_EQ(svc.submit_streaming(
                make_job(catalog, "run mobilenet-0.25x seed=50 td=16 batch=8"),
                session,
                [&](core::SweepOutcome o) { first.set_value(std::move(o)); }),
            Admission::kAdmitted);

  // The same workload under four other configurations: fresh jobs whose
  // network is already materialized, so they reach admission back to back.
  std::size_t busy = 0;
  for (const int td : {4, 8, 12, 20}) {
    const Admission verdict = svc.submit_streaming(
        make_job(catalog,
                 "run mobilenet-0.25x seed=50 batch=8 td=" +
                     std::to_string(td)),
        session, [](core::SweepOutcome) {});
    if (verdict == Admission::kBusy) ++busy;
  }
  EXPECT_GE(busy, 1u) << "four fresh submissions within microseconds of a "
                         "multi-millisecond simulation must hit the bound";
  EXPECT_TRUE(first.get_future().get().ok);
  svc.wait_idle();

  const CacheStats mid = svc.cache_stats();
  EXPECT_EQ(mid.rejected, busy);
  EXPECT_LE(mid.peak_queue, mid.max_queue);
  EXPECT_EQ(mid.max_queue, 1u);
  EXPECT_EQ(mid.queued, 0u);

  // A rejected job was never simulated - retrying it now both admits and
  // misses (busy dropped it without side effects) ...
  std::promise<core::SweepOutcome> retried;
  ASSERT_EQ(svc.submit_streaming(
                make_job(catalog, "run mobilenet-0.25x seed=50 td=4 batch=8"),
                session,
                [&](core::SweepOutcome o) { retried.set_value(std::move(o)); }),
            Admission::kAdmitted);
  EXPECT_TRUE(retried.get_future().get().ok);
  // ... and a repeat of a completed job is a hit even at the bound: it
  // starts no fresh work, so admission never rejects it.
  std::promise<core::SweepOutcome> hit;
  ASSERT_EQ(svc.submit_streaming(
                make_job(catalog, "run mobilenet-0.25x seed=50 td=16 batch=8"),
                session,
                [&](core::SweepOutcome o) { hit.set_value(std::move(o)); }),
            Admission::kAdmitted);
  EXPECT_TRUE(hit.get_future().get().cache_hit);
}

TEST(SessionAdmissionTest, BusyRepliesAreSelfIdentifyingAndAccounted) {
  ServiceOptions service_options;
  service_options.worker_threads = 1;
  service_options.max_queue = 1;
  SimulationService svc(service_options);
  WorkloadCatalog catalog;
  SessionOptions session_options;
  session_options.busy_retry_ms = 7;

  // One workload under three configurations: three distinct misses, but
  // only the first materializes a network, so the other two reach
  // admission while the first still simulates. batch=8 keeps that
  // simulation several milliseconds long however fast the host is.
  SessionStats stats;
  const std::vector<std::string> responses = serve_stdio(
      svc, catalog,
      {"run mobilenet-0.25x seed=60 td=16 batch=8",
       "run mobilenet-0.25x seed=60 td=8 batch=8",
       "run mobilenet-0.25x seed=60 td=4 batch=8", "stats"},
      session_options, &stats);
  ASSERT_EQ(responses.size(), 4u);

  // Busy replies are well-formed and carry the session's configured
  // retry hint; every rejected run answered busy in its own slot.
  std::size_t busy_lines = 0;
  for (std::size_t i = 0; i < 3; ++i) {
    if (responses[i].rfind("busy id=", 0) == 0) {
      ++busy_lines;
      EXPECT_EQ(responses[i],
                "busy id=" + std::to_string(i + 1) + " retry_ms=7");
    } else {
      EXPECT_EQ(responses[i].rfind("ok mobilenet-0.25x@6", 0), 0u)
          << responses[i];
    }
  }
  EXPECT_EQ(stats.busy_replies, busy_lines);
  EXPECT_GE(busy_lines, 1u);

  // The stats barrier drained first, so the line reports a quiet queue
  // and the admission trio (max_queue > 0 makes it appear).
  EXPECT_NE(responses[3].find(" queued=0 "), std::string::npos)
      << responses[3];
  EXPECT_NE(responses[3].find(" rejected=" + std::to_string(busy_lines)),
            std::string::npos)
      << responses[3];
  EXPECT_NE(responses[3].find(" peak_queue="), std::string::npos)
      << responses[3];
  const CacheStats cache = svc.cache_stats();
  EXPECT_EQ(cache.rejected, busy_lines);
  EXPECT_LE(cache.peak_queue, cache.max_queue);
}

// --- the summary-only result contract ---------------------------------------

TEST(ServiceStreamingTest, OnlyFreshSimulationsDeliverPerLayerResults) {
  SimulationService svc;
  WorkloadCatalog catalog;
  const std::uint64_t session = svc.new_session_id();

  // The miss simulates and delivers the full per-layer result.
  std::promise<core::SweepOutcome> miss_p;
  ASSERT_EQ(svc.submit_streaming(
                make_job(catalog, kFastRun), session,
                [&](core::SweepOutcome o) { miss_p.set_value(std::move(o)); }),
            Admission::kAdmitted);
  const core::SweepOutcome miss = miss_p.get_future().get();
  ASSERT_TRUE(miss.ok);
  EXPECT_FALSE(miss.cache_hit);
  EXPECT_FALSE(miss.summary_only);
  EXPECT_FALSE(miss.result.layers.empty());

  // The warm hit on the streaming path arrives summary-only: same
  // protocol-visible summary, no per-layer tensors to deep-copy.
  std::promise<core::SweepOutcome> hit_p;
  ASSERT_EQ(svc.submit_streaming(
                make_job(catalog, kFastRun), session,
                [&](core::SweepOutcome o) { hit_p.set_value(std::move(o)); }),
            Admission::kAdmitted);
  const core::SweepOutcome hit = hit_p.get_future().get();
  ASSERT_TRUE(hit.ok);
  EXPECT_TRUE(hit.cache_hit);
  EXPECT_TRUE(hit.summary_only);
  EXPECT_TRUE(hit.result.layers.empty());
  EXPECT_EQ(hit.summary, miss.summary);
  // The wire line is nevertheless byte-identical to the full outcome's.
  core::SweepOutcome full_flagged = miss;
  full_flagged.cache_hit = true;
  EXPECT_EQ(format_outcome_line(hit), format_outcome_line(full_flagged));

  // In-process callers get nothing more: a hit through the promise helper
  // (lane 0) is summary-only too, and its summary carries the miss's
  // total cycles and output hash.
  const core::SweepOutcome submit_hit =
      submit_future(svc, make_job(catalog, kFastRun)).get();
  EXPECT_TRUE(submit_hit.cache_hit);
  EXPECT_TRUE(submit_hit.summary_only);
  EXPECT_TRUE(submit_hit.result.layers.empty());
  EXPECT_EQ(submit_hit.summary, miss.summary);
  EXPECT_EQ(submit_hit.summary.total_cycles, miss.result.total_cycles());
}

TEST(ServiceStreamingTest, CoalescedDuplicatesAreSummaryOnlyHits) {
  // Two streaming submissions of the same fresh point: the second
  // coalesces onto the in-flight simulation and is delivered as a
  // summary-only hit when it completes; the submitter keeps the full
  // result.
  SimulationService svc;
  WorkloadCatalog catalog;
  const std::uint64_t session = svc.new_session_id();
  std::promise<core::SweepOutcome> first_p, second_p;
  ASSERT_EQ(svc.submit_streaming(
                make_job(catalog, "run mobilenet-0.25x seed=70 td=16"),
                session,
                [&](core::SweepOutcome o) { first_p.set_value(std::move(o)); }),
            Admission::kAdmitted);
  ASSERT_EQ(
      svc.submit_streaming(
          make_job(catalog, "run mobilenet-0.25x seed=70 td=16"), session,
          [&](core::SweepOutcome o) { second_p.set_value(std::move(o)); }),
      Admission::kAdmitted);
  const core::SweepOutcome first = first_p.get_future().get();
  const core::SweepOutcome second = second_p.get_future().get();
  ASSERT_TRUE(first.ok);
  ASSERT_TRUE(second.ok);
  EXPECT_FALSE(first.cache_hit);
  EXPECT_FALSE(first.summary_only);
  EXPECT_TRUE(second.cache_hit);
  EXPECT_TRUE(second.summary_only);
  EXPECT_EQ(second.summary, first.summary);
  const CacheStats stats = svc.cache_stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
}

// --- stdio streams: corked writes, bounded reads ----------------------------

TEST(StdioStreamTest, WriteLinesCorksIntoOneNewlineTerminatedBlock) {
  std::istringstream in;
  std::ostringstream out;
  StdioStream stream(in, out);
  EXPECT_TRUE(stream.write_lines({"alpha", "beta", "gamma"}));
  EXPECT_EQ(out.str(), "alpha\nbeta\ngamma\n");
  EXPECT_TRUE(stream.write_lines({}));
  EXPECT_EQ(out.str(), "alpha\nbeta\ngamma\n");
}

TEST(StdioStreamTest, ReadLineStopsOneBytePastTheLineLimit) {
  // 1 MiB with no '\n': one byte past the limit comes back - what the
  // parser rejects - and then the stream reads nothing more, even though
  // the input still holds bytes and a later line.
  std::istringstream flood(std::string(std::size_t{1} << 20, 'x') +
                           "\nstats\n");
  std::ostringstream out;
  StdioStream stream(flood, out);
  std::string line;
  ASSERT_TRUE(stream.read_line(line));
  EXPECT_EQ(line.size(), kMaxLineBytes + 1);
  EXPECT_EQ(line.find_first_not_of('x'), std::string::npos);
  EXPECT_FALSE(stream.read_line(line)) << "the end stays the end";
  EXPECT_FALSE(stream.read_line(line));

  // A line of exactly the limit, and a final line with no '\n', read
  // whole.
  const std::string longest(kMaxLineBytes, 'y');
  std::istringstream in(longest + "\nstats");
  StdioStream bounded(in, out);
  ASSERT_TRUE(bounded.read_line(line));
  EXPECT_TRUE(line == longest) << "a " << line.size() << "-byte line";
  ASSERT_TRUE(bounded.read_line(line));
  EXPECT_EQ(line, "stats");
  EXPECT_FALSE(bounded.read_line(line));
}

TEST(StdioStreamTest, EndlessLineGetsOneProtocolErrorThenTheSessionEnds) {
  // The stdio twin of the socket test: the session answers the over-long
  // line with one protocol error and ends; the stats line after it is
  // never read.
  SimulationService svc;
  WorkloadCatalog catalog;
  const std::vector<std::string> responses = serve_stdio(
      svc, catalog, {std::string(std::size_t{1} << 20, 'x'), "stats"});
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0], "protocol-error line longer than " +
                              std::to_string(kMaxLineBytes) + " bytes");
}

// --- hostile request integers -----------------------------------------------

TEST(SessionHostileLineTest, OutOfRangeCountsAndConfigsGetOneErrorEach) {
  // Each value, reaching the arithmetic, would overflow an int or
  // allocate without bound: the dilated padding, a network's multiplied
  // channels, one result per image, kernel^2 in the DWC engine and the
  // ifmap tile extent. The counts are protocol errors before the workload
  // is resolved, so they cost no miss; the design points fail validation
  // before an engine is built and answer an error outcome.
  SimulationService svc;
  WorkloadCatalog catalog;
  const auto start = std::chrono::steady_clock::now();
  const std::vector<std::string> responses = serve_stdio(
      svc, catalog,
      {"run mobilenet-0.25x dilation=1073741824",
       "run mobilenet-0.25x depth_multiplier=400000000",
       "run mobilenet-0.25x batch=1000000", "stats",
       "run mobilenet-0.25x kernel=65535",
       "run mobilenet-0.25x max_tile_out=1073741824"});
  EXPECT_LT(std::chrono::steady_clock::now() - start,
            std::chrono::seconds(20));
  ASSERT_EQ(responses.size(), 6u);
  EXPECT_EQ(responses[0],
            "protocol-error bad dilation '1073741824' (at most 64)");
  EXPECT_EQ(responses[1],
            "protocol-error bad depth_multiplier '400000000' (at most 64)");
  EXPECT_EQ(responses[2], "protocol-error bad batch '1000000' (at most 64)");
  EXPECT_EQ(responses[3],
            "stats hits=0 misses=0 evictions=0 entries=0 inflight=0");
  for (const auto& [line, message] :
       {std::pair{responses[4], "kernel must be <= 15"},
        std::pair{responses[5], "buffer tile must be <= 128"}}) {
    EXPECT_EQ(line.rfind("error mobilenet-0.25x@1 ", 0), 0u) << line;
    EXPECT_NE(line.find(" msg="), std::string::npos) << line;
    EXPECT_NE(line.find(message), std::string::npos) << line;
  }
}

// --- the client-side pipeline driver over loopback TCP ----------------------

/// The request stream the pipeline tests replay: misses, a coalescable
/// repeat, a protocol error, an unresolvable network, an infeasible
/// point, a blank line and a comment (never sent), and a stats barrier.
std::vector<std::string> pipeline_requests() {
  return {
      "# pipelined session",
      kFastRun,
      "run mobilenet-0.25x seed=3 td=16 tk=32",
      "",
      kFastRun,  // repeat -> hit (cached or coalesced)
      "walk nowhere",
      "run no-such-network seed=1",
      "run mobilenet-0.25x seed=3 kernel=5",
      "stats",
  };
}

/// The ordered stdio reference for `requests`, served by a fresh service.
std::vector<std::string> stdio_reference(
    const std::vector<std::string>& requests) {
  SimulationService svc;
  WorkloadCatalog catalog;
  return serve_stdio(svc, catalog, requests);
}

/// Non-empty response slots, in logical request order - what the stdio
/// reference emits for the same stream (blank/comment lines answer
/// nothing there and keep empty slots here).
std::vector<std::string> answered(const PipelineReport& report) {
  std::vector<std::string> lines;
  for (const std::string& line : report.responses) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

/// Runs `client` against a one-session loopback server and returns its
/// report. `session_options` shapes the server side.
PipelineReport loopback_run(
    const std::vector<std::string>& requests, const PipelineOptions& options,
    bool serial = false, SessionOptions session_options = SessionOptions()) {
  SimulationService svc;
  WorkloadCatalog catalog;
  SocketTransportOptions transport_options;
  transport_options.max_sessions = 1;
  SocketTransport transport(transport_options);
  std::thread server([&] {
    transport.serve([&](Stream& stream) {
      Session(svc, catalog, session_options).serve(stream);
    });
  });
  PipelineReport report;
  {
    std::unique_ptr<Stream> stream =
        connect_socket("127.0.0.1", transport.port(), /*retry_ms=*/5000);
    report = serial ? run_serial(*stream, requests, options)
                    : run_pipelined(*stream, requests, options);
  }
  server.join();
  return report;
}

TEST(PipelineClientTest, UnorderedPipelineMatchesTheStdioReference) {
  PipelineOptions options;
  options.window = 4;
  const PipelineReport report = loopback_run(pipeline_requests(), options);
  ASSERT_TRUE(report.complete) << report.error;
  EXPECT_TRUE(report.unordered);
  EXPECT_GE(report.frames_sent, 1u);
  EXPECT_EQ(answered(report), stdio_reference(pipeline_requests()));
}

TEST(PipelineClientTest, OrderedPipelineIsByteExactWithoutNegotiation) {
  PipelineOptions options;
  options.window = 4;
  options.ordered = true;
  const PipelineReport report = loopback_run(pipeline_requests(), options);
  ASSERT_TRUE(report.complete) << report.error;
  EXPECT_FALSE(report.unordered);
  EXPECT_EQ(answered(report), stdio_reference(pipeline_requests()));
}

TEST(PipelineClientTest, ServerOrderedRefusalDegradesToOrderedReplies) {
  // An unordered-requesting client against a --ordered server: the
  // refused negotiation leaves the wire ordered, and the driver carries
  // on - logical responses unchanged.
  PipelineOptions options;
  options.window = 4;
  SessionOptions session_options;
  session_options.allow_unordered = false;
  const PipelineReport report =
      loopback_run(pipeline_requests(), options, /*serial=*/false,
                   session_options);
  ASSERT_TRUE(report.complete) << report.error;
  EXPECT_FALSE(report.unordered);
  EXPECT_EQ(answered(report), stdio_reference(pipeline_requests()));
}

TEST(PipelineClientTest, SerialBaselineMatchesTheSameReference) {
  const PipelineReport report =
      loopback_run(pipeline_requests(), PipelineOptions(), /*serial=*/true);
  ASSERT_TRUE(report.complete) << report.error;
  EXPECT_FALSE(report.unordered);
  EXPECT_EQ(report.frames_sent, 0u);
  EXPECT_EQ(answered(report), stdio_reference(pipeline_requests()));
}

/// A scripted server on an in-memory Stream: it answers `mode unordered`
/// as a session does, gives frame-control lines no id, and answers each
/// run line `busy id=<n> retry_ms=1` the first `bounces` times it
/// arrives, then with its entry in `replies` - `id=<n> `-framed once the
/// client has switched to unordered replies. How many busy lines the
/// client sees is fixed by the script, not by how long a simulation
/// takes. A line not in the script ends the run: its write fails and so
/// does every read after the queued replies. A read that waits 30 s for
/// a reply fails instead of hanging the test.
class BouncingStream : public Stream {
 public:
  BouncingStream(std::map<std::string, std::string> replies, int bounces)
      : replies_(std::move(replies)), bounces_(bounces) {}

  bool read_line(std::string& line) override {
    std::unique_lock<std::mutex> lock(mutex_);
    if (!ready_.wait_for(lock, std::chrono::seconds(30), [&] {
          return !replies_out_.empty() || refused_;
        }) ||
        replies_out_.empty()) {
      return false;
    }
    line = std::move(replies_out_.front());
    replies_out_.pop_front();
    return true;
  }

  bool write_line(const std::string& line) override {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (line == "batch-end" || line.rfind("batch-begin ", 0) == 0) {
      return true;
    }
    const std::uint64_t id = next_id_++;
    const auto reply = replies_.find(line);
    if (line == "mode unordered") {
      unordered_ = true;
      replies_out_.push_back(format_unordered_line(id, line));
    } else if (reply == replies_.end()) {
      refused_ = true;  // not in the script: end the run
      ready_.notify_all();
      return false;
    } else if (arrivals_[line]++ < bounces_) {
      replies_out_.push_back(format_busy_line(id, 1));
    } else {
      replies_out_.push_back(unordered_
                                 ? format_unordered_line(id, reply->second)
                                 : reply->second);
    }
    ready_.notify_one();
    return true;
  }

 private:
  const std::map<std::string, std::string> replies_;
  const int bounces_;
  std::mutex mutex_;
  std::condition_variable ready_;
  std::deque<std::string> replies_out_;
  std::map<std::string, int> arrivals_;
  std::uint64_t next_id_ = 1;
  bool unordered_ = false;
  bool refused_ = false;
};

TEST(PipelineClientTest, BusyRejectionsAreRetriedToCompletion) {
  // Every request of a full window bounces twice before its reply: the
  // client absorbs each busy line with backoff, and the final logical
  // stream still matches the stdio reference byte for byte. (The bounded
  // service's own busy replies are pinned by the admission tests above.)
  std::vector<std::string> requests;
  for (int td = 4; td <= 24; td += 4) {
    requests.push_back("run mobilenet-0.25x seed=80 td=" + std::to_string(td));
  }
  const std::vector<std::string> reference = stdio_reference(requests);
  ASSERT_EQ(reference.size(), requests.size());
  std::map<std::string, std::string> replies;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    replies[requests[i]] = reference[i];
  }
  BouncingStream stream(replies, /*bounces=*/2);
  PipelineOptions options;
  options.window = 6;
  const PipelineReport report = run_pipelined(stream, requests, options);
  ASSERT_TRUE(report.complete) << report.error;
  EXPECT_TRUE(report.unordered);
  EXPECT_GE(report.busy_replies, 1u);
  EXPECT_EQ(report.busy_replies, 2 * requests.size());
  for (const std::string& line : report.responses) {
    EXPECT_EQ(line.rfind("busy ", 0), std::string::npos)
        << "retried busy lines must be absorbed, not reported: " << line;
  }
  EXPECT_EQ(answered(report), reference);
}

TEST(PipelineClientTest, LinesTheServerIgnoresAreNeitherSentNorAwaited) {
  // A session splits a line on all six C-locale spaces, so a CRLF blank
  // line ("\r") and a comment led by '\v' or '\f' answer nothing. The
  // client must classify them the same way: it keeps their slots empty
  // and sends only the run lines, in every mode.
  const std::string first = "run mobilenet-0.25x seed=82 td=8";
  const std::string second = "run mobilenet-0.25x seed=82 td=16";
  const std::map<std::string, std::string> replies = {
      {first, "ok first"}, {second, "ok second"}};
  const std::vector<std::string> requests = {"\r", "\v# comment", first,
                                             " \f#\t", second, "\t\r"};
  const std::vector<std::string> expected = {"", "", "ok first",
                                             "", "ok second", ""};
  for (const char* mode : {"unordered", "ordered", "serial"}) {
    SCOPED_TRACE(mode);
    BouncingStream stream(replies, /*bounces=*/0);
    PipelineOptions options;
    options.window = 4;
    options.ordered = std::string(mode) == "ordered";
    const PipelineReport report =
        std::string(mode) == "serial"
            ? run_serial(stream, requests, options)
            : run_pipelined(stream, requests, options);
    ASSERT_TRUE(report.complete) << report.error;
    EXPECT_EQ(report.responses, expected);
  }
}

TEST(PipelineClientTest, OverlongLinesAreSentAndAwaited) {
  // The session answers every line longer than kMaxLineBytes with a
  // protocol error, whatever it holds - only spaces, a comment or a
  // control verb included - so the client sends each one and waits for
  // its reply, in every mode.
  const std::string run = "run mobilenet-0.25x seed=83 td=8";
  const std::string spaces(kMaxLineBytes + 1, ' ');
  const std::string comment = "#" + std::string(kMaxLineBytes, 'x');
  const std::string mode = "mode unordered" + spaces;
  const std::string error =
      "protocol-error line longer than " + std::to_string(kMaxLineBytes) +
      " bytes";
  const std::map<std::string, std::string> replies = {
      {run, "ok run"}, {spaces, error}, {comment, error}, {mode, error}};
  const std::vector<std::string> requests = {spaces, run, comment, mode};
  const std::vector<std::string> expected = {error, "ok run", error, error};
  for (const char* wire : {"unordered", "ordered", "serial"}) {
    SCOPED_TRACE(wire);
    BouncingStream stream(replies, /*bounces=*/0);
    PipelineOptions options;
    options.window = 4;
    options.ordered = std::string(wire) == "ordered";
    PipelineReport report;
    try {
      report = std::string(wire) == "serial"
                   ? run_serial(stream, requests, options)
                   : run_pipelined(stream, requests, options);
    } catch (const std::exception& e) {
      FAIL() << "an over-long line was refused before sending: " << e.what();
    }
    ASSERT_TRUE(report.complete) << report.error;
    EXPECT_EQ(report.responses, expected);
  }
}

TEST(PipelineClientTest, RequestStreamsMayNotCarryFrameOrModeLines) {
  // The driver owns framing and negotiation; a stream that smuggles its
  // own control lines is a caller bug, refused before anything is sent.
  std::istringstream in;
  std::ostringstream out;
  StdioStream stream(in, out);
  EXPECT_THROW((void)run_pipelined(stream, {"mode unordered"}, {}),
               PreconditionError);
  EXPECT_THROW((void)run_pipelined(stream, {"mode\vunordered"}, {}),
               PreconditionError);
  EXPECT_THROW((void)run_pipelined(stream, {"batch-begin 4"}, {}),
               PreconditionError);
  EXPECT_THROW((void)run_serial(stream, {"batch-end"}, {}),
               PreconditionError);
  EXPECT_EQ(out.str(), "");
}

}  // namespace
}  // namespace edea::service
