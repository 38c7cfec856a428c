// transport_session_test - the transport and session layers of the
// service tier: stdio and socket streams, the accept loop, and the
// session's framing/ordering/stats-barrier contracts. The load-bearing
// property throughout is the acceptance criterion of the layering: a TCP
// client receives byte-identical responses to the stdio driver for the
// same request stream.
#include "service/session.hpp"
#include "service/transport.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <ctime>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "service/protocol.hpp"
#include "util/check.hpp"

namespace edea::service {
namespace {

/// Serves `lines` through one stdio session against `svc` and returns the
/// response lines - the reference code path everything is compared to.
std::vector<std::string> serve_stdio(SimulationService& svc,
                                     WorkloadCatalog& catalog,
                                     const std::vector<std::string>& lines,
                                     SessionStats* stats_out = nullptr,
                                     bool record_traffic = false) {
  std::ostringstream joined;
  for (const std::string& line : lines) joined << line << "\n";
  std::istringstream in(joined.str());
  std::ostringstream out;
  StdioStream stream(in, out);
  SessionOptions options;
  options.record_traffic = record_traffic;
  SessionStats stats = Session(svc, catalog, options).serve(stream);
  if (stats_out != nullptr) *stats_out = std::move(stats);

  std::vector<std::string> responses;
  std::istringstream replay(out.str());
  std::string line;
  while (std::getline(replay, line)) responses.push_back(line);
  return responses;
}

/// A cheap request stream: mobilenet-0.25x with td=16 is the fastest zoo
/// simulation, so session tests stay quick on a single-core host.
std::vector<std::string> scripted_stream() {
  return {
      "# scripted session",
      "run mobilenet-0.25x seed=3 td=16",
      "run mobilenet-0.25x seed=3 td=16 tk=32",
      "",
      "run mobilenet-0.25x seed=3 td=16",   // repeat -> hit
      "walk nowhere",                        // protocol error
      "run no-such-network seed=1",          // unresolvable zoo name
      "run mobilenet-0.25x seed=3 kernel=5", // infeasible -> error outcome
      "stats",
  };
}

TEST(StdioStreamTest, ReadsLinesAndWritesWithNewline) {
  std::istringstream in("alpha\nbeta\n");
  std::ostringstream out;
  StdioStream stream(in, out);

  std::string line;
  ASSERT_TRUE(stream.read_line(line));
  EXPECT_EQ(line, "alpha");
  ASSERT_TRUE(stream.read_line(line));
  EXPECT_EQ(line, "beta");
  EXPECT_FALSE(stream.read_line(line));

  EXPECT_TRUE(stream.write_line("ok first"));
  EXPECT_TRUE(stream.write_line("ok second"));
  EXPECT_EQ(out.str(), "ok first\nok second\n");
}

TEST(SessionTest, ResponsesArriveInRequestOrderWithExactShapes) {
  SimulationService svc;
  WorkloadCatalog catalog;
  SessionStats stats;
  const std::vector<std::string> responses =
      serve_stdio(svc, catalog, scripted_stream(), &stats);

  ASSERT_EQ(responses.size(), 7u);  // comments/blank lines answer nothing
  EXPECT_EQ(responses[0].rfind("ok mobilenet-0.25x@3 ", 0), 0u);
  EXPECT_NE(responses[0].find("cache=miss"), std::string::npos);
  EXPECT_EQ(responses[1].rfind("ok mobilenet-0.25x@3 ", 0), 0u);
  EXPECT_EQ(responses[2], responses[0].substr(0, responses[0].size() - 4) +
                              "hit")
      << "the repeat must be the first response with cache=miss -> hit";
  EXPECT_EQ(responses[3].rfind("protocol-error ", 0), 0u);
  EXPECT_EQ(responses[4].rfind("error no-such-network@1 ", 0), 0u);
  EXPECT_EQ(responses[5].rfind("error mobilenet-0.25x@3 ", 0), 0u);
  EXPECT_EQ(responses[6].rfind("stats ", 0), 0u);

  EXPECT_EQ(stats.requests, 7u);
  EXPECT_EQ(stats.runs, 5u);  // incl. the unresolvable network
  EXPECT_EQ(stats.protocol_errors, 1u);
  EXPECT_EQ(stats.responses_written, 7u);
}

TEST(SessionTest, IdenticalStreamsServeIdenticalBytesFromFreshServices) {
  // Determinism across service instances is what makes golden comparisons
  // (and the CI socket-vs-stdio diff) meaningful.
  SimulationService svc_a, svc_b;
  WorkloadCatalog catalog_a, catalog_b;
  EXPECT_EQ(serve_stdio(svc_a, catalog_a, scripted_stream()),
            serve_stdio(svc_b, catalog_b, scripted_stream()));
}

TEST(SessionTest, StatsIsABarrierOverPrecedingRequestsOnly) {
  SimulationService svc;
  WorkloadCatalog catalog;
  const std::vector<std::string> responses = serve_stdio(
      svc, catalog,
      {"run mobilenet-0.25x seed=3 td=16", "stats",
       "run mobilenet-0.25x seed=3 td=16", "stats"});

  ASSERT_EQ(responses.size(), 4u);
  // First stats: exactly the one preceding request, completed; nothing
  // later leaked in. Deterministic because the reader holds the barrier.
  EXPECT_EQ(responses[1],
            "stats hits=0 misses=1 evictions=0 entries=1 inflight=0");
  EXPECT_EQ(responses[3],
            "stats hits=1 misses=1 evictions=0 entries=1 inflight=0");
}

TEST(SessionTest, BatchedRunsEchoBatchAndKeySeparatelyInTheCache) {
  SimulationService svc;
  WorkloadCatalog catalog;
  const std::vector<std::string> responses = serve_stdio(
      svc, catalog,
      {"run mobilenet-0.25x seed=3 td=16",
       "run mobilenet-0.25x seed=3 td=16 batch=3",  // distinct key -> miss
       "run mobilenet-0.25x seed=3 td=16 batch=3",  // repeat -> hit
       "run mobilenet-0.25x seed=3 td=16 batch=0",  // protocol error
       "stats"});

  ASSERT_EQ(responses.size(), 5u);
  EXPECT_EQ(responses[0].find("batch="), std::string::npos) << responses[0];
  EXPECT_NE(responses[1].find(" batch=3 "), std::string::npos)
      << responses[1];
  EXPECT_NE(responses[1].find("cache=miss"), std::string::npos);
  EXPECT_NE(responses[2].find("cache=hit"), std::string::npos);
  EXPECT_EQ(responses[3].rfind("protocol-error bad batch '0'", 0), 0u)
      << responses[3];
  EXPECT_EQ(responses[4],
            "stats hits=1 misses=2 evictions=0 entries=2 inflight=0");

  // Batching amortizes setup, never arithmetic: every measurement token
  // of the batched line except the batch echo matches the batch=1 line.
  std::istringstream single(responses[0]), batched(responses[1]);
  std::string s, b;
  while (single >> s) {
    ASSERT_TRUE(static_cast<bool>(batched >> b));
    if (b == "batch=3") {
      ASSERT_TRUE(static_cast<bool>(batched >> b));
    }
    EXPECT_EQ(s, b);
  }
}

TEST(SessionTest, RecordedTrafficAlignsJobsWithOutcomes) {
  SimulationService svc;
  WorkloadCatalog catalog;
  SessionStats stats;
  (void)serve_stdio(svc, catalog, scripted_stream(), &stats,
                    /*record_traffic=*/true);

  // 5 run lines, 1 unresolvable -> 4 submitted jobs with outcomes.
  ASSERT_EQ(stats.jobs.size(), 4u);
  ASSERT_EQ(stats.outcomes.size(), 4u);
  for (std::size_t i = 0; i < stats.jobs.size(); ++i) {
    EXPECT_EQ(stats.jobs[i].name, stats.outcomes[i].name) << i;
  }
  EXPECT_TRUE(stats.outcomes[2].cache_hit);   // the repeat
  EXPECT_FALSE(stats.outcomes[3].ok);         // the infeasible point
}

TEST(WorkloadCatalogTest, ResolvesOncePerKeyAndThrowsForUnknownNames) {
  WorkloadCatalog catalog;
  const WorkloadCatalog::Workload& a = catalog.resolve("edeanet-64", 7);
  const WorkloadCatalog::Workload& b = catalog.resolve("edeanet-64", 7);
  EXPECT_EQ(&a, &b) << "same key must materialize exactly once";
  const WorkloadCatalog::Workload& c = catalog.resolve("edeanet-64", 8);
  EXPECT_NE(&a, &c) << "different seed is a different workload";
  EXPECT_THROW((void)catalog.resolve("not-a-network", 1), PreconditionError);
}

TEST(WorkloadCatalogTest, WarmResolveReturnsWhileAColdOneIsBuilding) {
  // Every run line resolves its workload, hits included, so a resolve of
  // a built key must not wait behind another key's materialization.
  WorkloadCatalog catalog;
  const WorkloadCatalog::Workload& warm = catalog.resolve("edeanet-64", 1);
  std::chrono::steady_clock::time_point cold_returned;
  std::thread cold([&] {
    (void)catalog.resolve("mobilenet-imagenet", 1);
    cold_returned = std::chrono::steady_clock::now();
  });
  // mobilenet-imagenet takes about 100 ms or more to build: 5 ms in, the
  // cold resolve is building.
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  const WorkloadCatalog::Workload& again = catalog.resolve("edeanet-64", 1);
  const auto warm_returned = std::chrono::steady_clock::now();
  cold.join();
  EXPECT_EQ(&warm, &again);
  // Had the warm resolve waited for the build, both would return together.
  EXPECT_GT(cold_returned - warm_returned, std::chrono::milliseconds(20))
      << "the warm resolve waited for the cold build";
}

TEST(WorkloadCatalogTest, ConcurrentColdResolvesOfOneKeyBuildItOnce) {
  WorkloadCatalog catalog;
  (void)catalog.resolve("edeanet-64", 20);  // the first build warms up
  const std::clock_t before_one = std::clock();
  (void)catalog.resolve("edeanet-64", 21);
  const std::clock_t one_build = std::clock() - before_one;

  // Four resolves of one cold key at once: one builds, three wait for it.
  constexpr int kThreads = 4;
  std::vector<const WorkloadCatalog::Workload*> got(kThreads, nullptr);
  std::vector<std::thread> threads;
  const std::clock_t before_four = std::clock();
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&catalog, &got, t] {
      got[static_cast<std::size_t>(t)] = &catalog.resolve("edeanet-64", 22);
    });
  }
  for (std::thread& thread : threads) thread.join();
  const std::clock_t four_resolves = std::clock() - before_four;
  for (const WorkloadCatalog::Workload* workload : got) {
    EXPECT_EQ(workload, got.front()) << "one key, one Workload, one address";
  }
  EXPECT_EQ(&catalog.resolve("edeanet-64", 22), got.front());
  // Process CPU time: four builds of the same network cost about four
  // times one build; one build and three waits cost about one.
  EXPECT_LT(four_resolves, 2 * one_build)
      << "one build took " << one_build << " clock ticks, four concurrent "
      << "resolves of one key took " << four_resolves;
}

TEST(WorkloadCatalogTest, ConcurrentResolvesOfAnUnknownNameAllThrow) {
  WorkloadCatalog catalog;
  constexpr int kThreads = 4;
  std::atomic<int> thrown{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&catalog, &thrown] {
      try {
        (void)catalog.resolve("not-a-network", 1);
      } catch (const PreconditionError&) {
        ++thrown;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(thrown.load(), kThreads);
  // Nothing was left behind: a later resolve throws too, and a known
  // name still builds.
  EXPECT_THROW((void)catalog.resolve("not-a-network", 1), PreconditionError);
  EXPECT_NO_THROW((void)catalog.resolve("edeanet-64", 1));
}

TEST(SocketTransportTest, LoopbackSessionIsBitIdenticalToStdio) {
  // The acceptance criterion of the layering refactor, in process: a TCP
  // client and the stdio driver see byte-identical responses for the
  // same request stream against equally fresh services.
  SimulationService stdio_svc;
  WorkloadCatalog stdio_catalog;
  const std::vector<std::string> expected =
      serve_stdio(stdio_svc, stdio_catalog, scripted_stream());

  SimulationService socket_svc;
  WorkloadCatalog socket_catalog;
  SocketTransportOptions options;
  options.max_sessions = 1;
  SocketTransport transport(options);
  std::thread server([&] {
    transport.serve([&](Stream& stream) {
      Session(socket_svc, socket_catalog).serve(stream);
    });
  });

  std::vector<std::string> responses;
  {
    std::unique_ptr<Stream> client =
        connect_socket("127.0.0.1", transport.port(), /*retry_ms=*/5000);
    for (const std::string& line : scripted_stream()) {
      ASSERT_TRUE(client->write_line(line));
    }
    client->close_write();
    std::string line;
    while (client->read_line(line)) responses.push_back(line);
  }
  server.join();

  EXPECT_EQ(responses, expected);
}

TEST(SocketTransportTest, ConcurrentSessionsServeDisjointClientsCorrectly) {
  SimulationService svc;
  WorkloadCatalog catalog;
  SocketTransportOptions options;
  options.max_sessions = 3;
  SocketTransport transport(options);
  std::thread server([&] {
    transport.serve(
        [&](Stream& stream) { Session(svc, catalog).serve(stream); });
  });

  // Three clients with disjoint design points (different seeds), each
  // with an internal duplicate. Within a session the duplicate is always
  // a hit (coalesced or cached); across sessions nothing is shared, so
  // every client's response set is deterministic despite concurrency.
  std::vector<std::vector<std::string>> responses(3);
  std::vector<std::thread> clients;
  for (int c = 0; c < 3; ++c) {
    clients.emplace_back([&, c] {
      const std::string seed = std::to_string(100 + c);
      std::unique_ptr<Stream> client =
          connect_socket("localhost", transport.port(), /*retry_ms=*/5000);
      const std::vector<std::string> lines = {
          "run mobilenet-0.25x seed=" + seed + " td=16",
          "run mobilenet-0.25x seed=" + seed + " td=16",
      };
      for (const std::string& line : lines) {
        if (!client->write_line(line)) return;
      }
      client->close_write();
      std::string line;
      while (client->read_line(line)) {
        responses[static_cast<std::size_t>(c)].push_back(line);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  server.join();

  for (int c = 0; c < 3; ++c) {
    const auto& mine = responses[static_cast<std::size_t>(c)];
    const std::string name =
        "ok mobilenet-0.25x@" + std::to_string(100 + c) + " ";
    ASSERT_EQ(mine.size(), 2u) << "client " << c;
    EXPECT_EQ(mine[0].rfind(name, 0), 0u) << mine[0];
    EXPECT_NE(mine[0].find("cache=miss"), std::string::npos) << mine[0];
    EXPECT_EQ(mine[1].rfind(name, 0), 0u) << mine[1];
    EXPECT_NE(mine[1].find("cache=hit"), std::string::npos) << mine[1];
  }
  // 3 distinct points, each requested twice: exactly 3 simulations.
  const CacheStats stats = svc.cache_stats();
  EXPECT_EQ(stats.misses, 3u);
  EXPECT_EQ(stats.hits, 3u);
}

TEST(SocketTransportTest, ShutdownUnblocksServe) {
  SocketTransport transport(SocketTransportOptions{});
  std::thread server([&] {
    transport.serve([](Stream&) { FAIL() << "no connection was made"; });
  });
  transport.shutdown();
  server.join();  // hangs forever if shutdown() cannot wake accept()
  SUCCEED();
}

TEST(SocketTransportTest, EphemeralPortIsReported) {
  SocketTransport transport(SocketTransportOptions{});
  EXPECT_NE(transport.port(), 0);
  transport.shutdown();
}

/// The process's virtual memory size in KiB (Linux /proc/self/status).
long vm_size_kib() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmSize:") {
      long kib = 0;
      status >> kib;
      return kib;
    }
    status.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
  }
  return 0;
}

TEST(SocketTransportTest, EndedSessionsAreJoinedWhileServing) {
  // Sequential connections on one accept loop, each answered in full. A
  // finished session's thread keeps its stack (8 MiB of address space by
  // default) until it is joined; joining ended sessions at each accept
  // keeps 64 connections far below 64 stacks.
  SimulationService svc;
  WorkloadCatalog catalog;
  SocketTransport transport(SocketTransportOptions{});
  std::thread server([&] {
    transport.serve(
        [&](Stream& stream) { Session(svc, catalog).serve(stream); });
  });

  const auto one_session = [&] {
    std::unique_ptr<Stream> client =
        connect_socket("127.0.0.1", transport.port(), /*retry_ms=*/5000);
    EXPECT_TRUE(client->write_line("stats"));
    client->close_write();
    std::string line;
    std::size_t lines = 0;
    while (client->read_line(line)) ++lines;
    EXPECT_EQ(lines, 1u);
  };
  for (int i = 0; i < 8; ++i) one_session();  // warm the thread-stack cache
  const long before = vm_size_kib();
  constexpr int kSessions = 64;
  for (int i = 0; i < kSessions; ++i) one_session();
  const long grown_mib = (vm_size_kib() - before) / 1024;
  EXPECT_LT(grown_mib, kSessions * 8 / 2)
      << "ended session threads are not being joined";

  transport.shutdown();
  server.join();
}

/// The raw server end of one loopback connection, writing exactly the
/// bytes it is given (a Stream only ever writes whole lines).
class RawPeer {
 public:
  RawPeer() {
    const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
    EDEA_REQUIRE(listener >= 0, "socket()");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof(addr);
    EDEA_REQUIRE(::bind(listener, reinterpret_cast<sockaddr*>(&addr),
                        sizeof(addr)) == 0 &&
                     ::listen(listener, 1) == 0 &&
                     ::getsockname(listener,
                                   reinterpret_cast<sockaddr*>(&addr),
                                   &len) == 0,
                 "listen on loopback");
    client_ = connect_socket("127.0.0.1", ntohs(addr.sin_port));
    fd_ = ::accept(listener, nullptr, nullptr);
    ::close(listener);
    EDEA_REQUIRE(fd_ >= 0, "accept()");
  }
  ~RawPeer() { close(); }

  /// One send(2) of all of `bytes` (repeated only on a short write).
  void send(const std::string& bytes) {
    std::size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n =
          ::send(fd_, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
      EDEA_REQUIRE(n > 0, "send()");
      sent += static_cast<std::size_t>(n);
    }
  }
  void close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }
  Stream& client() { return *client_; }

 private:
  std::unique_ptr<Stream> client_;
  int fd_ = -1;
};

TEST(SocketStreamTest, ReadLineReassemblesBurstsSplitsAndAnUnterminatedTail) {
  // A 1 MiB burst of short lines in one write, a line split across two
  // writes (the reader is already waiting on the first half), and a last
  // line with no '\n' before EOF: every line reads back as sent.
  RawPeer peer;
  std::vector<std::string> expected = {"split across two writes"};
  std::string burst;
  for (int i = 0; burst.size() < (std::size_t{1} << 20); ++i) {
    expected.push_back("ok " + std::to_string(i));
    burst += expected.back() + "\n";
  }
  expected.push_back("");  // an empty line is a line
  burst += "\n";
  expected.push_back("tail without newline");

  std::thread writer([&] {
    peer.send("split across");
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    peer.send(" two writes\n");
    peer.send(burst);
    peer.send("tail without newline");
    peer.close();
  });
  std::vector<std::string> got;
  std::string line;
  while (peer.client().read_line(line)) got.push_back(line);
  writer.join();
  EXPECT_EQ(got, expected);
  EXPECT_FALSE(peer.client().read_line(line)) << "EOF stays EOF";
}

/// A raw client connection to loopback `port`, for a peer that sends
/// what no Stream would (a line without its '\n'). A read gives up after
/// 10 s, so a server that waits forever fails the test instead of
/// hanging it.
int connect_raw(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EDEA_REQUIRE(fd >= 0, "socket()");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  const timeval patience{10, 0};
  EDEA_REQUIRE(
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0 &&
          ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &patience,
                       sizeof(patience)) == 0,
      "connect to loopback");
  return fd;
}

/// Sends `bytes` on `fd` until all are sent or the peer stops reading
/// (it may close with the rest unread).
void send_until_refused(int fd, const std::string& bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) return;
    sent += static_cast<std::size_t>(n);
  }
}

TEST(SocketStreamTest, ReadLineBoundsRequestsButNotReplies) {
  // 1 MiB with no '\n' into a stream the transport accepted: it hands
  // over one byte past the limit - what the parser rejects - and then
  // reads nothing more.
  const std::string flood = "run " + std::string(std::size_t{1} << 20, 'x');
  SocketTransportOptions options;
  options.max_sessions = 1;
  SocketTransport transport(options);
  std::string request;
  bool read_request = false;
  bool read_more = true;
  std::thread server([&] {
    transport.serve([&](Stream& stream) {
      read_request = stream.read_line(request);
      std::string rest;
      read_more = stream.read_line(rest) || stream.read_line(rest);
    });
  });
  const int fd = connect_raw(transport.port());
  send_until_refused(fd, flood);
  ::close(fd);
  server.join();
  ASSERT_TRUE(read_request);
  EXPECT_EQ(request.size(), kMaxLineBytes + 1);
  EXPECT_EQ(request.substr(0, 5), "run x");
  EXPECT_FALSE(read_more) << "the end stays the end";
  EXPECT_EQ(parse_request_line(request).kind,
            ParsedLine::Kind::kError);

  // A connect_socket stream reads replies, which may repeat a request's
  // tokens past the limit: the same megabyte reads back whole.
  RawPeer peer;
  std::thread writer([&] {
    peer.send(flood + "\n");
    peer.close();
  });
  std::string reply;
  ASSERT_TRUE(peer.client().read_line(reply));
  writer.join();
  EXPECT_TRUE(reply == flood) << "a " << reply.size() << "-byte reply";
  EXPECT_FALSE(peer.client().read_line(reply));
}

TEST(SocketTransportTest, EndlessLineGetsOneProtocolErrorThenTheSessionEnds) {
  // A peer that sends 1 MiB and never a '\n' reads exactly one
  // protocol-error line, then the end of the connection.
  SimulationService svc;
  WorkloadCatalog catalog;
  SocketTransportOptions options;
  options.max_sessions = 1;
  SocketTransport transport(options);
  std::thread server([&] {
    transport.serve(
        [&](Stream& stream) { Session(svc, catalog).serve(stream); });
  });

  const int fd = connect_raw(transport.port());
  std::thread sender([fd] {
    send_until_refused(fd, std::string(std::size_t{1} << 20, 'x'));
  });
  std::string received;
  char chunk[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) break;  // EOF, or a reset for the unread flood
    received.append(chunk, static_cast<std::size_t>(n));
  }
  sender.join();
  ::close(fd);
  server.join();
  EXPECT_EQ(received, "protocol-error line longer than " +
                          std::to_string(kMaxLineBytes) + " bytes\n");
}

TEST(ConnectSocketTest, RejectsBadHostsAndRefusedConnections) {
  EXPECT_THROW((void)connect_socket("not a host", 1), PreconditionError);

  // Grab an ephemeral port, release it, then connect: refused (nothing
  // listens), surfaced as ResourceError once the (zero) retry budget ends.
  std::uint16_t dead_port = 0;
  {
    SocketTransport probe(SocketTransportOptions{});
    dead_port = probe.port();
    probe.shutdown();
  }
  EXPECT_THROW((void)connect_socket("127.0.0.1", dead_port), ResourceError);
}

}  // namespace
}  // namespace edea::service
