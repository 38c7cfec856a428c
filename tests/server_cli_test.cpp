// server_cli_test - the command lines of the simulation server, router and
// client (service/cli.hpp) as library contracts: the --help texts document
// every flag, every flag a text documents parses, and the parsers accept
// the documented grammar while rejecting malformed or contradictory
// invocations with a reason.
#include "service/cli.hpp"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

namespace edea::service {
namespace {

ServerConfig parse(const std::vector<const char*>& args) {
  return parse_server_args(static_cast<int>(args.size()), args.data());
}

ClientConfig parse_client(const std::vector<const char*>& args) {
  return parse_client_args(static_cast<int>(args.size()), args.data());
}

/// Request keys that are not command-line flags on any of the three CLIs.
constexpr const char* kRequestKeyFlags[] = {"--backend", "--batch",
                                            "--dilation",
                                            "--depth-multiplier"};

TEST(ServerCliTest, HelpTextMentionsEveryDocumentedFlag) {
  const std::string usage = server_usage();
  for (const char* flag :
       {"--help", "--listen", "--max-sessions", "--cache-file", "--workers",
        "--cache", "--tile-parallelism", "--verify", "--max-queue",
        "--busy-retry-ms", "--ordered"}) {
    SCOPED_TRACE(flag);
    EXPECT_NE(usage.find(flag), std::string::npos)
        << "flag missing from simulation_server --help output";
  }
  // Both serving modes are shown as invocation forms.
  EXPECT_NE(usage.find("stdio mode"), std::string::npos);
  EXPECT_NE(usage.find("TCP socket mode"), std::string::npos);
}

TEST(ServerCliTest, DefaultsMatchTheServiceDefaults) {
  const ServerConfig config = parse({});
  EXPECT_TRUE(config.error.empty()) << config.error;
  EXPECT_FALSE(config.help);
  EXPECT_FALSE(config.verify);
  EXPECT_FALSE(config.listen);
  EXPECT_EQ(config.socket.max_sessions, 0u);
  EXPECT_TRUE(config.cache_file.empty());
  EXPECT_EQ(config.service.worker_threads, 0u);
  EXPECT_EQ(config.service.cache_capacity, ServiceOptions().cache_capacity);
  EXPECT_EQ(config.service.tile_parallelism, 1);
  EXPECT_EQ(config.service.max_queue, 0u);
  EXPECT_EQ(config.session.busy_retry_ms, 25);
  EXPECT_TRUE(config.session.allow_unordered);
}

TEST(ServerCliTest, EveryFlagParses) {
  const ServerConfig config =
      parse({"--listen", "47163", "--max-sessions", "2", "--cache-file",
             "/tmp/edea.cache", "--workers", "3", "--cache", "64",
             "--tile-parallelism", "4", "--max-queue", "2",
             "--busy-retry-ms", "5", "--ordered"});
  ASSERT_TRUE(config.error.empty()) << config.error;
  EXPECT_TRUE(config.listen);
  EXPECT_EQ(config.socket.port, 47163);
  EXPECT_EQ(config.socket.max_sessions, 2u);
  EXPECT_EQ(config.cache_file, "/tmp/edea.cache");
  EXPECT_EQ(config.service.worker_threads, 3u);
  EXPECT_EQ(config.service.cache_capacity, 64u);
  EXPECT_EQ(config.service.tile_parallelism, 4);
  EXPECT_EQ(config.service.max_queue, 2u);
  EXPECT_EQ(config.session.busy_retry_ms, 5);
  EXPECT_FALSE(config.session.allow_unordered);
}

TEST(ServerCliTest, ListenPortMustBeNumericAndInRange) {
  // The satellite bugfix contract: a port outside [0, 65535] or a
  // non-numeric string answers a clear range-naming error, never
  // whatever std::stoi would have done.
  for (const char* bad :
       {"65536", "70000", "99999999999999999999", "-1", "-0", "8080x",
        "abc", "0x1F90", " 80", ""}) {
    SCOPED_TRACE(std::string("port '") + bad + "'");
    const ServerConfig config = parse({"--listen", bad});
    EXPECT_FALSE(config.error.empty());
    EXPECT_NE(config.error.find("[0, 65535]"), std::string::npos)
        << config.error;
    EXPECT_FALSE(config.listen);
  }
  // The boundary values themselves are fine.
  EXPECT_TRUE(parse({"--listen", "0"}).error.empty());
  const ServerConfig top = parse({"--listen", "65535"});
  EXPECT_TRUE(top.error.empty());
  EXPECT_EQ(top.socket.port, 65535);
}

TEST(ServerCliTest, HelpAndVerifyFlagsParse) {
  EXPECT_TRUE(parse({"--help"}).help);
  EXPECT_TRUE(parse({"--verify"}).verify);
}

TEST(ServerCliTest, MalformedValuesAreRejectedWithAReason) {
  for (const std::vector<const char*>& args :
       std::vector<std::vector<const char*>>{
           {"--listen"},                     // missing value
           {"--listen", "65536"},            // port out of range
           {"--listen", "-1"},               // negative
           {"--listen", "4x"},               // trailing junk
           {"--max-sessions", "two"},        // non-numeric
           {"--workers", "-3"},              // negative wraps in stoul
           {"--cache", "10bb"},              // trailing junk
           {"--tile-parallelism", "0"},      // zero width is a caller bug
           {"--tile-parallelism", "-4"},     // negative width
           {"--cache-file"},                 // missing value
           {"--max-queue", "abc"},           // non-numeric
           {"--max-queue", "-1"},            // negative wraps in stoul
           {"--max-queue"},                  // missing value
           {"--busy-retry-ms", "0"},         // a 0 ms hint is a busy loop
           {"--busy-retry-ms", "-5"},        // negative
           {"--busy-retry-ms", "5x"},        // trailing junk
           {"--busy-retry-ms"},              // missing value
           {"--wat"},                        // unknown flag
       }) {
    SCOPED_TRACE(args.front());
    const ServerConfig config = parse(args);
    EXPECT_FALSE(config.error.empty());
  }
}

TEST(ServerCliTest, ContradictoryModesAreRejected) {
  // --verify compares against an in-process serial reference; in socket
  // mode that is the client's job (simulation_client --verify).
  EXPECT_FALSE(parse({"--verify", "--listen", "0"}).error.empty());
  // --max-sessions is meaningless without a socket to accept on.
  EXPECT_FALSE(parse({"--max-sessions", "1"}).error.empty());
  // ... but fine together with --listen.
  EXPECT_TRUE(parse({"--listen", "0", "--max-sessions", "1"}).error.empty());
  // Persistence with memoization disabled would save an empty cache over
  // the file at shutdown, destroying every persisted design point.
  EXPECT_FALSE(
      parse({"--cache", "0", "--cache-file", "/tmp/c.bin"}).error.empty());
  EXPECT_TRUE(
      parse({"--cache", "8", "--cache-file", "/tmp/c.bin"}).error.empty());
  // The retry hint is what busy replies advertise; without a bounded
  // queue no reply will ever carry it, so stating it is a config error.
  EXPECT_FALSE(parse({"--busy-retry-ms", "5"}).error.empty());
  EXPECT_TRUE(
      parse({"--max-queue", "2", "--busy-retry-ms", "5"}).error.empty());
}

TEST(ServerCliTest, RequestKeysAreNotFlags) {
  // A run line names its whole job (backend=, batch=, dilation=,
  // depth_multiplier=); no server flag fills in what a line leaves out.
  for (const char* flag : kRequestKeyFlags) {
    SCOPED_TRACE(flag);
    const ServerConfig config = parse({flag, "2"});
    EXPECT_EQ(config.error, std::string("unknown option '") + flag + "'");
    EXPECT_EQ(server_usage().find(flag), std::string::npos);
  }
}

// --- the client's command line ---------------------------------------------

TEST(ClientCliTest, HelpTextMentionsEveryDocumentedFlag) {
  const std::string usage = client_usage();
  for (const char* flag :
       {"--help", "--connect", "--verify", "--expect-all-hits", "--pipeline",
        "--ordered"}) {
    SCOPED_TRACE(flag);
    EXPECT_NE(usage.find(flag), std::string::npos)
        << "flag missing from simulation_client --help output";
  }
  EXPECT_NE(usage.find("HOST:PORT"), std::string::npos);
}

TEST(ClientCliTest, EveryFlagParses) {
  const ClientConfig config =
      parse_client({"--connect", "127.0.0.1:47163", "--verify",
                    "--expect-all-hits", "--pipeline", "32", "--ordered"});
  ASSERT_TRUE(config.error.empty()) << config.error;
  EXPECT_TRUE(config.connect_given);
  EXPECT_EQ(config.host, "127.0.0.1");
  EXPECT_EQ(config.port, 47163);
  EXPECT_TRUE(config.verify);
  EXPECT_TRUE(config.expect_all_hits);
  EXPECT_EQ(config.pipeline, 32u);
  EXPECT_TRUE(config.ordered);
}

TEST(ClientCliTest, RequestKeysAreNotFlags) {
  // The --verify reference parses each line as the server does, so it
  // has no server setting to mirror.
  for (const char* flag : kRequestKeyFlags) {
    SCOPED_TRACE(flag);
    const ClientConfig config = parse_client({"--connect", "h:1", flag, "2"});
    EXPECT_EQ(config.error, std::string("unknown option '") + flag + "'");
    EXPECT_EQ(client_usage().find(flag), std::string::npos);
  }
}

TEST(ClientCliTest, HelpNeedsNoConnect) {
  const ClientConfig config = parse_client({"--help"});
  EXPECT_TRUE(config.error.empty()) << config.error;
  EXPECT_TRUE(config.help);
}

TEST(ClientCliTest, ConnectIsRequiredAndValidated) {
  EXPECT_FALSE(parse_client({}).error.empty());
  EXPECT_FALSE(parse_client({"--verify"}).error.empty());
  for (const char* bad :
       {"localhost", ":80", "host:", "host:abc", "host:65536", "host:-1",
        "host:80x", "host:+80", "host: 80"}) {
    SCOPED_TRACE(std::string("target '") + bad + "'");
    EXPECT_FALSE(parse_client({"--connect", bad}).error.empty());
  }
  const ClientConfig ok = parse_client({"--connect", "localhost:0"});
  EXPECT_TRUE(ok.error.empty()) << ok.error;
  EXPECT_EQ(ok.host, "localhost");
  EXPECT_EQ(ok.port, 0);
}

TEST(ClientCliTest, ContradictionsAndUnknownsAreRejected) {
  // --expect-all-hits asserts a property of the --verify comparison.
  EXPECT_FALSE(parse_client({"--connect", "h:1", "--expect-all-hits"})
                   .error.empty());
  EXPECT_FALSE(parse_client({"--connect", "h:1", "--wat"}).error.empty());
}

TEST(ClientCliTest, PipelineWindowIsBoundedByTheFrameLimit) {
  // pipeline 0 (the default) selects the legacy send-everything-then-read
  // mode.
  const ClientConfig legacy = parse_client({"--connect", "h:1"});
  ASSERT_TRUE(legacy.error.empty()) << legacy.error;
  EXPECT_EQ(legacy.pipeline, 0u);
  EXPECT_FALSE(legacy.ordered);
  // The window rides inside batch frames, so it can never exceed the
  // protocol's own frame limit; the error names the legal range.
  for (const char* bad : {"0", "-1", "+8", "8x", "abc", "4097", ""}) {
    SCOPED_TRACE(std::string("window '") + bad + "'");
    const ClientConfig config =
        parse_client({"--connect", "h:1", "--pipeline", bad});
    EXPECT_FALSE(config.error.empty());
    EXPECT_NE(config.error.find("4096"), std::string::npos) << config.error;
  }
  EXPECT_FALSE(parse_client({"--connect", "h:1", "--pipeline"}).error.empty());
  const ClientConfig top =
      parse_client({"--connect", "h:1", "--pipeline", "4096"});
  EXPECT_TRUE(top.error.empty()) << top.error;
  EXPECT_EQ(top.pipeline, 4096u);
  // --ordered shapes how the pipelined sender negotiates; the one-shot
  // sender is ordered by construction, so alone it is a silent no-op.
  EXPECT_FALSE(parse_client({"--connect", "h:1", "--ordered"}).error.empty());
  EXPECT_TRUE(parse_client({"--connect", "h:1", "--pipeline", "8",
                            "--ordered"})
                  .error.empty());
}

RouterCliConfig parse_router(const std::vector<const char*>& args) {
  return parse_router_args(static_cast<int>(args.size()), args.data());
}

TEST(RouterCliTest, HelpTextMentionsEveryDocumentedFlag) {
  const std::string usage = router_usage();
  for (const char* flag :
       {"--help", "--spawn", "--worker", "--server-bin", "--cache-file",
        "--replicas", "--retry-attempts", "--listen", "--max-sessions",
        "--ordered"}) {
    SCOPED_TRACE(flag);
    EXPECT_NE(usage.find(flag), std::string::npos)
        << "flag missing from simulation_router --help output";
  }
}

TEST(RouterCliTest, DefaultsMatchTheRouterDefaults) {
  const RouterCliConfig config = parse_router({"--spawn", "2"});
  EXPECT_TRUE(config.error.empty()) << config.error;
  EXPECT_EQ(config.spawn, 2);
  EXPECT_TRUE(config.router.workers.empty());
  EXPECT_TRUE(config.server_bin.empty());
  EXPECT_TRUE(config.cache_file.empty());
  EXPECT_EQ(config.router.replicas, HashRing::kDefaultReplicas);
  EXPECT_EQ(config.router.max_attempts, RouterOptions().max_attempts);
  EXPECT_FALSE(config.listen);
  EXPECT_EQ(config.socket.max_sessions, 0u);
  EXPECT_TRUE(config.router.allow_unordered);
}

TEST(RouterCliTest, EveryFlagParses) {
  const RouterCliConfig config = parse_router(
      {"--spawn", "4", "--server-bin", "/opt/bin/worker", "--cache-file",
       "/tmp/cluster.cache", "--replicas", "128", "--retry-attempts", "9",
       "--listen", "47167", "--max-sessions", "3", "--ordered"});
  EXPECT_TRUE(config.error.empty()) << config.error;
  EXPECT_EQ(config.spawn, 4);
  EXPECT_EQ(config.server_bin, "/opt/bin/worker");
  EXPECT_EQ(config.cache_file, "/tmp/cluster.cache");
  EXPECT_EQ(config.router.replicas, 128);
  EXPECT_EQ(config.router.max_attempts, 9);
  EXPECT_TRUE(config.listen);
  EXPECT_EQ(config.socket.port, 47167);
  EXPECT_EQ(config.socket.max_sessions, 3u);
  EXPECT_FALSE(config.router.allow_unordered);
}

TEST(RouterCliTest, RequestKeysAreNotFlags) {
  // The router forwards raw lines, and every worker parses a line to the
  // same job, so spawned workers need no request settings from it.
  for (const char* flag : kRequestKeyFlags) {
    SCOPED_TRACE(flag);
    const RouterCliConfig config = parse_router({"--spawn", "2", flag, "2"});
    EXPECT_EQ(config.error, std::string("unknown option '") + flag + "'");
    EXPECT_EQ(router_usage().find(flag), std::string::npos);
  }
}

TEST(RouterCliTest, WorkerEndpointsParseStrictlyAsHostColonPort) {
  const RouterCliConfig two = parse_router(
      {"--worker", "127.0.0.1:4000", "--worker", "localhost:4001"});
  EXPECT_TRUE(two.error.empty()) << two.error;
  ASSERT_EQ(two.router.workers.size(), 2u);
  EXPECT_EQ(two.router.workers[0].id, "127.0.0.1:4000")
      << "the given string is the stable ring id";
  EXPECT_EQ(two.router.workers[0].host, "127.0.0.1");
  EXPECT_EQ(two.router.workers[0].port, 4000);
  EXPECT_EQ(two.router.workers[1].host, "localhost");
  EXPECT_EQ(two.router.workers[1].port, 4001);

  for (const char* bad :
       {"", "noport", "host:", ":4000", "host:0", "host:65536", "host:-1",
        "host:40x0", "host: 4000", "host:4000x"}) {
    SCOPED_TRACE(std::string("endpoint '") + bad + "'");
    const RouterCliConfig config = parse_router({"--worker", bad});
    EXPECT_FALSE(config.error.empty());
    EXPECT_NE(config.error.find("HOST:PORT"), std::string::npos)
        << config.error;
  }
  EXPECT_FALSE(parse_router({"--worker"}).error.empty());

  const RouterCliConfig dup = parse_router(
      {"--worker", "h:4000", "--worker", "h:4000"});
  EXPECT_NE(dup.error.find("given twice"), std::string::npos) << dup.error;
}

TEST(RouterCliTest, SpawnAndReplicasShareTheDigitFirstBoundedGrammar) {
  for (const char* bad : {"0", "-1", "+2", "2x", "abc", "65", ""}) {
    SCOPED_TRACE(std::string("spawn '") + bad + "'");
    EXPECT_FALSE(parse_router({"--spawn", bad}).error.empty());
  }
  EXPECT_FALSE(parse_router({"--spawn"}).error.empty());
  EXPECT_TRUE(parse_router({"--spawn", "64"}).error.empty());

  for (const char* bad : {"0", "-1", "+64", "64x", "65537", ""}) {
    SCOPED_TRACE(std::string("replicas '") + bad + "'");
    EXPECT_FALSE(
        parse_router({"--spawn", "2", "--replicas", bad}).error.empty());
  }
  EXPECT_TRUE(
      parse_router({"--spawn", "2", "--replicas", "65536"}).error.empty());
  for (const char* bad : {"0", "-1", "3x", ""}) {
    SCOPED_TRACE(std::string("retry-attempts '") + bad + "'");
    EXPECT_FALSE(parse_router({"--spawn", "2", "--retry-attempts", bad})
                     .error.empty());
  }
}

TEST(RouterCliTest, ContradictoryAndIncompleteInvocationsAreRejected) {
  // Two membership sources would make ring ids ambiguous.
  const RouterCliConfig both = parse_router(
      {"--spawn", "2", "--worker", "h:4000"});
  EXPECT_NE(both.error.find("mutually exclusive"), std::string::npos)
      << both.error;

  // No membership source at all.
  const RouterCliConfig none = parse_router({});
  EXPECT_NE(none.error.find("need workers"), std::string::npos) << none.error;

  // Spawn-only flags without --spawn.
  EXPECT_FALSE(parse_router({"--worker", "h:4000", "--server-bin", "/b"})
                   .error.empty());
  EXPECT_FALSE(parse_router({"--worker", "h:4000", "--cache-file", "/c"})
                   .error.empty());

  // --max-sessions is a socket-mode knob.
  EXPECT_FALSE(parse_router({"--spawn", "2", "--max-sessions", "1"})
                   .error.empty());
  EXPECT_TRUE(parse_router({"--spawn", "2", "--listen", "0",
                            "--max-sessions", "1"})
                  .error.empty());

  const RouterCliConfig unknown = parse_router({"--spawn", "2", "--nope"});
  EXPECT_NE(unknown.error.find("unknown option"), std::string::npos)
      << unknown.error;

  // --help short-circuits validation, like the server CLI.
  EXPECT_TRUE(parse_router({"--help"}).error.empty());
  EXPECT_TRUE(parse_router({"--help"}).help);
}

// --- every documented flag parses ------------------------------------------

/// Each `--flag` a usage text names, paired with the placeholder that
/// follows it, if any (`--listen PORT` -> {"--listen", "PORT"}).
std::vector<std::pair<std::string, std::string>> documented_flags(
    const std::string& usage) {
  const auto in_flag = [](char c) {
    return (c >= 'a' && c <= 'z') || c == '-';
  };
  const auto in_value = [](char c) {
    return (c >= 'A' && c <= 'Z') || c == ':';
  };
  std::vector<std::pair<std::string, std::string>> flags;
  for (std::size_t at = usage.find("--"); at != std::string::npos;
       at = usage.find("--", at)) {
    std::size_t end = at + 2;
    while (end < usage.size() && in_flag(usage[end])) ++end;
    std::size_t value_end = end + 1;
    while (value_end < usage.size() && in_value(usage[value_end])) {
      ++value_end;
    }
    const bool has_value = end + 1 < usage.size() && usage[end] == ' ' &&
                           usage[end + 1] >= 'A' && usage[end + 1] <= 'Z';
    flags.emplace_back(usage.substr(at, end - at),
                       has_value ? usage.substr(end + 1, value_end - end - 1)
                                 : std::string());
    at = end;
  }
  return flags;
}

TEST(CliTest, EveryFlagAUsageTextNamesIsAccepted) {
  // The reverse of the HelpTextMentionsEveryDocumentedFlag tests: each
  // `--flag` a program's usage text names is one its parser knows, given
  // a value where the text shows a placeholder (`--listen PORT`). The
  // server and the router print shared usage blocks, so a block must not
  // document a flag to a program that lacks it.
  using ParseError = std::string (*)(const std::vector<const char*>&);
  const std::vector<std::pair<std::string, ParseError>> programs = {
      {server_usage(),
       [](const std::vector<const char*>& a) { return parse(a).error; }},
      {router_usage(),
       [](const std::vector<const char*>& a) { return parse_router(a).error; }},
      {client_usage(),
       [](const std::vector<const char*>& a) { return parse_client(a).error; }},
  };
  for (const auto& [usage, parse_error] : programs) {
    const auto flags = documented_flags(usage);
    EXPECT_GE(flags.size(), 6u) << usage;
    for (const auto& [flag, placeholder] : flags) {
      SCOPED_TRACE(flag + " " + placeholder);
      std::vector<const char*> args = {flag.c_str()};
      if (placeholder == "HOST:PORT") {
        args.push_back("127.0.0.1:4000");
      } else if (!placeholder.empty()) {
        args.push_back("1");
      }
      const std::string error = parse_error(args);
      EXPECT_EQ(error.find("unknown option"), std::string::npos) << error;
    }
  }
}

}  // namespace
}  // namespace edea::service
