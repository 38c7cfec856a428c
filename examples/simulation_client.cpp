// simulation_client - loopback driver for the socket mode of the
// simulation server: reads a request stream from stdin, replays it over
// TCP, and prints the server's responses to stdout in request order.
//
//   simulation_server --listen 47163 &
//   simulation_client --connect 127.0.0.1:47163 [--verify]
//       [--expect-all-hits] < examples/simulation_requests.txt
//
// Run `simulation_client --help` for every flag; see service/cli.hpp for
// the parsed grammar.
//
// --verify recomputes the reference responses *in process* by running the
// same request lines through the same Session + SimulationService code
// path the stdio server uses (fresh service, default options) and fails
// unless the server's responses are bit-identical - this is the
// acceptance check that a TCP client sees exactly what the stdio driver
// prints. Cache flags are compared separately from content: a server
// restarted with a persisted cache (--cache-file) serves the same
// *content* but flags every run response cache=hit, which is what
// --expect-all-hits asserts (the CI persistence leg).
//
// Exit codes: 0 verified/served, 1 verification failure, 2 usage or
// connection error.
#include <algorithm>
#include <cstdint>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "service/cli.hpp"
#include "service/pipeline_client.hpp"
#include "service/session.hpp"
#include "service/simulation_service.hpp"
#include "service/transport.hpp"

namespace {

/// Splits a response line into (content with the cache token blanked,
/// cache token). Lines without a cache token come back unchanged with an
/// empty token (stats, protocol-error).
std::pair<std::string, std::string> split_cache_token(
    const std::string& line) {
  for (const char* token : {" cache=hit", " cache=miss"}) {
    const std::size_t at = line.find(token);
    if (at != std::string::npos) {
      std::string content = line;
      const std::string value = token + 7;  // past " cache="
      content.replace(at, std::string(token).size(), " cache=?");
      return {content, value};
    }
  }
  return {line, ""};
}

/// The in-process reference: the exact stdio code path (Session over
/// string streams against a fresh default service), producing the
/// response lines the stdio driver would print for `request_lines`.
std::vector<std::string> reference_responses(
    const std::vector<std::string>& request_lines) {
  std::ostringstream joined;
  for (const std::string& line : request_lines) joined << line << "\n";
  std::istringstream in(joined.str());
  std::ostringstream out;

  edea::service::SimulationService svc;
  edea::service::WorkloadCatalog catalog;
  edea::service::StdioStream stream(in, out);
  (void)edea::service::Session(svc, catalog).serve(stream);

  std::vector<std::string> lines;
  std::istringstream replay(out.str());
  std::string line;
  while (std::getline(replay, line)) lines.push_back(line);
  return lines;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace edea;

  const service::ClientConfig config =
      service::parse_client_args(argc - 1, argv + 1);
  if (!config.error.empty()) {
    std::cerr << "simulation_client: " << config.error << "\n\n"
              << service::client_usage();
    return 2;
  }
  if (config.help) {
    std::cout << service::client_usage();
    return 0;
  }

  std::vector<std::string> request_lines;
  std::string line;
  while (std::getline(std::cin, line)) request_lines.push_back(line);

  std::vector<std::string> responses;
  try {
    // The server may still be binding when we start (the CI leg launches
    // both concurrently) - retry the connection for a few seconds.
    std::unique_ptr<service::Stream> stream =
        service::connect_socket(config.host, config.port,
                                /*retry_ms=*/10000);
    if (config.pipeline > 0) {
      // Pipelined mode: up to --pipeline requests in flight in batch
      // frames, busy rejections retried with jittered backoff, responses
      // reassembled into request order (so --verify below still applies).
      service::PipelineOptions options;
      options.window = config.pipeline;
      options.ordered = config.ordered;
      service::PipelineReport report =
          service::run_pipelined(*stream, request_lines, options);
      if (!report.complete) {
        std::cerr << "simulation_client: " << report.error << "\n";
        return 2;
      }
      std::cerr << "pipelined " << request_lines.size() << " requests ("
                << (report.unordered ? "unordered" : "ordered") << ", "
                << report.frames_sent << " frames, " << report.busy_replies
                << " busy retries)\n";
      responses = std::move(report.responses);
      // Blank/comment request lines hold empty response slots; the
      // server never answers them, so the legacy sender (and the
      // --verify reference) have no lines for them either.
      responses.erase(
          std::remove(responses.begin(), responses.end(), std::string()),
          responses.end());
    } else {
      // Send everything, half-close, then read to EOF. The session's
      // split reader/writer threads guarantee the server keeps reading
      // while it writes, so a one-shot scripted stream cannot deadlock.
      for (const std::string& request : request_lines) {
        if (!stream->write_line(request)) {
          std::cerr << "simulation_client: connection broke while sending\n";
          return 2;
        }
      }
      stream->close_write();
      std::string response;
      while (stream->read_line(response)) responses.push_back(response);
    }
  } catch (const std::exception& e) {
    std::cerr << "simulation_client: " << e.what() << "\n";
    return 2;
  }

  for (const std::string& response : responses) {
    std::cout << response << "\n";
  }

  if (!config.verify) return 0;

  const std::vector<std::string> expected =
      reference_responses(request_lines);
  bool all_ok = true;
  if (responses.size() != expected.size()) {
    std::cerr << "VERIFY FAIL: " << responses.size() << " responses, expected "
              << expected.size() << "\n";
    all_ok = false;
  }
  const std::size_t common = std::min(responses.size(), expected.size());
  std::size_t run_responses = 0;
  std::size_t hit_responses = 0;
  for (std::size_t i = 0; i < common; ++i) {
    const auto [served_content, served_cache] =
        split_cache_token(responses[i]);
    const auto [expected_content, expected_cache] =
        split_cache_token(expected[i]);

    const bool is_stats = expected[i].rfind("stats ", 0) == 0;
    if (config.expect_all_hits && is_stats) {
      // A persisted-cache replay reports different counters than a cold
      // reference run; check the semantic claim instead of the bytes.
      if (responses[i].find(" misses=0 ") == std::string::npos) {
        std::cerr << "VERIFY FAIL: response " << i
                  << " should report zero misses: " << responses[i] << "\n";
        all_ok = false;
      }
      continue;
    }
    if (served_content != expected_content) {
      std::cerr << "VERIFY FAIL: response " << i << " differs\n  served:   "
                << responses[i] << "\n  expected: " << expected[i] << "\n";
      all_ok = false;
      continue;
    }
    if (!expected_cache.empty()) {
      ++run_responses;
      if (served_cache == "hit") ++hit_responses;
      if (config.expect_all_hits) {
        if (served_cache != "hit") {
          std::cerr << "VERIFY FAIL: response " << i
                    << " should be a cache hit: " << responses[i] << "\n";
          all_ok = false;
        }
      } else if (served_cache != expected_cache) {
        std::cerr << "VERIFY FAIL: response " << i << " cache flag '"
                  << served_cache << "', expected '" << expected_cache
                  << "'\n";
        all_ok = false;
      }
    }
  }

  if (all_ok) {
    std::cerr << "verify OK: " << responses.size()
              << " responses bit-identical to the stdio reference ("
              << hit_responses << "/" << run_responses << " cache hits)\n";
  } else {
    std::cerr << "verify FAILED\n";
  }
  return all_ok ? 0 : 1;
}
