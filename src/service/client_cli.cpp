#include "service/client_cli.hpp"

#include "service/protocol.hpp"
#include "service/server_cli.hpp"

namespace edea::service {

std::string client_usage() {
  return
      "usage: simulation_client --connect HOST:PORT [options] < requests.txt\n"
      "\n"
      "Replays a request stream of the EDEA simulation line protocol over\n"
      "TCP against a running simulation_server and prints the server's\n"
      "responses to stdout in request order.\n"
      "\n"
      "options:\n"
      "  --help                 print this help and exit\n"
      "  --connect HOST:PORT    server to connect to (required; retries\n"
      "                         while the server is still binding)\n"
      "  --verify               recompute the reference responses in\n"
      "                         process (the stdio Session code path) and\n"
      "                         exit nonzero unless the server's responses\n"
      "                         are bit-identical\n"
      "  --expect-all-hits      with --verify: additionally require every\n"
      "                         run response to be flagged cache=hit and\n"
      "                         the stats line to report zero misses (the\n"
      "                         persisted-cache replay gate)\n"
      "  --pipeline N           keep up to N requests in flight using\n"
      "                         batch frames and unordered streaming,\n"
      "                         retrying busy rejections with jittered\n"
      "                         backoff; responses still print in request\n"
      "                         order (1..4096; default: send everything,\n"
      "                         then read - the legacy one-shot mode)\n"
      "  --ordered              with --pipeline: stay on the byte-exact\n"
      "                         ordered reply protocol instead of\n"
      "                         negotiating `mode unordered`\n";
}

ClientConfig parse_client_args(int argc, const char* const* argv) {
  ClientConfig config;

  const auto value_of = [&](int& i, const std::string& flag,
                            std::string* out) {
    if (i + 1 >= argc) {
      config.error = flag + " needs a value";
      return false;
    }
    *out = argv[++i];
    return true;
  };

  for (int i = 0; i < argc && config.error.empty(); ++i) {
    const std::string arg = argv[i];
    std::string value;
    std::uint64_t count = 0;
    if (arg == "--help") {
      config.help = true;
    } else if (arg == "--verify") {
      config.verify = true;
    } else if (arg == "--expect-all-hits") {
      config.expect_all_hits = true;
    } else if (arg == "--pipeline") {
      if (!value_of(i, arg, &value)) break;
      if (!parse_flag_count(value, 1, kMaxFrameLines, &count)) {
        config.error = "--pipeline needs a window in [1, " +
                       std::to_string(kMaxFrameLines) + "], got '" + value +
                       "'";
        break;
      }
      config.pipeline = static_cast<std::size_t>(count);
    } else if (arg == "--ordered") {
      config.ordered = true;
    } else if (arg == "--connect") {
      if (!value_of(i, arg, &value)) break;
      const std::size_t colon = value.rfind(':');
      if (colon == std::string::npos || colon == 0 ||
          colon + 1 >= value.size()) {
        config.error = "--connect needs HOST:PORT, got '" + value + "'";
        break;
      }
      // The same port grammar as the server's --listen.
      if (!parse_flag_count(value.substr(colon + 1), 0, 65535, &count)) {
        config.error = "--connect: port in '" + value +
                       "' must be a number in [0, 65535]";
        break;
      }
      config.host = value.substr(0, colon);
      config.port = static_cast<std::uint16_t>(count);
      config.connect_given = true;
    } else {
      config.error = "unknown option '" + arg + "'";
    }
  }

  if (config.error.empty() && !config.help && !config.connect_given) {
    config.error = "--connect HOST:PORT is required";
  }
  if (config.error.empty() && config.expect_all_hits && !config.verify) {
    config.error = "--expect-all-hits requires --verify";
  }
  if (config.error.empty() && config.ordered && config.pipeline == 0) {
    // The legacy one-shot sender never negotiates a mode, so it is
    // ordered by construction - the flag would be a silent no-op.
    config.error = "--ordered only applies with --pipeline";
  }
  return config;
}

}  // namespace edea::service
