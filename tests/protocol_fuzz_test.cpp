// protocol_fuzz_test - a seeded mutation fuzzer for the line grammar of
// service/protocol.hpp.
//
// Seeds are real lines: the requests and replies of the golden transcript
// (tests/data/protocol_golden.txt) and every line of the example request
// corpora (examples/simulation_requests*.txt). Each fixed seed mutates a
// few thousand of them - byte flips, inserted whitespace runs, deleted,
// duplicated or truncated tokens, digit runs past the uint64 and int
// ranges, stray '=' and '#' - and pins, on every mutated line:
//   (1) parse_request_line never throws, and one line always parses to
//       the same result;
//   (2) every error is bounded in length and names the offending token -
//       it quotes a token, or a key or value of one, or leads with the verb
//       whose arity the line breaks;
//   (3) an accepted `run` line, re-rendered canonically, parses to the same
//       network, seed and JobKey;
//   (4) parse_busy_line, parse_unordered_line and parse_stats_line either
//       reject a mutated reply without touching their outputs, or return
//       values that re-format to exactly that reply.
// The parser reads tokens as views into the line, which is why CI also
// runs this suite under ASan + UBSan. Every failure names its case as a
// one-line repro - the seed, the case index and the mutated line with each
// byte outside printable ASCII escaped - so it can be replayed standalone.
#include "service/protocol.hpp"

#include <gtest/gtest.h>

#include <charconv>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "util/random.hpp"

namespace edea::service {
namespace {

constexpr std::uint64_t kSeeds[] = {1, 2, 29, 20250807};
constexpr int kLinesPerSeed = 4000;

/// Longest text an error adds to the line it describes: its fixed wording
/// ("unknown verb '...' (expected run|stats|...)") and the known backends.
constexpr std::size_t kErrorSlack = 128;

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing corpus file " << path;
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

/// Request seeds: the golden transcript's `>` lines and every line of the
/// example corpora, comments and blanks included.
std::vector<std::string> request_corpus() {
  std::vector<std::string> corpus;
  for (const std::string& line :
       read_lines(EDEA_TEST_DATA_DIR "/protocol_golden.txt")) {
    if (!line.empty() && line.front() == '>') corpus.push_back(line.substr(1));
  }
  for (const char* file :
       {"/simulation_requests.txt", "/simulation_requests_backends.txt",
        "/simulation_requests_transforms.txt"}) {
    const std::string path = std::string(EDEA_EXAMPLES_DIR) + file;
    for (std::string& line : read_lines(path)) {
      corpus.push_back(std::move(line));
    }
  }
  return corpus;
}

/// Reply seeds: every line of the golden transcript's format sections,
/// plus replies at the edges of their numbers.
std::vector<std::string> reply_corpus() {
  std::vector<std::string> corpus;
  bool replies = false;
  for (const std::string& line :
       read_lines(EDEA_TEST_DATA_DIR "/protocol_golden.txt")) {
    if (!line.empty() && line.front() == '[') {
      replies = line.rfind("[format-", 0) == 0;
    } else if (replies && !line.empty()) {
      corpus.push_back(line);
    }
  }
  constexpr std::uint64_t kMax = ~std::uint64_t{0};
  corpus.push_back(format_busy_line(kMax, 2147483647));
  corpus.push_back(format_busy_line(0, 0));
  corpus.push_back(format_unordered_line(kMax, "stats hits=0"));
  corpus.push_back(format_stats_line(CacheStats{kMax, 0, kMax, 10, 7}));
  corpus.push_back(
      format_stats_line(CacheStats{1, 2, 3, 4, 5, 6, kMax, 8, 9}));
  return corpus;
}

/// The line with every byte outside printable ASCII escaped as \xNN.
std::string escaped(std::string_view line) {
  std::string out;
  for (const char c : line) {
    const auto byte = static_cast<unsigned char>(c);
    if (byte >= 0x20 && byte < 0x7f && c != '\\') {
      out += c;
    } else {
      constexpr const char* kHex = "0123456789abcdef";
      out += "\\x";
      out += kHex[byte >> 4];
      out += kHex[byte & 0xF];
    }
  }
  return out;
}

std::string repro(std::uint64_t seed, int index, std::string_view line) {
  return "protocol fuzz seed=" + std::to_string(seed) +
         " index=" + std::to_string(index) + " line=\"" + escaped(line) +
         "\"";
}

/// Whitespace-separated tokens, split by an istream as an oracle
/// independent of the parser's own tokenizer.
std::vector<std::string> ostream_tokens(const std::string& line) {
  std::istringstream is(line);
  std::vector<std::string> tokens;
  std::string token;
  while (is >> token) tokens.push_back(std::move(token));
  return tokens;
}

// --- mutators --------------------------------------------------------------

constexpr char kSpaces[] = {' ', '\t', '\n', '\v', '\f', '\r'};

std::size_t pick(Rng& rng, std::size_t n) {
  return static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
}

void flip_byte(Rng& rng, std::string& line) {
  if (line.empty()) return;
  const std::size_t at = pick(rng, line.size());
  if (rng.bernoulli(0.5)) {
    line[at] = static_cast<char>(line[at] ^ (1 << pick(rng, 8)));
  } else {
    line[at] = static_cast<char>(pick(rng, 256));
  }
}

void insert_spaces(Rng& rng, std::string& line) {
  std::string run;
  for (std::size_t n = 1 + pick(rng, 4); n > 0; --n) {
    run += kSpaces[pick(rng, sizeof kSpaces)];
  }
  line.insert(pick(rng, line.size() + 1), run);
}

/// Deletes, duplicates or truncates one token, re-joining with spaces.
void edit_token(Rng& rng, std::string& line) {
  std::vector<std::string> tokens = ostream_tokens(line);
  if (tokens.empty()) return;
  const std::size_t at = pick(rng, tokens.size());
  switch (pick(rng, 3)) {
    case 0:
      tokens.erase(tokens.begin() + static_cast<std::ptrdiff_t>(at));
      break;
    case 1:
      tokens.insert(tokens.begin() + static_cast<std::ptrdiff_t>(at),
                    tokens[at]);
      break;
    default:
      tokens[at].resize(pick(rng, tokens[at].size()));
      break;
  }
  line.clear();
  for (const std::string& token : tokens) {
    if (!line.empty()) line += ' ';
    line += token;
  }
}

/// Replaces a digit run (or inserts one) with a value past a range edge.
void widen_digits(Rng& rng, std::string& line) {
  static const char* const kEdges[] = {
      "2147483647",           "2147483648",           "4294967296",
      "18446744073709551615", "18446744073709551616", "99999999999999999999",
      "0",                    "00",                   "007"};
  std::string digits = kEdges[pick(rng, std::size(kEdges))];
  for (std::size_t n = pick(rng, 3); n > 0; --n) digits += digits;
  std::vector<std::size_t> starts;
  for (std::size_t i = 0; i < line.size(); ++i) {
    const bool digit = line[i] >= '0' && line[i] <= '9';
    if (digit && (i == 0 || line[i - 1] < '0' || line[i - 1] > '9')) {
      starts.push_back(i);
    }
  }
  if (starts.empty()) {
    line.insert(pick(rng, line.size() + 1), digits);
    return;
  }
  const std::size_t begin = starts[pick(rng, starts.size())];
  std::size_t end = begin;
  while (end < line.size() && line[end] >= '0' && line[end] <= '9') ++end;
  line.replace(begin, end - begin, digits);
}

void insert_stray(Rng& rng, std::string& line) {
  line.insert(pick(rng, line.size() + 1), 1, rng.bernoulli(0.5) ? '=' : '#');
}

std::string mutate(Rng& rng, std::string line) {
  for (std::size_t n = 1 + pick(rng, 3); n > 0; --n) {
    switch (pick(rng, 5)) {
      case 0: flip_byte(rng, line); break;
      case 1: insert_spaces(rng, line); break;
      case 2: edit_token(rng, line); break;
      case 3: widen_digits(rng, line); break;
      default: insert_stray(rng, line); break;
    }
  }
  return line;
}

// --- request checks --------------------------------------------------------

/// Every field a caller consumes, for determinism checks.
std::string dump(const ParsedLine& p) {
  std::string out = std::to_string(static_cast<int>(p.kind)) + "|" + p.error +
                    "|" + std::to_string(p.frame_size) + "|" +
                    (p.unordered ? "u" : "o");
  if (p.kind == ParsedLine::Kind::kRun) {
    const Request& r = p.request;
    out += "|" + r.network + "|" + std::to_string(r.seed) + "|" + r.backend +
           "|" + r.config.to_string();
    for (const core::CountDim& dim : core::kCountDims) {
      out += "|" + std::to_string(r.*dim.field);
    }
  }
  return out;
}

/// One canonical line for a parsed run: every key, in a fixed order, with
/// the clock in its shortest round-trip form.
std::string canonical(const Request& r) {
  const core::EdeaConfig& c = r.config;
  std::string line = "run " + r.network + " seed=" + std::to_string(r.seed) +
                     " backend=" + r.backend;
  for (const core::CountDim& dim : core::kCountDims) {
    line += std::string(" ") + dim.name + "=" + std::to_string(r.*dim.field);
  }
  line += " tn=" + std::to_string(c.tn) + " tm=" + std::to_string(c.tm) +
          " td=" + std::to_string(c.td) + " tk=" + std::to_string(c.tk) +
          " kernel=" + std::to_string(c.kernel) +
          " init_cycles=" + std::to_string(c.init_cycles) +
          " max_tile_out=" + std::to_string(c.max_tile_out);
  char clock[32];
  line += " clock_ghz=";
  line.append(clock,
              std::to_chars(clock, clock + sizeof clock, c.clock_ghz).ptr);
  return line;
}

/// True iff `error` quotes a token of the line (or a key or value of one),
/// or leads with the verb whose arity it rejects.
bool names_a_token(const std::string& error,
                   const std::vector<std::string>& tokens) {
  for (const std::string& token : tokens) {
    if (error.rfind(token + " ", 0) == 0) return true;
    std::vector<std::string> parts = {token};
    const std::size_t eq = token.find('=');
    if (eq != std::string::npos) {
      parts.push_back(token.substr(0, eq));
      parts.push_back(token.substr(eq + 1));
    }
    for (const std::string& part : parts) {
      if (!part.empty() && error.find("'" + part + "'") != std::string::npos) {
        return true;
      }
    }
  }
  return false;
}

TEST(ProtocolFuzzTest, MutatedRequestLinesParseBoundedAndStable) {
  const std::vector<std::string> corpus = request_corpus();
  ASSERT_GT(corpus.size(), 50u);
  int runs = 0;
  int errors = 0;
  for (const std::uint64_t seed : kSeeds) {
    Rng rng(seed);
    for (int i = 0; i < kLinesPerSeed; ++i) {
      const std::string line = mutate(rng, corpus[pick(rng, corpus.size())]);
      SCOPED_TRACE(repro(seed, i, line));
      ParsedLine first;
      ParsedLine second;
      try {
        first = parse_request_line(line);
        second = parse_request_line(line);
      } catch (const std::exception& e) {
        ADD_FAILURE() << "parse_request_line threw: " << e.what();
        continue;
      }
      ASSERT_EQ(dump(first), dump(second));
      if (first.kind == ParsedLine::Kind::kError) {
        ++errors;
        EXPECT_FALSE(first.error.empty());
        EXPECT_LE(first.error.size(), line.size() + kErrorSlack)
            << first.error;
        EXPECT_TRUE(names_a_token(first.error, ostream_tokens(line)))
            << first.error;
      } else if (first.kind == ParsedLine::Kind::kRun) {
        ++runs;
        const std::string again = canonical(first.request);
        const ParsedLine reparsed = parse_request_line(again);
        ASSERT_EQ(reparsed.kind, ParsedLine::Kind::kRun)
            << again << " -> " << reparsed.error;
        EXPECT_EQ(reparsed.request.network, first.request.network);
        EXPECT_EQ(reparsed.request.seed, first.request.seed);
        EXPECT_EQ(static_cast<const core::JobKey&>(reparsed.request),
                  static_cast<const core::JobKey&>(first.request))
            << again;
        EXPECT_EQ(canonical(reparsed.request), again);
      }
    }
  }
  // The mutations must reach both sides of the grammar.
  EXPECT_GT(runs, 1000);
  EXPECT_GT(errors, 1000);
}

// --- reply checks ----------------------------------------------------------

TEST(ProtocolFuzzTest, MutatedRepliesAreRejectedOrReformatToThemselves) {
  const std::vector<std::string> corpus = reply_corpus();
  ASSERT_GT(corpus.size(), 15u);
  for (const std::string& line : corpus) {
    SCOPED_TRACE(line);
    std::uint64_t id = 0;
    int retry_ms = 0;
    std::string rest;
    CacheStats stats;
    EXPECT_TRUE(parse_busy_line(line, &id, &retry_ms) ||
                parse_unordered_line(line, &id, &rest) ||
                parse_stats_line(line, &stats) ||
                line.rfind("ok ", 0) == 0 || line.rfind("error ", 0) == 0);
  }
  constexpr std::uint64_t kSentinel = 0x5EED;
  int busy = 0;
  int unordered = 0;
  int stats_lines = 0;
  for (const std::uint64_t seed : kSeeds) {
    Rng rng(seed ^ 0xF022ull);
    for (int i = 0; i < kLinesPerSeed; ++i) {
      const std::string line = mutate(rng, corpus[pick(rng, corpus.size())]);
      SCOPED_TRACE(repro(seed ^ 0xF022ull, i, line));

      std::uint64_t id = kSentinel;
      int retry_ms = -7;
      if (parse_busy_line(line, &id, &retry_ms)) {
        ++busy;
        EXPECT_EQ(format_busy_line(id, retry_ms), line);
      } else {
        EXPECT_EQ(id, kSentinel);
        EXPECT_EQ(retry_ms, -7);
      }

      id = kSentinel;
      std::string rest = "untouched";
      if (parse_unordered_line(line, &id, &rest)) {
        ++unordered;
        EXPECT_EQ(format_unordered_line(id, rest), line);
      } else {
        EXPECT_EQ(id, kSentinel);
        EXPECT_EQ(rest, "untouched");
      }

      CacheStats stats;
      stats.hits = kSentinel;
      if (parse_stats_line(line, &stats)) {
        ++stats_lines;
        EXPECT_EQ(format_stats_line(stats), line);
      } else {
        EXPECT_EQ(stats.hits, kSentinel);
      }
    }
  }
  // Each parser must also see mutated lines it accepts.
  EXPECT_GT(busy, 50);
  EXPECT_GT(unordered, 500);
  EXPECT_GT(stats_lines, 50);
}

}  // namespace
}  // namespace edea::service
