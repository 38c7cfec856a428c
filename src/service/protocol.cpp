#include "service/protocol.hpp"

#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <initializer_list>
#include <limits>

namespace edea::service {

namespace {

/// The six characters the C locale's isspace accepts: what `istream >>`
/// splits on, and so what separates a request line's tokens.
constexpr bool is_space(char c) {
  return c == ' ' || (c >= '\t' && c <= '\r');
}

/// Pops the next token off the front of `rest`, in place; an empty view
/// at the end of the line.
std::string_view next_token(std::string_view& rest) {
  std::size_t begin = 0;
  while (begin < rest.size() && is_space(rest[begin])) ++begin;
  std::size_t end = begin;
  while (end < rest.size() && !is_space(rest[end])) ++end;
  const std::string_view token = rest.substr(begin, end - begin);
  rest.remove_prefix(end);
  return token;
}

/// Joins pieces into one string - error messages quote tokens by view.
std::string cat(std::initializer_list<std::string_view> parts) {
  std::size_t size = 0;
  for (const std::string_view part : parts) size += part.size();
  std::string out;
  out.reserve(size);
  for (const std::string_view part : parts) out += part;
  return out;
}

ParsedLine malformed(std::string message) {
  ParsedLine p;
  p.kind = ParsedLine::Kind::kError;
  p.error = std::move(message);
  return p;
}

/// std::stod's grammar, read in place. `text` ends its token, so the byte
/// after it is whitespace or the line's terminating NUL; strtod consumes
/// neither, so it stops exactly where it would on a copy of the token.
/// Like std::stod, a value strtod flags ERANGE (overflow, underflow to 0
/// or a subnormal) is rejected; so are nan and inf - a non-finite value in
/// a cache key is poison (NaN is unequal to itself) and means nothing
/// physically anyway.
bool parse_double(std::string_view text, double* out) {
  const int saved_errno = errno;
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(text.data(), &end);
  const bool out_of_range = errno == ERANGE;
  errno = saved_errno;
  if (end != text.data() + text.size() || out_of_range ||
      !std::isfinite(value)) {
    return false;
  }
  *out = value;
  return true;
}

/// Applies one key=value override to a request. Returns an error message,
/// empty on success. `value` ends a token of the line (see parse_double).
std::string apply_override(Request& request, std::string_view key,
                           std::string_view value) {
  if (key == "seed") {
    if (!parse_strict_u64(value, &request.seed)) {
      return cat({"bad seed '", value, "'"});
    }
    return {};
  }
  for (const core::CountDim& dim : core::kCountDims) {
    if (key != dim.name) continue;
    int count = 0;
    if (!parse_strict_count(value, &count)) {
      return cat({"bad ", key, " '", value, "' (want a plain integer >= 1)"});
    }
    if (count > kMaxCount) {
      return cat({"bad ", key, " '", value, "' (at most ",
                  std::to_string(kMaxCount), ")"});
    }
    request.*dim.field = count;
    return {};
  }
  if (key == "backend") {
    request.backend.assign(value);
    if (!core::backend_known(request.backend)) {
      return cat({"unknown backend '", value,
                  "' (known: ", core::known_backends_string(), ")"});
    }
    return {};
  }
  if (key == "clock_ghz") {
    if (!parse_double(value, &request.config.clock_ghz)) {
      return cat({"bad clock_ghz '", value, "'"});
    }
    return {};
  }
  int* field = nullptr;
  core::EdeaConfig& c = request.config;
  if (key == "tn") field = &c.tn;
  else if (key == "tm") field = &c.tm;
  else if (key == "td") field = &c.td;
  else if (key == "tk") field = &c.tk;
  else if (key == "kernel") field = &c.kernel;
  else if (key == "init_cycles") field = &c.init_cycles;
  else if (key == "max_tile_out") field = &c.max_tile_out;
  if (field == nullptr) return cat({"unknown key '", key, "'"});
  // Every integer key shares the strict grammar: "+4", " 4", "4x", and
  // out-of-range values are all protocol errors naming the value, not
  // config-validation surprises downstream. (Config overrides allow 0 -
  // init_cycles=0 is a valid configuration; EdeaConfig::validate owns the
  // per-field semantic ranges.)
  if (!parse_strict_int(value, field)) {
    return cat({"bad value '", value, "' for key '", key, "'"});
  }
  return {};
}

/// Canonical digit run starting at `pos` - what a formatter writes: no
/// leading zero unless the run is "0". Advances pos past it. Returns
/// false when no digit is there, the run is not canonical, or the value
/// overflows uint64, so a reply parser accepts exactly the lines its
/// formatter reproduces.
bool scan_u64(std::string_view text, std::size_t& pos, std::uint64_t* out) {
  const std::size_t begin = pos;
  std::uint64_t value = 0;
  while (pos < text.size() && text[pos] >= '0' && text[pos] <= '9') {
    const std::uint64_t digit = static_cast<std::uint64_t>(text[pos] - '0');
    if (value > (std::numeric_limits<std::uint64_t>::max() - digit) / 10) {
      return false;
    }
    value = value * 10 + digit;
    ++pos;
  }
  if (pos == begin || (text[begin] == '0' && pos - begin > 1)) return false;
  *out = value;
  return true;
}

/// Matches `field` ("id=", " hits=") at `pos` and scans the digit run
/// after it.
bool scan_field(std::string_view text, std::size_t& pos,
                std::string_view field, std::uint64_t* out) {
  if (text.substr(pos, field.size()) != field) return false;
  pos += field.size();
  return scan_u64(text, pos, out);
}

template <typename Int>
void append_decimal(std::string& out, Int value) {
  char buf[24];  // any 64-bit integer, sign included
  out.append(buf, std::to_chars(buf, buf + sizeof buf, value).ptr);
}

/// `label` then the value's digits: " cycles=4242".
template <typename Int>
void append_field(std::string& out, std::string_view label, Int value) {
  out += label;
  append_decimal(out, value);
}

/// printf's %.2f: fixed point, two decimals, no width bound.
void append_fixed2(std::string& out, double value) {
  // DBL_MAX has 309 integer digits; a sign, the point and two decimals
  // make 313 characters.
  char buf[std::numeric_limits<double>::max_exponent10 + 5];
  out.append(buf, std::to_chars(buf, buf + sizeof buf, value,
                                std::chars_format::fixed, 2)
                      .ptr);
}

/// "0x" and sixteen lowercase hex digits.
void append_hex64(std::string& out, std::uint64_t value) {
  char buf[18] = {'0', 'x'};
  for (std::size_t i = sizeof buf; i > 2; --i, value >>= 4) {
    buf[i - 1] = "0123456789abcdef"[value & 0xF];
  }
  out.append(buf, sizeof buf);
}

/// Room for an outcome line's fixed text and numbers (a typical ok line
/// is about 200 bytes); the name, backend and error come on top.
constexpr std::size_t kOutcomeLineBytes = 224;

}  // namespace

// One digit-accumulation loop with an explicit pre-multiply range check:
// overflow is detected arithmetically (value > (max - digit) / 10 would
// overflow), never via std::stoi-family exception behavior, and the
// digit-only scan rejects whitespace, signs, and trailing junk in one
// pass.
bool parse_strict_u64(std::string_view text, std::uint64_t* out) {
  if (text.empty()) return false;
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t value = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') return false;
    const std::uint64_t digit = static_cast<std::uint64_t>(c - '0');
    if (value > (kMax - digit) / 10) return false;  // would overflow
    value = value * 10 + digit;
  }
  *out = value;
  return true;
}

bool parse_strict_int(std::string_view text, int* out) {
  std::uint64_t value = 0;
  if (!parse_strict_u64(text, &value)) return false;
  if (value > static_cast<std::uint64_t>(std::numeric_limits<int>::max())) {
    return false;  // out of int range
  }
  *out = static_cast<int>(value);
  return true;
}

bool parse_strict_count(std::string_view text, int* out) {
  int value = 0;
  if (!parse_strict_int(text, &value) || value < 1) return false;
  *out = value;
  return true;
}

std::string Request::job_name() const {
  return network + "@" + std::to_string(seed);
}

core::SweepJob Request::job() const {
  core::SweepJob job;
  static_cast<core::JobKey&>(job) = *this;
  job.name = job_name();
  return job;
}

std::string_view request_verb(std::string_view line) {
  return next_token(line);
}

ParsedLine parse_request_line(const std::string& line) {
  if (line.size() > kMaxLineBytes) {
    return malformed("line longer than " + std::to_string(kMaxLineBytes) +
                     " bytes");
  }
  std::string_view rest = line;
  const std::string_view verb = next_token(rest);
  ParsedLine parsed;
  if (verb.empty() || verb.front() == '#') {
    return parsed;  // kEmpty
  }

  if (verb == "stats") {
    if (!next_token(rest).empty()) return malformed("stats takes no arguments");
    parsed.kind = ParsedLine::Kind::kStats;
    return parsed;
  }
  if (verb == "mode") {
    const std::string_view mode = next_token(rest);
    if (mode.empty() || !next_token(rest).empty()) {
      return malformed("mode takes exactly one argument (ordered|unordered)");
    }
    if (mode != "ordered" && mode != "unordered") {
      return malformed(
          cat({"bad mode '", mode, "' (expected ordered|unordered)"}));
    }
    parsed.kind = ParsedLine::Kind::kMode;
    parsed.unordered = mode == "unordered";
    return parsed;
  }
  if (verb == "batch-begin") {
    const std::string_view count = next_token(rest);
    if (count.empty() || !next_token(rest).empty()) {
      return malformed("batch-begin takes exactly one argument (line count)");
    }
    int n = 0;
    // The strict count grammar: "0", "+4", " 4", "4x", and overflow all
    // fail here - a frame size is wire data and parses like batch=.
    if (!parse_strict_count(count, &n)) {
      return malformed(cat({"bad batch-begin count '", count,
                            "' (want a plain integer >= 1)"}));
    }
    if (n > kMaxFrameLines) {
      return malformed(cat({"batch-begin count ", count, " exceeds the ",
                            std::to_string(kMaxFrameLines),
                            "-line frame limit"}));
    }
    parsed.kind = ParsedLine::Kind::kBatchBegin;
    parsed.frame_size = n;
    return parsed;
  }
  if (verb == "batch-end") {
    if (!next_token(rest).empty()) {
      return malformed("batch-end takes no arguments");
    }
    parsed.kind = ParsedLine::Kind::kBatchEnd;
    return parsed;
  }
  if (verb != "run") {
    return malformed(
        cat({"unknown verb '", verb,
             "' (expected run|stats|mode|batch-begin|batch-end|#)"}));
  }
  const std::string_view network = next_token(rest);
  if (network.empty()) {
    return malformed("run needs a network name");
  }

  parsed.kind = ParsedLine::Kind::kRun;
  parsed.request.network = network;
  for (std::string_view token = next_token(rest); !token.empty();
       token = next_token(rest)) {
    const std::size_t eq = token.find('=');
    if (eq == std::string_view::npos || eq == 0 || eq + 1 >= token.size()) {
      return malformed(cat({"expected key=value, got '", token, "'"}));
    }
    std::string err = apply_override(parsed.request, token.substr(0, eq),
                                     token.substr(eq + 1));
    if (!err.empty()) return malformed(std::move(err));
  }
  return parsed;
}

void append_outcome_line(std::string& out, const core::SweepOutcome& outcome) {
  out.reserve(out.size() + kOutcomeLineBytes + outcome.name.size() +
              outcome.backend.size() + outcome.error.size());
  out += outcome.ok ? "ok " : "error ";
  out += outcome.name;
  out += ' ';
  outcome.config.append_to(out);
  out += " backend=";
  out += outcome.backend;
  // Default-valued counts stay silent: echoing one only when the request
  // actually set it keeps every pre-existing response byte-stable.
  for (const core::CountDim& dim : core::kCountDims) {
    if (outcome.*dim.field > 1) {
      out += ' ';
      out += dim.name;
      append_field(out, "=", outcome.*dim.field);
    }
  }
  const std::string_view cache = outcome.cache_hit ? " cache=hit"
                                                   : " cache=miss";
  if (!outcome.ok) {
    out += cache;
    out += " msg=";
    out += outcome.error;
    return;
  }
  // The captured summary, not a recomputation from `result`: outcomes
  // served from the persisted cache of a restarted service carry *only*
  // the summary, and both kinds must format bit-identically.
  const core::RunSummary& s = outcome.summary;
  append_field(out, " cycles=", s.total_cycles);
  append_field(out, " ops=", s.total_ops);
  out += " gops=";
  append_fixed2(out, s.average_gops);
  append_field(out, " layers=", s.layer_count);
  out += " out=";
  append_hex64(out, s.output_hash);
  out += cache;
}

std::string format_outcome_line(const core::SweepOutcome& outcome) {
  std::string line;
  append_outcome_line(line, outcome);
  return line;
}

std::string format_stats_line(const CacheStats& stats) {
  std::string line = "stats";
  append_field(line, " hits=", stats.hits);
  append_field(line, " misses=", stats.misses);
  append_field(line, " evictions=", stats.evictions);
  append_field(line, " entries=", stats.entries);
  append_field(line, " inflight=", stats.in_flight);
  // Admission counters appear only when a bounded queue is configured:
  // the same only-when-non-default rule that keeps batch= silent keeps
  // every pre-admission stats line byte-stable.
  if (stats.max_queue > 0) {
    append_field(line, " queued=", stats.queued);
    append_field(line, " rejected=", stats.rejected);
    append_field(line, " peak_queue=", stats.peak_queue);
  }
  return line;
}

std::string format_busy_line(std::uint64_t id, int retry_ms) {
  std::string line = "busy";
  append_field(line, " id=", id);
  append_field(line, " retry_ms=", retry_ms);
  return line;
}

std::string format_unordered_line(std::uint64_t id, const std::string& line) {
  std::string framed = "id=";
  framed.reserve(3 + 20 + 1 + line.size());
  append_decimal(framed, id);
  framed += ' ';
  framed += line;
  return framed;
}

bool parse_busy_line(const std::string& line, std::uint64_t* id,
                     int* retry_ms) {
  std::size_t pos = 4;
  std::uint64_t parsed_id = 0;
  std::uint64_t ms = 0;
  if (!line.starts_with("busy") || !scan_field(line, pos, " id=", &parsed_id) ||
      !scan_field(line, pos, " retry_ms=", &ms) || pos != line.size() ||
      ms > static_cast<std::uint64_t>(std::numeric_limits<int>::max())) {
    return false;
  }
  *id = parsed_id;
  *retry_ms = static_cast<int>(ms);
  return true;
}

bool parse_unordered_line(const std::string& line, std::uint64_t* id,
                          std::string* rest) {
  std::size_t pos = 0;
  std::uint64_t parsed_id = 0;
  if (!scan_field(line, pos, "id=", &parsed_id) || pos >= line.size() ||
      line[pos] != ' ') {
    return false;
  }
  *id = parsed_id;
  rest->assign(line, pos + 1);
  return true;
}

bool parse_stats_line(const std::string& line, CacheStats* out) {
  if (!line.starts_with("stats")) return false;
  std::size_t pos = 5;
  std::uint64_t hits = 0, misses = 0, evictions = 0, entries = 0,
                inflight = 0;
  if (!scan_field(line, pos, " hits=", &hits) ||
      !scan_field(line, pos, " misses=", &misses) ||
      !scan_field(line, pos, " evictions=", &evictions) ||
      !scan_field(line, pos, " entries=", &entries) ||
      !scan_field(line, pos, " inflight=", &inflight)) {
    return false;
  }
  CacheStats parsed;
  parsed.hits = hits;
  parsed.misses = misses;
  parsed.evictions = evictions;
  parsed.entries = static_cast<std::size_t>(entries);
  parsed.in_flight = inflight;
  if (pos != line.size()) {
    // The admission trio is all-or-nothing on the wire.
    std::uint64_t queued = 0, rejected = 0, peak = 0;
    if (!scan_field(line, pos, " queued=", &queued) ||
        !scan_field(line, pos, " rejected=", &rejected) ||
        !scan_field(line, pos, " peak_queue=", &peak) || pos != line.size()) {
      return false;
    }
    parsed.queued = queued;
    parsed.rejected = rejected;
    parsed.peak_queue = peak;
    parsed.max_queue = 1;  // presence flag - the bound is not wire data
  }
  *out = parsed;
  return true;
}

}  // namespace edea::service
