// protocol.hpp - the line-oriented text protocol of the simulation service.
//
// One request per line, one response per line - drivable from a file, a
// pipe, or a socket, with no framing beyond '\n'. A line's tokens are
// separated by runs of the six characters the C locale's isspace accepts
// (space, \t, \n, \v, \f, \r), as `istream >>` splits them; runs may
// also lead and trail. The parser reads tokens in place, without copying
// them. Grammar:
//
//   run <network> [key=value ...]     submit a simulation request
//   stats                             report cache + in-flight counters
//   mode ordered|unordered            select the session's reply framing
//   batch-begin <n>                   open a pipelined frame of n lines
//   batch-end                         close the open frame
//   # anything                        comment (ignored, like blank lines)
//
// <network> is a model-zoo name (nn::zoo_specs). Recognized keys:
//   seed       workload seed (weights + input), default 1
//   backend    accelerator backend id (core/backend.hpp registry):
//              edea (default) or serialized; an unknown id is a protocol
//              error - the registry is the protocol's vocabulary, and a
//              typo'd dataflow must fail loudly, not simulate something
//              else
//   batch      images per run (1..64, default 1): all images share one
//              setup (AcceleratorBackend::run_network_batch)
//              and are bit-identical to `batch` standalone runs, so the
//              reply's measurements are per image and unchanged - batch
//              is a cost/amortization knob, not an arithmetic one. The
//              value must be a plain decimal integer: leading '+',
//              whitespace, or trailing junk is a protocol error, and so
//              is a value above kMaxCount (64)
//   dilation   DWC dilation applied to every layer of the resolved
//              network (1..64, default 1; padding scales with it so
//              output extents are preserved). Same strict-integer grammar
//              and maximum as batch. Unlike batch this is an arithmetic
//              knob: a dilated workload is a different computation and a
//              different cache key
//   depth_multiplier
//              extra depthwise multiplier applied multiplicatively to
//              every layer (1..64, default 1; composes with multipliers a
//              zoo network already carries, e.g. MobileNetV2 expansion
//              factors). Same strict-integer grammar and maximum;
//              arithmetic knob
//   tn tm td tk kernel init_cycles max_tile_out   EdeaConfig overrides;
//              same strict-integer grammar as batch (0..INT_MAX - the
//              semantic ranges, upper bounds included, are
//              EdeaConfig::validate's job, reported in the outcome line)
//   clock_ghz  clock in GHz, in std::stod's grammar: decimal or hex
//              floating point with an optional sign ("0.8", "+0.8",
//              "0x1p-1"). A value stod would reject as out of range
//              (1e400, 1e-400, subnormals such as 5e-324), nan, inf and
//              trailing junk ("0.8x") are protocol errors
// A key left out takes the default above (JobKey's, or the paper's
// configuration) in every process that parses the line, so a line names
// one job wherever it is served. To apply a transform to a whole stream,
// add its key to each `run` line.
//
// Responses (one per `run`, in request order; <network>@<seed> is the
// request's job_name(), <config> is EdeaConfig::to_string(), <backend>
// the backend id; `batch=<n>`, `dilation=<n>`, and
// `depth_multiplier=<n>` are echoed after backend= - in that order - only
// when each n > 1, keeping default-valued responses byte-identical to the
// earlier protocol):
//   ok <network>@<seed> <config> backend=<backend> [batch=<n>]
//      [dilation=<n>] [depth_multiplier=<n>] cycles=<n>
//      ops=<n> gops=<x> layers=<n> out=<hex64> cache=hit|miss
//   error <network>@<seed> <config> backend=<backend> [batch=<n>]
//      [dilation=<n>] [depth_multiplier=<n>] cache=hit|miss msg=<text>
//
// A `stats` request answers with one line of exact service counters:
//   stats hits=<n> misses=<n> evictions=<n> entries=<n> inflight=<n>
//      [queued=<n> rejected=<n> peak_queue=<n>]
// The admission trio is echoed only when the service runs with a bounded
// admission queue (max_queue > 0) - the same only-when-non-default rule
// the outcome line uses for batch=, so every pre-admission stats line
// stays byte-identical. The wire front (service/wire_front.hpp) serves
// `stats` as a barrier - the reply reflects every preceding request of
// the session, completed, and nothing submitted after it - so the line is
// deterministic for a given request stream.
//
// Pipelining (PR 9). A client may wrap up to kMaxFrameLines request lines
// in a frame:
//   batch-begin <n>
//   <exactly n answering lines>
//   batch-end
// Well-formed batch-begin/batch-end lines answer nothing (like comments)
// and consume no request id; every line between them is parsed and
// answered exactly as if it had arrived bare, so a frame is purely a
// transport-batching hint (the session corks the frame's replies into
// fewer writes). Bare lines stay valid - they are 1-frames. Frame
// violations (nested batch-begin, batch-end outside a frame or before n
// lines, a non-batch-end line after n lines, EOF inside a frame) answer
// `protocol-error ...` like any malformed line.
//
// Reply framing is per-session and negotiated on the wire:
//   mode ordered       replies in request-id order (the default - byte
//                      identical to the pre-pipelining protocol)
//   mode unordered     replies stream as they complete, each prefixed
//                      with `id=<n> ` so the client can match them
// The server answers with the mode now in effect (`mode ordered` or
// `mode unordered`, id-prefixed iff the effective mode is unordered); a
// server running --ordered refuses the switch by answering
// `mode ordered`.
//
// Under a bounded admission queue, a `run` line that would start a fresh
// simulation while max_queue admitted jobs are already in flight is not
// queued; it answers
//   busy id=<n> retry_ms=<m>
// in its slot (the id it would have had), and the client owns the retry
// (resubmit after ~retry_ms with jitter; see PipelineClient). Cache hits
// and requests coalescing onto an in-flight duplicate are always
// admitted - they start no new work.
//
// The parser validates shape only (tokens, numbers, known keys); whether a
// configuration can map a network is the simulation's verdict, reported in
// the outcome line - infeasible points are data, not protocol errors.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "core/job_key.hpp"
#include "core/sweep_runner.hpp"
#include "service/simulation_service.hpp"

namespace edea::service {

/// A parsed `run` request: the network and seed that name its workload,
/// and its JobKey (core/job_key.hpp) - the keys the line set, JobKey's
/// defaults for the rest. The backend is always registered and every
/// count >= 1: anything else never parses.
struct Request : core::JobKey {
  std::string network;     ///< model-zoo name (unresolved)
  std::uint64_t seed = 1;  ///< synthetic weight/input seed

  /// Canonical job name: "<network>@<seed>" - what outcome lines echo.
  [[nodiscard]] std::string job_name() const;

  /// The job this request names, without a workload: name and key set;
  /// the resolver points layers and input at the materialized network.
  [[nodiscard]] core::SweepJob job() const;
};

/// Most request lines one frame may carry. Far above any sane pipeline
/// depth; a larger N is a protocol error, because accepting an absurd
/// frame size would let one malformed line commit the session to
/// swallowing gigabytes as "frame content".
inline constexpr int kMaxFrameLines = 4096;

/// Largest value a `run` line may give a count key (batch, dilation,
/// depth_multiplier - core::kCountDims). Far above any real request (the
/// corpora and benches use at most batch=16); a larger value is a protocol
/// error naming it, answered before the workload is resolved: each count
/// sizes what a run allocates (per-image results, the dilated padding,
/// multiplied weights), so an unbounded one is a denial of service or an
/// int overflow. Cache files are not held to it (core::JobKey::decode).
inline constexpr int kMaxCount = 64;

/// Longest request line the protocol accepts, in bytes without its '\n'.
/// Far above any real request (a few hundred bytes). A longer line is a
/// protocol error, and a socket session answers it and closes: reading a
/// line that never ends would otherwise buffer without bound. Replies are
/// not bounded - an error reply repeats its request's tokens.
inline constexpr std::size_t kMaxLineBytes = 64 * 1024;

/// Result of parsing one protocol line.
struct ParsedLine {
  enum class Kind {
    kEmpty,       ///< blank line or comment - nothing to do
    kRun,         ///< `request` holds a simulation request
    kStats,       ///< client asked for cache counters
    kMode,        ///< reply-framing switch - `unordered` holds the ask
    kBatchBegin,  ///< frame open - `frame_size` holds its line count
    kBatchEnd,    ///< frame close
    kError,       ///< malformed line - `error` explains
  };
  Kind kind = Kind::kEmpty;
  Request request;
  std::string error;
  /// kBatchBegin: the declared line count (1..kMaxFrameLines).
  int frame_size = 0;
  /// kMode: true iff the client asked for unordered replies.
  bool unordered = false;
};

/// Strict decimal parsers - the single integer grammar of the wire
/// protocol. A value parses iff it is plain decimal digits, fully
/// consumed: no leading whitespace, no '+'/'-' sign, no trailing junk
/// (all of which std::stoi-family parsers tolerate), and no overflow -
/// out-of-range values like 99999999999999 are rejected by digit
/// accumulation with an explicit range check, never via exception
/// behavior. Exposed here (not buried in the .cpp) so the negative
/// protocol tests can probe inputs the whitespace-splitting tokenizer
/// could never deliver, like " 4".
///   parse_strict_u64    any uint64 value (seeds)
///   parse_strict_int    int values >= 0 (EdeaConfig overrides;
///                       init_cycles=0 is valid)
///   parse_strict_count  int values >= 1 (core::kCountDims values,
///                       which parse_request_line also holds to
///                       kMaxCount, and batch-begin counts)
/// Each takes a std::string_view (a std::string or a literal converts)
/// and returns false without touching *out on rejection.
[[nodiscard]] bool parse_strict_u64(std::string_view text,
                                    std::uint64_t* out);
[[nodiscard]] bool parse_strict_int(std::string_view text, int* out);
[[nodiscard]] bool parse_strict_count(std::string_view text, int* out);

/// Parses one request line. Never throws: malformed lines - including
/// unknown backend= ids and count values outside 1..kMaxCount - are a kError
/// result (a service must survive bad clients).
[[nodiscard]] ParsedLine parse_request_line(const std::string& line);

/// The first token of a request line, split as parse_request_line splits
/// it: empty for a blank line, '#'-led for a comment (the two kinds of
/// line a session ignores). A view into `line`; allocates nothing.
[[nodiscard]] std::string_view request_verb(std::string_view line);

/// Formats the response line for one completed request.
[[nodiscard]] std::string format_outcome_line(
    const core::SweepOutcome& outcome);

/// Appends format_outcome_line(outcome) to `out`, so a caller that frames
/// the line (an unordered session's `id=<n> ` prefix) renders it into the
/// buffer that already holds the frame.
void append_outcome_line(std::string& out, const core::SweepOutcome& outcome);

/// Formats the `stats` response line. The admission counters (queued=,
/// rejected=, peak_queue=) are echoed only when `stats.max_queue > 0` -
/// a service without a bounded admission queue keeps the exact
/// pre-admission bytes.
[[nodiscard]] std::string format_stats_line(const CacheStats& stats);

/// Formats a busy (admission-rejected) reply: `busy id=<n> retry_ms=<m>`.
/// The line is self-identifying in both reply modes - it carries its
/// request id in-band, so an unordered session does not prefix it again.
[[nodiscard]] std::string format_busy_line(std::uint64_t id, int retry_ms);

/// Frames one reply line for an unordered session: `id=<n> <line>`.
[[nodiscard]] std::string format_unordered_line(std::uint64_t id,
                                                const std::string& line);

/// Reply parsers - the exact inverses of the formatters above, shared by
/// everything that consumes the server side of the wire (the pipelined
/// client, the cluster router). Each matches its line shape strictly
/// (digit runs as the formatters write them, without leading zeros;
/// exact separators; nothing trailing) and returns false without
/// touching the outputs on any mismatch - a reply that merely *starts*
/// like a busy line is some other line. A line a parser accepts
/// re-formats to itself.

/// Parses `busy id=<n> retry_ms=<m>` (format_busy_line's output) exactly.
[[nodiscard]] bool parse_busy_line(const std::string& line, std::uint64_t* id,
                                   int* retry_ms);

/// Parses the `id=<n> ` unordered framing prefix (format_unordered_line's
/// output); on success `*rest` is the payload with the prefix stripped.
[[nodiscard]] bool parse_unordered_line(const std::string& line,
                                        std::uint64_t* id, std::string* rest);

/// Parses a `stats ...` reply line (format_stats_line's output) into
/// counters. The wire does not carry the queue bound itself, only whether
/// the admission trio was echoed - so on success `out->max_queue` is 1
/// when the trio was present and 0 when it was absent (a presence flag,
/// not the configured bound). That convention makes the round trip
/// byte-stable: format_stats_line(parsed) reproduces the input line, and
/// summing parsed stats across shards keeps the trio iff any shard had a
/// bounded queue.
[[nodiscard]] bool parse_stats_line(const std::string& line, CacheStats* out);

}  // namespace edea::service
