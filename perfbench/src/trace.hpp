// trace.hpp - host-time spans recorded from the benchmark's own files, at
// the program's public seams only:
//
//   ClientStream         wraps the client's socket Stream: stamps every
//                        request line written and every reply read, which
//                        gives the e2e latency (always on - the timed
//                        phase needs it - and cheap: two clock reads per
//                        request)
//   TracedServerStream   wraps each server-side session Stream inside the
//                        transport handler: request line read -> reply
//                        passed to write_lines, plus the write itself
//   timed backends       factories re-registered through
//                        core::register_backend that wrap EdeaAccelerator
//                        and SerializedDscAccelerator and time
//                        run_network_batch
//
// Spans carry the connection they belong to and the request id the
// session assigned (the client's wire id - both sides count answering
// lines the same way), so a client span is the parent of the server span
// with the same (connection, id), and a miss's backend span is the child
// of its server span. Connections are matched by a digest of their first
// answering lines. Everything stays in memory until the run ends.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common.hpp"
#include "service/transport.hpp"

namespace perfbench {

/// Client-observed reply latencies of one phase, shared by its connections.
class LatencySink {
 public:
  explicit LatencySink(std::uint64_t seed)
      : all_(kCapacity, seed), hits_(kCapacity, seed + 1) {}

  void add(double ms, bool hit) {
    const std::lock_guard<std::mutex> lock(mutex_);
    all_.add(ms);
    if (hit) hits_.add(ms);
  }

  /// Read once every connection of the phase has closed.
  [[nodiscard]] const Reservoir& all() const { return all_; }
  [[nodiscard]] const Reservoir& hits() const { return hits_; }

 private:
  static constexpr std::size_t kCapacity = 1 << 16;
  std::mutex mutex_;
  Reservoir all_;
  Reservoir hits_;
};

/// Start and end of one request at one observation point.
struct RequestTimes {
  std::uint64_t id = 0;
  std::int64_t start = 0;  ///< client: send; server: request line read
  std::int64_t end = 0;    ///< client: reply read; server: reply to write
};

enum class Side { kClient, kSession, kRouter };

/// The sampled per-request times of one connection as one side saw it.
struct ConnectionTrace {
  Side side = Side::kClient;
  int shard = -1;          ///< session side: which server (-1 = single)
  std::uint64_t key = 0;   ///< digest of the first answering lines
  std::vector<RequestTimes> requests;
};

/// A cache miss as a session saw it; joined to its backend span later.
struct MissTrace {
  int shard = -1;
  std::string line;
  std::int64_t read = 0;
  std::int64_t write = 0;
};

/// One timed run_network_batch call.
struct BackendSpan {
  bool serialized = false;
  const void* layers = nullptr;
  const void* input = nullptr;
  std::uint64_t config_hash = 0;
  int batch = 1;
  std::int64_t start = 0;
  std::int64_t end = 0;
  std::int64_t cycles = 0;  ///< simulated cycles summed over the images
};

/// Collects every span of a traced pass. Thread-safe.
class Recorder {
 public:
  void add(ConnectionTrace trace);
  void add(MissTrace miss);
  void add(const BackendSpan& span);
  void add_hit_residence(double us);
  void add_write(double us, std::size_t lines);

  /// Session-side wrappers currently open; the pass waits for zero so
  /// every server-side trace has been flushed before it is read.
  void session_opened();
  void session_closed();
  void wait_sessions_closed();

  // Read single-threaded once the pass has ended.
  std::vector<ConnectionTrace> connections;
  std::vector<MissTrace> misses;
  std::vector<BackendSpan> backend_spans;
  std::vector<double> hit_residence_us;
  std::vector<double> write_us;
  std::uint64_t lines_written = 0;

 private:
  std::mutex mutex_;
  std::condition_variable closed_cv_;
  int open_sessions_ = 0;
};

/// The recorder of the traced pass in progress, or null when untraced.
Recorder* active_recorder();
void set_active_recorder(Recorder* recorder);

/// Digest of a connection's first answering lines.
class ConnectionKey {
 public:
  void feed(const std::string& line);
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  static constexpr int kLines = 16;
  int lines_ = 0;
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

/// The client's Stream: see the file comment.
class ClientStream final : public edea::service::Stream {
 public:
  /// `recorder` may be null (untraced); ids divisible by `stride` are
  /// kept as per-request records for the trace.
  ClientStream(std::unique_ptr<edea::service::Stream> inner, LatencySink& sink,
               Recorder* recorder, std::uint64_t stride);
  ~ClientStream() override;

  ClientStream(const ClientStream&) = delete;
  ClientStream& operator=(const ClientStream&) = delete;

  [[nodiscard]] bool read_line(std::string& line) override;
  [[nodiscard]] bool write_line(const std::string& line) override;
  [[nodiscard]] bool write_lines(const std::vector<std::string>& lines) override;

 private:
  void stamp(const std::string& line, std::int64_t when);

  std::unique_ptr<edea::service::Stream> inner_;
  LatencySink& sink_;
  Recorder* recorder_;
  std::uint64_t stride_;
  std::mutex mutex_;  // the writer stamps, the reader looks the stamps up
  std::vector<std::int64_t> sent_;  ///< indexed by wire id
  ConnectionKey key_;
  ConnectionTrace trace_;
};

/// A session's server-side Stream while a pass is traced.
class TracedServerStream final : public edea::service::Stream {
 public:
  TracedServerStream(edea::service::Stream& inner, Recorder& recorder,
                     Side side, int shard, std::uint64_t stride);
  ~TracedServerStream() override;

  TracedServerStream(const TracedServerStream&) = delete;
  TracedServerStream& operator=(const TracedServerStream&) = delete;

  [[nodiscard]] bool read_line(std::string& line) override;
  [[nodiscard]] bool write_line(const std::string& line) override;
  [[nodiscard]] bool write_lines(const std::vector<std::string>& lines) override;

 private:
  struct Pending {
    std::int64_t read = 0;
    std::string line;
  };

  void replied(const std::string& reply, std::int64_t when);

  edea::service::Stream& inner_;
  Recorder& recorder_;
  Side side_;
  int shard_;
  std::uint64_t stride_;
  std::mutex mutex_;  // the reader adds pending requests, the writer takes
  std::unordered_map<std::uint64_t, Pending> pending_;
  std::uint64_t next_id_ = 0;     ///< ids of answering lines read
  std::uint64_t next_reply_ = 0;  ///< FIFO ids of replies (ordered mode)
  ConnectionKey key_;
  ConnectionTrace trace_;
};

/// Re-registers "edea" and "serialized" with factories whose instances
/// time run_network_batch into the active recorder; restore_backends puts
/// the plain factories back.
void install_timed_backends();
void restore_backends();

/// Classification of a reply payload (the line without its id prefix).
enum class ReplyKind { kHit, kMiss, kError, kOther };
ReplyKind classify_reply(const std::string& payload);

}  // namespace perfbench
