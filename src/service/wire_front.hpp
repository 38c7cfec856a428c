// wire_front.hpp - the client-facing half of every line-protocol server.
//
// A Session (one process) and a ClusterRouter session (a front for N
// shard processes) speak the same wire to their client; they differ only
// in what they do with a `run` line and where a `stats` line comes from.
// WireFront owns everything else, once:
//
//   - line read and parse, with the owner's request defaults,
//   - the batch-frame state machine (`batch-begin N` .. `batch-end`) and
//     its violation replies, EOF inside a frame included,
//   - per-connection request ids: every answering line (run, stats, mode,
//     malformed) takes the next id in arrival order; well-formed frame
//     control lines answer nothing and take no id,
//   - `mode ordered|unordered` negotiation and the `id=<n> ` framing of
//     unordered replies,
//   - the reply-slot queue: an ordered run's slot is queued when its line
//     arrives, so replies leave in id order; an unordered one when it
//     completes, so they leave in completion order,
//   - a corking writer thread that renders ready slots (outcome lines are
//     formatted there, off the reader's per-request budget) and sends
//     every consecutively ready one in one Stream::write_lines call,
//   - `stats` as a barrier: the owner is asked for the line only once
//     every earlier run has completed, so it reflects exactly the
//     preceding requests - deterministic for a given request stream,
//   - drain at EOF: every run completes before the writer stops.
//
// Concurrency: serve() reads on the calling thread and calls the
// Dispatch there, one line at a time; a run's reply completes through
// finish() exactly once, from any thread (a service completion callback,
// a shard reader). A broken client stops the writes, never the session:
// completions keep arriving and are dropped.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>

#include "core/backend.hpp"
#include "core/sweep_runner.hpp"
#include "service/protocol.hpp"

namespace edea::service {

class Stream;

/// What a wire front needs from its owner's configuration.
struct WireOptions {
  /// Backend id `run` requests resolve to when the line carries no
  /// backend= key (the --backend flag). Must name a registered backend -
  /// an operator error, not a client's protocol error, so the owner
  /// validates it at construction (validate_wire_options).
  std::string backend = std::string(core::kDefaultBackendId);

  /// Batch size `run` requests resolve to when the line carries no
  /// batch= key (the --batch flag). Must be >= 1.
  int batch = 1;

  /// Workload transforms `run` requests resolve to when the line carries
  /// no dilation= / depth_multiplier= key (the --dilation /
  /// --depth-multiplier flags). Must be >= 1.
  int dilation = 1;
  int depth_multiplier = 1;

  /// Whether a client's `mode unordered` request is honored. False (the
  /// --ordered flag) locks the connection to ordered replies: the request
  /// answers `mode ordered`, stating what is in effect - the byte-exact
  /// reference behavior CI compares against.
  bool allow_unordered = true;
};

/// Throws PreconditionError unless `options` holds a registered backend
/// and positive counts; `owner` ("session", "router") names the culprit.
void validate_wire_options(const WireOptions& options,
                           const std::string& owner);

/// Counters every front reports for one connection.
struct WireStats {
  std::uint64_t requests = 0;         ///< ids assigned (= answering lines)
  std::uint64_t runs = 0;             ///< `run` lines handed to dispatch
  std::uint64_t protocol_errors = 0;  ///< malformed lines
  std::uint64_t frames = 0;           ///< well-formed batch frames opened
  std::uint64_t responses_written = 0;
};

class WireFront {
 public:
  struct Slot;
  /// One run's place in the reply stream; complete it with finish().
  using Reply = std::shared_ptr<Slot>;

  /// What the owner does with the lines the front cannot answer itself.
  class Dispatch {
   public:
    /// A well-formed `run` line (`line` verbatim) that took request id
    /// `id`. `reply` must be finished exactly once - possibly before this
    /// returns. Runs on the reader thread; must not throw.
    virtual void submit(std::uint64_t id, const Request& request,
                        const std::string& line, const Reply& reply) = 0;
    /// The `stats` reply, asked once every earlier run has finished.
    virtual std::string stats_line() = 0;
    /// Every run has finished; the writer flushes and stops after this.
    virtual void drained() {}

   protected:
    ~Dispatch() = default;
  };

  /// `options` and `stats` must outlive the front; serve() fills the
  /// counters in `stats`.
  WireFront(Stream& client, const WireOptions& options, WireStats& stats);

  /// Serves the client until its input is exhausted, then drains every
  /// pending reply. Blocking.
  void serve(Dispatch& dispatch);

  /// Completes `reply` with an outcome, formatted by the writer thread.
  void finish(const Reply& reply, core::SweepOutcome outcome);

  /// Completes `reply` with a ready-made line. A `self_identifying` line
  /// (busy) carries its id in-band and is never `id=`-prefixed.
  void finish(const Reply& reply, std::string line,
              bool self_identifying = false);

 private:
  /// Queues a ready reply to a line the front answers itself.
  void push(std::uint64_t id, std::string line, bool unordered);
  /// Marks a finished reply ready and wakes the writer and any barrier.
  /// Caller holds mutex_.
  void ready_locked(const Reply& reply);
  /// Blocks until every run handed to dispatch has finished.
  void wait_quiescent();
  void write_loop();

  Stream& client_;
  const WireOptions& options_;
  WireStats& stats_;

  std::mutex mutex_;
  std::condition_variable queue_cv_;  // writer waits for a ready head
  std::condition_variable done_cv_;   // reader waits for outstanding_ == 0
  std::deque<Reply> queue_;
  std::uint64_t outstanding_ = 0;  ///< runs handed out, not yet finished
  bool finished_ = false;          ///< reader exhausted + drained
};

}  // namespace edea::service
