#include "service/wire_front.hpp"

#include <thread>
#include <utility>
#include <vector>

#include "service/transport.hpp"

namespace edea::service {

/// One reply slot. Shared ownership: the front's queue and whoever will
/// finish it (a service callback, a pending router request) may each hold
/// the slot.
struct WireFront::Slot {
  std::uint64_t id = 0;
  /// Reply framing in effect when the line arrived: the slot is queued
  /// when it completes, and its line is framed `id=<n> `.
  bool unordered = false;
  bool ready = false;  ///< guarded by mutex_
  bool self_identifying = false;
  /// Run completions park the outcome itself and let the writer thread
  /// render it: rendering and framing a reply line costs about 0.65 µs
  /// (BM_FormatOutcomeLine on a 4-vCPU Xeon host), and on the reader
  /// thread (where completion callbacks run for cache hits) it would be
  /// a slice of the per-request budget that bounds pipelined throughput.
  /// The writer has slack - it spends its time corking and sending.
  bool has_outcome = false;
  core::SweepOutcome outcome;
  std::string text;  ///< the line itself, when there is no outcome
};

namespace {

/// Renders a drained slot into its wire line. Runs on the writer thread
/// outside the mutex: a ready slot has no other writer.
std::string render(WireFront::Slot& slot) {
  const bool framed = slot.unordered && !slot.self_identifying;
  if (!slot.has_outcome) {
    return framed ? format_unordered_line(slot.id, slot.text)
                  : std::move(slot.text);
  }
  // An outcome renders straight after its `id=<n> ` frame, in one buffer.
  std::string line = framed ? format_unordered_line(slot.id, {}) : "";
  append_outcome_line(line, slot.outcome);
  return line;
}

}  // namespace

WireFront::WireFront(Stream& client, const WireOptions& options,
                     WireStats& stats)
    : client_(client), options_(options), stats_(stats) {}

void WireFront::serve(Dispatch& dispatch) {
  std::thread writer([this] { write_loop(); });

  // Reply framing mode. Owned by the reader; every slot captures the
  // value in effect when its line arrived, so a mid-stream switch never
  // reframes replies already in flight.
  bool unordered = false;
  // Frame state machine: outside any frame, or inside one with
  // `frame_seen` of `frame_expected` answering lines consumed.
  bool in_frame = false;
  int frame_expected = 0;
  int frame_seen = 0;

  std::string raw;
  while (client_.read_line(raw)) {
    ParsedLine parsed = parse_request_line(raw);
    if (parsed.kind == ParsedLine::Kind::kEmpty) continue;

    // Frame bookkeeping happens before the line is answered: control
    // lines open/close the frame (well-formed ones answer nothing), every
    // other line inside a frame consumes one of its declared slots.
    // Frames are a client-to-front transport hint; they never travel on.
    if (in_frame) {
      if (parsed.kind == ParsedLine::Kind::kBatchEnd) {
        if (frame_seen < frame_expected) {
          parsed.kind = ParsedLine::Kind::kError;
          parsed.error = "batch-end after " + std::to_string(frame_seen) +
                         " of " + std::to_string(frame_expected) +
                         " frame lines";
        }
        in_frame = false;  // well-formed or not, the frame is over
        if (parsed.kind == ParsedLine::Kind::kBatchEnd) continue;
      } else if (frame_seen >= frame_expected) {
        // The declared count is exhausted; only batch-end may follow.
        parsed.kind = ParsedLine::Kind::kError;
        parsed.error = "expected batch-end after " +
                       std::to_string(frame_expected) +
                       " frame lines, got '" + raw + "'";
        in_frame = false;  // error recovery: drop the frame state
      } else {
        ++frame_seen;
        if (parsed.kind == ParsedLine::Kind::kBatchBegin) {
          parsed.kind = ParsedLine::Kind::kError;
          parsed.error = "nested batch-begin inside a frame";
        }
      }
    } else if (parsed.kind == ParsedLine::Kind::kBatchBegin) {
      in_frame = true;
      frame_expected = parsed.frame_size;
      frame_seen = 0;
      ++stats_.frames;
      continue;  // well-formed frame control: no reply, no id
    } else if (parsed.kind == ParsedLine::Kind::kBatchEnd) {
      parsed.kind = ParsedLine::Kind::kError;
      parsed.error = "batch-end outside a frame";
    }

    const std::uint64_t id = ++stats_.requests;

    switch (parsed.kind) {
      case ParsedLine::Kind::kError:
        ++stats_.protocol_errors;
        push(id, "protocol-error " + parsed.error, unordered);
        break;
      case ParsedLine::Kind::kMode:
        // The reply states the mode now in effect, formatted in that
        // mode - a refused switch (--ordered) answers a bare
        // `mode ordered`.
        unordered = parsed.unordered && options_.allow_unordered;
        push(id, unordered ? "mode unordered" : "mode ordered", unordered);
        break;
      case ParsedLine::Kind::kStats:
        // Barrier: every preceding run has finished before the owner is
        // asked. The FIFO queue keeps the line in wire order, so the
        // reader never stalls until the line is on the wire.
        wait_quiescent();
        push(id, dispatch.stats_line(), unordered);
        break;
      case ParsedLine::Kind::kRun: {
        ++stats_.runs;
        auto reply = std::make_shared<Slot>();
        reply->id = id;
        reply->unordered = unordered;
        {
          const std::lock_guard<std::mutex> lock(mutex_);
          ++outstanding_;
          // Ordered: the slot holds its place in id order until finished.
          if (!unordered) queue_.push_back(reply);
        }
        dispatch.submit(id, parsed.request, raw, reply);
        break;
      }
      case ParsedLine::Kind::kEmpty:
      case ParsedLine::Kind::kBatchBegin:
      case ParsedLine::Kind::kBatchEnd:
        break;  // unreachable; handled above
    }
  }

  // EOF inside a frame: the peer broke its own framing promise - say so
  // in a final slot instead of silently swallowing the truncation.
  if (in_frame) {
    const std::uint64_t id = ++stats_.requests;
    ++stats_.protocol_errors;
    push(id,
         "protocol-error batch frame truncated: got " +
             std::to_string(frame_seen) + " of " +
             std::to_string(frame_expected) +
             " lines before EOF (missing batch-end)",
         unordered);
  }

  // Drain: every outstanding reply must land in the queue before the
  // writer is told the stream is finished (an unordered reply finished
  // after `finished_` would be lost).
  wait_quiescent();
  dispatch.drained();
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    finished_ = true;
  }
  queue_cv_.notify_all();
  writer.join();
}

void WireFront::finish(const Reply& reply, core::SweepOutcome outcome) {
  const std::lock_guard<std::mutex> lock(mutex_);
  reply->outcome = std::move(outcome);
  reply->has_outcome = true;
  ready_locked(reply);
}

void WireFront::finish(const Reply& reply, std::string line,
                       bool self_identifying) {
  const std::lock_guard<std::mutex> lock(mutex_);
  reply->text = std::move(line);
  reply->self_identifying = self_identifying;
  ready_locked(reply);
}

void WireFront::ready_locked(const Reply& reply) {
  reply->ready = true;
  if (reply->unordered) queue_.push_back(reply);
  --outstanding_;
  // Notify while still holding the mutex. finish() runs on a pool runner
  // or shard reader thread; with the notify outside the lock, the
  // reader's drain wait can observe outstanding_ == 0 (woken by an
  // earlier completion), return from serve(), and destroy these condition
  // variables while this thread is still inside notify - a use-after-free
  // that crashes in pthread_cond_broadcast. Holding the lock orders the
  // notify strictly before the drain's wake-up.
  queue_cv_.notify_one();
  done_cv_.notify_all();
}

void WireFront::push(std::uint64_t id, std::string line, bool unordered) {
  auto slot = std::make_shared<Slot>();
  slot->id = id;
  slot->unordered = unordered;
  slot->ready = true;
  slot->text = std::move(line);
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(slot));
  }
  queue_cv_.notify_one();
}

void WireFront::wait_quiescent() {
  std::unique_lock<std::mutex> lock(mutex_);
  done_cv_.wait(lock, [this] { return outstanding_ == 0; });
}

void WireFront::write_loop() {
  std::vector<Reply> drained;
  std::vector<std::string> batch;
  // A broken client must not wedge the session: replies keep finishing
  // (dispatch bookkeeping completes regardless), writing stops.
  bool broken = false;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      queue_cv_.wait(lock, [this] {
        return (!queue_.empty() && queue_.front()->ready) ||
               (finished_ && queue_.empty());
      });
      if (queue_.empty()) return;  // finished, everything written
      // Cork: take every consecutively ready reply in one drain. A
      // pending slot (ordered mode, still running) ends the batch - its
      // successors must not overtake it.
      while (!queue_.empty() && queue_.front()->ready) {
        drained.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
    }
    if (!broken) {
      for (const Reply& slot : drained) batch.push_back(render(*slot));
      if (client_.write_lines(batch)) {
        stats_.responses_written += batch.size();
      } else {
        broken = true;
      }
      batch.clear();
    }
    drained.clear();
  }
}

}  // namespace edea::service
