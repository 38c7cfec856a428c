#include "service/pipeline_client.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <limits>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <utility>

#include "service/protocol.hpp"
#include "service/transport.hpp"
#include "util/backoff.hpp"
#include "util/check.hpp"
#include "util/random.hpp"

namespace edea::service {

namespace {

using Clock = std::chrono::steady_clock;

/// Whether the server answers this line at all, read with the server's
/// own tokenizer. Blank and comment lines are ignored by the session (no
/// reply, no id), so the driver must not wait for a response to them. A
/// line longer than kMaxLineBytes is answered with a protocol error
/// whatever it holds. Frame-control and mode lines in a replayed stream
/// would corrupt the framing this driver manages itself - they are
/// rejected up front instead of desynchronizing the reply matcher mid-run.
bool is_answering_line(const std::string& line) {
  if (line.size() > kMaxLineBytes) return true;
  const std::string_view verb = request_verb(line);
  EDEA_REQUIRE(verb != "batch-begin" && verb != "batch-end" && verb != "mode",
               "pipelined replay manages frames and modes itself; the "
               "request stream must not contain '" +
                   std::string(verb) + "' lines");
  return !verb.empty() && verb.front() != '#';
}

}  // namespace

PipelineReport run_pipelined(Stream& stream,
                             const std::vector<std::string>& requests,
                             const PipelineOptions& options) {
  EDEA_REQUIRE(options.window >= 1 &&
                   options.window <= static_cast<std::size_t>(kMaxFrameLines),
               "pipeline window must be in [1, " +
                   std::to_string(kMaxFrameLines) + "], got " +
                   std::to_string(options.window));
  EDEA_REQUIRE(options.max_attempts >= 1,
               "pipeline max_attempts must be >= 1, got " +
                   std::to_string(options.max_attempts));

  PipelineReport report;
  report.responses.resize(requests.size());

  // Only answering lines participate: blank/comment lines keep their
  // (empty) response slot but are never sent - the server would ignore
  // them, and a reply matcher waiting on one would wait forever.
  std::deque<std::size_t> pending;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    if (is_answering_line(requests[i])) pending.push_back(i);
  }
  const std::size_t target = pending.size();
  if (target == 0) {
    report.complete = true;
    return report;
  }

  std::uint64_t next_wire_id = 1;

  // Negotiate the wire mode synchronously before anything is in flight -
  // one extra RTT, once, and every later reply has a known shape. The
  // reply states the mode actually in effect, so a server running
  // --ordered is detected here and the reader falls back to FIFO
  // matching.
  if (!options.ordered) {
    std::string reply;
    if (!stream.write_line("mode unordered") || !stream.read_line(reply)) {
      report.error = "connection broke during mode negotiation";
      return report;
    }
    const std::uint64_t handshake_id = next_wire_id++;
    report.unordered =
        reply == format_unordered_line(handshake_id, "mode unordered");
    if (!report.unordered && reply != "mode ordered") {
      report.error = "unexpected mode reply '" + reply + "'";
      return report;
    }
  }

  // Shared between the writing (calling) thread and the reader thread.
  std::mutex mutex;
  std::condition_variable cv;  // reader wakes the writer
  std::unordered_map<std::uint64_t, std::size_t> inflight;  // wire -> logical
  std::deque<std::uint64_t> reply_order;  // FIFO matching (ordered mode)
  std::vector<std::pair<Clock::time_point, std::size_t>> retries;
  std::vector<int> attempts(requests.size(), 0);
  std::size_t completed = 0;
  bool failed = false;
  std::string failure;
  Rng rng(options.backoff_seed);

  std::thread reader([&] {
    std::string line;
    for (;;) {
      {
        const std::lock_guard<std::mutex> lock(mutex);
        if (failed || completed == target) break;
      }
      if (!stream.read_line(line)) {
        const std::lock_guard<std::mutex> lock(mutex);
        failed = true;
        failure = "connection closed with " +
                  std::to_string(target - completed) +
                  " responses missing";
        cv.notify_all();
        break;
      }

      std::uint64_t wire_id = 0;
      int retry_ms = 0;
      std::string payload;
      const std::lock_guard<std::mutex> lock(mutex);
      if (parse_busy_line(line, &wire_id, &retry_ms)) {
        const auto it = inflight.find(wire_id);
        if (it == inflight.end()) {
          failed = true;
          failure = "busy reply for unknown request id: '" + line + "'";
          cv.notify_all();
          break;
        }
        const std::size_t logical = it->second;
        inflight.erase(it);
        if (!report.unordered) reply_order.pop_front();
        ++report.busy_replies;
        if (++attempts[logical] >= options.max_attempts) {
          // Give up: the busy line becomes the response, so the caller
          // sees exactly which requests the server kept rejecting.
          report.responses[logical] = line;
          ++completed;
        } else {
          // Exponential backoff on the server's hint, jittered so a herd
          // of rejected clients does not retry in lockstep (the policy
          // lives in util/backoff.hpp, shared with connect_socket and the
          // cluster router's failover path).
          const auto delay = std::chrono::milliseconds(
              jittered_backoff_ms(attempts[logical], retry_ms, rng));
          retries.emplace_back(Clock::now() + delay, logical);
        }
      } else {
        if (report.unordered) {
          if (!parse_unordered_line(line, &wire_id, &payload)) {
            failed = true;
            failure = "reply without id prefix in unordered mode: '" + line +
                      "'";
            cv.notify_all();
            break;
          }
        } else {
          wire_id = reply_order.front();
          reply_order.pop_front();
          payload = line;
        }
        const auto it = inflight.find(wire_id);
        if (it == inflight.end()) {
          failed = true;
          failure = "reply for unknown request id: '" + line + "'";
          cv.notify_all();
          break;
        }
        report.responses[it->second] = std::move(payload);
        inflight.erase(it);
        ++completed;
      }
      cv.notify_all();
    }
  });

  // The writing loop: keep the window full from `pending`, feeding due
  // retries back into it. Bursts of more than one line go out as a batch
  // frame in a single corked write.
  std::vector<std::string> wire_lines;
  for (;;) {
    std::vector<std::size_t> burst;
    {
      std::unique_lock<std::mutex> lock(mutex);
      for (;;) {
        if (failed || completed == target) break;
        const Clock::time_point now = Clock::now();
        for (std::size_t i = 0; i < retries.size();) {
          if (retries[i].first <= now) {
            pending.push_back(retries[i].second);
            retries.erase(retries.begin() + static_cast<std::ptrdiff_t>(i));
          } else {
            ++i;
          }
        }
        // Refill hysteresis: sending the moment one slot frees would put
        // exactly one line on the wire per completion - a syscall per
        // request on both sides, which caps steady-state throughput well
        // below what framing can do. Waiting for a quarter of the window
        // (or the whole remaining tail, whichever is smaller) keeps the
        // pipe full while every refill is a real frame. Completions keep
        // arriving while this waits, so the free room monotonically grows
        // to the full window and the predicate always becomes true.
        const std::size_t refill = std::min(
            std::max<std::size_t>(1, options.window / 4), pending.size());
        if (!pending.empty() &&
            options.window - inflight.size() >= refill) {
          break;
        }
        if (retries.empty()) {
          cv.wait(lock);
        } else {
          Clock::time_point earliest = retries.front().first;
          for (const auto& retry : retries) {
            earliest = std::min(earliest, retry.first);
          }
          cv.wait_until(lock, earliest);
        }
      }
      if (failed || completed == target) break;

      const std::size_t room = options.window - inflight.size();
      while (!pending.empty() && burst.size() < room) {
        const std::size_t logical = pending.front();
        pending.pop_front();
        const std::uint64_t wire_id = next_wire_id++;
        inflight.emplace(wire_id, logical);
        if (!report.unordered) reply_order.push_back(wire_id);
        burst.push_back(logical);
      }
    }

    // Send outside the lock - the reader owns read_line, this thread owns
    // the writes, which is the Stream concurrency contract.
    wire_lines.clear();
    const bool framed = burst.size() > 1;
    if (framed) {
      wire_lines.push_back("batch-begin " + std::to_string(burst.size()));
    }
    for (const std::size_t logical : burst) {
      wire_lines.push_back(requests[logical]);
    }
    if (framed) {
      wire_lines.push_back("batch-end");
      ++report.frames_sent;
    }
    if (!stream.write_lines(wire_lines)) {
      const std::lock_guard<std::mutex> lock(mutex);
      failed = true;
      failure = "connection broke while sending";
      // The reader unblocks via read_line failing on the broken stream.
    }
  }

  reader.join();
  {
    const std::lock_guard<std::mutex> lock(mutex);
    report.complete = !failed && completed == target;
    if (!report.complete && report.error.empty()) report.error = failure;
  }
  return report;
}

PipelineReport run_serial(Stream& stream,
                          const std::vector<std::string>& requests,
                          const PipelineOptions& options) {
  EDEA_REQUIRE(options.max_attempts >= 1,
               "pipeline max_attempts must be >= 1, got " +
                   std::to_string(options.max_attempts));
  PipelineReport report;
  report.responses.resize(requests.size());
  Rng rng(options.backoff_seed);

  for (std::size_t i = 0; i < requests.size(); ++i) {
    const std::string& request = requests[i];
    // Same rules as run_pipelined: lines the server never answers keep an
    // empty response slot.
    if (!is_answering_line(request)) continue;
    int attempt = 0;
    for (;;) {
      std::string reply;
      if (!stream.write_line(request) || !stream.read_line(reply)) {
        report.error =
            "connection broke at request " + std::to_string(i);
        return report;
      }
      std::uint64_t wire_id = 0;
      int retry_ms = 0;
      if (!parse_busy_line(reply, &wire_id, &retry_ms)) {
        report.responses[i] = std::move(reply);
        break;
      }
      ++report.busy_replies;
      if (++attempt >= options.max_attempts) {
        report.responses[i] = std::move(reply);
        break;
      }
      std::this_thread::sleep_for(
          std::chrono::milliseconds(jittered_backoff_ms(attempt, retry_ms,
                                                        rng)));
    }
  }
  report.complete = true;
  return report;
}

}  // namespace edea::service
