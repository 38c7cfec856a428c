#include "trace.hpp"

#include <atomic>
#include <utility>

#include "baseline/serialized_accelerator.hpp"
#include "core/accelerator.hpp"
#include "core/backend.hpp"
#include "service/protocol.hpp"

namespace perfbench {

namespace {

std::atomic<Recorder*> g_recorder{nullptr};

/// Whether the session answers the line (and so assigns it an id):
/// everything but blank lines, comments and well-formed frame control.
bool is_answering(const std::string& line) {
  if (line.empty() || line.front() == '#') return false;
  return line.rfind("batch-begin ", 0) != 0 && line != "batch-end";
}

/// Splits a reply into its wire id and payload. Unordered replies carry
/// their id; ordered replies arrive in id order, so `*fifo` numbers them.
std::uint64_t reply_id(const std::string& line, std::string* payload,
                       std::uint64_t* fifo) {
  std::uint64_t id = 0;
  if (edea::service::parse_unordered_line(line, &id, payload)) return id;
  *payload = line;
  return ++*fifo;
}

/// Wraps one backend and times run_network_batch into the active recorder.
template <class Inner>
class TimedBackend final : public edea::core::AcceleratorBackend {
 public:
  TimedBackend(const edea::core::EdeaConfig& config, bool serialized)
      : inner_(config), serialized_(serialized) {}

  [[nodiscard]] edea::core::NetworkRunResult run_network(
      const std::vector<edea::nn::QuantDscLayer>& layers,
      const edea::nn::Int8Tensor& input) override {
    const std::int64_t start = now_ns();
    edea::core::NetworkRunResult result = inner_.run_network(layers, input);
    record(layers, input, 1, start, result.total_cycles());
    return result;
  }

  [[nodiscard]] std::vector<edea::core::NetworkRunResult> run_network_batch(
      const std::vector<edea::nn::QuantDscLayer>& layers,
      const edea::nn::Int8Tensor& input, int batch) override {
    const std::int64_t start = now_ns();
    std::vector<edea::core::NetworkRunResult> results =
        inner_.run_network_batch(layers, input, batch);
    std::int64_t cycles = 0;
    for (const auto& r : results) cycles += r.total_cycles();
    record(layers, input, batch, start, cycles);
    return results;
  }

  void set_tile_parallelism(int parallelism) override {
    inner_.set_tile_parallelism(parallelism);
  }
  [[nodiscard]] int tile_parallelism() const noexcept override {
    return inner_.tile_parallelism();
  }
  void set_kernel_policy(edea::core::KernelPolicy policy) override {
    inner_.set_kernel_policy(policy);
  }
  [[nodiscard]] const edea::core::EdeaConfig& config() const noexcept override {
    return inner_.config();
  }
  [[nodiscard]] std::string_view backend_id() const noexcept override {
    return inner_.backend_id();
  }

 private:
  void record(const std::vector<edea::nn::QuantDscLayer>& layers,
              const edea::nn::Int8Tensor& input, int batch,
              std::int64_t start, std::int64_t cycles) {
    Recorder* recorder = active_recorder();
    if (recorder == nullptr) return;
    BackendSpan span;
    span.serialized = serialized_;
    span.layers = &layers;
    span.input = &input;
    span.config_hash = inner_.config().hash();
    span.batch = batch;
    span.start = start;
    span.end = now_ns();
    span.cycles = cycles;
    recorder->add(span);
  }

  Inner inner_;
  bool serialized_;
};

}  // namespace

ReplyKind classify_reply(const std::string& payload) {
  if (payload.rfind("error ", 0) == 0) return ReplyKind::kError;
  if (payload.rfind("ok ", 0) != 0) return ReplyKind::kOther;
  return payload.find(" cache=hit") != std::string::npos ? ReplyKind::kHit
                                                         : ReplyKind::kMiss;
}

Recorder* active_recorder() { return g_recorder.load(); }
void set_active_recorder(Recorder* recorder) { g_recorder.store(recorder); }

void Recorder::add(ConnectionTrace trace) {
  const std::lock_guard<std::mutex> lock(mutex_);
  connections.push_back(std::move(trace));
}

void Recorder::add(MissTrace miss) {
  const std::lock_guard<std::mutex> lock(mutex_);
  misses.push_back(std::move(miss));
}

void Recorder::add(const BackendSpan& span) {
  const std::lock_guard<std::mutex> lock(mutex_);
  backend_spans.push_back(span);
}

void Recorder::add_hit_residence(double us) {
  const std::lock_guard<std::mutex> lock(mutex_);
  hit_residence_us.push_back(us);
}

void Recorder::add_write(double us, std::size_t lines) {
  const std::lock_guard<std::mutex> lock(mutex_);
  write_us.push_back(us);
  lines_written += lines;
}

void Recorder::session_opened() {
  const std::lock_guard<std::mutex> lock(mutex_);
  ++open_sessions_;
}

void Recorder::session_closed() {
  const std::lock_guard<std::mutex> lock(mutex_);
  --open_sessions_;
  closed_cv_.notify_all();
}

void Recorder::wait_sessions_closed() {
  std::unique_lock<std::mutex> lock(mutex_);
  closed_cv_.wait(lock, [&] { return open_sessions_ == 0; });
}

void ConnectionKey::feed(const std::string& line) {
  if (lines_ >= kLines) return;
  ++lines_;
  for (const char c : line) {
    hash_ ^= static_cast<unsigned char>(c);
    hash_ *= 0x100000001b3ull;
  }
  hash_ ^= '\n';
  hash_ *= 0x100000001b3ull;
}

ClientStream::ClientStream(std::unique_ptr<edea::service::Stream> inner,
                           LatencySink& sink, Recorder* recorder,
                           std::uint64_t stride)
    : inner_(std::move(inner)),
      sink_(sink),
      recorder_(recorder),
      stride_(stride),
      sent_(1, 0) {
  trace_.side = Side::kClient;
}

ClientStream::~ClientStream() {
  if (recorder_ == nullptr) return;
  trace_.key = key_.value();
  recorder_->add(std::move(trace_));
}

void ClientStream::stamp(const std::string& line, std::int64_t when) {
  if (!is_answering(line)) return;
  sent_.push_back(when);
  key_.feed(line);
}

bool ClientStream::write_line(const std::string& line) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stamp(line, now_ns());
  }
  return inner_->write_line(line);
}

bool ClientStream::write_lines(const std::vector<std::string>& lines) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    const std::int64_t when = now_ns();
    for (const std::string& line : lines) stamp(line, when);
  }
  return inner_->write_lines(lines);
}

bool ClientStream::read_line(std::string& line) {
  if (!inner_->read_line(line)) return false;
  const std::int64_t when = now_ns();
  std::string payload;
  std::uint64_t id = 0;
  if (!edea::service::parse_unordered_line(line, &id, &payload)) return true;
  const ReplyKind kind = classify_reply(payload);
  if (kind == ReplyKind::kOther) return true;
  std::int64_t sent = 0;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (id >= sent_.size()) return true;
    sent = sent_[id];
    if (recorder_ != nullptr && id % stride_ == 0) {
      trace_.requests.push_back(RequestTimes{id, sent, when});
    }
  }
  sink_.add(static_cast<double>(when - sent) * 1e-6,
            payload.find(" cache=hit") != std::string::npos);
  return true;
}

TracedServerStream::TracedServerStream(edea::service::Stream& inner,
                                       Recorder& recorder, Side side,
                                       int shard, std::uint64_t stride)
    : inner_(inner),
      recorder_(recorder),
      side_(side),
      shard_(shard),
      stride_(stride) {
  trace_.side = side;
  trace_.shard = shard;
  recorder_.session_opened();
}

TracedServerStream::~TracedServerStream() {
  trace_.key = key_.value();
  recorder_.add(std::move(trace_));
  recorder_.session_closed();
}

bool TracedServerStream::read_line(std::string& line) {
  if (!inner_.read_line(line)) return false;
  const std::int64_t when = now_ns();
  if (!is_answering(line)) return true;
  const std::lock_guard<std::mutex> lock(mutex_);
  key_.feed(line);
  pending_.emplace(++next_id_, Pending{when, line});
  return true;
}

void TracedServerStream::replied(const std::string& reply, std::int64_t when) {
  std::string payload;
  const std::uint64_t id = reply_id(reply, &payload, &next_reply_);
  Pending pending;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = pending_.find(id);
    if (it == pending_.end()) return;
    pending = std::move(it->second);
    pending_.erase(it);
    if (id % stride_ == 0) {
      trace_.requests.push_back(RequestTimes{id, pending.read, when});
    }
  }
  if (side_ != Side::kSession) return;
  const ReplyKind kind = classify_reply(payload);
  if (kind == ReplyKind::kHit) {
    recorder_.add_hit_residence(static_cast<double>(when - pending.read) *
                                1e-3);
  } else if (kind == ReplyKind::kMiss) {
    recorder_.add(MissTrace{shard_, std::move(pending.line), pending.read,
                            when});
  }
}

bool TracedServerStream::write_line(const std::string& line) {
  return write_lines({line});
}

bool TracedServerStream::write_lines(const std::vector<std::string>& lines) {
  const std::int64_t when = now_ns();
  for (const std::string& line : lines) replied(line, when);
  const std::int64_t start = now_ns();
  const bool ok = inner_.write_lines(lines);
  if (side_ == Side::kSession) {
    recorder_.add_write(static_cast<double>(now_ns() - start) * 1e-3,
                        lines.size());
  }
  return ok;
}

void install_timed_backends() {
  (void)edea::core::register_backend(
      "edea", [](const edea::core::EdeaConfig& config) {
        return std::make_unique<TimedBackend<edea::core::EdeaAccelerator>>(
            config, false);
      });
  (void)edea::core::register_backend(
      "serialized", [](const edea::core::EdeaConfig& config) {
        return std::make_unique<
            TimedBackend<edea::baseline::SerializedDscAccelerator>>(config,
                                                                   true);
      });
}

void restore_backends() {
  (void)edea::core::register_backend(
      "edea", [](const edea::core::EdeaConfig& config) {
        return std::make_unique<edea::core::EdeaAccelerator>(config);
      });
  (void)edea::core::register_backend(
      "serialized", [](const edea::core::EdeaConfig& config) {
        return std::make_unique<edea::baseline::SerializedDscAccelerator>(
            config);
      });
}

}  // namespace perfbench
