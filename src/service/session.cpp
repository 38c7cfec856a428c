#include "service/session.hpp"

#include <optional>
#include <stdexcept>

#include "nn/model_zoo.hpp"
#include "service/protocol.hpp"
#include "util/check.hpp"
#include "util/random.hpp"

namespace edea::service {

namespace {

/// Synthetic input tensor for a workload - deterministic in the seed.
/// (Moved verbatim from the old stdin batch driver: request streams keep
/// resolving to bit-identical workloads across the refactor.)
nn::Int8Tensor random_input(const nn::DscLayerSpec& spec, std::uint64_t seed) {
  Rng rng(seed ^ 0xA5A5A5A5A5A5A5A5ull);
  nn::Int8Tensor input(nn::Shape{spec.in_rows, spec.in_cols, spec.in_channels});
  for (auto& v : input.storage()) {
    v = rng.bernoulli(0.4) ? std::int8_t{0}
                           : static_cast<std::int8_t>(rng.uniform_int(0, 127));
  }
  return input;
}

/// A Session's dispatch behind its WireFront: resolve the workload,
/// submit the job, and finish the reply from the completion callback -
/// or answer busy / an error outcome in the slot instead.
class SessionDispatch final : public WireFront::Dispatch {
 public:
  SessionDispatch(SimulationService& service, WorkloadCatalog& catalog,
                  const SessionOptions& options, SessionStats& stats,
                  WireFront& front)
      : service_(service),
        catalog_(catalog),
        options_(options),
        stats_(stats),
        front_(front),
        session_id_(service.new_session_id()) {}

  void submit(std::uint64_t id, const Request& request,
              const std::string& /*line*/,
              const WireFront::Reply& reply) override {
    std::optional<std::size_t> record;
    Admission verdict = Admission::kAdmitted;
    try {
      const WorkloadCatalog::Workload& workload =
          catalog_.resolve(request.network, request.seed, request.dilation,
                           request.depth_multiplier);
      core::SweepJob job = request.job();
      job.layers = &workload.layers;
      job.input = &workload.input;
      job.fingerprint = workload.fingerprint;
      if (options_.record_traffic) {
        const std::lock_guard<std::mutex> lock(record_mutex_);
        stats_.jobs.push_back(job);
        stats_.outcomes.resize(stats_.jobs.size());
        record = stats_.jobs.size() - 1;
      }
      verdict = service_.submit_streaming(
          std::move(job), session_id_,
          [this, reply, record](core::SweepOutcome outcome) {
            if (record) {
              // Recording copies - only the --verify gate pays for it.
              const std::lock_guard<std::mutex> lock(record_mutex_);
              stats_.outcomes[*record] = outcome;
            }
            // The session may be gone once the reply is finished: this
            // is the callback's last touch of it.
            front_.finish(reply, std::move(outcome));
          });
    } catch (const std::exception& e) {
      // Unresolvable network (or a submit-side failure, always before the
      // callback was registered): answer an error outcome line in this
      // request's slot. Not recorded - there is no job a verifier could
      // replay.
      unrecord(record);
      front_.finish(reply, format_outcome_line(
                               failed_outcome(request.job(), e.what())));
      return;
    }
    if (verdict == Admission::kBusy) {
      // The slot answers busy instead; the callback will never run.
      ++stats_.busy_replies;
      unrecord(record);
      front_.finish(reply, format_busy_line(id, options_.busy_retry_ms),
                    /*self_identifying=*/true);
    }
  }

  std::string stats_line() override {
    return format_stats_line(service_.cache_stats());
  }

 private:
  /// Drops a recorded job that will never have an outcome, keeping
  /// jobs/outcomes aligned for the --verify replay.
  void unrecord(std::optional<std::size_t> record) {
    if (!record) return;
    const std::lock_guard<std::mutex> lock(record_mutex_);
    stats_.jobs.pop_back();
    stats_.outcomes.resize(stats_.jobs.size());
  }

  SimulationService& service_;
  WorkloadCatalog& catalog_;
  const SessionOptions& options_;
  SessionStats& stats_;
  WireFront& front_;
  const std::uint64_t session_id_;
  std::mutex record_mutex_;  ///< guards the traffic vectors of stats_
};

}  // namespace

const WorkloadCatalog::Workload& WorkloadCatalog::resolve(
    const std::string& network, std::uint64_t seed, int dilation,
    int depth_multiplier) {
  EDEA_REQUIRE(dilation >= 1, "workload dilation must be >= 1, got " +
                                  std::to_string(dilation));
  EDEA_REQUIRE(depth_multiplier >= 1,
               "workload depth multiplier must be >= 1, got " +
                   std::to_string(depth_multiplier));
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto key = std::make_tuple(network, seed, dilation, depth_multiplier);
  auto it = workloads_.find(key);
  if (it == workloads_.end()) {
    // zoo_specs throws PreconditionError for unknown names - propagated
    // before anything is inserted.
    std::vector<nn::DscLayerSpec> specs = nn::zoo_specs(network);
    for (nn::DscLayerSpec& spec : specs) {
      // Dilation scales the padding along with the taps, so the 'same'
      // geometry of the zoo layers (k=3, p=1) keeps its output extents.
      spec.dilation = dilation;
      spec.padding *= dilation;
      // Multiplicative: composes with multipliers the geometry already
      // carries (MobileNetV2 expansion factors).
      spec.depth_multiplier *= depth_multiplier;
    }
    auto workload = std::make_unique<Workload>();
    workload->layers = nn::make_random_quant_network(specs, seed);
    workload->input = random_input(specs.front(), seed);
    workload->fingerprint =
        core::network_fingerprint(workload->layers, workload->input);
    it = workloads_.emplace(key, std::move(workload)).first;
  }
  return *it->second;
}

Session::Session(SimulationService& service, WorkloadCatalog& catalog,
                 SessionOptions options)
    : service_(service), catalog_(catalog), options_(std::move(options)) {
  validate_wire_options(options_, "session");
  EDEA_REQUIRE(options_.busy_retry_ms >= 1,
               "session busy_retry_ms must be >= 1, got " +
                   std::to_string(options_.busy_retry_ms));
}

SessionStats Session::serve(Stream& stream) {
  SessionStats stats;
  WireFront front(stream, options_, stats);
  SessionDispatch dispatch(service_, catalog_, options_, stats, front);
  front.serve(dispatch);
  return stats;
}

}  // namespace edea::service
