// service_submit.hpp - a promise over SimulationService::submit_streaming
// for in-process callers (the service test suites and bench_micro_kernels)
// that want a future instead of a completion callback.
#pragma once

#include <future>
#include <memory>
#include <stdexcept>
#include <utility>

#include "service/simulation_service.hpp"

namespace edea::service {

/// Submits `job` on lane 0 and returns a future of its outcome. Throws what
/// submit_streaming throws for a malformed job, and std::runtime_error if
/// the admission bound (ServiceOptions::max_queue) answers busy.
inline std::future<core::SweepOutcome> submit_future(SimulationService& svc,
                                                     core::SweepJob job) {
  // std::function needs a copyable target, so the promise is shared.
  auto promise = std::make_shared<std::promise<core::SweepOutcome>>();
  std::future<core::SweepOutcome> future = promise->get_future();
  const Admission verdict = svc.submit_streaming(
      std::move(job), 0, [promise](core::SweepOutcome outcome) {
        promise->set_value(std::move(outcome));
      });
  if (verdict == Admission::kBusy) {
    throw std::runtime_error("submit_future: the service answered busy");
  }
  return future;
}

}  // namespace edea::service
