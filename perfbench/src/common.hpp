// common.hpp - clocks, order statistics and bounded sampling shared by the
// benchmark's files.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "util/random.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Monotonic time in nanoseconds; every span and latency uses this clock.
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

/// The q-quantile (q in [0, 1]) of `values`, interpolating linearly between
/// order statistics. 0 when there are no values.
inline double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// A uniform sample of fixed capacity over an unbounded stream of values
/// (Algorithm R). Keeps measured values verbatim, so quantiles are read
/// from real samples, while memory stays bounded however long a run is.
class Reservoir {
 public:
  explicit Reservoir(std::size_t capacity, std::uint64_t seed = 1)
      : capacity_(capacity), rng_(seed) {}

  void add(double value) {
    ++seen_;
    if (samples_.size() < capacity_) {
      samples_.push_back(value);
      return;
    }
    const std::uint64_t slot = rng_() % seen_;
    if (slot < capacity_) samples_[static_cast<std::size_t>(slot)] = value;
  }

  [[nodiscard]] std::uint64_t seen() const { return seen_; }
  [[nodiscard]] const std::vector<double>& samples() const { return samples_; }

 private:
  std::size_t capacity_;
  edea::Rng rng_;
  std::uint64_t seen_ = 0;
  std::vector<double> samples_;
};

}  // namespace perfbench
