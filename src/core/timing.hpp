// timing.hpp - the analytic latency model of Sec. III-D (Eq. 1 and Eq. 2).
//
//   Lat_tile  = (9 + ceil(N/Tn) * ceil(M/Tm) * ceil(K/Tk)) * T_period   (1)
//   Lat_total = Lat_tile * N_tiles * ceil(D/Td)                         (2)
//
// where in Eq. 1 N/M are the output extents covered by one ifmap-buffer
// tile (at most 8x8) and in Eq. 2 N_tiles is the number of such buffer
// tiles. The cycle-accurate simulator must agree with this model exactly;
// tests assert the equality for every MobileNetV1 layer and for randomized
// layer geometries.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "nn/layers.hpp"

namespace edea::core {

/// Latency decomposition for one layer.
struct LayerTiming {
  std::int64_t passes = 0;        ///< buffer tiles x channel slices
  std::int64_t init_cycles = 0;   ///< 9 x passes
  std::int64_t compute_cycles = 0;  ///< spatial x kernel-group steps
  std::int64_t total_cycles = 0;

  std::int64_t dwc_active_cycles = 0;  ///< cycles the DWC engine fires
  std::int64_t pwc_active_cycles = 0;  ///< cycles the PWC engine fires

  /// Wall-clock nanoseconds at the configured frequency.
  [[nodiscard]] double time_ns(double clock_ghz) const noexcept {
    return static_cast<double>(total_cycles) / clock_ghz;
  }

  /// Field-wise merge. Every field is a sum over passes, and buffer tiles
  /// partition the passes, so per-tile-worker partials merged in any fixed
  /// order reproduce the serial tally exactly (integer addition).
  LayerTiming& operator+=(const LayerTiming& other) noexcept {
    passes += other.passes;
    init_cycles += other.init_cycles;
    compute_cycles += other.compute_cycles;
    total_cycles += other.total_cycles;
    dwc_active_cycles += other.dwc_active_cycles;
    pwc_active_cycles += other.pwc_active_cycles;
    return *this;
  }

  friend bool operator==(const LayerTiming&, const LayerTiming&) = default;
};

/// One stage event of Fig. 7's pipeline diagram.
struct PipelineEvent {
  std::int64_t cycle = 0;
  std::string stage;
  std::string detail;
};

/// Ceiling division for positive operands.
[[nodiscard]] constexpr std::int64_t ceil_div(std::int64_t a,
                                              std::int64_t b) noexcept {
  return (a + b - 1) / b;
}

class TimingModel {
 public:
  explicit TimingModel(EdeaConfig config) : config_(config) {
    config_.validate();
  }

  [[nodiscard]] const EdeaConfig& config() const noexcept { return config_; }

  /// Eq. 1 for one buffer tile covering tile_rows x tile_cols outputs.
  [[nodiscard]] std::int64_t tile_pass_cycles(int tile_rows, int tile_cols,
                                              int out_channels) const;

  /// Eq. 2 over the whole layer (summing ragged edge tiles exactly).
  [[nodiscard]] LayerTiming layer_timing(const nn::DscLayerSpec& spec) const;

  /// The serialized baseline's schedule in closed form. Every pass runs a
  /// DWC phase (initiation + one cycle per spatial step) and then a PWC
  /// phase (initiation + the Eq. 1 compute), so
  ///   total = Eq. 2 total + Eq. 2 init + dwc_active.
  /// The phases never overlap into dual-engine passes: passes and
  /// init_cycles are 0 and compute_cycles is the whole total.
  [[nodiscard]] LayerTiming serialized_layer_timing(
      const nn::DscLayerSpec& spec) const;

  /// Fig. 7: the stage events of a layer's first (buffer tile, channel
  /// slice) pass. The initiation loads the ifmap, DWC and PWC weights at
  /// cycle 0 and the slice's Non-Conv parameters at cycle 2; then the
  /// first four spatial steps each fire the DWC engine, the Non-Conv
  /// transfer and a write to alternating intermediate-buffer halves at
  /// the cycle the step starts, init_cycles + s x ceil(K/Tk) (Eq. 1), and
  /// the first two start the PWC engine's first kernel group. A pure
  /// function of (config, spec): the schedule reads no data.
  [[nodiscard]] std::vector<PipelineEvent> first_pass_events(
      const nn::DscLayerSpec& spec) const;

  /// Throughput in GOPS (1 MAC = 2 ops) at the configured clock.
  [[nodiscard]] double layer_throughput_gops(const nn::DscLayerSpec& spec)
      const;

  /// Number of ifmap-buffer tiles Eq. 2 multiplies by.
  [[nodiscard]] std::int64_t buffer_tile_count(const nn::DscLayerSpec& spec)
      const;

 private:
  EdeaConfig config_;
};

}  // namespace edea::core
