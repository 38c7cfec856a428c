// serialized_accelerator.hpp - the comparison architecture EDEA improves on.
//
// Two baseline behaviours from the paper's Sec. I/II narrative:
//   1. no direct transfer: the DWC output round-trips through external
//      memory (written out, then read back per PWC step) - the Fig. 3
//      "baseline";
//   2. no parallel engines: DWC and PWC phases execute serially per
//      (tile, slice) pass, each paying its own initiation - the [6]-style
//      "separate engine without parallel operation".
//
// The datapath is EDEA's own (core::DscDatapath: same engines, same
// Non-Conv math), so outputs remain bit-exact; this backend is only a
// different schedule over it - the DWC over the whole layer, the external
// round trip, then the PWC - with its own traffic tallies. That makes the
// streaming/latency ablation a controlled experiment.
#pragma once

#include <cstdint>
#include <vector>

#include "arch/ext_memory.hpp"
#include "core/backend.hpp"
#include "core/config.hpp"
#include "core/dsc_datapath.hpp"
#include "core/run_result.hpp"
#include "core/tiler.hpp"
#include "nn/layers.hpp"

namespace edea::baseline {

/// Extra measurements the serialized baseline produces on top of the
/// common LayerRunResult.
struct SerializedLayerResult {
  core::LayerRunResult common;
  std::int64_t dwc_phase_cycles = 0;
  std::int64_t pwc_phase_cycles = 0;
  /// Intermediate elements written out: N*M*(D*mult), each once.
  std::int64_t intermediate_external_writes = 0;
  /// Intermediate elements read back. Each PWC step fetches its whole
  /// Tn x Tm block wherever it lies inside the map, so where buffer tiles
  /// are not a multiple of Tn/Tm (e.g. the 7-wide tiles of a dilated
  /// stride-2 layer) steps also fetch the next tile's positions and this
  /// exceeds N*M*(D*mult).
  std::int64_t intermediate_external_reads = 0;
};

/// The "serialized" entry of the backend registry (core/backend.hpp):
/// a full-network accelerator model of the comparison architecture.
/// run_layer remains available for single-layer studies that want the
/// phase-split extras of SerializedLayerResult.
class SerializedDscAccelerator final : public core::AcceleratorBackend {
 public:
  explicit SerializedDscAccelerator(
      core::EdeaConfig config = core::EdeaConfig::paper());

  /// Runs one layer: the DWC phase over the whole layer, the intermediate
  /// map's external round trip, then the PWC phase. Its LayerTiming is
  /// asserted against core::TimingModel::serialized_layer_timing.
  [[nodiscard]] SerializedLayerResult run_layer(
      const nn::QuantDscLayer& layer, const nn::Int8Tensor& input);

  /// Runs a stack of DSC layers back to back, chaining outputs - the
  /// promoted full-network entry point sweeps/DSE/service consume. Output
  /// tensors are bit-exact with the "edea" backend (shared arithmetic);
  /// cycles and external traffic differ as the paper predicts.
  /// NetworkRunResult::peak_arena_bytes is the peak of one
  /// nn::MemoryPlanner plan of the activation chain, each layer's
  /// externally round-tripped intermediate map and its psum block.
  [[nodiscard]] core::NetworkRunResult run_network(
      const std::vector<nn::QuantDscLayer>& layers,
      const nn::Int8Tensor& input) override;

  /// Accepted for backend-interface parity and validated (>= 1), but the
  /// serialized baseline always executes its tiles serially: its two
  /// whole-layer phases share the externally-stored intermediate map, so
  /// there is no host-parallel implementation. Results are trivially
  /// bit-identical at every accepted width, which is all the backend
  /// contract requires.
  void set_tile_parallelism(int parallelism) override;
  [[nodiscard]] int tile_parallelism() const noexcept override {
    return tile_parallelism_;
  }

  /// Pins both engines' kernel selection (the kForceGeneric A/B lever);
  /// results and counters are bit-identical either way.
  void set_kernel_policy(core::KernelPolicy policy) override {
    datapath_.set_kernel_policy(policy);
  }

  [[nodiscard]] const core::EdeaConfig& config() const noexcept override {
    return config_;
  }

  [[nodiscard]] std::string_view backend_id() const noexcept override {
    return "serialized";
  }

 private:
  core::EdeaConfig config_;
  core::DscDatapath datapath_;
  int tile_parallelism_ = 1;
};

/// Analytic utilization model of a *unified* convolution engine ([2]-[4]):
/// one PE array sized for the PWC dataflow executes both convolution types.
/// During DWC phases only the lanes matching the depthwise pattern
/// contribute, so average utilization drops - the imbalance EDEA's dual
/// engines remove.
struct UnifiedEngineModel {
  int array_macs = 512;      ///< PE array size (PWC-shaped)
  int dwc_usable_macs = 288; ///< lanes a depthwise pass can keep busy

  /// Average lane utilization over one DSC layer (cycle-weighted).
  [[nodiscard]] double layer_utilization(const nn::DscLayerSpec& spec) const {
    const double dwc_cycles =
        static_cast<double>(spec.dwc_macs()) / dwc_usable_macs;
    const double pwc_cycles =
        static_cast<double>(spec.pwc_macs()) / array_macs;
    const double useful =
        static_cast<double>(spec.dwc_macs() + spec.pwc_macs());
    const double offered = (dwc_cycles + pwc_cycles) * array_macs;
    return offered <= 0.0 ? 0.0 : useful / offered;
  }
};

}  // namespace edea::baseline
