// accelerator.hpp - the cycle-accurate EDEA accelerator model (Fig. 4).
//
// Composition:
//   - the shared DSC datapath (core/dsc_datapath.hpp): the 288-MAC DWC
//     engine, the 512-MAC PWC engine and the 8-unit Non-Conv array between
//     them (and on the write-back path),
//   - the on-chip SRAM buffers, modeled by their capacities (checked once
//     per layer) and their traffic: the DWC ifmap tile, the DWC weight and
//     offline (Non-Conv parameter) buffers, the double-buffered
//     intermediate tile, the PWC weight slice and the PWC partial-sum
//     accumulator,
//   - a tiler implementing the La dataflow with 8x8-output buffer tiles.
// What this backend adds to the datapath is EDEA's schedule: each spatial
// step's DWC output streams through the intermediate buffer straight into
// the PWC engine, so the two engines overlap and the intermediate map never
// leaves the chip. The serialized baseline schedules the same datapath
// differently (baseline/serialized_accelerator.hpp).
//
// Contract, enforced by tests:
//   1. bit-exactness: run_layer output == nn::QuantDscLayer::forward,
//   2. cycle-exactness: measured LayerTiming == TimingModel (Eq. 1/2),
//   3. resource-exactness: no buffer access beyond modeled capacity.
//
// Tile parallelism: the buffer tiles of one layer are independent (each
// owns a disjoint output region and reads only shared immutable inputs),
// so run_layer can execute them on several host threads. Every worker
// carries a private datapath (its psum block included) and counters
// (detail::TileWorker), processes a contiguous chunk of the tile list, and
// its measurement partial (core::LayerPartial) is merged back in tile
// order - results are bit-identical to the serial reference at every
// parallelism (tests/tile_parallel_test.cpp).
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "arch/ext_memory.hpp"
#include "core/backend.hpp"
#include "core/config.hpp"
#include "core/run_result.hpp"
#include "core/tiler.hpp"
#include "core/timing.hpp"
#include "nn/layers.hpp"
#include "nn/mobilenet.hpp"

namespace edea::core {

namespace detail {
class TileWorker;  // per-worker datapath/buffer/counter state (accelerator.cpp)
}

/// The "edea" entry of the backend registry (core/backend.hpp).
class EdeaAccelerator final : public AcceleratorBackend {
 public:
  explicit EdeaAccelerator(EdeaConfig config = EdeaConfig::paper());
  ~EdeaAccelerator() override;

  EdeaAccelerator(const EdeaAccelerator&) = delete;
  EdeaAccelerator& operator=(const EdeaAccelerator&) = delete;

  /// Runs one quantized DSC layer. `input` is the int8 ifmap [R][C][D].
  [[nodiscard]] LayerRunResult run_layer(const nn::QuantDscLayer& layer,
                                         const nn::Int8Tensor& input);

  /// Runs a stack of DSC layers back to back (e.g. all of MobileNetV1).
  /// Equivalent to run_network_batch(layers, input, 1).front().
  [[nodiscard]] NetworkRunResult run_network(
      const std::vector<nn::QuantDscLayer>& layers,
      const nn::Int8Tensor& input) override;

  /// Batched execution: all `batch` images share one worker set and run
  /// layer-major (every image runs layer i before any image runs layer
  /// i+1), each layer's output tensor feeding the image's next layer.
  /// Per-image results are bit-identical to `batch` standalone run_network
  /// calls; only peak_arena_bytes differs: it is the peak of one
  /// nn::MemoryPlanner plan of every image's activation chain, so it
  /// grows with the batch.
  [[nodiscard]] std::vector<NetworkRunResult> run_network_batch(
      const std::vector<nn::QuantDscLayer>& layers,
      const nn::Int8Tensor& input, int batch) override;

  /// Sets the tile-level parallelism of run_layer: 1 (the default) is the
  /// strictly serial reference path; p > 1 splits each layer's buffer
  /// tiles over at most p workers sharing util::ThreadPool::shared() (at
  /// most p-1 helper tasks are queued; the calling thread is worker 0).
  /// Results are bit-identical for every p. Zero and negative values are
  /// a PreconditionError: there is no "auto" policy at this level - tile
  /// workers compete with sweep-level jobs for the same pool, so callers
  /// must state the per-layer width explicitly.
  void set_tile_parallelism(int parallelism) override;
  [[nodiscard]] int tile_parallelism() const noexcept override {
    return tile_parallelism_;
  }

  /// Pins every worker's engines (current and future) to `policy`.
  /// Results and counters are bit-identical either way; this is the
  /// specialized-vs-generic A/B lever (tests/differential_test.cpp).
  void set_kernel_policy(KernelPolicy policy) override;

  [[nodiscard]] const EdeaConfig& config() const noexcept override {
    return config_;
  }

  [[nodiscard]] std::string_view backend_id() const noexcept override {
    return kDefaultBackendId;  // "edea"
  }

 private:
  /// Returns worker `index`, growing the pool as needed. Never call from
  /// inside the tile-parallel region: workers are materialized up front on
  /// the calling thread, then only indexed concurrently.
  detail::TileWorker& worker(std::size_t index);

  EdeaConfig config_;
  int tile_parallelism_ = 1;
  KernelPolicy kernel_policy_ = KernelPolicy::kAuto;
  std::vector<std::unique_ptr<detail::TileWorker>> workers_;
};

}  // namespace edea::core
