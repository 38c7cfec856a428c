#include "baseline/serialized_accelerator.hpp"

#include <algorithm>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "core/timing.hpp"
#include "nn/arena.hpp"
#include "util/check.hpp"

namespace edea::baseline {

using arch::TrafficClass;
using core::BufferTile;
using core::ChannelSlice;
using core::Tiler;

SerializedDscAccelerator::SerializedDscAccelerator(core::EdeaConfig config)
    : config_(config.validated()), datapath_(config_) {}

void SerializedDscAccelerator::set_tile_parallelism(int parallelism) {
  EDEA_REQUIRE(parallelism >= 1,
               "tile_parallelism must be >= 1 (the serialized baseline "
               "executes tiles serially at every accepted width)");
  tile_parallelism_ = parallelism;
}

core::NetworkRunResult SerializedDscAccelerator::run_network(
    const std::vector<nn::QuantDscLayer>& layers,
    const nn::Int8Tensor& input) {
  EDEA_REQUIRE(!layers.empty(), "network must have at least one layer");

  // The reported peak: the activation chain (the same planner the "edea"
  // backend uses), plus this baseline's per-layer scratch - the
  // externally round-tripped intermediate map and the per-tile psum
  // block - each live only at its own layer step, so the planner folds
  // them into the reuse.
  nn::MemoryPlanner planner;
  nn::plan_network_activations(planner, layers, input.shape(), 1);
  for (std::size_t i = 0; i < layers.size(); ++i) {
    const nn::DscLayerSpec& spec = layers[i].spec;
    planner.add_blob(static_cast<std::size_t>(spec.out_rows()) *
                         static_cast<std::size_t>(spec.out_cols()) *
                         static_cast<std::size_t>(spec.intermediate_channels()),
                     i, i);
    planner.add_blob(static_cast<std::size_t>(
                         Tiler(config_, spec).max_tile_psum_entries()) *
                         sizeof(std::int32_t),
                     i, i);
  }

  core::NetworkRunResult net;
  net.layers.reserve(layers.size());
  for (const nn::QuantDscLayer& layer : layers) {
    net.layers.push_back(
        run_layer(layer,
                  net.layers.empty() ? input : net.layers.back().output)
            .common);
  }
  net.output = net.layers.back().output;
  net.peak_arena_bytes = planner.plan().peak_bytes;
  return net;
}

SerializedLayerResult SerializedDscAccelerator::run_layer(
    const nn::QuantDscLayer& layer, const nn::Int8Tensor& input) {
  const nn::DscLayerSpec& spec = layer.spec;
  EDEA_REQUIRE(input.rank() == 3 && input.dim(0) == spec.in_rows &&
                   input.dim(1) == spec.in_cols &&
                   input.dim(2) == spec.in_channels,
               "layer input shape mismatch");
  // Same mapping preconditions as the EDEA backend: the engines are wired
  // for the configured kernel extent, and a mismatched layer must fail
  // loudly here - indexing a 3x3 weight tensor with a 5x5 kernel would
  // read out of bounds, not simulate a different design.
  EDEA_REQUIRE(spec.kernel == config_.kernel,
               "layer kernel " + std::to_string(spec.kernel) +
                   " does not match the engine's " +
                   std::to_string(config_.kernel) + "x" +
                   std::to_string(config_.kernel) + " datapath");
  EDEA_REQUIRE(spec.stride == 1 || spec.stride == 2,
               "the DWC engine supports strides 1 and 2");

  Tiler tiler(config_, spec);
  datapath_.begin_layer(layer);

  const int N = spec.out_rows();
  const int M = spec.out_cols();
  const int K = spec.out_channels;
  SerializedLayerResult result;
  core::LayerRunResult& common = result.common;
  common.spec = spec;
  common.dwc_input_zero_fraction = input.zero_fraction();
  common.output = nn::Int8Tensor(nn::Shape{N, M, K});
  // The externally-stored DWC result (the round trip EDEA removes).
  nn::Int8Tensor intermediate(nn::Shape{N, M, spec.intermediate_channels()});

  const int mult = spec.depth_multiplier;

  // ---- Phase 1: depthwise convolution over the whole layer. ----
  const core::Int8MapView image = core::Int8MapView::whole(input);
  for (const BufferTile& tile : tiler.tiles()) {
    for (const ChannelSlice& slice : tiler.slices()) {
      // Ifmap + weight load (counted identically to EDEA's pass loads):
      // only the *distinct* input channels behind the slice's intermediate
      // channels are fetched when the depth multiplier folds lanes.
      const int in_count = (slice.channel0 + slice.channels - 1) / mult -
                           slice.channel0 / mult + 1;
      common.external.record_read(
          TrafficClass::kActivation,
          tile.valid_input_elements(spec.in_rows, spec.in_cols) * in_count);
      common.external.record_read(TrafficClass::kWeight,
                                  datapath_.load_dwc_slice(slice));
      common.external.record_read(TrafficClass::kParameter,
                                  std::int64_t{2} * slice.channels);
      result.dwc_phase_cycles += config_.init_cycles;

      // Every step of the pass at once; its windows read the whole image,
      // so dummy positions past the tile read the next tile's pixels.
      const std::span<const std::int8_t> block =
          datapath_.dwc_pass(image, tile);

      // Round trip: the tile's valid outputs go out to external memory.
      const auto lanes = static_cast<std::size_t>(slice.channels);
      const int pitch = tile.step_cols(config_);
      for (int r = 0; r < tile.out_rows; ++r) {
        for (int c = 0; c < tile.out_cols; ++c) {
          std::memcpy(&intermediate(tile.out_row0 + r, tile.out_col0 + c,
                                    slice.channel0),
                      &block[static_cast<std::size_t>(r * pitch + c) * lanes],
                      lanes);
        }
      }
      result.intermediate_external_writes +=
          std::int64_t{tile.out_rows} * tile.out_cols * slice.channels;
      const std::int64_t steps = tile.spatial_steps(config_);
      result.dwc_phase_cycles += steps;
      common.timing.dwc_active_cycles += steps;
    }
  }
  common.external.record_write(TrafficClass::kActivation,
                               result.intermediate_external_writes);

  // ---- Phase 2: pointwise convolution, reading the intermediate back. ----
  const core::Int8MapView inter = core::Int8MapView::whole(intermediate);
  // One pass's [step_rows][step_cols][slice channels] block.
  std::vector<std::int8_t> pass_block(static_cast<std::size_t>(
      config_.max_tile_out * config_.max_tile_out * config_.td));
  for (const BufferTile& tile : tiler.tiles()) {
    const int rows = tile.step_rows(config_);
    const int cols = tile.step_cols(config_);

    bool first_slice = true;
    for (const ChannelSlice& slice : tiler.slices()) {
      result.pwc_phase_cycles += config_.init_cycles;
      common.external.record_read(TrafficClass::kWeight,
                                  datapath_.load_pwc_slice(slice));

      // Each step fetches its whole Tn x Tm intermediate block once (held
      // in registers across kernel groups): every position inside the
      // map is read, the next tile's included. The steps partition the
      // pass block, so one gather reads what they read.
      const auto block = std::span(pass_block).first(
          static_cast<std::size_t>(rows * cols * slice.channels));
      result.intermediate_external_reads +=
          core::gather_block(inter, tile.out_row0, tile.out_col0, rows, cols,
                             slice.channel0, slice.channels, 1, block);
      datapath_.pwc_pass(block, tile, first_slice);
      const std::int64_t group_steps =
          tile.spatial_steps(config_) *
          static_cast<std::int64_t>(tiler.kernel_groups().size());
      result.pwc_phase_cycles += group_steps;
      common.timing.pwc_active_cycles += group_steps;
      first_slice = false;
    }

    // Write-back through the Non-Conv array (per-K parameters).
    datapath_.write_back(tile, common.output);
    common.external.record_read(TrafficClass::kParameter, std::int64_t{2} * K);
    common.external.record_write(
        TrafficClass::kActivation,
        std::int64_t{tile.out_rows} * tile.out_cols * K);
  }
  common.external.record_read(TrafficClass::kActivation,
                              result.intermediate_external_reads);

  common.timing.total_cycles = result.dwc_phase_cycles + result.pwc_phase_cycles;
  common.timing.compute_cycles = common.timing.total_cycles;
  datapath_.fold_tallies(common);
  common.set_pwc_input_zero_fraction();

  // Cross-check against the serialized schedule's closed form, as EDEA's
  // run_layer checks Eq. 1/2: a wrong cycle count is a simulator bug.
  EDEA_ASSERT(
      common.timing ==
          core::TimingModel(config_).serialized_layer_timing(spec),
      "serialized simulation diverged from its closed-form timing for "
      "layer " + spec.to_string());
  return result;
}

}  // namespace edea::baseline
