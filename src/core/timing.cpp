#include "core/timing.hpp"

#include <algorithm>

#include "core/tiler.hpp"
#include "util/check.hpp"

namespace edea::core {

std::int64_t TimingModel::tile_pass_cycles(int tile_rows, int tile_cols,
                                           int out_channels) const {
  EDEA_REQUIRE(tile_rows > 0 && tile_cols > 0 && out_channels > 0,
               "tile extents must be positive");
  const std::int64_t spatial_steps =
      ceil_div(tile_rows, config_.tn) * ceil_div(tile_cols, config_.tm);
  const std::int64_t kernel_groups = ceil_div(out_channels, config_.tk);
  return config_.init_cycles + spatial_steps * kernel_groups;
}

std::int64_t TimingModel::buffer_tile_count(
    const nn::DscLayerSpec& spec) const {
  const int tile_out =
      config_.effective_max_tile_out(spec.stride, spec.dilation);
  EDEA_REQUIRE(tile_out > 0, "dilation overflows the DWC ifmap buffer");
  return ceil_div(spec.out_rows(), tile_out) *
         ceil_div(spec.out_cols(), tile_out);
}

LayerTiming TimingModel::layer_timing(const nn::DscLayerSpec& spec) const {
  const int N = spec.out_rows();
  const int M = spec.out_cols();
  EDEA_REQUIRE(N > 0 && M > 0, "layer output must be non-empty");

  // Same tile extent the Tiler walks: shrunk below max_tile_out when
  // dilation inflates the input halo past the ifmap buffer.
  const int tile_out =
      config_.effective_max_tile_out(spec.stride, spec.dilation);
  EDEA_REQUIRE(tile_out > 0, "dilation overflows the DWC ifmap buffer");
  // Slices cover the intermediate (post-depth-multiplier) channel axis.
  const std::int64_t slices =
      ceil_div(spec.intermediate_channels(), config_.td);
  const std::int64_t kernel_groups = ceil_div(spec.out_channels, config_.tk);

  LayerTiming t;
  // Iterate buffer tiles explicitly so ragged edges (output extents that
  // are not multiples of the tile extent) are counted exactly; MobileNetV1
  // always tiles evenly but the accelerator itself is general.
  for (int row0 = 0; row0 < N; row0 += tile_out) {
    const int tile_rows = std::min(tile_out, N - row0);
    for (int col0 = 0; col0 < M; col0 += tile_out) {
      const int tile_cols = std::min(tile_out, M - col0);
      const std::int64_t spatial_steps =
          ceil_div(tile_rows, config_.tn) * ceil_div(tile_cols, config_.tm);
      t.passes += slices;
      t.init_cycles += slices * config_.init_cycles;
      t.compute_cycles += slices * spatial_steps * kernel_groups;
      t.dwc_active_cycles += slices * spatial_steps;
      t.pwc_active_cycles += slices * spatial_steps * kernel_groups;
    }
  }
  t.total_cycles = t.init_cycles + t.compute_cycles;
  return t;
}

LayerTiming TimingModel::serialized_layer_timing(
    const nn::DscLayerSpec& spec) const {
  const LayerTiming eq2 = layer_timing(spec);
  LayerTiming t;
  t.dwc_active_cycles = eq2.dwc_active_cycles;
  t.pwc_active_cycles = eq2.pwc_active_cycles;
  t.total_cycles =
      eq2.total_cycles + eq2.init_cycles + eq2.dwc_active_cycles;
  t.compute_cycles = t.total_cycles;
  return t;
}

std::vector<PipelineEvent> TimingModel::first_pass_events(
    const nn::DscLayerSpec& spec) const {
  // The first pass is tile (0,0)'s slice 0; each of its steps starts with
  // kernel group 0.
  const Tiler tiler(config_, spec);
  const BufferTile& tile = tiler.tiles().front();
  const int channels = tiler.slices().front().channels;
  const auto groups = static_cast<std::int64_t>(tiler.kernel_groups().size());
  std::vector<PipelineEvent> events = {
      {0, "DWC Input Ifmap & Weight", "tile(0,0) slice 0"},
      {0, "PWC Input Weight",
       "slice weights for " + std::to_string(spec.out_channels) + " kernels"},
      {2, "DWC Input offline Data", std::to_string(channels) + " (k,b) pairs"},
  };
  const int steps_per_row = tile.step_cols(config_) / config_.tm;
  const std::int64_t steps =
      std::min<std::int64_t>(tile.spatial_steps(config_), 4);
  for (int s = 0; s < steps; ++s) {
    const std::int64_t cycle = config_.init_cycles + s * groups;
    events.push_back({cycle, "DWC Engine Process",
                      "step (" + std::to_string(s / steps_per_row) + "," +
                          std::to_string(s % steps_per_row) + ")"});
    events.push_back(
        {cycle, "Non-Conv Unit Process",
         std::to_string(config_.tn * config_.tm * channels) + " values"});
    events.push_back(
        {cycle, "Write Intermediate Buffer", "half " + std::to_string(s % 2)});
    if (s < 2) events.push_back({cycle, "PWC Engine Process", "group k0=0"});
  }
  return events;
}

double TimingModel::layer_throughput_gops(const nn::DscLayerSpec& spec) const {
  const LayerTiming t = layer_timing(spec);
  const double ops = static_cast<double>(spec.total_ops());
  // ops / ns = GOPS when the clock is in GHz (cycles / GHz = ns).
  return ops / t.time_ns(config_.clock_ghz);
}

}  // namespace edea::core
