#include "core/accelerator.hpp"

#include <algorithm>
#include <span>

#include "core/dsc_datapath.hpp"
#include "nn/arena.hpp"
#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace edea::core {

using arch::TrafficClass;

namespace {

/// The positions `steps` spans along one axis keep inside [lo, hi): span s
/// covers [first + s * pitch, first + s * pitch + extent). Per-step
/// gathers over a rectangle of bounds read the product of a row sum and a
/// column sum, which is how the schedule tallies them in bulk.
std::int64_t clipped_span_sum(int first, int pitch, int extent, int steps,
                              int lo, int hi) {
  std::int64_t sum = 0;
  for (int s = 0; s < steps; ++s) {
    const int begin = first + s * pitch;
    sum += std::max(0, std::min(begin + extent, hi) - std::max(begin, lo));
  }
  return sum;
}

}  // namespace

namespace detail {

/// One tile worker: a private datapath (engines, Non-Conv units, the
/// tile's psum block) executing a contiguous chunk of a layer's buffer
/// tiles. Workers model the same silicon executing different tiles; this
/// is sound because tiles share nothing mutable - each owns a disjoint
/// output region, and the layer/input operands are read-only. What the
/// worker adds to the shared datapath is EDEA's schedule: every (tile,
/// slice) pass streams each spatial step's DWC output through the
/// double-buffered intermediate buffer into the PWC engine. The buffers'
/// contents live in the datapath (run_layer checks their capacities once
/// per layer); their traffic, and everything else the worker measures,
/// lands in its LayerPartial, merged by the accelerator in tile order
/// once all chunks finish.
class TileWorker {
 public:
  explicit TileWorker(const EdeaConfig& config)
      : config_(config), datapath_(config) {}

  /// Binds the layer and resets every per-layer tally. Called for each
  /// participating worker before the tile chunks are dispatched.
  void begin_layer(const nn::QuantDscLayer& layer) {
    partial_ = LayerPartial{};
    datapath_.begin_layer(layer);
  }

  /// Executes one buffer tile end to end: every channel-slice pass, then
  /// the write-back of the tile's output region.
  void run_tile(const nn::QuantDscLayer& layer, const nn::Int8Tensor& input,
                const BufferTile& tile,
                const std::vector<ChannelSlice>& slices,
                std::int64_t group_count, nn::Int8Tensor& output) {
    const int K = layer.spec.out_channels;
    const std::int64_t pixels = std::int64_t{tile.out_rows} * tile.out_cols;
    bool first_slice = true;
    for (const ChannelSlice& slice : slices) {
      run_pass(layer.spec, input, tile, slice, first_slice, group_count);
      first_slice = false;
    }

    // Write-back: accumulator -> Non-Conv (per-K params) -> output. Touches
    // only this tile's (disjoint) output region, so concurrent write-backs
    // from different workers never alias. The per-output-channel
    // parameters stream from external memory once per tile.
    datapath_.write_back(tile, output);
    partial_.external.record_read(TrafficClass::kParameter,
                                  std::int64_t{2} * K);
    partial_.buffers.accumulator.record_read(4 * pixels * K, pixels * K);
    partial_.external.record_write(TrafficClass::kActivation, pixels * K);
  }

  /// Folds the datapath's tallies into the partial and returns it.
  [[nodiscard]] const LayerPartial& finish_layer() {
    datapath_.fold_tallies(partial_);
    return partial_;
  }

  /// Pins both engines' kernel selection (the kForceGeneric A/B lever).
  void set_kernel_policy(KernelPolicy policy) noexcept {
    datapath_.set_kernel_policy(policy);
  }

 private:
  /// Executes one (buffer tile, channel slice) pass, accumulating into the
  /// tile's psum block. The datapath runs the pass in one call per
  /// engine; the silicon runs it one spatial step per cycle (Fig. 7), and
  /// every tally below is that per-step schedule summed in bulk.
  void run_pass(const nn::DscLayerSpec& spec, const nn::Int8Tensor& input,
                const BufferTile& tile, const ChannelSlice& slice,
                bool first_slice, std::int64_t group_count) {
    const int mult = spec.depth_multiplier;
    const int channels = slice.channels;
    const std::int64_t steps = tile.spatial_steps(config_);

    // ---- initiation (Fig. 7): fills buffers and the pipeline. ----
    // The valid part of the tile's input region -> ifmap buffer. Only
    // *distinct* input channels are staged: with depth multiplier m the
    // slice's intermediate channels [c0, c0+n) all read input channels
    // [c0/m, (c0+n-1)/m], so that smaller range is what the SRAM holds and
    // what external activation traffic pays for. Halo positions beyond the
    // image are staged as the zero padding value, not fetched. The host
    // stages the region straight into the DWC's pass block (dwc_pass
    // below), padded to whole steps with the multiplier's lanes mapped.
    const int in_count =
        (slice.channel0 + channels - 1) / mult - slice.channel0 / mult + 1;
    const std::int64_t fetched =
        tile.valid_input_elements(input.dim(0), input.dim(1)) * in_count;
    partial_.external.record_read(TrafficClass::kActivation, fetched);
    partial_.buffers.dwc_ifmap.record_write(fetched, fetched);

    // DWC kernel slice (through the weight buffer) -> engine registers,
    // and the slice's Non-Conv (k, b) pairs (through the offline buffer).
    const std::int64_t dwc_weights = datapath_.load_dwc_slice(slice);
    partial_.external.record_read(TrafficClass::kWeight, dwc_weights);
    partial_.buffers.dwc_weight.record_write(dwc_weights, dwc_weights);
    partial_.buffers.dwc_weight.record_read(dwc_weights, dwc_weights);
    partial_.dataflow.dwc_weight_elements += dwc_weights;
    partial_.external.record_read(TrafficClass::kParameter,
                                  std::int64_t{2} * channels);

    // PWC weights for (slice, all kernels) -> PWC weight buffer.
    const std::int64_t pwc_weights = datapath_.load_pwc_slice(slice);
    partial_.external.record_read(TrafficClass::kWeight, pwc_weights);
    partial_.buffers.pwc_weight.record_write(pwc_weights, pwc_weights);
    partial_.dataflow.pwc_weight_elements += pwc_weights;

    // ---- steady state: one (spatial step, kernel group) per cycle. ----
    // Each step's DWC output passes through the Non-Conv transfer into
    // one half of the (double-buffered) intermediate buffer, alternating
    // halves, and the PWC engine drains it one kernel group per cycle.
    const Int8MapView region = Int8MapView::whole(input).clipped(
        tile.in_row0, tile.in_col0, tile.in_rows, tile.in_cols);
    const std::span<const std::int8_t> block =
        datapath_.dwc_pass(region, tile);
    const std::int64_t step_block =
        std::int64_t{config_.tn} * config_.tm * channels;
    const auto entries = static_cast<std::int64_t>(
        datapath_.pwc_pass(block, tile, first_slice).size());

    // Each step's window reads its in-region positions from the ifmap
    // buffer; windows overlap, so the count is per step, summed.
    const int extent = config_.dwc_window_extent(spec.stride, spec.dilation);
    const std::int64_t read =
        clipped_span_sum(tile.in_row0, config_.tn * spec.stride, extent,
                         tile.step_rows(config_) / config_.tn, region.row_lo,
                         region.row_hi) *
        clipped_span_sum(tile.in_col0, config_.tm * spec.stride, extent,
                         tile.step_cols(config_) / config_.tm, region.col_lo,
                         region.col_hi) *
        channels;
    partial_.buffers.dwc_ifmap.record_read(read, read);
    partial_.dataflow.dwc_window_elements +=
        std::int64_t{extent} * extent * channels * steps;
    partial_.timing.dwc_active_cycles += steps;
    partial_.buffers.offline.record_read(std::int64_t{2} * channels * steps,
                                         std::int64_t{2} * channels * steps);
    partial_.buffers.intermediate.record_write(step_block * steps,
                                               step_block * steps);

    // Every kernel group reads the step's activations and its weights
    // from the buffers.
    const std::int64_t group_steps = group_count * steps;
    partial_.timing.pwc_active_cycles += group_steps;
    partial_.buffers.intermediate.record_read(step_block * group_steps,
                                              step_block * group_steps);
    partial_.dataflow.pwc_activation_elements += step_block * group_steps;
    partial_.buffers.pwc_weight.record_read(pwc_weights * steps,
                                            pwc_weights * steps);
    if (!first_slice) {
      partial_.buffers.accumulator.record_read(4 * entries, entries);
    }
    partial_.buffers.accumulator.record_write(4 * entries, entries);

    const std::int64_t cycles = config_.init_cycles + group_steps;
    partial_.timing.passes += 1;
    partial_.timing.init_cycles += config_.init_cycles;
    partial_.timing.compute_cycles += group_steps;
    partial_.timing.total_cycles += cycles;
  }

  EdeaConfig config_;
  DscDatapath datapath_;
  LayerPartial partial_;
};

}  // namespace detail

EdeaAccelerator::EdeaAccelerator(EdeaConfig config) : config_(config) {
  config_.validate();
  // Worker 0 exists eagerly: it is the serial path.
  workers_.push_back(std::make_unique<detail::TileWorker>(config_));
}

EdeaAccelerator::~EdeaAccelerator() = default;

void EdeaAccelerator::set_tile_parallelism(int parallelism) {
  EDEA_REQUIRE(parallelism >= 1,
               "tile_parallelism must be >= 1 (1 = the serial reference "
               "path); got " +
                   std::to_string(parallelism));
  tile_parallelism_ = parallelism;
}

void EdeaAccelerator::set_kernel_policy(KernelPolicy policy) {
  kernel_policy_ = policy;
  for (auto& w : workers_) w->set_kernel_policy(policy);
}

detail::TileWorker& EdeaAccelerator::worker(std::size_t index) {
  while (workers_.size() <= index) {
    workers_.push_back(std::make_unique<detail::TileWorker>(config_));
    workers_.back()->set_kernel_policy(kernel_policy_);
  }
  return *workers_[index];
}

LayerRunResult EdeaAccelerator::run_layer(const nn::QuantDscLayer& layer,
                                          const nn::Int8Tensor& input) {
  const nn::DscLayerSpec& spec = layer.spec;
  EDEA_REQUIRE(input.rank() == 3, "layer input must be [R][C][D]");
  EDEA_REQUIRE(input.dim(0) == spec.in_rows && input.dim(1) == spec.in_cols &&
                   input.dim(2) == spec.in_channels,
               "layer input shape mismatch: got " + input.shape().to_string());
  // The engines are wired for the configured kernel extent (the silicon's
  // multiplier/tree topology is fixed); a mismatched layer cannot be mapped.
  EDEA_REQUIRE(spec.kernel == config_.kernel,
               "layer kernel " + std::to_string(spec.kernel) +
                   " does not match the engine's " +
                   std::to_string(config_.kernel) + "x" +
                   std::to_string(config_.kernel) + " datapath");
  EDEA_REQUIRE(spec.stride == 1 || spec.stride == 2,
               "the DWC engine supports strides 1 and 2");

  Tiler tiler(config_, spec);
  // Hardware capacity checks: the tiler must have produced tiles that fit.
  // (Every worker's buffers are built from config_, so checking the
  // configured capacities covers all of them.)
  EDEA_ASSERT(tiler.max_tile_input_bytes() <= config_.dwc_ifmap_buffer_bytes(),
              "ifmap tile exceeds buffer capacity");
  // Each half of the intermediate buffer holds one step's Tn x Tm x Td
  // block: the DWC fills one while the PWC drains the other.
  EDEA_ASSERT(std::int64_t{2} * config_.tn * config_.tm * config_.td <=
                  config_.intermediate_buffer_bytes(),
              "intermediate buffer cannot hold two steps");
  if (tiler.max_tile_psum_entries() * 4 > config_.accumulator_buffer_bytes()) {
    throw ResourceError(
        "PWC accumulator cannot hold a " +
        std::to_string(tiler.max_tile_psum_entries()) +
        "-entry output tile; layer " + spec.to_string() +
        " is outside the modeled configuration");
  }
  if (std::int64_t{spec.out_channels} * config_.td >
      config_.pwc_weight_buffer_bytes()) {
    throw ResourceError("PWC weight buffer cannot hold K=" +
                        std::to_string(spec.out_channels) + " kernel slices");
  }

  LayerRunResult result;
  result.spec = spec;
  result.dwc_input_zero_fraction = input.zero_fraction();
  result.output = nn::Int8Tensor(
      nn::Shape{spec.out_rows(), spec.out_cols(), spec.out_channels});

  const std::vector<BufferTile>& tiles = tiler.tiles();
  const int chunks = static_cast<int>(std::min<std::size_t>(
      static_cast<std::size_t>(tile_parallelism_), tiles.size()));
  const auto group_count =
      static_cast<std::int64_t>(tiler.kernel_groups().size());

  // Workers are materialized and reset on the calling thread; the parallel
  // region below only indexes them.
  for (int w = 0; w < chunks; ++w) {
    worker(static_cast<std::size_t>(w)).begin_layer(layer);
  }

  // One chunk of contiguous tiles per worker, dispatched over the shared
  // pool: at most chunks-1 helper tasks are queued and the calling thread
  // participates, so a sweep-level job running tile-parallel layers
  // borrows at most its stated tile budget from the process-wide pool.
  util::parallel_for(0, chunks, [&](std::int64_t w) {
    detail::TileWorker& tw = *workers_[static_cast<std::size_t>(w)];
    const auto [first, last] = tiler.tile_chunk(chunks, static_cast<int>(w));
    for (std::size_t t = first; t < last; ++t) {
      tw.run_tile(layer, input, tiles[t], tiler.slices(), group_count,
                  result.output);
    }
  });

  // Fixed reduction order: chunk w covers the w-th contiguous run of
  // tiles, so merging partials by ascending w reproduces the serial tile
  // order exactly. (Every field is an integer sum or max, so the merged
  // tally is bit-identical to the serial one - the invariant the
  // tile_parallel property tests pin down.) They merge straight into the
  // result's counters.
  LayerPartial& merged = result;
  for (int w = 0; w < chunks; ++w) {
    merged += workers_[static_cast<std::size_t>(w)]->finish_layer();
  }
  result.set_pwc_input_zero_fraction();

  // Cross-check against the analytic model (Eq. 1/2) - a wrong cycle count
  // is a simulator bug, never a tolerable approximation.
  EDEA_ASSERT(result.timing == TimingModel(config_).layer_timing(spec),
              "cycle-accurate simulation diverged from Eq. 1/2 for layer " +
                  spec.to_string());
  return result;
}

NetworkRunResult EdeaAccelerator::run_network(
    const std::vector<nn::QuantDscLayer>& layers,
    const nn::Int8Tensor& input) {
  return std::move(run_network_batch(layers, input, 1).front());
}

std::vector<NetworkRunResult> EdeaAccelerator::run_network_batch(
    const std::vector<nn::QuantDscLayer>& layers, const nn::Int8Tensor& input,
    int batch) {
  EDEA_REQUIRE(!layers.empty(), "network must have at least one layer");
  EDEA_REQUIRE(batch >= 1, "batch must be >= 1");

  // The reported peak: every image's input and activation chain, planned
  // together with consecutive layers ping-ponging (see nn/arena.hpp for
  // the step axis).
  nn::MemoryPlanner planner;
  nn::plan_network_activations(planner, layers, input.shape(), batch);
  const std::size_t peak = planner.plan().peak_bytes;

  // Layer-major execution (the order the liveness intervals encode): every
  // image runs layer i before any image runs layer i+1, reading its own
  // layer i-1 output.
  std::vector<NetworkRunResult> results(static_cast<std::size_t>(batch));
  for (NetworkRunResult& net : results) net.layers.reserve(layers.size());
  for (const nn::QuantDscLayer& layer : layers) {
    for (NetworkRunResult& net : results) {
      net.layers.push_back(run_layer(
          layer, net.layers.empty() ? input : net.layers.back().output));
    }
  }

  for (NetworkRunResult& net : results) {
    net.output = net.layers.back().output;
    net.peak_arena_bytes = peak;
  }
  return results;
}

}  // namespace edea::core
