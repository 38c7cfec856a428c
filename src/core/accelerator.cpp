#include "core/accelerator.hpp"

#include <algorithm>
#include <span>

#include "arch/sram.hpp"
#include "core/dsc_datapath.hpp"
#include "nn/arena.hpp"
#include "util/check.hpp"
#include "util/logging.hpp"
#include "util/thread_pool.hpp"

namespace edea::core {

using arch::TrafficClass;

namespace detail {

/// One tile worker: a private datapath (engines, Non-Conv units) and SRAM
/// buffers executing a contiguous chunk of a layer's buffer tiles. Workers
/// model the same silicon executing different tiles; this is sound because
/// tiles share nothing mutable - each owns a disjoint output region, and
/// the layer/input operands are read-only. What the worker adds to the
/// shared datapath is EDEA's schedule: every (tile, slice) pass streams
/// each spatial step's DWC output through the double-buffered
/// intermediate buffer into the PWC engine. Everything it measures lands
/// in its LayerPartial, merged by the accelerator in tile order once all
/// chunks finish.
class TileWorker {
 public:
  /// Scratch blob ids inside the worker's arena; add order below fixes them.
  enum ScratchBlob : nn::BlobId {
    kIfmap = 0,
    kIntermediate,
    kPwcWeight,
    kAccumulator,
  };

  /// The SRAM models the engines read are live for the whole of every
  /// layer, so the planner stacks them; what it buys is ONE contiguous
  /// allocation per worker (64-byte-aligned slices, no per-buffer heap
  /// blocks) and the same planned-offset discipline the activation arena
  /// uses. The DWC weight and offline buffers hold nothing an engine reads
  /// back (the slice goes straight into engine registers and Non-Conv
  /// units), so only their traffic is modeled.
  static nn::Arena plan_scratch(const EdeaConfig& config) {
    nn::MemoryPlanner planner;
    const auto blob = [&](const char* name, std::int64_t bytes) {
      return planner.add_blob(name, static_cast<std::size_t>(bytes), 0, 0);
    };
    blob("dwc_ifmap", config.dwc_ifmap_buffer_bytes());
    blob("intermediate", config.intermediate_buffer_bytes());
    blob("pwc_weight", config.pwc_weight_buffer_bytes());
    blob("accumulator", config.accumulator_buffer_bytes());
    return nn::Arena(planner.plan());
  }

  explicit TileWorker(const EdeaConfig& config)
      : config_(config),
        datapath_(config),
        scratch_(plan_scratch(config)),
        ifmap_buffer_("dwc_ifmap", scratch_.bytes(kIfmap),
                      config.dwc_ifmap_buffer_bytes()),
        intermediate_buffer_("intermediate", scratch_.bytes(kIntermediate),
                             config.intermediate_buffer_bytes()),
        pwc_weight_buffer_("pwc_weight", scratch_.bytes(kPwcWeight),
                           config.pwc_weight_buffer_bytes()),
        accumulator_("accumulator", scratch_.bytes(kAccumulator),
                     config.accumulator_buffer_bytes()) {
    config_.validate();
  }

  /// Binds the layer and resets every per-layer tally. Called for each
  /// participating worker before the tile chunks are dispatched.
  void begin_layer(const nn::QuantDscLayer& layer) {
    partial_ = LayerPartial{};
    datapath_.begin_layer(layer);
  }

  /// Executes one buffer tile end to end: every channel-slice pass, then
  /// the write-back of the tile's output region. `trace` must be non-null
  /// only for the globally first tile of a serially executed layer.
  void run_tile(const nn::QuantDscLayer& layer, const nn::Int8Tensor& input,
                const BufferTile& tile,
                const std::vector<ChannelSlice>& slices,
                const std::vector<KernelGroup>& groups,
                nn::Int8Tensor& output, PipelineTrace* trace) {
    const int K = layer.spec.out_channels;
    const std::int64_t pixels = std::int64_t{tile.out_rows} * tile.out_cols;
    const std::span<std::int32_t> psum =
        accumulator_.span<std::int32_t>(0, pixels * K);
    bool first_slice = true;
    for (const ChannelSlice& slice : slices) {
      // Only the very first pass of the traced tile records (Fig. 7).
      if (trace != nullptr) trace->armed = first_slice;
      run_pass(layer.spec, input, tile, slice, first_slice, groups, psum,
               trace);
      if (trace != nullptr) trace->armed = false;
      first_slice = false;
    }

    // Write-back: accumulator -> Non-Conv (per-K params) -> output. Touches
    // only this tile's (disjoint) output region, so concurrent write-backs
    // from different workers never alias. The per-output-channel
    // parameters stream from external memory once per tile.
    datapath_.write_back(psum, tile, output);
    partial_.external.record_read(TrafficClass::kParameter,
                                  std::int64_t{2} * K);
    partial_.buffers.accumulator.record_read(4 * pixels * K, pixels * K);
    partial_.external.record_write(TrafficClass::kActivation, pixels * K);
  }

  /// Folds the datapath's activity into the partial and returns it.
  [[nodiscard]] const LayerPartial& finish_layer() {
    partial_.dwc_activity = datapath_.dwc_activity();
    partial_.pwc_activity = datapath_.pwc_activity();
    partial_.nonconv_transfer_ops = datapath_.transfer_ops();
    partial_.nonconv_writeback_ops = datapath_.writeback_ops();
    partial_.max_abs_psum = datapath_.max_abs_psum();
    return partial_;
  }

  /// Pins both engines' kernel selection (the kForceGeneric A/B lever).
  void set_kernel_policy(KernelPolicy policy) noexcept {
    datapath_.set_kernel_policy(policy);
  }

 private:
  /// Executes one (buffer tile, channel slice) pass, accumulating into the
  /// tile's `psum` block.
  void run_pass(const nn::DscLayerSpec& spec, const nn::Int8Tensor& input,
                const BufferTile& tile, const ChannelSlice& slice,
                bool first_slice, const std::vector<KernelGroup>& groups,
                std::span<std::int32_t> psum, PipelineTrace* trace) {
    const int K = spec.out_channels;
    const int mult = spec.depth_multiplier;
    std::int64_t cycle = 0;

    // ---- initiation (Fig. 7): fills buffers and the pipeline. ----
    if (trace != nullptr) {
      trace->emit(cycle, "DWC Input Ifmap & Weight",
                  "tile(" + std::to_string(tile.out_row0) + "," +
                      std::to_string(tile.out_col0) + ") slice " +
                      std::to_string(slice.channel0 / config_.td));
      trace->emit(cycle, "PWC Input Weight",
                  "slice weights for " + std::to_string(K) + " kernels");
      trace->emit(2, "DWC Input offline Data",
                  std::to_string(slice.channels) + " (k,b) pairs");
    }

    // The valid part of the tile's input region -> ifmap buffer. Only
    // *distinct* input channels are staged: with depth multiplier m the
    // slice's intermediate channels [c0, c0+n) all read input channels
    // [c0/m, (c0+n-1)/m], so that smaller range is what the SRAM holds and
    // what external activation traffic pays for. Halo positions beyond the
    // image are staged as the zero padding value, not fetched.
    const int in0 = slice.channel0 / mult;
    const int in_count = (slice.channel0 + slice.channels - 1) / mult - in0 + 1;
    const std::span<std::int8_t> staged = ifmap_buffer_.span<std::int8_t>(
        0, std::int64_t{tile.in_rows} * tile.in_cols * in_count);
    const std::int64_t fetched =
        gather_block(Int8MapView::whole(input), tile.in_row0, tile.in_col0,
                     tile.in_rows, tile.in_cols, in0, in_count, 1, staged);
    partial_.external.record_read(TrafficClass::kActivation, fetched);
    partial_.buffers.dwc_ifmap.record_write(fetched, fetched);
    // Windows read the staged region only: taps outside it are padding.
    const Int8MapView region{staged.data(), tile.in_row0, tile.in_col0,
                             tile.in_rows,  tile.in_cols, in0,
                             in_count,      input.dim(0), input.dim(1)};

    // DWC kernel slice (through the weight buffer) -> engine registers,
    // and the slice's Non-Conv (k, b) pairs (through the offline buffer).
    const std::int64_t dwc_weights = datapath_.load_dwc_slice(slice);
    partial_.external.record_read(TrafficClass::kWeight, dwc_weights);
    partial_.buffers.dwc_weight.record_write(dwc_weights, dwc_weights);
    partial_.buffers.dwc_weight.record_read(dwc_weights, dwc_weights);
    partial_.dataflow.dwc_weight_elements += dwc_weights;
    partial_.external.record_read(TrafficClass::kParameter,
                                  std::int64_t{2} * slice.channels);

    // PWC weights for (slice, all kernels) -> PWC weight buffer.
    const std::int64_t pwc_weights = std::int64_t{K} * slice.channels;
    datapath_.load_pwc_slice(
        slice, pwc_weight_buffer_.span<std::int8_t>(0, pwc_weights));
    partial_.external.record_read(TrafficClass::kWeight, pwc_weights);
    partial_.buffers.pwc_weight.record_write(pwc_weights, pwc_weights);
    partial_.dataflow.pwc_weight_elements += pwc_weights;

    cycle += config_.init_cycles;

    // ---- steady state: one (spatial step, kernel group) per cycle. ----
    const int extent = config_.dwc_window_extent(spec.stride, spec.dilation);
    const std::int64_t window = std::int64_t{extent} * extent * slice.channels;
    const std::int64_t block =
        std::int64_t{config_.tn} * config_.tm * slice.channels;
    const auto group_count = static_cast<std::int64_t>(groups.size());
    const int steps_r = (tile.out_rows + config_.tn - 1) / config_.tn;
    const int steps_c = (tile.out_cols + config_.tm - 1) / config_.tm;
    int step_index = 0;

    for (int sy = 0; sy < steps_r; ++sy) {
      for (int sx = 0; sx < steps_c; ++sx, ++step_index) {
        const int out_r0 = tile.out_row0 + sy * config_.tn;  // global coords
        const int out_c0 = tile.out_col0 + sx * config_.tm;

        // DWC engine fires once for this spatial step; the Non-Conv
        // transfer writes its int8 block straight into one half of the
        // (double-buffered) intermediate buffer.
        const std::span<std::int8_t> half =
            intermediate_buffer_.span<std::int8_t>(
                (step_index % 2) * (config_.intermediate_buffer_bytes() / 2),
                block);
        const std::int64_t read =
            datapath_.dwc_step(region, out_r0, out_c0, half);
        partial_.buffers.dwc_ifmap.record_read(read, read);
        partial_.dataflow.dwc_window_elements += window;
        partial_.timing.dwc_active_cycles += 1;
        partial_.buffers.offline.record_read(std::int64_t{2} * slice.channels,
                                             std::int64_t{2} * slice.channels);
        partial_.buffers.intermediate.record_write(block, block);
        if (trace != nullptr && step_index < 4) {
          trace->emit(cycle, "DWC Engine Process",
                      "step (" + std::to_string(sy) + "," +
                          std::to_string(sx) + ")");
          trace->emit(cycle, "Non-Conv Unit Process",
                      std::to_string(block) + " values");
          trace->emit(cycle, "Write Intermediate Buffer",
                      "half " + std::to_string(step_index % 2));
        }
        count_pwc_input_zeros(half, tile, out_r0, out_c0, slice.channels);

        // PWC engine drains the kernel groups; one group per cycle, each
        // reading the step's activations and its weights from the buffers
        // (every tally below is summed over the groups).
        const std::int64_t entries =
            datapath_.pwc_step(half, tile, sy, sx, first_slice, psum);
        partial_.timing.pwc_active_cycles += group_count;
        partial_.buffers.intermediate.record_read(block * group_count,
                                                  block * group_count);
        partial_.dataflow.pwc_activation_elements += block * group_count;
        partial_.buffers.pwc_weight.record_read(pwc_weights, pwc_weights);
        if (!first_slice) {
          partial_.buffers.accumulator.record_read(4 * entries, entries);
        }
        partial_.buffers.accumulator.record_write(4 * entries, entries);
        if (trace != nullptr && step_index < 2) {
          trace->emit(cycle, "PWC Engine Process",
                      "group k0=" + std::to_string(groups.front().kernel0));
        }
        cycle += group_count;
      }
    }

    partial_.timing.passes += 1;
    partial_.timing.init_cycles += config_.init_cycles;
    partial_.timing.compute_cycles += cycle - config_.init_cycles;
    partial_.timing.total_cycles += cycle;
  }

  /// PWC-input sparsity statistics (Fig. 11), collected where the
  /// intermediate block is produced. Only spatial positions that belong to
  /// the real ofmap count (edge steps compute dummy lanes).
  void count_pwc_input_zeros(std::span<const std::int8_t> block,
                             const BufferTile& tile, int out_r0, int out_c0,
                             int channels) {
    const int rows =
        std::min(config_.tn, tile.out_row0 + tile.out_rows - out_r0);
    const int cols =
        std::min(config_.tm, tile.out_col0 + tile.out_cols - out_c0);
    for (int r = 0; r < rows; ++r) {
      const auto row = block.subspan(
          static_cast<std::size_t>(r * config_.tm * channels),
          static_cast<std::size_t>(cols * channels));
      partial_.pwc_input_zeros += std::count(row.begin(), row.end(), 0);
    }
    partial_.pwc_input_total += std::int64_t{rows} * cols * channels;
  }

  EdeaConfig config_;
  DscDatapath datapath_;

  /// One contiguous planned allocation backing the span-mode SRAM buffers
  /// below (declared first: the buffers slice into it).
  nn::Arena scratch_;

  arch::SramBuffer ifmap_buffer_;
  arch::SramBuffer intermediate_buffer_;
  arch::SramBuffer pwc_weight_buffer_;
  arch::SramBuffer accumulator_;

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
  nn::Int8Tensor output(
      nn::Shape{spec.out_rows(), spec.out_cols(), spec.out_channels});
  LayerRunResult result = run_layer_into(layer, input, output);
  result.output = std::move(output);
  return result;
}

LayerRunResult EdeaAccelerator::run_layer_into(const nn::QuantDscLayer& layer,
                                               const nn::Int8Tensor& input,
                                               nn::Int8Tensor& output) {
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

  const nn::Shape out_shape{spec.out_rows(), spec.out_cols(),
                            spec.out_channels};
  EDEA_REQUIRE(output.shape() == out_shape,
               "layer output shape mismatch: got " +
                   output.shape().to_string() + ", want " +
                   out_shape.to_string());

  LayerRunResult result;
  result.spec = spec;
  result.dwc_input_zero_fraction = input.zero_fraction();

  const std::vector<BufferTile>& tiles = tiler.tiles();
  // A trace pins the layer to the serial path: "the first pass" is only
  // well defined when tiles run in order on one thread.
  const int want = trace_ != nullptr ? 1 : tile_parallelism_;
  const int chunks = static_cast<int>(std::min<std::size_t>(
      static_cast<std::size_t>(want), tiles.size()));

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
      tw.run_tile(layer, input, tiles[t], tiler.slices(),
                  tiler.kernel_groups(), output,
                  (w == 0 && t == 0) ? trace_ : nullptr);
    }
  });

  // Fixed reduction order: chunk w covers the w-th contiguous run of
  // tiles, so merging partials by ascending w reproduces the serial tile
  // order exactly. (Every field is an integer sum or max, so the merged
  // tally is bit-identical to the serial one - the invariant the
  // tile_parallel property tests pin down.)
  LayerPartial merged;
  for (int w = 0; w < chunks; ++w) {
    merged += workers_[static_cast<std::size_t>(w)]->finish_layer();
  }

  result.timing = merged.timing;
  result.buffers = merged.buffers;
  result.dataflow = merged.dataflow;
  result.external = merged.external;
  result.dwc_activity = merged.dwc_activity;
  result.pwc_activity = merged.pwc_activity;
  result.nonconv_transfer_ops = merged.nonconv_transfer_ops;
  result.nonconv_writeback_ops = merged.nonconv_writeback_ops;
  result.max_abs_psum = merged.max_abs_psum;
  result.pwc_input_zero_fraction =
      merged.pwc_input_total == 0
          ? 0.0
          : static_cast<double>(merged.pwc_input_zeros) /
                static_cast<double>(merged.pwc_input_total);

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

  // One plan up front: every image's input plus every layer activation gets
  // an offset inside a single allocation, consecutive layers ping-ponging
  // via liveness-based reuse (see nn/arena.hpp for the step axis).
  nn::MemoryPlanner planner;
  const nn::NetworkActivationPlan acts =
      nn::plan_network_activations(planner, layers, input.shape(), batch);
  nn::Arena arena(planner.plan());

  std::vector<NetworkRunResult> results(static_cast<std::size_t>(batch));
  for (int b = 0; b < batch; ++b) {
    std::int8_t* dst = arena.slice<std::int8_t>(
        acts.inputs[static_cast<std::size_t>(b)], input.size());
    std::copy(input.data(), input.data() + input.size(), dst);
  }

  // Layer-major execution (the order the liveness intervals encode): every
  // image runs layer i before any image runs layer i+1.
  for (std::size_t i = 0; i < layers.size(); ++i) {
    const nn::DscLayerSpec& spec = layers[i].spec;
    const nn::Shape out_shape{spec.out_rows(), spec.out_cols(),
                              spec.out_channels};
    for (std::size_t b = 0; b < static_cast<std::size_t>(batch); ++b) {
      const nn::Shape in_shape =
          i == 0 ? input.shape()
                 : nn::Shape{layers[i - 1].spec.out_rows(),
                             layers[i - 1].spec.out_cols(),
                             layers[i - 1].spec.out_channels};
      const nn::BlobId in_id =
          i == 0 ? acts.inputs[b] : acts.outputs[b][i - 1];
      const nn::Int8Tensor in_view = nn::Int8Tensor::view(
          in_shape, arena.slice<std::int8_t>(in_id, in_shape.volume()));
      // Blob bytes may be reused from an expired activation; restore the
      // fresh-tensor zero state the standalone run_layer allocates.
      arena.clear(acts.outputs[b][i]);
      nn::Int8Tensor out_view = nn::Int8Tensor::view(
          out_shape,
          arena.slice<std::int8_t>(acts.outputs[b][i], out_shape.volume()));
      LayerRunResult r = run_layer_into(layers[i], in_view, out_view);
      r.output = out_view;  // deep copy: results outlive the arena
      results[b].layers.push_back(std::move(r));
    }
  }

  const std::size_t peak = arena.plan().peak_bytes;
  for (NetworkRunResult& net : results) {
    net.output = net.layers.back().output;
    net.peak_arena_bytes = peak;
  }
  return results;
}

}  // namespace edea::core
