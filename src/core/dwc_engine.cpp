#include "core/dwc_engine.hpp"

#include "util/check.hpp"

namespace edea::core {

DwcEngine::DwcEngine(const EdeaConfig& config)
    : config_(config.validated()), tree_(config_.kernel * config_.kernel) {}

void DwcEngine::load_weights(const DwcWeights& weights) {
  EDEA_REQUIRE(weights.channels() > 0 && weights.channels() <= config_.td,
               "DWC weight slice channel count must be in (0, Td]");
  EDEA_REQUIRE(weights.taps() == config_.kernel * config_.kernel,
               "DWC weight slice size mismatch");
  weights_ = &weights;
}

void DwcEngine::run_block(std::span<const std::int8_t> window, int rows,
                          int cols, int stride, int dilation,
                          DwcBlockOutput& out,
                          arch::MacActivity& activity) const {
  EDEA_REQUIRE(stride == 1 || stride == 2, "DWC stride must be 1 or 2");
  EDEA_REQUIRE(dilation >= 1, "DWC dilation must be >= 1");
  EDEA_REQUIRE(weights_ != nullptr, "DWC weights not loaded");
  EDEA_REQUIRE(rows > 0 && cols > 0 && rows % config_.tn == 0 &&
                   cols % config_.tm == 0,
               "a DWC block must be a whole number of Tn x Tm steps");
  const int k = config_.kernel;
  const int channels = weights_->channels();
  const int window_rows = config_.dwc_input_extent(rows, stride, dilation);
  const int window_cols = config_.dwc_input_extent(cols, stride, dilation);
  EDEA_REQUIRE(window.size() == static_cast<std::size_t>(window_rows) *
                                    static_cast<std::size_t>(window_cols) *
                                    static_cast<std::size_t>(channels),
               "window must span the block's taps at this stride and "
               "dilation over the loaded channels");

  out.rows = rows;
  out.cols = cols;
  out.channels = channels;
  out.acc.resize(static_cast<std::size_t>(rows) *
                 static_cast<std::size_t>(cols) *
                 static_cast<std::size_t>(channels));

  DwcKernelArgs args;
  args.window = window.data();
  args.window_cols = window_cols;
  args.channels = channels;
  args.weights = weights_->weights().data();
  args.weights_t = weights_->weights_t().data();
  args.rows = rows;
  args.cols = cols;
  args.kernel = k;
  args.stride = stride;
  args.dilation = dilation;
  args.acc = out.acc.data();
  args.activity = &activity;
  dwc_kernel_for(k, stride, dilation, policy_)(args);

  // Lanes belonging to channels absent from this slice idle every cycle
  // (never happens for MobileNetV1, whose channel counts are multiples of
  // Td, but the engine is general). Idle accounting lives above the kernel
  // boundary so every kernel sees the same contract.
  activity.lane_cycles +=
      std::int64_t{config_.td - channels} * rows * cols * k * k;
}

}  // namespace edea::core
