#include "core/dwc_engine.hpp"

#include "util/check.hpp"

namespace edea::core {

DwcEngine::DwcEngine(const EdeaConfig& config)
    : config_(config), tree_(config.kernel * config.kernel) {
  config_.validate();
}

void DwcEngine::load_weights(std::span<const std::int8_t> weights,
                             int channels) {
  EDEA_REQUIRE(channels > 0 && channels <= config_.td,
               "DWC weight slice channel count must be in (0, Td]");
  EDEA_REQUIRE(weights.size() == static_cast<std::size_t>(
                                     config_.kernel * config_.kernel *
                                     channels),
               "DWC weight slice size mismatch");
  weights_.assign(weights.begin(), weights.end());
  stage_dwc_weights(weights, config_.kernel * config_.kernel, channels,
                    weights_t_);
  weight_channels_ = channels;
}

KernelShapeKey DwcEngine::shape_key(int stride, int dilation,
                                    int depth_multiplier) const noexcept {
  KernelShapeKey key;
  key.family = OpFamily::kDwc;
  key.kernel = config_.kernel;
  key.stride = stride;
  key.dilation = dilation;
  key.depth_multiplier = depth_multiplier;
  return key;
}

void DwcEngine::set_kernel_policy(KernelPolicy policy) noexcept {
  policy_ = policy;
  cached_fn_ = nullptr;
}

void DwcEngine::run_step(std::span<const std::int8_t> window, int stride,
                         int dilation, DwcKernelFn fn, DwcStepOutput& out,
                         arch::MacActivity& activity) const {
  EDEA_REQUIRE(stride == 1 || stride == 2, "DWC stride must be 1 or 2");
  EDEA_REQUIRE(dilation >= 1, "DWC dilation must be >= 1");
  EDEA_REQUIRE(weight_channels_ > 0, "DWC weights not loaded");
  const int extent = config_.dwc_window_extent(stride, dilation);
  EDEA_REQUIRE(window.size() == static_cast<std::size_t>(extent * extent *
                                                         weight_channels_),
               "window must be the stride/dilation extent squared over the "
               "loaded channels");

  const int k = config_.kernel;
  out.rows = config_.tn;
  out.cols = config_.tm;
  out.channels = weight_channels_;
  out.acc.resize(static_cast<std::size_t>(out.rows * out.cols * out.channels));

  DwcKernelArgs args;
  args.window = window.data();
  args.extent = extent;
  args.channels = weight_channels_;
  args.weights = weights_.data();
  args.weights_t = weights_t_.data();
  args.tn = config_.tn;
  args.tm = config_.tm;
  args.kernel = k;
  args.stride = stride;
  args.dilation = dilation;
  args.acc = out.acc.data();
  args.activity = &activity;
  fn(args);

  // Lanes belonging to channels absent from this slice idle this cycle
  // (never happens for MobileNetV1, whose channel counts are multiples of
  // Td, but the engine is general). Idle accounting lives above the kernel
  // boundary so every kernel sees the same contract.
  activity.lane_cycles +=
      std::int64_t{config_.td - weight_channels_} * config_.tn * config_.tm *
      k * k;
}

void DwcEngine::step(std::span<const std::int8_t> window, int stride,
                     int dilation, int depth_multiplier, DwcStepOutput& out) {
  DwcKernelFn fn = &generic_dwc_kernel;
  if (policy_ != KernelPolicy::kForceGeneric) {
    const KernelShapeKey key = shape_key(stride, dilation, depth_multiplier);
    if (cached_fn_ == nullptr || !(cached_key_ == key)) {
      cached_key_ = key;
      cached_fn_ = KernelDispatch::instance().find_dwc(key);
    }
    fn = cached_fn_;
  }
  run_step(window, stride, dilation, fn, out, activity_);
}

void DwcEngine::step(std::span<const std::int8_t> window, int stride,
                     int dilation, int depth_multiplier, DwcStepOutput& out,
                     arch::MacActivity& activity) const {
  const DwcKernelFn fn =
      policy_ == KernelPolicy::kForceGeneric
          ? &generic_dwc_kernel
          : KernelDispatch::instance().find_dwc(
                shape_key(stride, dilation, depth_multiplier));
  run_step(window, stride, dilation, fn, out, activity);
}

}  // namespace edea::core
