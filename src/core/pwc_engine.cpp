#include "core/pwc_engine.hpp"

#include "util/check.hpp"

namespace edea::core {

PwcEngine::PwcEngine(const EdeaConfig& config)
    : config_(config), tree_(config.td) {
  config_.validate();
}

void PwcEngine::load_weights(std::span<const std::int8_t> weights,
                             int kernels, int channels) {
  EDEA_REQUIRE(channels > 0 && channels <= config_.td,
               "PWC slice channel count must be in (0, Td]");
  EDEA_REQUIRE(kernels > 0, "PWC kernel count must be positive");
  EDEA_REQUIRE(weights.size() == static_cast<std::size_t>(kernels) *
                                     static_cast<std::size_t>(channels),
               "PWC weight block size mismatch");
  weights_.assign(weights.begin(), weights.end());
  weights_t_.resize(weights.size());
  const auto at = [&](int kk, int ch) {
    return weights[static_cast<std::size_t>(kk * channels + ch)];
  };
  // Eight kernels at a time, a fixed-width block the compiler unrolls into
  // one contiguous write run per channel; a ragged tail one by one.
  int k0 = 0;
  for (; k0 + 8 <= kernels; k0 += 8) {
    for (int ch = 0; ch < channels; ++ch) {
      std::int16_t* const row =
          &weights_t_[static_cast<std::size_t>(ch * kernels + k0)];
      for (int j = 0; j < 8; ++j) row[j] = at(k0 + j, ch);
    }
  }
  for (; k0 < kernels; ++k0) {
    for (int ch = 0; ch < channels; ++ch) {
      weights_t_[static_cast<std::size_t>(ch * kernels + k0)] = at(k0, ch);
    }
  }
  weight_kernels_ = kernels;
  weight_channels_ = channels;
}

KernelShapeKey PwcEngine::shape_key(int depth_multiplier) const noexcept {
  KernelShapeKey key;
  key.family = OpFamily::kPwc;
  key.kernel = 1;
  key.stride = 1;
  key.dilation = 1;
  key.depth_multiplier = depth_multiplier;
  return key;
}

void PwcEngine::set_kernel_policy(KernelPolicy policy) noexcept {
  policy_ = policy;
  cached_fn_ = nullptr;
}

void PwcEngine::run_step(std::span<const std::int8_t> activations,
                         PwcKernelFn fn, PwcStepOutput& out,
                         arch::MacActivity& activity) const {
  EDEA_REQUIRE(weight_kernels_ > 0, "PWC weights not loaded");
  EDEA_REQUIRE(activations.size() ==
                   static_cast<std::size_t>(config_.tn * config_.tm *
                                            weight_channels_),
               "PWC activation block must be Tn x Tm x the loaded channels");

  out.rows = config_.tn;
  out.cols = config_.tm;
  out.kernels = weight_kernels_;
  out.psum.resize(
      static_cast<std::size_t>(out.rows * out.cols * out.kernels));

  PwcKernelArgs args;
  args.activations = activations.data();
  args.weights = weights_.data();
  args.weights_t = weights_t_.data();
  args.rows = config_.tn;
  args.cols = config_.tm;
  args.channels = weight_channels_;
  args.kernels = weight_kernels_;
  args.td = config_.td;
  args.psum = out.psum.data();
  args.activity = &activity;
  fn(args);

  // Kernel lanes beyond the last group's width idle during its cycle.
  // Idle accounting lives above the kernel boundary so every kernel sees
  // the same contract.
  const int groups = (weight_kernels_ + config_.tk - 1) / config_.tk;
  activity.lane_cycles += std::int64_t{groups * config_.tk - weight_kernels_} *
                          config_.tn * config_.tm * config_.td;
}

void PwcEngine::step(std::span<const std::int8_t> activations,
                     int depth_multiplier, PwcStepOutput& out) {
  PwcKernelFn fn = &generic_pwc_kernel;
  if (policy_ != KernelPolicy::kForceGeneric) {
    const KernelShapeKey key = shape_key(depth_multiplier);
    if (cached_fn_ == nullptr || !(cached_key_ == key)) {
      cached_key_ = key;
      cached_fn_ = KernelDispatch::instance().find_pwc(key);
    }
    fn = cached_fn_;
  }
  run_step(activations, fn, out, activity_);
}

void PwcEngine::step(std::span<const std::int8_t> activations,
                     int depth_multiplier, PwcStepOutput& out,
                     arch::MacActivity& activity) const {
  const PwcKernelFn fn = policy_ == KernelPolicy::kForceGeneric
                             ? &generic_pwc_kernel
                             : KernelDispatch::instance().find_pwc(
                                   shape_key(depth_multiplier));
  run_step(activations, fn, out, activity);
}

}  // namespace edea::core
