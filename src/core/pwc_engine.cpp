#include "core/pwc_engine.hpp"

#include "util/check.hpp"

namespace edea::core {

PwcEngine::PwcEngine(const EdeaConfig& config)
    : config_(config), tree_(config.td) {
  config_.validate();
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

PwcStepOutput PwcEngine::run_step(const PwcStepInput& input, PwcKernelFn fn,
                                  arch::MacActivity& activity) const {
  EDEA_REQUIRE(input.rows == config_.tn && input.cols == config_.tm,
               "PWC step tile must be Tn x Tm");
  EDEA_REQUIRE(input.channels > 0 && input.channels <= config_.td,
               "PWC slice channel count must be in (0, Td]");
  EDEA_REQUIRE(input.kernels > 0 && input.kernels <= config_.tk,
               "PWC kernel-group size must be in (0, Tk]");
  EDEA_REQUIRE(input.activations.size() ==
                   static_cast<std::size_t>(input.rows * input.cols *
                                            input.channels),
               "PWC activation block size mismatch");
  EDEA_REQUIRE(input.weights.size() == static_cast<std::size_t>(
                                           input.kernels * input.channels),
               "PWC weight block size mismatch");

  PwcStepOutput out;
  out.rows = input.rows;
  out.cols = input.cols;
  out.kernels = input.kernels;
  out.psum.resize(
      static_cast<std::size_t>(out.rows * out.cols * out.kernels));

  PwcKernelArgs args;
  args.activations = input.activations.data();
  args.weights = input.weights.data();
  args.rows = input.rows;
  args.cols = input.cols;
  args.channels = input.channels;
  args.kernels = input.kernels;
  args.td = config_.td;
  args.psum = out.psum.data();
  args.activity = &activity;
  fn(args);

  // Kernel lanes beyond the group width idle this cycle. Idle accounting
  // lives above the kernel boundary so every kernel sees the same contract.
  const int idle_lanes =
      (config_.tk - input.kernels) * config_.tn * config_.tm * config_.td;
  for (int i = 0; i < idle_lanes; ++i) lane_.idle(activity);

  return out;
}

PwcStepOutput PwcEngine::step(const PwcStepInput& input,
                              int depth_multiplier) {
  PwcKernelFn fn = &generic_pwc_kernel;
  if (policy_ != KernelPolicy::kForceGeneric) {
    const KernelShapeKey key = shape_key(depth_multiplier);
    if (cached_fn_ == nullptr || !(cached_key_ == key)) {
      cached_key_ = key;
      cached_fn_ = KernelDispatch::instance().find_pwc(key);
    }
    fn = cached_fn_;
  }
  return run_step(input, fn, activity_);
}

PwcStepOutput PwcEngine::step(const PwcStepInput& input, int depth_multiplier,
                              arch::MacActivity& activity) const {
  const PwcKernelFn fn = policy_ == KernelPolicy::kForceGeneric
                             ? &generic_pwc_kernel
                             : KernelDispatch::instance().find_pwc(
                                   shape_key(depth_multiplier));
  return run_step(input, fn, activity);
}

}  // namespace edea::core
