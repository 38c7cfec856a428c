#include "core/pwc_engine.hpp"

#include <algorithm>

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
  stage_pwc_weights(weights, kernels, channels, weights_t_);
  weight_kernels_ = kernels;
  weight_channels_ = channels;
}

PsumRange PwcEngine::step(std::span<const std::int8_t> activations,
                          const PsumTarget& target,
                          arch::MacActivity& activity) const {
  EDEA_REQUIRE(weight_kernels_ > 0, "PWC weights not loaded");
  EDEA_REQUIRE(activations.size() ==
                   static_cast<std::size_t>(config_.tn * config_.tm *
                                            weight_channels_),
               "PWC activation block must be Tn x Tm x the loaded channels");
  EDEA_REQUIRE(target.block.size() ==
                   static_cast<std::size_t>(target.rows) *
                       static_cast<std::size_t>(target.cols) *
                       static_cast<std::size_t>(weight_kernels_),
               "psum block must be rows x cols x the loaded kernels");
  EDEA_REQUIRE(target.row0 >= 0 && target.row0 < target.rows &&
                   target.col0 >= 0 && target.col0 < target.cols,
               "PWC step origin outside the psum block");

  const std::int64_t pitch =
      std::int64_t{target.cols} * weight_kernels_;  // entries per block row
  PwcKernelArgs args;
  args.activations = activations.data();
  args.weights = weights_.data();
  args.weights_t = weights_t_.data();
  args.rows = config_.tn;
  args.cols = config_.tm;
  args.real_rows = std::min(config_.tn, target.rows - target.row0);
  args.real_cols = std::min(config_.tm, target.cols - target.col0);
  args.channels = weight_channels_;
  args.kernels = weight_kernels_;
  args.td = config_.td;
  args.psum = target.block.data() + target.row0 * pitch +
              std::int64_t{target.col0} * weight_kernels_;
  args.psum_pitch = pitch;
  args.accumulate = target.accumulate;
  args.activity = &activity;
  const PsumRange range = pwc_kernel_for(policy_)(args);

  // Kernel lanes beyond the last group's width idle during its cycle.
  // Idle accounting lives above the kernel boundary so every kernel sees
  // the same contract.
  const int groups = (weight_kernels_ + config_.tk - 1) / config_.tk;
  activity.lane_cycles += std::int64_t{groups * config_.tk - weight_kernels_} *
                          config_.tn * config_.tm * config_.td;
  return range;
}

}  // namespace edea::core
