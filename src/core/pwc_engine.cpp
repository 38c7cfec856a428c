#include "core/pwc_engine.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace edea::core {

PwcEngine::PwcEngine(const EdeaConfig& config)
    : config_(config.validated()), tree_(config_.td) {}

void PwcEngine::load_weights(const PwcWeights& weights) {
  EDEA_REQUIRE(weights.channels() > 0 && weights.channels() <= config_.td,
               "PWC slice channel count must be in (0, Td]");
  EDEA_REQUIRE(weights.kernels() > 0, "PWC kernel count must be positive");
  weights_ = &weights;
}

PsumRange PwcEngine::run_block(std::span<const std::int8_t> activations,
                               int rows, int cols, const PsumTarget& target,
                               arch::MacActivity& activity) const {
  EDEA_REQUIRE(weights_ != nullptr, "PWC weights not loaded");
  const int kernels = weights_->kernels();
  const int channels = weights_->channels();
  EDEA_REQUIRE(rows > 0 && cols > 0 && rows % config_.tn == 0 &&
                   cols % config_.tm == 0,
               "a PWC block must be a whole number of Tn x Tm steps");
  EDEA_REQUIRE(activations.size() == static_cast<std::size_t>(rows) *
                                         static_cast<std::size_t>(cols) *
                                         static_cast<std::size_t>(channels),
               "PWC activation block must be rows x cols x the loaded "
               "channels");
  EDEA_REQUIRE(target.block.size() ==
                   static_cast<std::size_t>(target.rows) *
                       static_cast<std::size_t>(target.cols) *
                       static_cast<std::size_t>(kernels),
               "psum block must be rows x cols x the loaded kernels");
  EDEA_REQUIRE(target.row0 >= 0 && target.row0 < target.rows &&
                   target.col0 >= 0 && target.col0 < target.cols,
               "PWC block origin outside the psum block");

  const std::int64_t pitch =
      std::int64_t{target.cols} * kernels;  // entries per block row
  PwcKernelArgs args;
  args.activations = activations.data();
  args.weights = weights_->weights().data();
  args.weights_t = weights_->weights_t().data();
  args.rows = rows;
  args.cols = cols;
  args.real_rows = std::min(rows, target.rows - target.row0);
  args.real_cols = std::min(cols, target.cols - target.col0);
  args.channels = channels;
  args.kernels = kernels;
  args.td = config_.td;
  args.psum = target.block.data() + target.row0 * pitch +
              std::int64_t{target.col0} * kernels;
  args.psum_pitch = pitch;
  args.accumulate = target.accumulate;
  args.activity = &activity;
  const PsumRange range = pwc_kernel_for(policy_)(args);

  // Kernel lanes beyond the last group's width idle during its cycle of
  // every step. Idle accounting lives above the kernel boundary so every
  // kernel sees the same contract.
  const int groups = (kernels + config_.tk - 1) / config_.tk;
  activity.lane_cycles +=
      std::int64_t{groups * config_.tk - kernels} * rows * cols * config_.td;
  return range;
}

}  // namespace edea::core
