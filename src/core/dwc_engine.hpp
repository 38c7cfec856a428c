// dwc_engine.hpp - the depthwise-convolution engine of Fig. 5a.
//
// Structure (paper configuration): 8 DWC PEs, one per channel of the
// current Td-slice. Each PE holds 36 multipliers - a 3x3 window for each of
// the 2x2 output positions - and four 9-input adder trees. One engine step
// consumes a (Tn-1)*s+3 square input window over Td channels plus a 3x3xTd
// kernel slice and produces a Tn x Tm x Td block of raw accumulators in a
// single cycle (the adder tree is pipelined; latency is absorbed in the
// 9-cycle initiation of Fig. 7).
//
// Each step runs the kernel core::dwc_kernel_for picks for its shape: hot
// shapes (3x3 at strides 1/2 and dilations 1/2) run hand-specialized
// kernels, everything else the generic reference path. Both are
// bit-identical in outputs and MacActivity; set_kernel_policy(
// kForceGeneric) pins the generic path for A/B runs.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "arch/counters.hpp"
#include "arch/pe.hpp"
#include "core/config.hpp"
#include "core/kernel_dispatch.hpp"

namespace edea::core {

/// Raw DWC accumulators for one step: [Tn][Tm][channels]. A step writes
/// into the caller's output, reusing its storage from step to step.
struct DwcStepOutput {
  int rows = 0;
  int cols = 0;
  int channels = 0;
  std::vector<std::int32_t> acc;  ///< [row][col][channel]

  [[nodiscard]] std::int32_t at(int r, int c, int ch) const noexcept {
    return acc[static_cast<std::size_t>((r * cols + c) * channels + ch)];
  }
};

class DwcEngine {
 public:
  explicit DwcEngine(const EdeaConfig& config);

  /// Loads one kernel slice ([kh][kw][channels], channels <= Td). Retained
  /// until the next load; reused across every spatial step of a pass.
  /// Also stages the int16 copy the SSE2 kernel streams,
  /// [tap pair][channel][2].
  void load_weights(std::span<const std::int8_t> weights, int channels);

  /// One engine cycle: computes Tn x Tm outputs for every loaded channel.
  /// `window` is read in place: extent x extent x loaded channels int8
  /// values ([row][col][channel]), zero padding already materialized.
  /// `stride` and `dilation` select its geometry ((Tn-1)*stride +
  /// (kernel-1)*dilation + 1 square): 4x4 at s=1/d=1, 5x5 at s=2/d=1,
  /// wider for dilated kernels whose taps sit `dilation` apart.
  void step(std::span<const std::int8_t> window, int stride, int dilation,
            DwcStepOutput& out) {
    step(window, stride, dilation, out, activity_);
  }

  /// Reentrant step: same arithmetic, but activity is tallied into the
  /// caller-supplied sink instead of the engine's own counter. Safe to
  /// call concurrently from multiple threads on one engine (each caller
  /// owns its sink and output; kernels keep all scratch on the stack).
  void step(std::span<const std::int8_t> window, int stride, int dilation,
            DwcStepOutput& out, arch::MacActivity& activity) const;

  /// Pins (or unpins) the generic reference kernels. Default is kAuto.
  void set_kernel_policy(KernelPolicy policy) noexcept { policy_ = policy; }
  [[nodiscard]] KernelPolicy kernel_policy() const noexcept { return policy_; }

  [[nodiscard]] const arch::MacActivity& activity() const noexcept {
    return activity_;
  }
  void reset_activity() noexcept { activity_.reset(); }

  /// Structural constants (asserted against the paper in tests).
  [[nodiscard]] int mac_count() const noexcept {
    return config_.dwc_mac_count();
  }
  [[nodiscard]] int adder_tree_fan_in() const noexcept {
    return config_.kernel * config_.kernel;
  }
  [[nodiscard]] int adder_tree_depth() const noexcept { return tree_.depth(); }
  [[nodiscard]] int pe_count() const noexcept { return config_.td; }

 private:
  EdeaConfig config_;
  arch::AdderTree tree_;
  std::vector<std::int8_t> weights_;     ///< [kh][kw][channel]
  std::vector<std::int16_t> weights_t_;  ///< [tap pair][channel][2]
  int weight_channels_ = 0;
  arch::MacActivity activity_;
  KernelPolicy policy_ = KernelPolicy::kAuto;
};

}  // namespace edea::core
