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
// The engine runs a block of steps per call - every Tn x Tm step of a
// (buffer tile, channel slice) pass at once, a single step being a
// one-step block - through the kernel core::dwc_kernel_for picks for its
// shape: hot shapes (3x3 at strides 1/2 and dilations 1/2) run
// hand-specialized kernels, everything else the generic reference path.
// Both are bit-identical in outputs and MacActivity; set_kernel_policy(
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

/// Raw DWC accumulators of one block: [rows][cols][channels]. A block
/// writes into the caller's output, reusing its storage from call to call.
struct DwcBlockOutput {
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

  /// Loads one staged kernel slice (kernel x kernel taps, channels <=
  /// Td), read in place until the next load - across every block of a
  /// pass - so it must outlive that use.
  void load_weights(const DwcWeights& weights);
  void load_weights(DwcWeights&&) = delete;  // would dangle

  /// Runs a block of rows x cols output positions - a whole number of
  /// Tn x Tm steps, one engine cycle each - for every loaded channel.
  /// `window` is read in place: the block's input, [row][col][channel]
  /// over the loaded channels with zero padding already materialized,
  /// EdeaConfig::dwc_input_extent(rows, stride, dilation) pixels tall and
  /// likewise wide for `cols`. One step's window is 4x4 at s=1/d=1 and
  /// 5x5 at s=2/d=1, wider for dilated kernels whose taps sit `dilation`
  /// apart.
  void run_block(std::span<const std::int8_t> window, int rows, int cols,
                 int stride, int dilation, DwcBlockOutput& out) {
    run_block(window, rows, cols, stride, dilation, out, activity_);
  }

  /// Reentrant block: same arithmetic, but activity is tallied into the
  /// caller-supplied sink instead of the engine's own counter. Safe to
  /// call concurrently from multiple threads on one engine (each caller
  /// owns its sink and output; kernels keep all scratch on the stack).
  void run_block(std::span<const std::int8_t> window, int rows, int cols,
                 int stride, int dilation, DwcBlockOutput& out,
                 arch::MacActivity& activity) const;

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
  const DwcWeights* weights_ = nullptr;  ///< the loaded slice
  arch::MacActivity activity_;
  KernelPolicy policy_ = KernelPolicy::kAuto;
};

}  // namespace edea::core
