// pwc_engine.hpp - the pointwise-convolution engine of Fig. 5b.
//
// Structure (paper configuration): 128 PWC PEs of 4 multipliers each
// (512 MACs). Two PEs feed one 8-input adder tree, so the engine computes
// 64 output dot products per cycle: Tn x Tm = 4 spatial positions x
// Tk = 16 kernels, each a dot product across the Td = 8 channels of the
// current slice. Each step accumulates its partial sums straight into the
// buffer tile's block in the accumulator buffer, overwriting it on a
// pass's first slice - the accumulate stage of the silicon, folded into
// the step.
//
// The dot-product inner loop is resolved through core::KernelDispatch:
// 1x1 PWC runs an SSE2 pmaddwd kernel over an int16 copy of the weights,
// interleaved by channel pair and staged at load time, with the generic
// reference path as fallback and kForceGeneric as the A/B pin.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "arch/counters.hpp"
#include "arch/pe.hpp"
#include "core/config.hpp"
#include "core/kernel_dispatch.hpp"

namespace edea::core {

/// Where one step's partial sums land: a buffer tile's
/// [rows][cols][kernels] psum block and the step's origin in it. Step
/// positions past the block's last row or column are dummy lanes,
/// clocked and tallied but never summed.
struct PsumTarget {
  std::span<std::int32_t> block;  ///< [rows][cols][kernels]
  int rows = 0;
  int cols = 0;
  int row0 = 0;  ///< the step's first position in the block
  int col0 = 0;
  bool accumulate = false;  ///< add onto the block; false overwrites it
};

class PwcEngine {
 public:
  explicit PwcEngine(const EdeaConfig& config);

  /// Loads one channel slice's weights for a run of kernels,
  /// [kernels][channels] (channels <= Td). Retained until the next load;
  /// every spatial step of a pass reuses them. Also stages the int16 copy
  /// the specialized kernel streams, [channel pair][kernel][2].
  void load_weights(std::span<const std::int8_t> weights, int kernels,
                    int channels);

  /// One spatial step over every loaded kernel: their dot products across
  /// the slice channels at the Tn x Tm positions of `activations`
  /// ([row][col][channel], read in place), accumulated into `target`. The
  /// engine takes the kernels Tk at a time, one kernel group per cycle
  /// (64 dot products per cycle in the paper configuration). Returns the
  /// range of the partial sums left in the block. `depth_multiplier` is a
  /// dispatch-key component only (the arithmetic is multiplier-invariant).
  PsumRange step(std::span<const std::int8_t> activations,
                 int depth_multiplier, const PsumTarget& target);

  /// Reentrant step: activity tallies into the caller-supplied sink and
  /// the kernel lookup bypasses the engine-local cache. Safe to call
  /// concurrently from multiple threads on one engine (each with its own
  /// target block).
  PsumRange step(std::span<const std::int8_t> activations,
                 int depth_multiplier, const PsumTarget& target,
                 arch::MacActivity& activity) const;

  /// Pins (or unpins) the generic reference kernels; resets the cached
  /// dispatch resolution. Default is KernelDispatch::default_policy().
  void set_kernel_policy(KernelPolicy policy) noexcept;
  [[nodiscard]] KernelPolicy kernel_policy() const noexcept { return policy_; }

  [[nodiscard]] const arch::MacActivity& activity() const noexcept {
    return activity_;
  }
  void reset_activity() noexcept { activity_.reset(); }

  /// Structural constants (asserted against the paper in tests).
  [[nodiscard]] int mac_count() const noexcept {
    return config_.pwc_mac_count();
  }
  [[nodiscard]] int pe_count() const noexcept {
    // 4 multipliers per PE (Fig. 5b) -> 128 PEs in the paper configuration.
    return config_.pwc_mac_count() / kMulsPerPe;
  }
  [[nodiscard]] int adder_tree_fan_in() const noexcept {
    return config_.td;
  }
  [[nodiscard]] int adder_tree_depth() const noexcept { return tree_.depth(); }
  [[nodiscard]] int dot_products_per_cycle() const noexcept {
    return config_.tn * config_.tm * config_.tk;
  }

  static constexpr int kMulsPerPe = 4;

 private:
  [[nodiscard]] KernelShapeKey shape_key(int depth_multiplier) const noexcept;
  PsumRange run_step(std::span<const std::int8_t> activations,
                     PwcKernelFn fn, const PsumTarget& target,
                     arch::MacActivity& activity) const;

  EdeaConfig config_;
  arch::AdderTree tree_;
  std::vector<std::int8_t> weights_;    ///< [kernel][channel]
  std::vector<std::int16_t> weights_t_;  ///< [channel pair][kernel][2]
  int weight_kernels_ = 0;
  int weight_channels_ = 0;
  arch::MacActivity activity_;
  KernelPolicy policy_ = KernelDispatch::default_policy();
  KernelShapeKey cached_key_;
  PwcKernelFn cached_fn_ = nullptr;  ///< resolved for cached_key_, or null
};

}  // namespace edea::core
