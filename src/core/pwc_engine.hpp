// pwc_engine.hpp - the pointwise-convolution engine of Fig. 5b.
//
// Structure (paper configuration): 128 PWC PEs of 4 multipliers each
// (512 MACs). Two PEs feed one 8-input adder tree, so the engine computes
// 64 output dot products per cycle: Tn x Tm = 4 spatial positions x
// Tk = 16 kernels, each a dot product across the Td = 8 channels of the
// current slice. The engine runs a block of steps per call - every
// Tn x Tm step of a (buffer tile, channel slice) pass at once, a single
// step being a one-step block - and accumulates the partial sums straight
// into the buffer tile's block in the accumulator buffer, overwriting it
// on a pass's first slice: the accumulate stage of the silicon, folded
// into the engine.
//
// Each block runs the kernel core::pwc_kernel_for picks: an SSE2 pmaddwd
// kernel over an int16 copy of the weights, interleaved by channel pair
// and staged once per layer, with the generic reference path as fallback
// and kForceGeneric as the A/B pin.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "arch/counters.hpp"
#include "arch/pe.hpp"
#include "core/config.hpp"
#include "core/kernel_dispatch.hpp"

namespace edea::core {

/// Where one engine block's partial sums land: a buffer tile's
/// [rows][cols][kernels] psum block and the engine block's origin in it.
/// Engine positions past the psum block's last row or column are dummy
/// lanes, clocked and tallied but never summed.
struct PsumTarget {
  std::span<std::int32_t> block;  ///< [rows][cols][kernels]
  int rows = 0;
  int cols = 0;
  int row0 = 0;  ///< the engine block's first position in the psum block
  int col0 = 0;
  bool accumulate = false;  ///< add onto the block; false overwrites it
};

class PwcEngine {
 public:
  explicit PwcEngine(const EdeaConfig& config);

  /// Loads one channel slice's staged weights for a run of kernels
  /// (channels <= Td), read in place until the next load - across every
  /// block of a pass - so they must outlive that use.
  void load_weights(const PwcWeights& weights);
  void load_weights(PwcWeights&&) = delete;  // would dangle

  /// Runs a block of rows x cols positions - a whole number of Tn x Tm
  /// steps - over every loaded kernel: their dot products across the
  /// slice channels at each position of `activations` ([row][col]
  /// [channel], read in place), accumulated into `target`. The engine
  /// takes each step's kernels Tk at a time, one kernel group per cycle
  /// (64 dot products per cycle in the paper configuration). Returns the
  /// range of the partial sums the block left in the psum block.
  PsumRange run_block(std::span<const std::int8_t> activations, int rows,
                      int cols, const PsumTarget& target) {
    return run_block(activations, rows, cols, target, activity_);
  }

  /// Reentrant block: activity tallies into the caller-supplied sink.
  /// Safe to call concurrently from multiple threads on one engine (each
  /// with its own target block).
  PsumRange run_block(std::span<const std::int8_t> activations, int rows,
                      int cols, const PsumTarget& target,
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
  EdeaConfig config_;
  arch::AdderTree tree_;
  const PwcWeights* weights_ = nullptr;  ///< the loaded slice
  arch::MacActivity activity_;
  KernelPolicy policy_ = KernelPolicy::kAuto;
};

}  // namespace edea::core
