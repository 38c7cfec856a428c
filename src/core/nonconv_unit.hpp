// nonconv_unit.hpp - the Non-Conv unit array of Fig. 4 / Fig. 6.
//
// Td parallel units (eight in the paper), each computing the folded
// dequantization + BN + ReLU + requantization affine
// y = clamp(round(k*x + b), 0, 127) with k, b in Q8.16. The same array is
// time-shared for the DWC-to-PWC transfer (per-input-channel parameters
// from the offline buffer) and for the PWC write-back path
// (per-output-channel parameters); the two uses are counted separately so
// the power model can attribute activity.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "arch/fixed_point.hpp"
#include "nn/quant.hpp"

namespace edea::core {

class NonConvUnitArray {
 public:
  /// Applies per-channel parameters to a channel-innermost block of
  /// accumulators, [pixel][channel]: value i belongs to channel
  /// (i % channels). This matches both use sites (DWC blocks are
  /// [row][col][channel], PWC write-back blocks are [row][col][kernel]).
  /// Every value equals NonConvChannelParams::apply (arch::nonconv_affine)
  /// bit for bit; the block computes it in double precision, which is
  /// exact over the whole int32 accumulator range (nonconv_unit.cpp).
  void apply_block(std::span<const std::int32_t> acc,
                   std::span<const nn::NonConvChannelParams> params,
                   int channels, std::span<std::int8_t> out);

  [[nodiscard]] std::int64_t transfer_ops() const noexcept {
    return transfer_ops_;
  }
  [[nodiscard]] std::int64_t writeback_ops() const noexcept {
    return writeback_ops_;
  }

  /// Marks subsequent apply_block calls as write-back (vs transfer) work.
  void set_writeback_mode(bool writeback) noexcept { writeback_ = writeback; }

  void reset_counters() noexcept {
    transfer_ops_ = 0;
    writeback_ops_ = 0;
  }

 private:
  bool writeback_ = false;
  // The block's per-channel k and b + 2^15, reused from block to block.
  std::vector<double> k_;
  std::vector<double> b_;
  std::int64_t transfer_ops_ = 0;
  std::int64_t writeback_ops_ = 0;
};

}  // namespace edea::core
