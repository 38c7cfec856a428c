// nonconv_unit.hpp - the Non-Conv unit array of Fig. 4 / Fig. 6.
//
// Td parallel units (eight in the paper), each computing the folded
// dequantization + BN + ReLU + requantization affine
// y = clamp(round(k*x + b), 0, 127) with k, b in Q8.16. The hardware
// time-shares one array between the DWC-to-PWC transfer (per-input-channel
// parameters from the offline buffer) and the PWC write-back path
// (per-output-channel parameters). The datapath models each use with its
// own NonConvUnitArray, loaded with that use's parameters, so each counts
// its own ops for the power model.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "arch/fixed_point.hpp"
#include "nn/quant.hpp"

namespace edea::core {

class NonConvUnitArray {
 public:
  /// Loads one (k, b) pair per channel; they apply to every block until
  /// the next load. The conversion to the form apply_block computes with
  /// happens here, once, not per block.
  void load(std::span<const nn::NonConvChannelParams> params);

  /// Applies the loaded parameters to a channel-innermost block of
  /// accumulators, [pixel][channel]: value i belongs to channel
  /// (i % channels). This matches both use sites (DWC blocks are
  /// [row][col][channel], PWC write-back blocks are [row][col][kernel]).
  /// Every value equals NonConvChannelParams::apply (arch::nonconv_affine)
  /// bit for bit; the block computes it in double precision, which is
  /// exact over the whole int32 accumulator range (nonconv_unit.cpp).
  void apply_block(std::span<const std::int32_t> acc,
                   std::span<std::int8_t> out);

  /// Values applied since the last reset_counters.
  [[nodiscard]] std::int64_t ops() const noexcept { return ops_; }

  void reset_counters() noexcept { ops_ = 0; }

 private:
  // The loaded per-channel k and b + 2^15.
  std::vector<double> k_;
  std::vector<double> b_;
  std::int64_t ops_ = 0;
};

}  // namespace edea::core
