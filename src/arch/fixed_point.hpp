// fixed_point.hpp - Q8.16 signed fixed-point arithmetic for the Non-Conv unit.
//
// The paper (Sec. III-C) folds dequantization + BatchNorm + ReLU +
// requantization into y = k*x + b with k and b stored as 24-bit fixed-point
// numbers: 8 integer bits, 16 fractional bits ("to cover all possible ranges
// of the values for k and b without losing precision"). This header is the
// single source of truth for that arithmetic: both the golden quantized
// reference model (src/nn) and the cycle-accurate accelerator (src/core)
// call into it, which is what makes the bit-exactness tests meaningful.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "util/check.hpp"

namespace edea::arch {

/// Signed Q8.16 fixed-point value stored in 24 bits (sign-extended into
/// int32_t). Representable range: [-128, 128 - 2^-16], resolution 2^-16.
class Q8_16 {
 public:
  static constexpr int kFractionBits = 16;
  static constexpr int kTotalBits = 24;
  static constexpr std::int32_t kOne = 1 << kFractionBits;  // 65536
  static constexpr std::int32_t kMaxRaw = (1 << (kTotalBits - 1)) - 1;
  static constexpr std::int32_t kMinRaw = -(1 << (kTotalBits - 1));

  constexpr Q8_16() = default;

  /// Wraps an already-encoded raw 24-bit pattern. Throws if out of range.
  static Q8_16 from_raw(std::int32_t raw) {
    EDEA_REQUIRE(raw >= kMinRaw && raw <= kMaxRaw,
                 "raw value outside signed 24-bit range");
    return Q8_16(raw);
  }

  /// Encodes a real number, rounding to nearest (ties away from zero).
  /// Throws PreconditionError if the value is outside [-128, 128).
  static Q8_16 from_double(double value) {
    const double scaled = value * static_cast<double>(kOne);
    const double rounded = std::nearbyint(scaled);
    EDEA_REQUIRE(rounded >= static_cast<double>(kMinRaw) &&
                     rounded <= static_cast<double>(kMaxRaw),
                 "value outside Q8.16 representable range [-128, 128)");
    return Q8_16(static_cast<std::int32_t>(rounded));
  }

  /// Saturating encode: values beyond the representable range clamp to the
  /// extremes instead of throwing (models the offline parameter packer).
  static Q8_16 from_double_saturating(double value) noexcept {
    const double scaled = value * static_cast<double>(kOne);
    double rounded = std::nearbyint(scaled);
    if (rounded > static_cast<double>(kMaxRaw)) {
      rounded = static_cast<double>(kMaxRaw);
    } else if (rounded < static_cast<double>(kMinRaw)) {
      rounded = static_cast<double>(kMinRaw);
    }
    return Q8_16(static_cast<std::int32_t>(rounded));
  }

  [[nodiscard]] constexpr std::int32_t raw() const noexcept { return raw_; }

  [[nodiscard]] double to_double() const noexcept {
    return static_cast<double>(raw_) / static_cast<double>(kOne);
  }

  /// Maximum encoding error introduced by from_double (half an LSB).
  static constexpr double quantization_step() noexcept {
    return 1.0 / static_cast<double>(kOne);
  }

  friend constexpr bool operator==(Q8_16 a, Q8_16 b) noexcept {
    return a.raw_ == b.raw_;
  }
  friend constexpr bool operator!=(Q8_16 a, Q8_16 b) noexcept {
    return a.raw_ != b.raw_;
  }

 private:
  constexpr explicit Q8_16(std::int32_t raw) : raw_(raw) {}
  std::int32_t raw_ = 0;
};

/// The Non-Conv datapath: y = clamp(round(k*acc + b), lo, hi).
///
/// acc is the integer convolution accumulator (paper: 24-bit; we carry
/// int32 and verify the 24-bit envelope separately). The multiply produces
/// a Q.16 value in 48 bits, b is added in Q.16, and rounding is
/// round-half-up implemented exactly as silicon would: add 2^15 then
/// arithmetic-shift-right by 16 (floor). The default clamp [0, 127] merges
/// ReLU with int8 output quantization.
[[nodiscard]] constexpr std::int32_t nonconv_affine(std::int32_t acc, Q8_16 k,
                                                    Q8_16 b,
                                                    std::int32_t clamp_lo = 0,
                                                    std::int32_t clamp_hi =
                                                        127) noexcept {
  const std::int64_t product =
      static_cast<std::int64_t>(k.raw()) * static_cast<std::int64_t>(acc);
  const std::int64_t sum_q16 = product + static_cast<std::int64_t>(b.raw());
  // Round half up: floor((x + 2^15) / 2^16). Arithmetic shift of a negative
  // value floors, matching a hardware adder + truncation implementation.
  const std::int64_t rounded = (sum_q16 + (1 << (Q8_16::kFractionBits - 1))) >>
                               Q8_16::kFractionBits;
  // A select rather than a branch: after ReLU-bound layers about half the
  // accumulators clamp low, which no branch predictor follows.
  return static_cast<std::int32_t>(
      std::clamp<std::int64_t>(rounded, clamp_lo, clamp_hi));
}

/// Signed integer range check helper: does v fit in `bits` (two's
/// complement)? Used to validate the paper's 24-bit accumulator claim on
/// realistic data.
[[nodiscard]] constexpr bool fits_signed_bits(std::int64_t v,
                                              int bits) noexcept {
  const std::int64_t hi = (std::int64_t{1} << (bits - 1)) - 1;
  const std::int64_t lo = -(std::int64_t{1} << (bits - 1));
  return v >= lo && v <= hi;
}

}  // namespace edea::arch
