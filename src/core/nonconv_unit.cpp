#include "core/nonconv_unit.hpp"

#include <cstring>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "util/check.hpp"

namespace edea::core {

namespace {

/// One pixel's channels through arch::nonconv_affine with the default
/// [0, 127] clamp, in double precision: `k[ch]` is channel ch's k and
/// `b[ch]` its b + 2^15, both raw Q.16 integers. SSE2 runs four channels
/// at a time, two doubles per register, where the int64 multiply of
/// nonconv_affine does not vectorize.
///
/// It is exact for every int32 accumulator and every Q8.16 k and b. Let
/// P = k * acc, an integer with |P| <= 2^54. If |P| <= 2^52, P and
/// P + b + 2^15 (|b| <= 2^23) are integers below 2^53, so the
/// conversions, the product, the sum and the scaling by 2^-16 are all
/// exact, and truncating the clamped quotient equals flooring it first.
/// If |P| > 2^52, the product may round, but the sum keeps P's sign and
/// |v| > 2^35, so both paths clamp to the same end.
void affine_pixel(const std::int32_t* __restrict acc,
                  const double* __restrict k, const double* __restrict b,
                  int channels, std::int8_t* __restrict out) {
  constexpr double kScale = 1.0 / (1 << arch::Q8_16::kFractionBits);
  int ch = 0;
#if defined(__SSE2__)
  const __m128d scale = _mm_set1_pd(kScale);
  const __m128d top = _mm_set1_pd(127.0);
  // Clamped above here; the final pack saturates negatives to 0.
  const auto affine = [&](__m128d a, int c) {
    const __m128d v = _mm_mul_pd(
        _mm_add_pd(_mm_mul_pd(a, _mm_loadu_pd(k + c)), _mm_loadu_pd(b + c)),
        scale);
    return _mm_cvttpd_epi32(_mm_min_pd(v, top));
  };
  for (; ch + 4 <= channels; ch += 4) {
    const __m128i a =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(acc + ch));
    __m128i y = _mm_unpacklo_epi64(
        affine(_mm_cvtepi32_pd(a), ch),
        affine(_mm_cvtepi32_pd(_mm_shuffle_epi32(a, 0x4e)), ch + 2));
    y = _mm_packus_epi16(_mm_packs_epi32(y, y), y);
    const std::int32_t bytes = _mm_cvtsi128_si32(y);
    std::memcpy(out + ch, &bytes, sizeof bytes);
  }
#endif
  for (; ch < channels; ++ch) {
    double v = (acc[ch] * k[ch] + b[ch]) * kScale;
    v = v < 0.0 ? 0.0 : v;
    v = v > 127.0 ? 127.0 : v;
    out[ch] = static_cast<std::int8_t>(static_cast<std::int32_t>(v));
  }
}

}  // namespace

void NonConvUnitArray::load(
    std::span<const nn::NonConvChannelParams> params) {
  EDEA_REQUIRE(!params.empty(), "channel count must be positive");
  k_.resize(params.size());
  b_.resize(params.size());
  for (std::size_t ch = 0; ch < params.size(); ++ch) {
    k_[ch] = params[ch].k.raw();
    b_[ch] = params[ch].b.raw() + (1 << (arch::Q8_16::kFractionBits - 1));
  }
}

void NonConvUnitArray::apply_block(std::span<const std::int32_t> acc,
                                   std::span<std::int8_t> out) {
  const std::size_t width = k_.size();
  EDEA_REQUIRE(width > 0, "no Non-Conv parameters loaded");
  EDEA_REQUIRE(acc.size() == out.size(), "accumulator/output size mismatch");
  EDEA_REQUIRE(acc.size() % width == 0,
               "block size must be a whole number of channel groups");

  // [pixel][channel]: channel ch of every pixel uses parameter pair ch.
  for (std::size_t pixel = 0; pixel < acc.size(); pixel += width) {
    affine_pixel(acc.data() + pixel, k_.data(), b_.data(),
                 static_cast<int>(width), out.data() + pixel);
  }
  ops_ += static_cast<std::int64_t>(acc.size());
}

}  // namespace edea::core
