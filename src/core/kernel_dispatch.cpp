#include "core/kernel_dispatch.hpp"

#include <algorithm>
#include <type_traits>
#include <cstring>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "arch/pe.hpp"
#include "util/check.hpp"

namespace edea::core {

// ---------------------------------------------------------------------------
// Generic reference implementations.
// ---------------------------------------------------------------------------

void generic_dwc_kernel(const DwcKernelArgs& a) {
  const int k = a.kernel;
  const arch::MacLane lane;
  arch::AdderTree tree(k * k);
  // Caller-local scratch: the old engine kept this in a member
  // (`products_`), which silently made steps non-reentrant.
  std::vector<std::int32_t> products(static_cast<std::size_t>(k * k));

  for (int ch = 0; ch < a.channels; ++ch) {
    for (int ty = 0; ty < a.rows; ++ty) {
      for (int tx = 0; tx < a.cols; ++tx) {
        // One 9-input adder tree instance: 3x3 products for this output.
        for (int i = 0; i < k; ++i) {
          for (int j = 0; j < k; ++j) {
            const int r = ty * a.stride + i * a.dilation;
            const int c = tx * a.stride + j * a.dilation;
            const std::int8_t act =
                a.window[static_cast<std::size_t>(
                    (std::int64_t{r} * a.window_cols + c) * a.channels + ch)];
            const std::int8_t w = a.weights[static_cast<std::size_t>(
                (i * k + j) * a.channels + ch)];
            products[static_cast<std::size_t>(i * k + j)] =
                lane.multiply(act, w, *a.activity);
          }
        }
        a.acc[static_cast<std::size_t>((ty * a.cols + tx) * a.channels +
                                       ch)] = tree.sum(products);
      }
    }
  }
}

PsumRange generic_pwc_kernel(const PwcKernelArgs& a) {
  const arch::MacLane lane;
  arch::AdderTree tree(a.td);
  std::vector<std::int32_t> products(static_cast<std::size_t>(a.td));
  PsumRange range;

  for (int r = 0; r < a.rows; ++r) {
    for (int c = 0; c < a.cols; ++c) {
      const bool real = r < a.real_rows && c < a.real_cols;
      for (int kk = 0; kk < a.kernels; ++kk) {
        // One Td-input adder tree fed by the channel lanes.
        for (int ch = 0; ch < a.td; ++ch) {
          if (ch < a.channels) {
            const std::int8_t act = a.activations[static_cast<std::size_t>(
                (r * a.cols + c) * a.channels + ch)];
            const std::int8_t w = a.weights[static_cast<std::size_t>(
                kk * a.channels + ch)];
            products[static_cast<std::size_t>(ch)] =
                lane.multiply(act, w, *a.activity);
          } else {
            // Channel lanes beyond the slice width idle (zero product).
            lane.idle(*a.activity);
            products[static_cast<std::size_t>(ch)] = 0;
          }
        }
        // A dummy lane's products are clocked and tallied, never summed.
        if (!real) continue;
        std::int32_t& psum =
            a.psum[r * a.psum_pitch + static_cast<std::int64_t>(c) *
                                          a.kernels + kk];
        psum = tree.sum(products) + (a.accumulate ? psum : 0);
        range.lo = std::min(range.lo, psum);
        range.hi = std::max(range.hi, psum);
      }
    }
  }
  return range;
}

// ---------------------------------------------------------------------------
// Weight staging for the SSE2 kernels.
// ---------------------------------------------------------------------------

namespace {

#if defined(__SSE2__)
/// Eight int8 lanes at `p`, sign-extended to int16.
inline __m128i load8_epi16(const std::int8_t* p) {
  const __m128i v = _mm_loadl_epi64(reinterpret_cast<const __m128i*>(p));
  return _mm_srai_epi16(_mm_unpacklo_epi8(v, v), 8);
}
#endif

/// `rows` runs of `channels` int8 values, run r at `first + r * pitch`,
/// copied into one contiguous [rows][channels] block.
void copy_runs(const std::int8_t* first, std::int64_t pitch, int rows,
               int channels, std::vector<std::int8_t>& out) {
  EDEA_REQUIRE(rows > 0 && channels > 0 && pitch >= channels,
               "staged weights need positive extents and a pitch that "
               "holds a run");
  const auto width = static_cast<std::size_t>(channels);
  out.resize(static_cast<std::size_t>(rows) * width);
  for (int r = 0; r < rows; ++r) {
    std::memcpy(&out[static_cast<std::size_t>(r) * width], first + r * pitch,
                width);
  }
}

}  // namespace

DwcWeights::DwcWeights(std::span<const std::int8_t> weights, int taps,
                       int channels) {
  EDEA_REQUIRE(weights.size() == static_cast<std::size_t>(taps) *
                                     static_cast<std::size_t>(channels),
               "DWC weight slice size mismatch");
  stage(weights.data(), channels, taps, channels);
}

void DwcWeights::stage(const std::int8_t* first, std::int64_t pitch,
                       int taps, int channels) {
  copy_runs(first, pitch, taps, channels, weights_);
  taps_ = taps;
  channels_ = channels;
  // [pair][channel][2]: taps 2q and 2q + 1 side by side per channel; the
  // last pair of an odd tap count pads with 0.
  weights_t_.assign(static_cast<std::size_t>((taps + 1) / 2) *
                        static_cast<std::size_t>(channels) * 2,
                    0);
  for (int t = 0; t < taps; ++t) {
    std::int16_t* const to = &weights_t_[static_cast<std::size_t>(
        (t / 2) * channels * 2 + t % 2)];
    const std::int8_t* const from =
        &weights_[static_cast<std::size_t>(t * channels)];
    for (int ch = 0; ch < channels; ++ch) to[2 * ch] = from[ch];
  }
}

PwcWeights::PwcWeights(std::span<const std::int8_t> weights, int kernels,
                       int channels) {
  EDEA_REQUIRE(weights.size() == static_cast<std::size_t>(kernels) *
                                     static_cast<std::size_t>(channels),
               "PWC weight block size mismatch");
  stage(weights.data(), channels, kernels, channels);
}

void PwcWeights::stage(const std::int8_t* first, std::int64_t pitch,
                       int kernels, int channels) {
  copy_runs(first, pitch, kernels, channels, weights_);
  kernels_ = kernels;
  channels_ = channels;
  const std::int8_t* const weights = weights_.data();
  // [pair][kernel][2]: a pair's row holds every kernel's weights for its
  // two channels side by side; an odd slice's last pair pads with 0.
  const int pairs = (channels + 1) / 2;
  weights_t_.resize(static_cast<std::size_t>(pairs) *
                    static_cast<std::size_t>(kernels) * 2);
  std::int16_t* const t = weights_t_.data();
  int k0 = 0;
#if defined(__SSE2__)
  if (channels % 8 == 0) {
    // Four kernels x eight channels at a time: each kernel's eight
    // weights, widened, are four int32 lanes (one per channel pair), so
    // a 4 x 4 int32 transpose turns them into four pairs' 16-byte runs.
    for (; k0 + 4 <= kernels; k0 += 4) {
      const std::int8_t* const w = weights + std::int64_t{k0} * channels;
      for (int c0 = 0; c0 < channels; c0 += 8) {
        const __m128i v0 = load8_epi16(w + c0);
        const __m128i v1 = load8_epi16(w + channels + c0);
        const __m128i v2 = load8_epi16(w + 2 * channels + c0);
        const __m128i v3 = load8_epi16(w + 3 * channels + c0);
        const __m128i t01lo = _mm_unpacklo_epi32(v0, v1);
        const __m128i t23lo = _mm_unpacklo_epi32(v2, v3);
        const __m128i t01hi = _mm_unpackhi_epi32(v0, v1);
        const __m128i t23hi = _mm_unpackhi_epi32(v2, v3);
        const auto row = [&](int p) {
          return reinterpret_cast<__m128i*>(
              t + (std::int64_t{c0 / 2 + p} * kernels + k0) * 2);
        };
        _mm_storeu_si128(row(0), _mm_unpacklo_epi64(t01lo, t23lo));
        _mm_storeu_si128(row(1), _mm_unpackhi_epi64(t01lo, t23lo));
        _mm_storeu_si128(row(2), _mm_unpacklo_epi64(t01hi, t23hi));
        _mm_storeu_si128(row(3), _mm_unpackhi_epi64(t01hi, t23hi));
      }
    }
  }
#endif
  for (; k0 < kernels; ++k0) {
    const std::int8_t* const w = weights + std::int64_t{k0} * channels;
    for (int p = 0; p < pairs; ++p) {
      std::int16_t* const to = t + (std::int64_t{p} * kernels + k0) * 2;
      to[0] = w[2 * p];
      to[1] = 2 * p + 1 < channels ? w[2 * p + 1] : 0;
    }
  }
}

// ---------------------------------------------------------------------------
// Specialized fast paths.
//
// All of them compute the same int32 accumulators as the generic path
// (integer addition is exact and order-free in these ranges: at most
// max(k*k, Td) terms of magnitude <= 2^14) and tally MacActivity in bulk:
//   lane_cycles / useful_macs: one per modeled multiply,
//   zero_operand_macs: one per multiply whose activation is zero.
// ---------------------------------------------------------------------------

namespace {

// The int8 operands are character-typed, so the compiler must assume any
// int32 store may alias them; the per-position helpers below take
// restrict-qualified pointers so their channel and kernel loops can
// vectorize.

/// One output position of a 3x3 DWC with taps `Dilation` apart: each of
/// `count` channels' nine taps, summed per kernel row (sum0/sum1/sum2 are
/// the per-row accumulators of the hand-tuned fixed-shape kernels this
/// transformation is borrowed from). The loop walks the channel axis - the
/// innermost dimension of both the window and the weight slice - so each
/// tap is a contiguous int8 stream. `r0` is the position's first tap,
/// `row_pitch` the window's row pitch and `C` its pixel pitch (the slice
/// width, which is also the weight slice's tap pitch). Returns the zero
/// activations read.
template <int Dilation>
std::int64_t dwc3x3_position(const std::int8_t* __restrict r0, int row_pitch,
                             int C, int count,
                             const std::int8_t* __restrict w,
                             std::int32_t* __restrict out) {
  const std::int8_t* const r1 = r0 + Dilation * row_pitch;
  const std::int8_t* const r2 = r0 + 2 * Dilation * row_pitch;
  const int tap = Dilation * C;  // pitch between a row's taps
  std::int32_t zeros = 0;
  for (int ch = 0; ch < count; ++ch) {
    const std::int32_t a00 = r0[ch];
    const std::int32_t a01 = r0[tap + ch];
    const std::int32_t a02 = r0[2 * tap + ch];
    const std::int32_t a10 = r1[ch];
    const std::int32_t a11 = r1[tap + ch];
    const std::int32_t a12 = r1[2 * tap + ch];
    const std::int32_t a20 = r2[ch];
    const std::int32_t a21 = r2[tap + ch];
    const std::int32_t a22 = r2[2 * tap + ch];
    const std::int32_t sum0 =
        a00 * w[ch] + a01 * w[C + ch] + a02 * w[2 * C + ch];
    const std::int32_t sum1 =
        a10 * w[3 * C + ch] + a11 * w[4 * C + ch] + a12 * w[5 * C + ch];
    const std::int32_t sum2 =
        a20 * w[6 * C + ch] + a21 * w[7 * C + ch] + a22 * w[8 * C + ch];
    out[ch] = sum0 + sum1 + sum2;
    zeros += (a00 == 0) + (a01 == 0) + (a02 == 0) + (a10 == 0) +
             (a11 == 0) + (a12 == 0) + (a20 == 0) + (a21 == 0) + (a22 == 0);
  }
  return zeros;
}

#if defined(__SSE2__)

/// Eight channels of one output position of a 3x3 DWC on SSE2. The nine
/// taps pair up - (0,1) (2,3) (4,5) (6,7) and 8 with a zero tap - and
/// each pair's activations, interleaved per channel, are pmaddwd'd
/// against the pair's interleaved int16 weights: one instruction forms
/// four channels' two-tap sums in int32. `wt` points at these channels'
/// tap-pair-0 weights, a pair's weights `C` channels apart; `C` is also
/// the window's pixel pitch. Returns each channel's zero activations, one
/// int16 lane per channel.
template <int Dilation>
__m128i dwc3x3_channels8(const std::int8_t* r0, int row_pitch, int C,
                         const std::int16_t* wt, std::int32_t* out) {
  const auto tap = [&](int t) {
    return load8_epi16(r0 + (t / 3) * Dilation * row_pitch +
                       (t % 3) * Dilation * C);
  };
  const __m128i zero = _mm_setzero_si128();
  __m128i lo = zero;  // channels 0-3
  __m128i hi = zero;  // channels 4-7
  __m128i zeros = zero;
  for (int q = 0; q < 5; ++q) {
    const __m128i a0 = tap(2 * q);
    const __m128i a1 = q < 4 ? tap(2 * q + 1) : zero;
    zeros = _mm_sub_epi16(zeros, _mm_cmpeq_epi16(a0, zero));
    if (q < 4) zeros = _mm_sub_epi16(zeros, _mm_cmpeq_epi16(a1, zero));
    const __m128i* const w =
        reinterpret_cast<const __m128i*>(wt + std::int64_t{q} * C * 2);
    lo = _mm_add_epi32(lo, _mm_madd_epi16(_mm_unpacklo_epi16(a0, a1),
                                          _mm_loadu_si128(w)));
    hi = _mm_add_epi32(hi, _mm_madd_epi16(_mm_unpackhi_epi16(a0, a1),
                                          _mm_loadu_si128(w + 1)));
  }
  _mm_storeu_si128(reinterpret_cast<__m128i*>(out), lo);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(out + 4), hi);
  return zeros;
}

#endif  // __SSE2__

/// 3x3 DWC, stride and dilation compile-time constants. On SSE2 whole
/// groups of eight channels run dwc3x3_channels8; the rest of the slice
/// runs dwc3x3_position.
template <int Stride, int Dilation>
void dwc3x3_kernel(const DwcKernelArgs& a) {
  const int C = a.channels;
  const int rows = a.rows;
  const int cols = a.cols;
  const int row_pitch = a.window_cols * C;
#if defined(__SSE2__)
  const int grouped = C - C % 8;  // channels in whole groups of eight
  __m128i zeros4 = _mm_setzero_si128();  // zero counts, widened to int32
  const __m128i ones = _mm_set1_epi16(1);
#else
  const int grouped = 0;
#endif

  std::int64_t zeros = 0;
  for (int ty = 0; ty < rows; ++ty) {
    for (int tx = 0; tx < cols; ++tx) {
      const std::int8_t* const r0 =
          a.window + ty * Stride * row_pitch + tx * Stride * C;
      std::int32_t* const out = a.acc + (ty * cols + tx) * C;
#if defined(__SSE2__)
      for (int c = 0; c < grouped; c += 8) {
        const __m128i zeros8 = dwc3x3_channels8<Dilation>(
            r0 + c, row_pitch, C, a.weights_t + 2 * c, out + c);
        zeros4 = _mm_add_epi32(zeros4, _mm_madd_epi16(zeros8, ones));
      }
#endif
      if (grouped < C) {
        zeros += dwc3x3_position<Dilation>(r0 + grouped, row_pitch, C,
                                           C - grouped, a.weights + grouped,
                                           out + grouped);
      }
    }
  }
#if defined(__SSE2__)
  alignas(16) std::int32_t lanes[4];
  _mm_store_si128(reinterpret_cast<__m128i*>(lanes), zeros4);
  zeros += std::int64_t{lanes[0]} + lanes[1] + lanes[2] + lanes[3];
#endif
  const std::int64_t macs = std::int64_t{9} * rows * cols * C;
  a.activity->lane_cycles += macs;
  a.activity->useful_macs += macs;
  a.activity->zero_operand_macs += zeros;
}

#if defined(__SSE2__)

/// Floats hold every integer below 2^24 in magnitude exactly.
constexpr float kExactFloatBound = 16777216.0f;

/// Widest slice the SSE2 kernel holds its broadcast activation pairs for
/// on the stack; a wider slice runs the generic kernel.
constexpr int kMaxPwcPairs = 64;

/// Real positions whose broadcast pairs the SSE2 kernel stages at a time.
constexpr int kPwcChunk = 16;

/// 1x1 PWC on SSE2. Every channel pair's two activations at a real
/// position are broadcast as one int32 (low half the even channel) and
/// pmaddwd'd against the pair's [kernel][2] weight row: one instruction
/// multiplies eight int16 operands and sums them pairwise into four
/// kernels' int32 partial dot products - exact, as an int8 x int8 product
/// and the sum of two fit. The kernel walks a chunk of positions at a
/// time: it broadcasts their pairs once, then runs kernel group after
/// kernel group over them with the group's weights held in registers
/// (eight kernels at a time over up to four pairs, four over eight pairs,
/// then four, then one by one), adding each position's sums straight
/// onto the tile's psum block (or overwriting it on a pass's first
/// slice). `Pairs` is the slice's channel-pair count when it is a
/// compile-time constant (full td=8 and td=16 slices), else 0.
/// Zero-activation lanes are counted once per position, dummy positions
/// included, and scaled by the kernel count (the generic path re-reads
/// each activation per kernel).
///
/// The psum range rides along in float: SSE2 has no int32 min/max, but it
/// has minps/maxps, and int32 -> float conversion is monotonic, so the
/// float extremes are the converted int32 extremes - exact whenever they
/// lie below 2^24 in magnitude, which bounds every value in between. A
/// block whose extremes reach 2^24 (over 1,024 input channels of
/// -128 x -128) rescans its outputs in int32.
template <int Pairs>
PsumRange pwc1x1_madd(const PwcKernelArgs& a) {
  const int C = a.channels;
  const int K = a.kernels;
  const int pairs = Pairs > 0 ? Pairs : (C + 1) / 2;
  constexpr int kMaxPairs = Pairs > 0 ? Pairs : kMaxPwcPairs;
  // Quads of kernels per group: as many as keep the group's weights in
  // eight registers.
  constexpr int kQuads = Pairs == 8 ? 1 : 2;
  const std::int16_t* const wt = a.weights_t;

  __m128 lo4 = _mm_setzero_ps();
  __m128 hi4 = _mm_setzero_ps();
  std::int32_t lo = 0;
  std::int32_t hi = 0;
  const auto land = [&](std::int32_t* out, __m128i sum) {
    if (a.accumulate) {
      sum = _mm_add_epi32(sum,
                          _mm_loadu_si128(reinterpret_cast<__m128i*>(out)));
    }
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out), sum);
    const __m128 as_float = _mm_cvtepi32_ps(sum);
    lo4 = _mm_min_ps(lo4, as_float);
    hi4 = _mm_max_ps(hi4, as_float);
  };

  __m128i x[kPwcChunk * kMaxPairs];  // [position][pair], broadcast
  std::int32_t* out[kPwcChunk];      // each position's psum row
  int n = 0;                         // positions staged in x
  // Kernels [k, k + 4 * Quads) over the staged positions.
  const auto group = [&](int k, auto quads) {
    constexpr int Quads = decltype(quads)::value;
    __m128i w[kMaxPairs][Quads];
    for (int p = 0; p < pairs; ++p) {
      for (int q = 0; q < Quads; ++q) {
        w[p][q] = _mm_loadu_si128(reinterpret_cast<const __m128i*>(
            wt + (std::int64_t{p} * K + k + 4 * q) * 2));
      }
    }
    for (int i = 0; i < n; ++i) {
      const __m128i* const xi = x + i * pairs;
      __m128i sum[Quads];
      for (int q = 0; q < Quads; ++q) sum[q] = _mm_setzero_si128();
      for (int p = 0; p < pairs; ++p) {
        for (int q = 0; q < Quads; ++q) {
          sum[q] = _mm_add_epi32(sum[q], _mm_madd_epi16(xi[p], w[p][q]));
        }
      }
      for (int q = 0; q < Quads; ++q) land(out[i] + k + 4 * q, sum[q]);
    }
  };

  const int real = a.real_rows * a.real_cols;
  for (int i0 = 0; i0 < real; i0 += kPwcChunk) {
    n = std::min(kPwcChunk, real - i0);
    for (int i = 0; i < n; ++i) {
      const int r = (i0 + i) / a.real_cols;
      const int c = (i0 + i) % a.real_cols;
      const std::int8_t* const act = a.activations + (r * a.cols + c) * C;
      out[i] = a.psum + r * a.psum_pitch + std::int64_t{c} * K;
      for (int p = 0; p < pairs; ++p) {
        const int ch = 2 * p;
        const auto even = static_cast<std::uint16_t>(act[ch]);
        const auto odd =
            static_cast<std::uint16_t>(ch + 1 < C ? act[ch + 1] : 0);
        x[i * pairs + p] = _mm_set1_epi32(
            static_cast<std::int32_t>(even | (std::uint32_t{odd} << 16)));
      }
    }
    int k = 0;
    for (; k + 4 * kQuads <= K; k += 4 * kQuads) {
      group(k, std::integral_constant<int, kQuads>{});
    }
    for (; k + 4 <= K; k += 4) group(k, std::integral_constant<int, 1>{});
    for (; k < K; ++k) {
      for (int i = 0; i < n; ++i) {
        std::int32_t sum = 0;
        for (int p = 0; p < pairs; ++p) {
          const std::int16_t* const w = wt + (std::int64_t{p} * K + k) * 2;
          const std::int32_t xp = _mm_cvtsi128_si32(x[i * pairs + p]);
          sum += static_cast<std::int16_t>(xp) * w[0] +
                 static_cast<std::int16_t>(xp >> 16) * w[1];
        }
        std::int32_t& psum = out[i][k];
        psum = a.accumulate ? psum + sum : sum;
        lo = std::min(lo, psum);
        hi = std::max(hi, psum);
      }
    }
  }

  alignas(16) float lanes[8];
  _mm_store_ps(lanes, lo4);
  _mm_store_ps(lanes + 4, hi4);
  const float lo_f = *std::min_element(lanes, lanes + 4);
  const float hi_f = *std::max_element(lanes + 4, lanes + 8);
  if (lo_f > -kExactFloatBound && hi_f < kExactFloatBound) {
    lo = std::min(lo, static_cast<std::int32_t>(lo_f));
    hi = std::max(hi, static_cast<std::int32_t>(hi_f));
  } else {
    for (int r = 0; r < a.real_rows; ++r) {
      const std::int32_t* const row = a.psum + r * a.psum_pitch;
      for (std::int64_t i = 0; i < std::int64_t{a.real_cols} * K; ++i) {
        lo = std::min(lo, row[i]);
        hi = std::max(hi, row[i]);
      }
    }
  }

  const std::int64_t positions = std::int64_t{a.rows} * a.cols;
  const std::int8_t* const act = a.activations;
  std::int64_t zero_acts = 0;
  for (std::int64_t i = 0; i < positions * C; ++i) zero_acts += act[i] == 0;
  const std::int64_t dots = positions * K;
  a.activity->useful_macs += dots * C;
  // Every dot product clocks all Td lanes; lanes in [channels, Td) idle.
  a.activity->lane_cycles += dots * a.td;
  a.activity->zero_operand_macs += zero_acts * K;
  return PsumRange{lo, hi};
}

PsumRange pwc1x1_kernel(const PwcKernelArgs& a) {
  switch ((a.channels + 1) / 2) {
    case 4:
      return pwc1x1_madd<4>(a);
    case 8:
      return pwc1x1_madd<8>(a);
    default:
      return (a.channels + 1) / 2 <= kMaxPwcPairs ? pwc1x1_madd<0>(a)
                                                 : generic_pwc_kernel(a);
  }
}

#endif  // __SSE2__

}  // namespace

// ---------------------------------------------------------------------------
// Kernel choice.
// ---------------------------------------------------------------------------

DwcKernelFn dwc_kernel_for(int kernel, int stride, int dilation,
                           KernelPolicy policy) noexcept {
  if (policy == KernelPolicy::kForceGeneric || kernel != 3) {
    return &generic_dwc_kernel;
  }
  if (stride == 1 && dilation == 1) return &dwc3x3_kernel<1, 1>;
  if (stride == 1 && dilation == 2) return &dwc3x3_kernel<1, 2>;
  if (stride == 2 && dilation == 1) return &dwc3x3_kernel<2, 1>;
  if (stride == 2 && dilation == 2) return &dwc3x3_kernel<2, 2>;
  return &generic_dwc_kernel;
}

PwcKernelFn pwc_kernel_for([[maybe_unused]] KernelPolicy policy) noexcept {
#if defined(__SSE2__)
  if (policy == KernelPolicy::kAuto) return &pwc1x1_kernel;
#endif
  return &generic_pwc_kernel;
}

}  // namespace edea::core
