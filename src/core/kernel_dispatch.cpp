#include "core/kernel_dispatch.hpp"

#include <algorithm>
#include <cstdlib>
#include <map>
#include <mutex>

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
    for (int ty = 0; ty < a.tn; ++ty) {
      for (int tx = 0; tx < a.tm; ++tx) {
        // One 9-input adder tree instance: 3x3 products for this output.
        for (int i = 0; i < k; ++i) {
          for (int j = 0; j < k; ++j) {
            const int r = ty * a.stride + i * a.dilation;
            const int c = tx * a.stride + j * a.dilation;
            const std::int8_t act =
                a.window[static_cast<std::size_t>((r * a.extent + c) *
                                                      a.channels +
                                                  ch)];
            const std::int8_t w = a.weights[static_cast<std::size_t>(
                (i * k + j) * a.channels + ch)];
            products[static_cast<std::size_t>(i * k + j)] =
                lane.multiply(act, w, *a.activity);
          }
        }
        a.acc[static_cast<std::size_t>((ty * a.tm + tx) * a.channels + ch)] =
            tree.sum(products);
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

}  // namespace

void stage_dwc_weights(std::span<const std::int8_t> weights, int taps,
                       int channels, std::vector<std::int16_t>& out) {
  // [pair][channel][2]: taps 2q and 2q + 1 side by side per channel; the
  // last pair of an odd tap count pads with 0.
  out.assign(static_cast<std::size_t>((taps + 1) / 2) *
                 static_cast<std::size_t>(channels) * 2,
             0);
  for (int t = 0; t < taps; ++t) {
    std::int16_t* const to = &out[static_cast<std::size_t>(
        (t / 2) * channels * 2 + t % 2)];
    const std::int8_t* const from =
        &weights[static_cast<std::size_t>(t * channels)];
    for (int ch = 0; ch < channels; ++ch) to[2 * ch] = from[ch];
  }
}

void stage_pwc_weights(std::span<const std::int8_t> weights, int kernels,
                       int channels, std::vector<std::int16_t>& out) {
  // [pair][kernel][2]: a pair's row holds every kernel's weights for its
  // two channels side by side; an odd slice's last pair pads with 0.
  const int pairs = (channels + 1) / 2;
  out.resize(static_cast<std::size_t>(pairs) *
             static_cast<std::size_t>(kernels) * 2);
  std::int16_t* const t = out.data();
  int k0 = 0;
#if defined(__SSE2__)
  if (channels % 8 == 0) {
    // Four kernels x eight channels at a time: each kernel's eight
    // weights, widened, are four int32 lanes (one per channel pair), so
    // a 4 x 4 int32 transpose turns them into four pairs' 16-byte runs.
    for (; k0 + 4 <= kernels; k0 += 4) {
      const std::int8_t* const w =
          &weights[static_cast<std::size_t>(k0 * channels)];
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
    const std::int8_t* const w =
        &weights[static_cast<std::size_t>(k0 * channels)];
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
  const int tn = a.tn;
  const int tm = a.tm;
  const int row_pitch = a.extent * C;
#if defined(__SSE2__)
  const int grouped = C - C % 8;  // channels in whole groups of eight
  __m128i zeros4 = _mm_setzero_si128();  // zero counts, widened to int32
  const __m128i ones = _mm_set1_epi16(1);
#else
  const int grouped = 0;
#endif

  std::int64_t zeros = 0;
  for (int ty = 0; ty < tn; ++ty) {
    for (int tx = 0; tx < tm; ++tx) {
      const std::int8_t* const r0 =
          a.window + ty * Stride * row_pitch + tx * Stride * C;
      std::int32_t* const out = a.acc + (ty * tm + tx) * C;
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
  const std::int64_t macs = std::int64_t{9} * tn * tm * C;
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

/// 1x1 PWC on SSE2. For each real position, every channel pair's two
/// activations are broadcast as one int32 (low half the even channel) and
/// pmaddwd'd against the pair's [kernel][2] weight row: one instruction
/// multiplies eight int16 operands and sums them pairwise into four
/// kernels' int32 partial dot products - exact, as an int8 x int8 product
/// and the sum of two fit. The sums over the pairs add straight onto the
/// tile's psum block (or overwrite it on a pass's first slice), eight
/// kernels at a time in two independent chains, then four, then one by
/// one. `Pairs` is the slice's channel-pair count when it is a
/// compile-time constant (full td=8 and td=16 slices), else 0.
/// Zero-activation lanes are counted once per position, dummy positions
/// included, and scaled by the kernel count (the generic path re-reads
/// each activation per kernel).
///
/// The psum range rides along in float: SSE2 has no int32 min/max, but it
/// has minps/maxps, and int32 -> float conversion is monotonic, so the
/// float extremes are the converted int32 extremes - exact whenever they
/// lie below 2^24 in magnitude, which bounds every value in between. A
/// step whose extremes reach 2^24 (over 1,024 input channels of
/// -128 x -128) rescans its outputs in int32.
template <int Pairs>
PsumRange pwc1x1_madd(const PwcKernelArgs& a) {
  const int C = a.channels;
  const int K = a.kernels;
  const int pairs = Pairs > 0 ? Pairs : (C + 1) / 2;
  const std::int16_t* const wt = a.weights_t;
  // Pair p's weights for kernels [k, k + 4) are one 16-byte run.
  const auto weights_at = [&](int p, int k) {
    return reinterpret_cast<const __m128i*>(wt + (std::int64_t{p} * K + k) * 2);
  };

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

  std::int32_t x[kMaxPwcPairs] = {};  // broadcast activation pairs
  for (int r = 0; r < a.real_rows; ++r) {
    for (int c = 0; c < a.real_cols; ++c) {
      const std::int8_t* const act = a.activations + (r * a.cols + c) * C;
      for (int p = 0; p < pairs; ++p) {
        const int ch = 2 * p;
        const auto even = static_cast<std::uint16_t>(act[ch]);
        const auto odd =
            static_cast<std::uint16_t>(ch + 1 < C ? act[ch + 1] : 0);
        x[p] = static_cast<std::int32_t>(even | (std::uint32_t{odd} << 16));
      }
      std::int32_t* const out =
          a.psum + r * a.psum_pitch + std::int64_t{c} * K;
      int k = 0;
      for (; k + 8 <= K; k += 8) {
        __m128i sum0 = _mm_setzero_si128();
        __m128i sum1 = _mm_setzero_si128();
        for (int p = 0; p < pairs; ++p) {
          const __m128i xp = _mm_set1_epi32(x[p]);
          const __m128i* const w = weights_at(p, k);
          sum0 = _mm_add_epi32(sum0,
                               _mm_madd_epi16(xp, _mm_loadu_si128(w)));
          sum1 = _mm_add_epi32(sum1,
                               _mm_madd_epi16(xp, _mm_loadu_si128(w + 1)));
        }
        land(out + k, sum0);
        land(out + k + 4, sum1);
      }
      for (; k + 4 <= K; k += 4) {
        __m128i sum = _mm_setzero_si128();
        for (int p = 0; p < pairs; ++p) {
          sum = _mm_add_epi32(sum, _mm_madd_epi16(_mm_set1_epi32(x[p]),
                                                  _mm_loadu_si128(
                                                      weights_at(p, k))));
        }
        land(out + k, sum);
      }
      for (; k < K; ++k) {
        std::int32_t sum = 0;
        for (int p = 0; p < pairs; ++p) {
          const std::int16_t* const w = wt + (std::int64_t{p} * K + k) * 2;
          sum += static_cast<std::int16_t>(x[p]) * w[0] +
                 static_cast<std::int16_t>(x[p] >> 16) * w[1];
        }
        out[k] = a.accumulate ? out[k] + sum : sum;
        lo = std::min(lo, out[k]);
        hi = std::max(hi, out[k]);
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

void validate_key(const KernelShapeKey& key) {
  EDEA_REQUIRE(key.kernel > 0 && key.kernel % 2 == 1,
               "kernel extent must be positive and odd");
  EDEA_REQUIRE(key.family != OpFamily::kPwc || key.kernel == 1,
               "PWC kernels are 1x1 by definition");
  EDEA_REQUIRE(key.stride == 1 || key.stride == 2, "stride must be 1 or 2");
  EDEA_REQUIRE(key.dilation >= 1, "dilation must be >= 1");
  EDEA_REQUIRE(key.depth_multiplier >= 0,
               "depth_multiplier must be >= 1, or 0 for the wildcard");
}

}  // namespace

std::string KernelShapeKey::to_string() const {
  return std::string(family == OpFamily::kDwc ? "dwc" : "pwc") +
         " k=" + std::to_string(kernel) + " s=" + std::to_string(stride) +
         " d=" + std::to_string(dilation) + " m=" +
         (depth_multiplier == 0 ? std::string("any")
                                : std::to_string(depth_multiplier));
}

// ---------------------------------------------------------------------------
// Registry.
// ---------------------------------------------------------------------------

struct KernelDispatch::Impl {
  mutable std::mutex mutex;
  std::map<KernelShapeKey, std::pair<DwcKernelFn, std::string>> dwc;
  std::map<KernelShapeKey, std::pair<PwcKernelFn, std::string>> pwc;
};

KernelDispatch::KernelDispatch() : impl_(new Impl) {
  // Built-ins registered in-registry (not from a static elsewhere) so
  // static-library link order can never drop a fast path. All wildcard
  // the depth multiplier: the engine-level math is multiplier-invariant.
  KernelShapeKey key;
  key.family = OpFamily::kDwc;
  key.kernel = 3;
  key.depth_multiplier = 0;
  key.stride = 1;
  key.dilation = 1;
  register_dwc(key, &dwc3x3_kernel<1, 1>, "dwc3x3_s1_rowsum");
  key.dilation = 2;
  register_dwc(key, &dwc3x3_kernel<1, 2>, "dwc3x3_s1_d2_rowsum");
  key.stride = 2;
  key.dilation = 1;
  register_dwc(key, &dwc3x3_kernel<2, 1>, "dwc3x3_s2_rowsum");
  key.dilation = 2;
  register_dwc(key, &dwc3x3_kernel<2, 2>, "dwc3x3_s2_d2_rowsum");
#if defined(__SSE2__)
  key.family = OpFamily::kPwc;
  key.kernel = 1;
  key.stride = 1;
  key.dilation = 1;
  register_pwc(key, &pwc1x1_kernel, "pwc1x1_sse2_madd");
#endif
}

KernelDispatch& KernelDispatch::instance() {
  static KernelDispatch dispatch;
  return dispatch;
}

void KernelDispatch::register_dwc(const KernelShapeKey& key, DwcKernelFn fn,
                                  std::string label) {
  EDEA_REQUIRE(key.family == OpFamily::kDwc,
               "register_dwc key must have family kDwc");
  EDEA_REQUIRE(fn != nullptr, "kernel function must be non-null");
  validate_key(key);
  std::lock_guard<std::mutex> lock(impl_->mutex);
  impl_->dwc[key] = {fn, std::move(label)};
}

void KernelDispatch::register_pwc(const KernelShapeKey& key, PwcKernelFn fn,
                                  std::string label) {
  EDEA_REQUIRE(key.family == OpFamily::kPwc,
               "register_pwc key must have family kPwc");
  EDEA_REQUIRE(fn != nullptr, "kernel function must be non-null");
  validate_key(key);
  std::lock_guard<std::mutex> lock(impl_->mutex);
  impl_->pwc[key] = {fn, std::move(label)};
}

DwcKernelFn KernelDispatch::find_dwc(const KernelShapeKey& key) const {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  auto it = impl_->dwc.find(key);
  if (it == impl_->dwc.end() && key.depth_multiplier != 0) {
    KernelShapeKey wildcard = key;
    wildcard.depth_multiplier = 0;
    it = impl_->dwc.find(wildcard);
  }
  return it == impl_->dwc.end() ? &generic_dwc_kernel : it->second.first;
}

PwcKernelFn KernelDispatch::find_pwc(const KernelShapeKey& key) const {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  auto it = impl_->pwc.find(key);
  if (it == impl_->pwc.end() && key.depth_multiplier != 0) {
    KernelShapeKey wildcard = key;
    wildcard.depth_multiplier = 0;
    it = impl_->pwc.find(wildcard);
  }
  return it == impl_->pwc.end() ? &generic_pwc_kernel : it->second.first;
}

bool KernelDispatch::has_specialization(const KernelShapeKey& key) const {
  return key.family == OpFamily::kDwc ? find_dwc(key) != &generic_dwc_kernel
                                      : find_pwc(key) != &generic_pwc_kernel;
}

std::vector<std::string> KernelDispatch::registered_shapes() const {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  std::vector<std::string> shapes;
  shapes.reserve(impl_->dwc.size() + impl_->pwc.size());
  for (const auto& [key, entry] : impl_->dwc) {
    shapes.push_back(key.to_string() + " -> " + entry.second);
  }
  for (const auto& [key, entry] : impl_->pwc) {
    shapes.push_back(key.to_string() + " -> " + entry.second);
  }
  return shapes;
}

KernelPolicy KernelDispatch::default_policy() {
  static const KernelPolicy policy = [] {
    const char* env = std::getenv("EDEA_FORCE_GENERIC_KERNELS");
    const bool forced =
        env != nullptr && *env != '\0' && std::string(env) != "0";
    return forced ? KernelPolicy::kForceGeneric : KernelPolicy::kAuto;
  }();
  return policy;
}

}  // namespace edea::core
