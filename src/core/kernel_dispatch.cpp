#include "core/kernel_dispatch.hpp"

#include <cstdlib>
#include <map>
#include <mutex>

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

void generic_pwc_kernel(const PwcKernelArgs& a) {
  const arch::MacLane lane;
  arch::AdderTree tree(a.td);
  std::vector<std::int32_t> products(static_cast<std::size_t>(a.td));

  for (int r = 0; r < a.rows; ++r) {
    for (int c = 0; c < a.cols; ++c) {
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
        a.psum[static_cast<std::size_t>((r * a.cols + c) * a.kernels + kk)] =
            tree.sum(products);
      }
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

/// One output position of a 3x3 DWC with taps `Dilation` apart: every
/// channel's nine taps, summed per kernel row (sum0/sum1/sum2 are the
/// per-row accumulators of the hand-tuned fixed-shape kernels this
/// transformation is borrowed from). The loop walks the channel axis - the
/// innermost dimension of both the window and the weight slice - so each
/// tap is a contiguous int8 stream. `r0` is the position's first tap,
/// `row_pitch` the window's row pitch. Returns the zero activations read.
template <int Dilation>
std::int64_t dwc3x3_position(const std::int8_t* __restrict r0, int row_pitch,
                             int C, const std::int8_t* __restrict w,
                             std::int32_t* __restrict out) {
  const std::int8_t* const r1 = r0 + Dilation * row_pitch;
  const std::int8_t* const r2 = r0 + 2 * Dilation * row_pitch;
  const int tap = Dilation * C;  // pitch between a row's taps
  std::int32_t zeros = 0;
  for (int ch = 0; ch < C; ++ch) {
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

/// 3x3 DWC, stride and dilation compile-time constants.
template <int Stride, int Dilation>
void dwc3x3_kernel(const DwcKernelArgs& a) {
  const int C = a.channels;
  const int tn = a.tn;
  const int tm = a.tm;
  const int row_pitch = a.extent * C;

  std::int64_t zeros = 0;
  for (int ty = 0; ty < tn; ++ty) {
    for (int tx = 0; tx < tm; ++tx) {
      zeros += dwc3x3_position<Dilation>(
          a.window + ty * Stride * row_pitch + tx * Stride * C, row_pitch, C,
          a.weights, a.acc + (ty * tm + tx) * C);
    }
  }
  const std::int64_t macs = std::int64_t{9} * tn * tm * C;
  a.activity->lane_cycles += macs;
  a.activity->useful_macs += macs;
  a.activity->zero_operand_macs += zeros;
}

/// Eight consecutive channels' contribution to one position's dot
/// products over `K` kernels: out[k] = sum_c x[c] * w[c][k] (First), else
/// out[k] += that sum. `w` is the transposed weights' row of the first
/// channel. Each product is formed in int16 - an int8 x int8 product fits,
/// (-128) * (-128) = 16384 - and summed in int32.
template <bool First>
void pwc_channels8(const std::int8_t* x, const std::int16_t* __restrict w,
                   int K, std::int32_t* __restrict out) {
  const std::int16_t x0 = x[0], x1 = x[1], x2 = x[2], x3 = x[3];
  const std::int16_t x4 = x[4], x5 = x[5], x6 = x[6], x7 = x[7];
  const std::int16_t* const w0 = w;
  const std::int16_t* const w1 = w0 + K;
  const std::int16_t* const w2 = w1 + K;
  const std::int16_t* const w3 = w2 + K;
  const std::int16_t* const w4 = w3 + K;
  const std::int16_t* const w5 = w4 + K;
  const std::int16_t* const w6 = w5 + K;
  const std::int16_t* const w7 = w6 + K;
  for (int k = 0; k < K; ++k) {
    const std::int32_t sum =
        std::int32_t{static_cast<std::int16_t>(x0 * w0[k])} +
        static_cast<std::int16_t>(x1 * w1[k]) +
        static_cast<std::int16_t>(x2 * w2[k]) +
        static_cast<std::int16_t>(x3 * w3[k]) +
        static_cast<std::int16_t>(x4 * w4[k]) +
        static_cast<std::int16_t>(x5 * w5[k]) +
        static_cast<std::int16_t>(x6 * w6[k]) +
        static_cast<std::int16_t>(x7 * w7[k]);
    out[k] = First ? sum : out[k] + sum;
  }
}

/// One channel's contribution, for the channels of a ragged slice past
/// its last whole group of eight.
template <bool First>
void pwc_channel1(std::int8_t x, const std::int16_t* __restrict w, int K,
                  std::int32_t* __restrict out) {
  const std::int16_t x0 = x;
  for (int k = 0; k < K; ++k) {
    const std::int32_t product = static_cast<std::int16_t>(x0 * w[k]);
    out[k] = First ? product : out[k] + product;
  }
}

/// 1x1 PWC: every kernel's dot product across the slice channels, for
/// each position. The loops run kernel-innermost over the transposed
/// weights, so every load and store is contiguous; the slice width only
/// decides how many channels each pass over a position's outputs adds.
/// Zero-activation lanes are counted once per position and scaled by the
/// kernel count (the generic path re-reads each activation per kernel).
void pwc1x1_kernel(const PwcKernelArgs& a) {
  const int C = a.channels;
  const int K = a.kernels;
  const int positions = a.rows * a.cols;
  const std::int16_t* const wt = a.weights_t;

  std::int64_t zero_acts = 0;
  for (int p = 0; p < positions; ++p) {
    const std::int8_t* const act = a.activations + p * C;
    std::int32_t* const out = a.psum + p * K;
    int ch = 0;
    if (C >= 8) {
      pwc_channels8<true>(act, wt, K, out);
      ch = 8;
    } else {
      pwc_channel1<true>(act[0], wt, K, out);
      ch = 1;
    }
    for (; ch + 8 <= C; ch += 8) {
      pwc_channels8<false>(act + ch, wt + ch * K, K, out);
    }
    for (; ch < C; ++ch) pwc_channel1<false>(act[ch], wt + ch * K, K, out);
    for (int c = 0; c < C; ++c) zero_acts += act[c] == 0;
  }

  const std::int64_t dots = std::int64_t{1} * positions * K;
  a.activity->useful_macs += dots * C;
  // Every dot product clocks all Td lanes; lanes in [channels, Td) idle.
  a.activity->lane_cycles += dots * a.td;
  a.activity->zero_operand_macs += zero_acts * K;
}

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
  key.family = OpFamily::kPwc;
  key.kernel = 1;
  key.stride = 1;
  key.dilation = 1;
  register_pwc(key, &pwc1x1_kernel, "pwc1x1_kernel_innermost");
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
