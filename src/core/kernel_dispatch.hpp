// kernel_dispatch.hpp - shape-specialized fast-path kernels for the two
// engines, picked per engine call by a fixed shape switch with the
// generic path as fallback.
//
// A kernel runs a whole block of engine steps in one call: the DWC kernel
// every Tn x Tm step of a (buffer tile, channel slice) pass over the
// pass's gathered input block, the PWC kernel every kernel of the loaded
// slice over the pass's [rows][cols][channels] intermediate block into
// the tile's partial sums. A single engine step is a one-step block.
// dwc_kernel_for / pwc_kernel_for let a hot (kernel, stride, dilation)
// shape select a hand-specialized implementation with unrolled,
// compiler-vectorizable accumulator loops, while every other shape falls
// back to the generic reference implementation.
//
// Specialized shapes (at any depth multiplier: the window and weight
// builders fold the multiplier before the engines run):
//   dwc k=3 s=1 d=1, dwc k=3 s=2 d=1, dwc k=3 s=1 d=2, dwc k=3 s=2 d=2
//     - one template, the nine tap offsets scaled by the dilation. On
//       SSE2 targets each group of eight channels pairs up the taps and
//       runs pmaddwd over the tap-pair-interleaved int16 weights staged
//       once per layer; the channels of a ragged slice past the last
//       group of eight (and every channel elsewhere) run a portable loop
//       the compiler vectorizes;
//   pwc k=1 (targets with SSE2 - every x86-64)
//     - SSE2 `pmaddwd` (_mm_madd_epi16) dot products over the int16
//       weights staged once per layer, laid out [channel pair][kernel][2]:
//       one 16-byte load holds four kernels' weights for a pair of
//       channels, and one pmaddwd against the broadcast activation pair
//       yields those four kernels' two-channel sums in int32. A target
//       without SSE2 has no PWC specialization and runs the generic
//       kernel.
// Every other shape (other kernel extents, dilations above 2) runs the
// generic path.
//
// The contract every specialized kernel must honor (pinned by
// tests/kernel_dispatch_test.cpp and the differential harness's
// specialized-vs-forced-generic axis):
//   1. bit-identical accumulators to the generic path. All sums are int32
//     with |product| <= 128*128 and at most a few dozen terms, so integer
//     addition is associative in range - any summation order is exact.
//   2. bit-identical MacActivity accounting: one lane_cycle and one
//     useful_mac per modeled multiply, one zero_operand_mac per multiply
//     whose activation operand is zero. Specialized kernels may tally in
//     bulk; the totals must match the generic per-multiply tallies.
//   3. PWC only: a block accumulates its real positions straight into the
//     buffer tile's partial-sum block - overwriting it on a pass's first
//     slice - tallies its dummy lanes without computing them, and reports
//     the range of the partial sums it left (PwcKernelArgs, PsumRange).
// Cycle/energy/access counters live above the kernel boundary (in the
// engines and the schedules) and are untouched by the kernel choice, so
// a specialized run's every counter stays bit-identical to generic.
//
// A/B lever: KernelPolicy::kForceGeneric (per engine / accelerator,
// reachable through AcceleratorBackend::set_kernel_policy) pins the
// generic path - what the micro-bench matrix and bit-identity suites
// compare against.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "arch/counters.hpp"

namespace edea::core {

/// Kernel implementation policy of an engine (or a whole accelerator):
/// kAuto runs the specialized kernel of the block's shape where there is
/// one, kForceGeneric pins the generic reference path (the A/B lever).
enum class KernelPolicy : int { kAuto = 0, kForceGeneric = 1 };

/// Operands of one DWC engine call over a block of rows x cols output
/// positions, as raw spans: everything the inner loop reads and the
/// accumulator block it writes. Output (r, c) reads the taps at window
/// pixel (r * stride + i * dilation, c * stride + j * dilation). Kernels
/// own no scratch and touch nothing else - in particular no engine member
/// state, so a kernel invocation is reentrant by construction. The
/// weights come in two layouts: `weights` (what the generic path reads)
/// and the same values widened to int16 and interleaved by tap pair,
/// `weights_t` (what the SSE2 kernel streams): element [q][ch][j] is
/// channel ch's weight for tap 2q + j (taps in [kh][kw] order), and 0
/// past the last tap.
struct DwcKernelArgs {
  const std::int8_t* window = nullptr;      ///< [..][window_cols][channels]
  int window_cols = 0;                      ///< the window's row pitch
  int channels = 0;                         ///< active channels (<= Td)
  const std::int8_t* weights = nullptr;     ///< [kh][kw][channels]
  const std::int16_t* weights_t = nullptr;  ///< [tap pair][channels][2]
  int rows = 0;                             ///< output rows of the block
  int cols = 0;                             ///< output cols of the block
  int kernel = 0;                           ///< kernel extent
  int stride = 0;
  int dilation = 0;
  std::int32_t* acc = nullptr;              ///< out: [rows][cols][channels]
  arch::MacActivity* activity = nullptr;
};
using DwcKernelFn = void (*)(const DwcKernelArgs&);

/// Operands of one PWC engine call: every loaded kernel's dot products
/// across the slice channels at a block's rows x cols positions,
/// accumulated straight into the buffer tile's partial-sum block. Only
/// the first `real_rows` x `real_cols` positions lie inside the tile; the
/// others are dummy lanes, which a kernel tallies like real ones (their
/// activations are read and their zeros counted) but computes nothing
/// for. `td` is the configured adder-tree fan-in: lanes for channels in
/// [channels, td) are modeled idle, and a kernel must account their
/// lane_cycles exactly like the generic path. The weights come in two
/// layouts: `weights` (what the generic path reads) and the same values
/// widened to int16 and interleaved by channel pair, `weights_t` (what
/// the SSE2 kernel streams): element [p][k][j] is kernel k's weight for
/// channel 2p + j, and 0 past the last channel of an odd-width slice.
struct PwcKernelArgs {
  const std::int8_t* activations = nullptr;  ///< [rows][cols][channels]
  const std::int8_t* weights = nullptr;      ///< [kernels][channels]
  const std::int16_t* weights_t = nullptr;   ///< [channel pair][kernels][2]
  int rows = 0;
  int cols = 0;
  int real_rows = 0;  ///< positions [0, real_rows) x [0, real_cols) lie
  int real_cols = 0;  ///< inside the tile; the rest are dummy lanes
  int channels = 0;   ///< active channels (<= td)
  int kernels = 0;    ///< kernels of the call (their groups together)
  int td = 0;         ///< configured channel lanes per dot product
  /// In/out: kernel k of position (r, c) is psum[r * psum_pitch +
  /// c * kernels + k] - the block's origin inside the tile's
  /// [rows][cols][kernels] block, `psum_pitch` entries per block row.
  std::int32_t* psum = nullptr;
  std::int64_t psum_pitch = 0;
  /// Add onto the block; false (a pass's first slice) overwrites it.
  bool accumulate = false;
  arch::MacActivity* activity = nullptr;
};

/// The range of the partial sums a PWC call left in the block, over its
/// real positions (both ends start at 0). It feeds max |psum|.
struct PsumRange {
  std::int32_t lo = 0;
  std::int32_t hi = 0;
};
using PwcKernelFn = PsumRange (*)(const PwcKernelArgs&);

/// A DWC kernel slice in both layouts the kernels read, staged from one
/// source so the two always agree: weights() [taps][channels] (taps in
/// [kh][kw] order), what the generic path reads, and weights_t(), the
/// same values in DwcKernelArgs::weights_t's int16 tap-pair layout, what
/// the SSE2 kernel streams. DscDatapath stages every slice once per
/// layer.
class DwcWeights {
 public:
  DwcWeights() = default;
  /// Stages a contiguous [taps][channels] slice.
  DwcWeights(std::span<const std::int8_t> weights, int taps, int channels);

  /// Stages `taps` runs of `channels` weights, run t at `first + t *
  /// pitch` (a slice of a wider [kh][kw][D] kernel), reusing the storage
  /// of the previous stage.
  void stage(const std::int8_t* first, std::int64_t pitch, int taps,
             int channels);

  [[nodiscard]] int taps() const noexcept { return taps_; }
  [[nodiscard]] int channels() const noexcept { return channels_; }
  [[nodiscard]] std::span<const std::int8_t> weights() const noexcept {
    return weights_;
  }
  [[nodiscard]] std::span<const std::int16_t> weights_t() const noexcept {
    return weights_t_;
  }

 private:
  int taps_ = 0;
  int channels_ = 0;
  std::vector<std::int8_t> weights_;     ///< [tap][channel]
  std::vector<std::int16_t> weights_t_;  ///< [tap pair][channel][2]
};

/// A PWC weight block in both layouts the kernels read, staged from one
/// source: weights() [kernels][channels], what the generic path reads,
/// and weights_t(), the same values in PwcKernelArgs::weights_t's int16
/// channel-pair layout, what the SSE2 kernel streams.
class PwcWeights {
 public:
  PwcWeights() = default;
  /// Stages a contiguous [kernels][channels] block.
  PwcWeights(std::span<const std::int8_t> weights, int kernels, int channels);

  /// Stages `kernels` runs of `channels` weights, run k at `first + k *
  /// pitch` (a slice of a wider [K][D] block), reusing the storage of the
  /// previous stage.
  void stage(const std::int8_t* first, std::int64_t pitch, int kernels,
             int channels);

  [[nodiscard]] int kernels() const noexcept { return kernels_; }
  [[nodiscard]] int channels() const noexcept { return channels_; }
  [[nodiscard]] std::span<const std::int8_t> weights() const noexcept {
    return weights_;
  }
  [[nodiscard]] std::span<const std::int16_t> weights_t() const noexcept {
    return weights_t_;
  }

 private:
  int kernels_ = 0;
  int channels_ = 0;
  std::vector<std::int8_t> weights_;     ///< [kernel][channel]
  std::vector<std::int16_t> weights_t_;  ///< [channel pair][kernel][2]
};

/// The generic reference implementations: the exact loops the engines ran
/// before the specialized kernels existed (per-multiply MacLane
/// accounting, pairwise AdderTree summation) with caller-local scratch.
/// Every shape without a specialization - and every shape under
/// kForceGeneric - runs these.
void generic_dwc_kernel(const DwcKernelArgs& args);
PsumRange generic_pwc_kernel(const PwcKernelArgs& args);

/// The kernel a DWC block of this shape runs: the specialized 3x3 kernel
/// at strides 1 and 2 and dilations 1 and 2, generic_dwc_kernel for any
/// other shape and under kForceGeneric.
[[nodiscard]] DwcKernelFn dwc_kernel_for(int kernel, int stride,
                                         int dilation,
                                         KernelPolicy policy) noexcept;

/// The kernel a PWC block runs: the SSE2 kernel on SSE2 targets,
/// generic_pwc_kernel elsewhere and under kForceGeneric.
[[nodiscard]] PwcKernelFn pwc_kernel_for(KernelPolicy policy) noexcept;

}  // namespace edea::core
