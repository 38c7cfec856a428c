// kernel_dispatch_test - the shape-specialized kernels: which shape runs
// which kernel, the force-generic lever, and the bit-identity contract
// every specialized kernel must honor (outputs AND MacActivity tallies
// equal to the generic reference, across full/partial slices, strides,
// and all-zero inputs).
#include "core/kernel_dispatch.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "core/dsc_datapath.hpp"
#include "core/dwc_engine.hpp"
#include "core/pwc_engine.hpp"
#include "core/tiler.hpp"
#include "nn/model_zoo.hpp"
#include "util/random.hpp"

namespace edea::core {
namespace {

// ---------------------------------------------------------- selection ---

TEST(KernelDispatch, SelectionTableIsPinned) {
  constexpr KernelPolicy kAuto = KernelPolicy::kAuto;
  constexpr KernelPolicy kGeneric = KernelPolicy::kForceGeneric;
  // The four 3x3 DWC shapes - strides 1/2 x dilations 1/2 - each run a
  // kernel of their own, and the generic one under kForceGeneric.
  std::set<DwcKernelFn> specialized;
  for (const int stride : {1, 2}) {
    for (const int dilation : {1, 2}) {
      const DwcKernelFn fn = dwc_kernel_for(3, stride, dilation, kAuto);
      EXPECT_NE(fn, &generic_dwc_kernel)
          << "stride=" << stride << " dilation=" << dilation;
      EXPECT_EQ(dwc_kernel_for(3, stride, dilation, kGeneric),
                &generic_dwc_kernel);
      specialized.insert(fn);
    }
  }
  EXPECT_EQ(specialized.size(), 4u);
  // Shapes with no fast path run the generic kernel.
  EXPECT_EQ(dwc_kernel_for(3, 1, 3, kAuto), &generic_dwc_kernel);  // d=3
  EXPECT_EQ(dwc_kernel_for(5, 1, 1, kAuto), &generic_dwc_kernel);  // 5x5
  // The PWC specialization is SSE2's.
#if defined(__SSE2__)
  EXPECT_NE(pwc_kernel_for(kAuto), &generic_pwc_kernel);
#else
  EXPECT_EQ(pwc_kernel_for(kAuto), &generic_pwc_kernel);
#endif
  EXPECT_EQ(pwc_kernel_for(kGeneric), &generic_pwc_kernel);
}

// ----------------------------------------------- engine-level routing ---

TEST(KernelDispatch, ForceGenericPolicyRoutesAroundSpecializations) {
  // Identical engines, one pinned generic: outputs and activity must be
  // bit-identical - that IS the escape hatch's contract.
  const EdeaConfig cfg = EdeaConfig::paper();
  DwcEngine fast(cfg);
  DwcEngine slow(cfg);
  slow.set_kernel_policy(KernelPolicy::kForceGeneric);
  EXPECT_EQ(fast.kernel_policy(), KernelPolicy::kAuto);
  EXPECT_EQ(slow.kernel_policy(), KernelPolicy::kForceGeneric);

  edea::Rng rng(4001);
  std::vector<std::int8_t> w(static_cast<std::size_t>(9 * cfg.td));
  for (auto& v : w) v = static_cast<std::int8_t>(rng.uniform_int(-128, 127));
  const DwcWeights staged(w, 9, cfg.td);
  fast.load_weights(staged);
  slow.load_weights(staged);

  std::vector<std::int8_t> window(static_cast<std::size_t>(16 * cfg.td));
  for (auto& v : window) {
    v = static_cast<std::int8_t>(rng.uniform_int(-128, 127));
  }

  DwcBlockOutput a;
  DwcBlockOutput b;
  fast.run_block(window, cfg.tn, cfg.tm, 1, 1, a);
  slow.run_block(window, cfg.tn, cfg.tm, 1, 1, b);
  EXPECT_EQ(a.acc, b.acc);
  EXPECT_EQ(fast.activity(), slow.activity());
}

// ------------------------------------------------- bit-identity sweep ---
//
// The dispatch contract, checked per shape at the engine seam: for
// randomized operands (dense, sparse, all-zero, the int8 extremes; full
// and ragged slices and kernel groups) the auto-dispatched engine and a
// force-generic twin produce bit-equal accumulators and bit-equal
// MacActivity tallies - at the paper configuration and at the wider
// td=16 / tk=32 engines the service traffic also sends.

/// The engines the serving traffic instantiates: the paper's Td=8/Tk=16
/// and the widest knob set (Td=16, Tk=32).
EdeaConfig wide_config() {
  EdeaConfig cfg = EdeaConfig::paper();
  cfg.td = 16;
  cfg.tk = 32;
  return cfg;
}

/// How operands are drawn: activations are zero with probability
/// `zero_fraction`; otherwise activations and weights alike are -128 with
/// probability `min_fraction`, else uniform over int8. -128 on both sides
/// gives the largest product, (-128) * (-128) = 16384.
struct OperandMix {
  double zero_fraction = 0.0;
  double min_fraction = 0.0;
};

std::int8_t draw_weight(edea::Rng& rng, const OperandMix& mix) {
  if (mix.min_fraction > 0.0 && rng.uniform() < mix.min_fraction) {
    return -128;
  }
  return static_cast<std::int8_t>(rng.uniform_int(-128, 127));
}

std::int8_t draw_activation(edea::Rng& rng, const OperandMix& mix) {
  return rng.uniform() < mix.zero_fraction ? std::int8_t{0}
                                           : draw_weight(rng, mix);
}

void check_dwc_bit_identity(const EdeaConfig& cfg, int stride, int dilation,
                            int channels, const OperandMix& mix,
                            std::uint64_t seed) {
  DwcEngine fast(cfg);
  DwcEngine slow(cfg);
  slow.set_kernel_policy(KernelPolicy::kForceGeneric);

  edea::Rng rng(seed);
  std::vector<std::int8_t> w(static_cast<std::size_t>(9 * channels));
  for (auto& v : w) v = draw_weight(rng, mix);
  const DwcWeights staged(w, 9, channels);
  fast.load_weights(staged);
  slow.load_weights(staged);

  const int extent = cfg.dwc_window_extent(stride, dilation);
  std::vector<std::int8_t> window(
      static_cast<std::size_t>(extent * extent * channels));
  DwcBlockOutput a;
  DwcBlockOutput b;
  for (int rep = 0; rep < 25; ++rep) {
    for (auto& v : window) v = draw_activation(rng, mix);
    fast.run_block(window, cfg.tn, cfg.tm, stride, dilation, a);
    slow.run_block(window, cfg.tn, cfg.tm, stride, dilation, b);
    ASSERT_EQ(a.acc, b.acc) << "td=" << cfg.td << " stride=" << stride
                            << " dilation=" << dilation
                            << " channels=" << channels << " rep=" << rep;
  }
  EXPECT_EQ(fast.activity(), slow.activity())
      << "td=" << cfg.td << " stride=" << stride << " dilation=" << dilation
      << " channels=" << channels;
}

void check_dwc_bit_identity(int stride, int dilation, int channels,
                            double zero_fraction, std::uint64_t seed) {
  check_dwc_bit_identity(EdeaConfig::paper(), stride, dilation, channels,
                         OperandMix{zero_fraction, 0.0}, seed);
}

TEST(KernelDispatchBitIdentity, Dwc3x3Stride1) {
  check_dwc_bit_identity(1, 1, 8, 0.0, 5001);
}

TEST(KernelDispatchBitIdentity, Dwc3x3Stride2) {
  check_dwc_bit_identity(2, 1, 8, 0.0, 5002);
}

TEST(KernelDispatchBitIdentity, Dwc3x3PartialSlices) {
  for (int channels = 1; channels <= 7; ++channels) {
    check_dwc_bit_identity(1, 1, channels, 0.3,
                           5100 + static_cast<std::uint64_t>(channels));
    check_dwc_bit_identity(2, 1, channels, 0.3,
                           5200 + static_cast<std::uint64_t>(channels));
  }
}

TEST(KernelDispatchBitIdentity, Dwc3x3SparseAndAllZero) {
  check_dwc_bit_identity(1, 1, 8, 0.7, 5003);  // realistic post-ReLU
  check_dwc_bit_identity(1, 1, 8, 1.0, 5004);  // all-zero window
  check_dwc_bit_identity(2, 1, 8, 1.0, 5005);
}

TEST(KernelDispatchBitIdentity, Dwc3x3Dilation2) {
  // Dilation 2 resolves to the dilated 3x3 kernel at both strides, and it
  // must match the generic path.
  ASSERT_NE(dwc_kernel_for(3, 1, 2, KernelPolicy::kAuto), &generic_dwc_kernel);
  ASSERT_NE(dwc_kernel_for(3, 2, 2, KernelPolicy::kAuto), &generic_dwc_kernel);
  check_dwc_bit_identity(1, 2, 8, 0.3, 5006);
  check_dwc_bit_identity(2, 2, 5, 0.3, 5007);
}

TEST(KernelDispatchBitIdentity, Dwc3x3WideSlices) {
  // Td=16: full and ragged slices at every stride/dilation the traffic
  // sends.
  const EdeaConfig cfg = wide_config();
  std::uint64_t seed = 5300;
  for (const int stride : {1, 2}) {
    for (const int dilation : {1, 2}) {
      for (const int channels : {16, 9, 3}) {
        check_dwc_bit_identity(cfg, stride, dilation, channels,
                               OperandMix{0.3, 0.0}, ++seed);
      }
    }
  }
}

TEST(KernelDispatchBitIdentity, Dwc3x3MinimumOperandsOnBothSides) {
  // All -128 (every product 16384) and a -128-heavy mix, at both widths.
  std::uint64_t seed = 5400;
  for (const EdeaConfig& cfg : {EdeaConfig::paper(), wide_config()}) {
    for (const int stride : {1, 2}) {
      for (const int dilation : {1, 2}) {
        check_dwc_bit_identity(cfg, stride, dilation, cfg.td,
                               OperandMix{0.0, 1.0}, ++seed);
        check_dwc_bit_identity(cfg, stride, dilation, cfg.td - 1,
                               OperandMix{0.2, 0.5}, ++seed);
      }
    }
  }
}

/// The PWC half of the contract: a block accumulates its real positions
/// straight into a tile's psum block. Each rep lands a one-step block
/// somewhere else in a (Tn + 1) x (Tm + 1) psum block that starts out
/// holding non-zero partial sums: at the block's origin (every position
/// real), against its last row, its last column, or its corner (only one
/// real row, column or position; the rest are dummy lanes). Odd reps add
/// onto the block, even ones overwrite it as a pass's first slice does.
/// Both engines must leave the whole block bit-equal - dummy positions
/// and the rest of the block untouched - and report the same psum range.
void check_pwc_bit_identity(const EdeaConfig& cfg, int channels, int kernels,
                            const OperandMix& mix, std::uint64_t seed,
                            std::int64_t block_magnitude = 1 << 20) {
  PwcEngine fast(cfg);
  PwcEngine slow(cfg);
  slow.set_kernel_policy(KernelPolicy::kForceGeneric);

  edea::Rng rng(seed);
  std::vector<std::int8_t> acts(
      static_cast<std::size_t>(cfg.tn * cfg.tm * channels));
  std::vector<std::int8_t> weights(
      static_cast<std::size_t>(kernels * channels));
  const int rows = cfg.tn + 1;
  const int cols = cfg.tm + 1;
  std::vector<std::int32_t> a(static_cast<std::size_t>(rows * cols * kernels));
  std::vector<std::int32_t> b(a.size());
  for (int rep = 0; rep < 25; ++rep) {
    for (auto& v : acts) v = draw_activation(rng, mix);
    for (auto& v : weights) v = draw_weight(rng, mix);
    for (auto& v : a) {
      v = static_cast<std::int32_t>(
          rng.uniform_int(-block_magnitude, block_magnitude));
    }
    b = a;
    const PwcWeights staged(weights, kernels, channels);
    fast.load_weights(staged);
    slow.load_weights(staged);
    const int row0 = (rep / 2) % 2 == 0 ? 0 : rows - 1;
    const int col0 = (rep / 4) % 2 == 0 ? 0 : cols - 1;
    const bool accumulate = rep % 2 == 1;
    const PsumRange fast_range =
        fast.run_block(acts, cfg.tn, cfg.tm,
                       PsumTarget{a, rows, cols, row0, col0, accumulate});
    const PsumRange slow_range =
        slow.run_block(acts, cfg.tn, cfg.tm,
                       PsumTarget{b, rows, cols, row0, col0, accumulate});
    const auto where = [&] {
      return "td=" + std::to_string(cfg.td) + " tk=" + std::to_string(cfg.tk) +
             " channels=" + std::to_string(channels) +
             " kernels=" + std::to_string(kernels) +
             " origin=" + std::to_string(row0) + "," + std::to_string(col0) +
             " accumulate=" + std::to_string(accumulate) +
             " rep=" + std::to_string(rep);
    };
    ASSERT_EQ(a, b) << where();
    ASSERT_EQ(fast_range.lo, slow_range.lo) << where();
    ASSERT_EQ(fast_range.hi, slow_range.hi) << where();
  }
  EXPECT_EQ(fast.activity(), slow.activity())
      << "td=" << cfg.td << " tk=" << cfg.tk << " channels=" << channels
      << " kernels=" << kernels;
}

void check_pwc_bit_identity(int channels, int kernels, double zero_fraction,
                            std::uint64_t seed) {
  check_pwc_bit_identity(EdeaConfig::paper(), channels, kernels,
                         OperandMix{zero_fraction, 0.0}, seed);
}

TEST(KernelDispatchBitIdentity, Pwc1x1FullSlice) {
  check_pwc_bit_identity(8, 16, 0.0, 6001);
}

TEST(KernelDispatchBitIdentity, Pwc1x1PartialSlicesAndGroups) {
  for (int channels = 1; channels <= 8; channels += 2) {
    for (int kernels = 1; kernels <= 16; kernels += 5) {
      check_pwc_bit_identity(channels, kernels, 0.4,
                             6100 +
                                 static_cast<std::uint64_t>(channels * 100 +
                                                            kernels));
    }
  }
}

TEST(KernelDispatchBitIdentity, Pwc1x1SparseAndAllZero) {
  check_pwc_bit_identity(8, 16, 0.7, 6002);
  check_pwc_bit_identity(8, 16, 1.0, 6003);
  check_pwc_bit_identity(3, 10, 1.0, 6004);
}

TEST(KernelDispatchBitIdentity, Pwc1x1WideSlicesAndGroups) {
  // Td=16 / Tk=32: the full step plus ragged slices and kernel groups.
  const EdeaConfig cfg = wide_config();
  check_pwc_bit_identity(cfg, 16, 32, OperandMix{0.0, 0.0}, 6201);
  check_pwc_bit_identity(cfg, 16, 32, OperandMix{0.7, 0.0}, 6202);
  for (const int channels : {1, 5, 8, 12, 15}) {
    for (const int kernels : {1, 7, 16, 25, 32}) {
      check_pwc_bit_identity(
          cfg, channels, kernels, OperandMix{0.4, 0.0},
          6300 + static_cast<std::uint64_t>(channels * 100 + kernels));
    }
  }
}

TEST(KernelDispatchBitIdentity, Pwc1x1StepOfSeveralKernelGroups) {
  // A block runs every loaded kernel, Tk per engine cycle; the last group
  // is ragged here.
  check_pwc_bit_identity(EdeaConfig::paper(), 8, 40, OperandMix{0.4, 0.0},
                         6251);
  check_pwc_bit_identity(wide_config(), 16, 72, OperandMix{0.4, 0.0}, 6252);
  check_pwc_bit_identity(wide_config(), 11, 72, OperandMix{0.4, 0.5}, 6253);
}

TEST(KernelDispatchBitIdentity, Pwc1x1MinimumOperandsOnBothSides) {
  // All -128 (every product 16384, every dot product at its largest) and a
  // -128-heavy mix, at both widths, full and ragged.
  std::uint64_t seed = 6400;
  for (const EdeaConfig& cfg : {EdeaConfig::paper(), wide_config()}) {
    check_pwc_bit_identity(cfg, cfg.td, cfg.tk, OperandMix{0.0, 1.0}, ++seed);
    check_pwc_bit_identity(cfg, cfg.td, cfg.tk, OperandMix{0.2, 0.5}, ++seed);
    check_pwc_bit_identity(cfg, cfg.td - 1, cfg.tk - 3, OperandMix{0.2, 0.5},
                           ++seed);
  }
}

TEST(KernelDispatchPwcContract, GenericKernelAccumulatesRealPositionsOnly) {
  // The reference kernel's contract, by hand: a 2 x 2 step whose origin
  // is the last row of a 3 x 2 block, so only its first row is real.
  const EdeaConfig cfg = EdeaConfig::paper();
  const int channels = 3;
  const int kernels = 2;
  std::vector<std::int8_t> acts = {1,    2, 0, -1, 0, 4,   // row 0
                                   -128, 5, 6, 7,  8, 9};  // row 1: dummy
  std::vector<std::int8_t> weights = {1, 1, 1, -128, 2, -1};  // [k][ch]
  std::vector<std::int32_t> block(static_cast<std::size_t>(3 * 2 * kernels),
                                  100);
  arch::MacActivity activity;
  PwcKernelArgs args;
  args.activations = acts.data();
  args.weights = weights.data();
  args.rows = 2;
  args.cols = 2;
  args.real_rows = 1;
  args.real_cols = 2;
  args.channels = channels;
  args.kernels = kernels;
  args.td = cfg.td;
  args.psum = block.data() + 2 * 2 * kernels;  // row 2 of the block
  args.psum_pitch = 2 * kernels;
  args.accumulate = true;
  args.activity = &activity;
  const PsumRange range = generic_pwc_kernel(args);

  // Position (0, 0): 1+2+0 = 3 and -128+4+0 = -124; position (0, 1):
  // -1+0+4 = 3 and 128+0-4 = 124 - each added onto the block's 100.
  EXPECT_EQ(block, (std::vector<std::int32_t>{100, 100, 100, 100, 100, 100,
                                              100, 100, 103, -24, 103, 224}))
      << "rows 0 and 1 of the block and the dummy step row stay as they were";
  EXPECT_EQ(range.lo, -24);
  EXPECT_EQ(range.hi, 224);
  // The dummy row is tallied like the real one: 4 positions x 2 kernels
  // x 8 lanes clocked, 3 channels useful, zeros counted per kernel.
  EXPECT_EQ(activity.lane_cycles, 4 * 2 * 8);
  EXPECT_EQ(activity.useful_macs, 4 * 2 * 3);
  EXPECT_EQ(activity.zero_operand_macs, 2 * 2);

  args.accumulate = false;  // a first slice overwrites
  const PsumRange first = generic_pwc_kernel(args);
  EXPECT_EQ(std::vector<std::int32_t>(block.begin() + 8, block.end()),
            (std::vector<std::int32_t>{3, -124, 3, 124}));
  EXPECT_EQ(first.lo, -124);
  EXPECT_EQ(first.hi, 124);
}

TEST(KernelDispatchPwcContract, SpecializedKernelIsSse2WhereAvailable) {
#if defined(__SSE2__)
  EXPECT_NE(pwc_kernel_for(KernelPolicy::kAuto), &generic_pwc_kernel);
#else
  EXPECT_EQ(pwc_kernel_for(KernelPolicy::kAuto), &generic_pwc_kernel)
      << "without SSE2 the generic kernel runs";
#endif
}

TEST(KernelDispatchBitIdentity, Pwc1x1PsumRangeBeyondFloatPrecision) {
  // Partial sums past 2^24 in magnitude (a layer of thousands of input
  // channels): the range must stay exact there too.
  check_pwc_bit_identity(EdeaConfig::paper(), 8, 16, OperandMix{0.2, 0.5},
                         6501, std::int64_t{1} << 30);
  check_pwc_bit_identity(wide_config(), 13, 40, OperandMix{0.2, 0.5}, 6502,
                         (std::int64_t{1} << 24) + 3);
}

// ------------------------------------------------- block equivalence ---
//
// A (buffer tile, channel slice) pass runs each engine once over every
// Tn x Tm step of the tile, through the kernel its shape selects. It must
// equal the same steps run one at a time through the generic kernels -
// each step gathering its own window, the Non-Conv transfer applied value
// by value - in the intermediate block (dummy positions included), the
// psums, the psum range behind max |psum| and the MacActivity tallies.

/// A layer whose tiles are ragged: 13 x 11 outputs, so 8 x 8 buffer tiles
/// (7 x 7 when dilation 2 at stride 2 shrinks them) leave edge tiles with
/// a dummy row or column in their last steps. 20 intermediate channels
/// leave a partial last slice at Td = 8 and 16; 40 kernels a ragged last
/// kernel group.
nn::QuantDscLayer ragged_layer(int stride, int dilation, int mult) {
  nn::DscLayerSpec spec;
  spec.stride = stride;
  spec.dilation = dilation;
  spec.padding = dilation;
  spec.depth_multiplier = mult;
  spec.in_rows = stride == 1 ? 13 : 25;
  spec.in_cols = stride == 1 ? 11 : 21;
  spec.in_channels = 20 / mult;
  spec.out_channels = 40;
  EXPECT_EQ(spec.out_rows(), 13);
  EXPECT_EQ(spec.out_cols(), 11);
  return nn::make_random_quant_network({spec}, 9000 + stride * 100 +
                                                   dilation * 10 + mult)
      .front();
}

/// Compares every pass of `layer` over `input` against per-step generic
/// kernels. `clip` reads each tile's input through its region, as EDEA's
/// schedule does; otherwise windows read the whole image, as the
/// serialized baseline's do.
void check_passes_match_steps(const EdeaConfig& cfg,
                              const nn::QuantDscLayer& layer,
                              const nn::Int8Tensor& input, bool clip) {
  const nn::DscLayerSpec& spec = layer.spec;
  const Tiler tiler(cfg, spec);
  const int K = spec.out_channels;
  const int tn = cfg.tn;
  const int tm = cfg.tm;
  const int extent = cfg.dwc_window_extent(spec.stride, spec.dilation);
  const int groups = (K + cfg.tk - 1) / cfg.tk;
  DscDatapath datapath(cfg);
  datapath.begin_layer(layer);
  arch::MacActivity dwc_ref;
  arch::MacActivity pwc_ref;
  std::int64_t max_ref = 0;

  const Int8MapView image = Int8MapView::whole(input);
  for (const BufferTile& tile : tiler.tiles()) {
    const auto entries = static_cast<std::size_t>(tile.out_rows) *
                         static_cast<std::size_t>(tile.out_cols) *
                         static_cast<std::size_t>(K);
    std::vector<std::int32_t> psum_ref(entries);
    const std::int64_t pitch = std::int64_t{tile.out_cols} * K;
    const int rows = tile.step_rows(cfg);
    const int cols = tile.step_cols(cfg);
    const Int8MapView src =
        clip ? image.clipped(tile.in_row0, tile.in_col0, tile.in_rows,
                             tile.in_cols)
             : image;
    bool first = true;
    for (const ChannelSlice& slice : tiler.slices()) {
      const int C = slice.channels;
      const auto where = [&] {
        return "td=" + std::to_string(cfg.td) +
               " stride=" + std::to_string(spec.stride) +
               " dilation=" + std::to_string(spec.dilation) +
               " mult=" + std::to_string(spec.depth_multiplier) +
               " clip=" + std::to_string(clip) + " tile(" +
               std::to_string(tile.out_row0) + "," +
               std::to_string(tile.out_col0) + ") slice " +
               std::to_string(slice.channel0);
      };
      datapath.load_dwc_slice(slice);
      datapath.load_pwc_slice(slice);
      const std::span<const std::int8_t> pass = datapath.dwc_pass(src, tile);
      const std::vector<std::int8_t> block(pass.begin(), pass.end());
      const std::span<const std::int32_t> psum_block =
          datapath.pwc_pass(block, tile, first);
      const std::vector<std::int32_t> psum(psum_block.begin(),
                                           psum_block.end());

      // The slice's weights, gathered by hand.
      std::vector<std::int8_t> dwc_w(static_cast<std::size_t>(9 * C));
      for (int t = 0; t < 9; ++t) {
        for (int ch = 0; ch < C; ++ch) {
          dwc_w[static_cast<std::size_t>(t * C + ch)] =
              layer.dwc_weights(t / 3, t % 3, slice.channel0 + ch);
        }
      }
      std::vector<std::int8_t> pwc_w(static_cast<std::size_t>(K * C));
      for (int k = 0; k < K; ++k) {
        for (int ch = 0; ch < C; ++ch) {
          pwc_w[static_cast<std::size_t>(k * C + ch)] =
              layer.pwc_weights(k, slice.channel0 + ch);
        }
      }

      std::vector<std::int8_t> block_ref(block.size());
      std::vector<std::int8_t> window(
          static_cast<std::size_t>(extent * extent * C));
      std::vector<std::int32_t> acc(static_cast<std::size_t>(tn * tm * C));
      std::vector<std::int8_t> acts(acc.size());
      for (int sy = 0; sy * tn < rows; ++sy) {
        for (int sx = 0; sx * tm < cols; ++sx) {
          gather_block(src, tile.in_row0 + sy * tn * spec.stride,
                       tile.in_col0 + sx * tm * spec.stride, extent, extent,
                       slice.channel0, C, spec.depth_multiplier, window);
          DwcKernelArgs dwc;
          dwc.window = window.data();
          dwc.window_cols = extent;
          dwc.channels = C;
          dwc.weights = dwc_w.data();
          dwc.rows = tn;
          dwc.cols = tm;
          dwc.kernel = 3;
          dwc.stride = spec.stride;
          dwc.dilation = spec.dilation;
          dwc.acc = acc.data();
          dwc.activity = &dwc_ref;
          generic_dwc_kernel(dwc);
          dwc_ref.lane_cycles += std::int64_t{cfg.td - C} * tn * tm * 9;
          for (int r = 0; r < tn; ++r) {
            for (int c = 0; c < tm; ++c) {
              for (int ch = 0; ch < C; ++ch) {
                const auto i = static_cast<std::size_t>((r * tm + c) * C + ch);
                acts[i] = layer.nonconv1.channels[static_cast<std::size_t>(
                                                      slice.channel0 + ch)]
                              .apply(acc[i]);
                block_ref[static_cast<std::size_t>(
                    ((sy * tn + r) * cols + sx * tm + c) * C + ch)] = acts[i];
              }
            }
          }
          PwcKernelArgs pwc;
          pwc.activations = acts.data();
          pwc.weights = pwc_w.data();
          pwc.rows = tn;
          pwc.cols = tm;
          pwc.real_rows = std::min(tn, tile.out_rows - sy * tn);
          pwc.real_cols = std::min(tm, tile.out_cols - sx * tm);
          pwc.channels = C;
          pwc.kernels = K;
          pwc.td = cfg.td;
          pwc.psum = psum_ref.data() + sy * tn * pitch +
                     std::int64_t{sx} * tm * K;
          pwc.psum_pitch = pitch;
          pwc.accumulate = !first;
          pwc.activity = &pwc_ref;
          const PsumRange range = generic_pwc_kernel(pwc);
          pwc_ref.lane_cycles +=
              std::int64_t{groups * cfg.tk - K} * tn * tm * cfg.td;
          max_ref = std::max({max_ref, -std::int64_t{range.lo},
                              std::int64_t{range.hi}});
        }
      }
      ASSERT_EQ(block, block_ref) << where();
      ASSERT_EQ(psum, psum_ref) << where();
      first = false;
    }
  }
  LayerPartial tally;
  datapath.fold_tallies(tally);
  EXPECT_EQ(tally.dwc_activity, dwc_ref);
  EXPECT_EQ(tally.pwc_activity, pwc_ref);
  EXPECT_EQ(tally.max_abs_psum, max_ref);
  EXPECT_EQ(tally.nonconv_transfer_ops, dwc_ref.useful_macs / 9);
}

TEST(KernelDispatchBlock, PassesMatchGenericStepsOneAtATime) {
  for (const EdeaConfig& cfg : {EdeaConfig::paper(), wide_config()}) {
    for (const auto& [stride, dilation, mult] :
         std::vector<std::array<int, 3>>{
             {1, 1, 1}, {2, 2, 1}, {1, 1, 2}, {2, 1, 2}, {1, 2, 2}}) {
      const nn::QuantDscLayer layer = ragged_layer(stride, dilation, mult);
      edea::Rng rng(9100 + static_cast<std::uint64_t>(cfg.td));
      nn::Int8Tensor input(nn::Shape{layer.spec.in_rows, layer.spec.in_cols,
                                     layer.spec.in_channels});
      for (auto& v : input.storage()) {
        v = rng.uniform() < 0.3
                ? std::int8_t{0}
                : static_cast<std::int8_t>(rng.uniform_int(-128, 127));
      }
      check_passes_match_steps(cfg, layer, input, /*clip=*/true);
      check_passes_match_steps(cfg, layer, input, /*clip=*/false);
    }
  }
}

TEST(KernelDispatchBlock, PwcBlockRangeEqualsStepRanges) {
  // An 8 x 6 engine block over a 7 x 5 psum block (a dummy row and a
  // dummy column) on the specialized engine, against its twelve steps on
  // the generic kernel: psums, the returned range and the tallies.
  for (const EdeaConfig& cfg : {EdeaConfig::paper(), wide_config()}) {
    for (const int channels : {cfg.td, cfg.td - 3}) {
      const int kernels = 2 * cfg.tk + 5;
      edea::Rng rng(9200 + static_cast<std::uint64_t>(cfg.td + channels));
      std::vector<std::int8_t> acts(static_cast<std::size_t>(8 * 6 * channels));
      std::vector<std::int8_t> weights(
          static_cast<std::size_t>(kernels * channels));
      for (auto& v : acts) v = draw_activation(rng, OperandMix{0.3, 0.2});
      for (auto& v : weights) v = draw_weight(rng, OperandMix{0.3, 0.2});
      const PwcWeights staged(weights, kernels, channels);
      std::vector<std::int32_t> psum(static_cast<std::size_t>(7 * 5 * kernels));
      for (auto& v : psum) {
        v = static_cast<std::int32_t>(rng.uniform_int(-(1 << 20), 1 << 20));
      }
      std::vector<std::int32_t> psum_ref = psum;

      PwcEngine engine(cfg);
      engine.load_weights(staged);
      const PsumRange range = engine.run_block(
          acts, 8, 6, PsumTarget{psum, 7, 5, 0, 0, /*accumulate=*/true});

      arch::MacActivity ref;
      PsumRange range_ref{std::numeric_limits<std::int32_t>::max(),
                          std::numeric_limits<std::int32_t>::min()};
      std::vector<std::int8_t> step(
          static_cast<std::size_t>(cfg.tn * cfg.tm * channels));
      for (int sy = 0; sy < 8 / cfg.tn; ++sy) {
        for (int sx = 0; sx < 6 / cfg.tm; ++sx) {
          for (int r = 0; r < cfg.tn; ++r) {
            std::copy_n(&acts[static_cast<std::size_t>(
                            ((sy * cfg.tn + r) * 6 + sx * cfg.tm) * channels)],
                        cfg.tm * channels,
                        &step[static_cast<std::size_t>(r * cfg.tm * channels)]);
          }
          PwcKernelArgs args;
          args.activations = step.data();
          args.weights = weights.data();
          args.rows = cfg.tn;
          args.cols = cfg.tm;
          args.real_rows = std::min(cfg.tn, 7 - sy * cfg.tn);
          args.real_cols = std::min(cfg.tm, 5 - sx * cfg.tm);
          args.channels = channels;
          args.kernels = kernels;
          args.td = cfg.td;
          args.psum = psum_ref.data() + (sy * cfg.tn * 5 + sx * cfg.tm) *
                                            std::int64_t{kernels};
          args.psum_pitch = 5 * kernels;
          args.accumulate = true;
          args.activity = &ref;
          const PsumRange step_range = generic_pwc_kernel(args);
          // A step's range starts at 0 on both ends, like the block's.
          range_ref.lo = std::min(range_ref.lo, step_range.lo);
          range_ref.hi = std::max(range_ref.hi, step_range.hi);
          ref.lane_cycles += std::int64_t{3 * cfg.tk - kernels} * cfg.tn *
                             cfg.tm * cfg.td;
        }
      }
      EXPECT_EQ(psum, psum_ref) << "td=" << cfg.td << " channels=" << channels;
      EXPECT_EQ(range.lo, range_ref.lo);
      EXPECT_EQ(range.hi, range_ref.hi);
      EXPECT_EQ(engine.activity(), ref);
    }
  }
}

}  // namespace
}  // namespace edea::core
