// kernel_dispatch_test - the shape-specialized kernel registry: built-in
// coverage, lookup precedence (exact > wildcard > generic), the
// force-generic escape hatch, and the bit-identity contract every
// specialized kernel must honor (outputs AND MacActivity tallies equal to
// the generic reference, across full/partial slices, strides, and
// all-zero inputs).
#include "core/kernel_dispatch.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/dwc_engine.hpp"
#include "core/pwc_engine.hpp"
#include "util/check.hpp"
#include "util/random.hpp"

namespace edea::core {
namespace {

KernelShapeKey dwc_key(int kernel, int stride, int dilation, int mult) {
  KernelShapeKey key;
  key.family = OpFamily::kDwc;
  key.kernel = kernel;
  key.stride = stride;
  key.dilation = dilation;
  key.depth_multiplier = mult;
  return key;
}

KernelShapeKey pwc_key(int mult) {
  KernelShapeKey key;
  key.family = OpFamily::kPwc;
  key.kernel = 1;
  key.stride = 1;
  key.dilation = 1;
  key.depth_multiplier = mult;
  return key;
}

// ----------------------------------------------------------- registry ---

TEST(KernelDispatch, BuiltInShapesAreRegistered) {
  KernelDispatch& d = KernelDispatch::instance();
  // 3x3 DWC at strides 1/2 and dilations 1/2, 1x1 PWC - all wildcarded
  // over the depth multiplier.
  EXPECT_TRUE(d.has_specialization(dwc_key(3, 1, 1, 1)));
  EXPECT_TRUE(d.has_specialization(dwc_key(3, 2, 1, 1)));
  EXPECT_TRUE(d.has_specialization(dwc_key(3, 1, 1, 4)));  // wildcard mult
  EXPECT_TRUE(d.has_specialization(pwc_key(1)));
  EXPECT_TRUE(d.has_specialization(pwc_key(7)));
  // Dilation 2 at both strides resolves to the dilated 3x3 kernel.
  EXPECT_TRUE(d.has_specialization(dwc_key(3, 1, 2, 1)));
  EXPECT_TRUE(d.has_specialization(dwc_key(3, 2, 2, 1)));
  EXPECT_NE(d.find_dwc(dwc_key(3, 1, 2, 1)), d.find_dwc(dwc_key(3, 1, 1, 1)));
  // Shapes with no fast path resolve to the generic implementation.
  EXPECT_FALSE(d.has_specialization(dwc_key(3, 1, 3, 1)));  // dilation 3
  EXPECT_FALSE(d.has_specialization(dwc_key(5, 1, 1, 1)));  // 5x5
  EXPECT_EQ(d.find_dwc(dwc_key(5, 1, 1, 1)), &generic_dwc_kernel);
  EXPECT_NE(d.find_dwc(dwc_key(3, 1, 1, 1)), &generic_dwc_kernel);
  EXPECT_NE(d.find_pwc(pwc_key(1)), &generic_pwc_kernel);
}

TEST(KernelDispatch, RegisteredShapesAreListable) {
  const std::vector<std::string> shapes =
      KernelDispatch::instance().registered_shapes();
  ASSERT_GE(shapes.size(), 3u);
  bool saw_s1 = false, saw_s2 = false, saw_pwc = false;
  for (const std::string& s : shapes) {
    if (s.find("dwc k=3 s=1 d=1 m=any") != std::string::npos) saw_s1 = true;
    if (s.find("dwc k=3 s=2 d=1 m=any") != std::string::npos) saw_s2 = true;
    if (s.find("pwc k=1 s=1 d=1 m=any") != std::string::npos) saw_pwc = true;
    EXPECT_NE(s.find(" -> "), std::string::npos) << s;  // "<key> -> <label>"
  }
  EXPECT_TRUE(saw_s1);
  EXPECT_TRUE(saw_s2);
  EXPECT_TRUE(saw_pwc);
}

TEST(KernelDispatch, ExactMultiplierBeatsWildcard) {
  KernelDispatch& d = KernelDispatch::instance();
  // Register an exact-multiplier entry on a shape nothing else uses
  // (kernel 7 never dispatches from the engines in these tests).
  const KernelShapeKey exact = dwc_key(7, 1, 1, 3);
  const KernelShapeKey wild = dwc_key(7, 1, 1, 0);
  d.register_dwc(wild, &generic_dwc_kernel, "wild7");
  ASSERT_EQ(d.find_dwc(dwc_key(7, 1, 1, 3)), &generic_dwc_kernel);

  // A distinct function for the exact entry: the generic kernel wrapped.
  static const DwcKernelFn exact_fn = [](const DwcKernelArgs& a) {
    generic_dwc_kernel(a);
  };
  d.register_dwc(exact, exact_fn, "exact7m3");
  EXPECT_EQ(d.find_dwc(dwc_key(7, 1, 1, 3)), exact_fn);   // exact wins
  EXPECT_EQ(d.find_dwc(dwc_key(7, 1, 1, 2)), &generic_dwc_kernel);  // wild
}

TEST(KernelDispatch, RejectsMalformedRegistrations) {
  KernelDispatch& d = KernelDispatch::instance();
  EXPECT_THROW(d.register_dwc(dwc_key(4, 1, 1, 0), &generic_dwc_kernel, "x"),
               PreconditionError);  // even kernel
  EXPECT_THROW(d.register_dwc(dwc_key(3, 3, 1, 0), &generic_dwc_kernel, "x"),
               PreconditionError);  // stride 3
  EXPECT_THROW(d.register_dwc(dwc_key(3, 1, 0, 0), &generic_dwc_kernel, "x"),
               PreconditionError);  // dilation 0
  EXPECT_THROW(d.register_dwc(dwc_key(3, 1, 1, -1), &generic_dwc_kernel, "x"),
               PreconditionError);  // negative multiplier
  EXPECT_THROW(d.register_dwc(pwc_key(0), &generic_dwc_kernel, "x"),
               PreconditionError);  // family mismatch
  EXPECT_THROW(d.register_pwc(pwc_key(0), nullptr, "x"),
               PreconditionError);  // null kernel
  KernelShapeKey big_pwc = pwc_key(0);
  big_pwc.kernel = 3;
  EXPECT_THROW(d.register_pwc(big_pwc, &generic_pwc_kernel, "x"),
               PreconditionError);  // PWC is 1x1 by definition
}

TEST(KernelDispatch, KeyToStringNamesEveryComponent) {
  EXPECT_EQ(dwc_key(3, 2, 1, 0).to_string(), "dwc k=3 s=2 d=1 m=any");
  EXPECT_EQ(dwc_key(3, 1, 2, 4).to_string(), "dwc k=3 s=1 d=2 m=4");
  EXPECT_EQ(pwc_key(0).to_string(), "pwc k=1 s=1 d=1 m=any");
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
  fast.load_weights(w, cfg.td);
  slow.load_weights(w, cfg.td);

  std::vector<std::int8_t> window(static_cast<std::size_t>(16 * cfg.td));
  for (auto& v : window) {
    v = static_cast<std::int8_t>(rng.uniform_int(-128, 127));
  }

  DwcStepOutput a;
  DwcStepOutput b;
  fast.step(window, 1, 1, 1, a);
  slow.step(window, 1, 1, 1, b);
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
  fast.load_weights(w, channels);
  slow.load_weights(w, channels);

  const int extent = cfg.dwc_window_extent(stride, dilation);
  std::vector<std::int8_t> window(
      static_cast<std::size_t>(extent * extent * channels));
  DwcStepOutput a;
  DwcStepOutput b;
  for (int rep = 0; rep < 25; ++rep) {
    for (auto& v : window) v = draw_activation(rng, mix);
    fast.step(window, stride, dilation, 1, a);
    slow.step(window, stride, dilation, 1, b);
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
  KernelDispatch& d = KernelDispatch::instance();
  ASSERT_TRUE(d.has_specialization(dwc_key(3, 1, 2, 1)));
  ASSERT_TRUE(d.has_specialization(dwc_key(3, 2, 2, 1)));
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

void check_pwc_bit_identity(const EdeaConfig& cfg, int channels, int kernels,
                            const OperandMix& mix, std::uint64_t seed) {
  PwcEngine fast(cfg);
  PwcEngine slow(cfg);
  slow.set_kernel_policy(KernelPolicy::kForceGeneric);

  edea::Rng rng(seed);
  std::vector<std::int8_t> acts(
      static_cast<std::size_t>(cfg.tn * cfg.tm * channels));
  std::vector<std::int8_t> weights(
      static_cast<std::size_t>(kernels * channels));
  PwcStepOutput a;
  PwcStepOutput b;
  for (int rep = 0; rep < 25; ++rep) {
    for (auto& v : acts) v = draw_activation(rng, mix);
    for (auto& v : weights) v = draw_weight(rng, mix);
    fast.load_weights(weights, kernels, channels);
    slow.load_weights(weights, kernels, channels);
    fast.step(acts, 1, a);
    slow.step(acts, 1, b);
    ASSERT_EQ(a.psum, b.psum) << "td=" << cfg.td << " tk=" << cfg.tk
                              << " channels=" << channels
                              << " kernels=" << kernels << " rep=" << rep;
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
  // A step runs every loaded kernel, Tk per engine cycle; the last group
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

// The process-default policy helper: cheap sanity that the environment
// lever resolves to a policy (its value is pinned at first use, so the
// test only asserts it is one of the two states).
TEST(KernelDispatch, DefaultPolicyIsAutoOrForced) {
  const KernelPolicy p = KernelDispatch::default_policy();
  EXPECT_TRUE(p == KernelPolicy::kAuto || p == KernelPolicy::kForceGeneric);
}

}  // namespace
}  // namespace edea::core
