// Property-based tests: for *any* layer geometry and input, the
// cycle-accurate accelerator must (1) be bit-exact against the golden
// quantized reference and (2) agree with the Eq. 1/2 analytic timing
// model. Parameterized sweeps cover strides, ragged channels/kernels,
// ragged spatial extents, sparsity levels and seeds.
#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "baseline/serialized_accelerator.hpp"
#include "core/accelerator.hpp"
#include "core/timing.hpp"
#include "nn/layers.hpp"
#include "util/random.hpp"

namespace edea::core {
namespace {

struct Geometry {
  int rows;
  int channels;
  int stride;
  int out_channels;
};

std::string geometry_name(const Geometry& g) {
  // Built with appends: the temporary-chain form trips GCC 12's spurious
  // -Wrestrict at -O3 (PR105651).
  std::string name = "r";
  name += std::to_string(g.rows);
  name += "_d";
  name += std::to_string(g.channels);
  name += "_s";
  name += std::to_string(g.stride);
  name += "_k";
  name += std::to_string(g.out_channels);
  return name;
}

class AcceleratorGeometrySweep
    : public ::testing::TestWithParam<Geometry> {};

TEST_P(AcceleratorGeometrySweep, BitExactAndCycleExact) {
  const Geometry g = GetParam();
  nn::DscLayerSpec spec;
  spec.in_rows = g.rows;
  spec.in_cols = g.rows;
  spec.in_channels = g.channels;
  spec.stride = g.stride;
  spec.out_channels = g.out_channels;

  Rng rng(0xC0FFEE ^ (static_cast<std::uint64_t>(g.rows) << 32) ^
          (static_cast<std::uint64_t>(g.channels) << 16) ^
          (static_cast<std::uint64_t>(g.stride) << 8) ^
          static_cast<std::uint64_t>(g.out_channels));
  const nn::FloatDscLayer fl = nn::make_random_float_layer(spec, rng);
  const nn::QuantDscLayer layer = nn::quantize_layer(
      fl, nn::QuantScale{0.02f}, nn::QuantScale{0.04f},
      nn::QuantScale{0.03f});

  nn::Int8Tensor input(nn::Shape{spec.in_rows, spec.in_cols,
                                 spec.in_channels});
  for (auto& v : input.storage()) {
    v = rng.bernoulli(0.35)
            ? std::int8_t{0}
            : static_cast<std::int8_t>(rng.uniform_int(0, 127));
  }

  EdeaAccelerator accel;
  const LayerRunResult result = accel.run_layer(layer, input);

  // Property 1: bit-exact functional equivalence.
  EXPECT_EQ(result.output, layer.forward(input));

  // Property 2: cycle agreement with Eq. 1/2 (also asserted internally;
  // repeated here so the property is part of the public contract).
  const TimingModel tm(accel.config());
  EXPECT_EQ(result.timing.total_cycles,
            tm.layer_timing(spec).total_cycles);

  // Property 3: conservation - DWC useful MACs equal the layer's nominal
  // DWC MAC count whenever the geometry is aligned (even output extents,
  // channels a multiple of Td - no dummy edge or idle lanes).
  const bool aligned = spec.out_rows() % accel.config().tn == 0 &&
                       spec.out_cols() % accel.config().tm == 0 &&
                       spec.in_channels % accel.config().td == 0;
  if (aligned) {
    EXPECT_EQ(result.dwc_activity.useful_macs, spec.dwc_macs())
        << "DWC useful MACs diverged from N*M*D*9";
  }

  // Property 4: output writes equal the ofmap volume exactly.
  EXPECT_EQ(result.external.counter(arch::TrafficClass::kActivation).writes,
            std::int64_t{1} * spec.out_rows() * spec.out_cols() *
                spec.out_channels);
}

INSTANTIATE_TEST_SUITE_P(
    AlignedGeometries, AcceleratorGeometrySweep,
    ::testing::Values(Geometry{8, 8, 1, 16}, Geometry{8, 16, 1, 16},
                      Geometry{16, 8, 1, 32}, Geometry{16, 16, 2, 32},
                      Geometry{32, 8, 1, 16}, Geometry{32, 16, 2, 32},
                      Geometry{8, 32, 1, 48}, Geometry{4, 64, 1, 64},
                      Geometry{2, 128, 1, 128}, Geometry{4, 96, 2, 32}),
    [](const ::testing::TestParamInfo<Geometry>& info) {
      return geometry_name(info.param);
    });

INSTANTIATE_TEST_SUITE_P(
    RaggedGeometries, AcceleratorGeometrySweep,
    ::testing::Values(Geometry{6, 8, 1, 16},   // output not multiple of 8
                      Geometry{7, 8, 1, 16},   // odd output
                      Geometry{10, 8, 1, 16},  // 8 + 2 edge tile
                      Geometry{12, 8, 2, 16},  // stride-2 ragged
                      Geometry{9, 8, 2, 16},   // odd stride-2
                      Geometry{8, 5, 1, 16},   // channels < Td
                      Geometry{8, 12, 1, 16},  // channels % Td != 0
                      Geometry{8, 8, 1, 7},    // kernels < Tk
                      Geometry{8, 8, 1, 25},   // kernels % Tk != 0
                      Geometry{5, 3, 2, 5},    // everything ragged
                      Geometry{3, 1, 1, 1},    // minimal
                      Geometry{11, 13, 2, 19}),
    [](const ::testing::TestParamInfo<Geometry>& info) {
      return geometry_name(info.param);
    });

// --------------------------- sparsity sweep (Fig. 11's driving variable) ---

class AcceleratorSparsitySweep : public ::testing::TestWithParam<int> {};

TEST_P(AcceleratorSparsitySweep, ZeroFractionsPropagateToResults) {
  const double target = GetParam() / 100.0;
  nn::DscLayerSpec spec;
  spec.in_rows = 8;
  spec.in_cols = 8;
  spec.in_channels = 16;
  spec.out_channels = 32;

  Rng rng(4000 + static_cast<std::uint64_t>(GetParam()));
  const nn::FloatDscLayer fl = nn::make_random_float_layer(spec, rng);
  const nn::QuantDscLayer layer = nn::quantize_layer(
      fl, nn::QuantScale{0.02f}, nn::QuantScale{0.04f},
      nn::QuantScale{0.03f});
  nn::Int8Tensor input(nn::Shape{8, 8, 16});
  for (auto& v : input.storage()) {
    v = rng.bernoulli(target)
            ? std::int8_t{0}
            : static_cast<std::int8_t>(rng.uniform_int(1, 127));
  }

  EdeaAccelerator accel;
  const LayerRunResult r = accel.run_layer(layer, input);
  EXPECT_NEAR(r.dwc_input_zero_fraction, target, 0.12);
  // Bit-exactness must hold at every sparsity level.
  EXPECT_EQ(r.output, layer.forward(input));
  // The MAC-lane zero counter must be consistent with the input sparsity:
  // padding can only add zeros, never remove them.
  EXPECT_GE(r.dwc_activity.zero_operand_fraction(),
            r.dwc_input_zero_fraction - 0.12);
}

INSTANTIATE_TEST_SUITE_P(ZeroPercentages, AcceleratorSparsitySweep,
                         ::testing::Values(0, 25, 50, 75, 95, 100));

// ------------------------------- seed sweep (same geometry, many nets) ---

class AcceleratorSeedSweep : public ::testing::TestWithParam<int> {};

TEST_P(AcceleratorSeedSweep, BitExactAcrossRandomNetworks) {
  nn::DscLayerSpec spec;
  spec.in_rows = 16;
  spec.in_cols = 16;
  spec.in_channels = 24;
  spec.stride = (GetParam() % 2 == 0) ? 1 : 2;
  spec.out_channels = 40;

  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919);
  const nn::FloatDscLayer fl = nn::make_random_float_layer(spec, rng);
  const nn::QuantDscLayer layer = nn::quantize_layer(
      fl, nn::QuantScale{0.015f}, nn::QuantScale{0.035f},
      nn::QuantScale{0.025f});
  nn::Int8Tensor input(nn::Shape{16, 16, 24});
  for (auto& v : input.storage()) {
    v = rng.bernoulli(0.4)
            ? std::int8_t{0}
            : static_cast<std::int8_t>(rng.uniform_int(0, 127));
  }
  EdeaAccelerator accel;
  EXPECT_EQ(accel.run_layer(layer, input).output, layer.forward(input));
}

INSTANTIATE_TEST_SUITE_P(Seeds, AcceleratorSeedSweep,
                         ::testing::Range(0, 8));

// -------------------- scaled-configuration sweep (Sec. III-B property) ---

struct ScaledConfig {
  int td;
  int tk;
  int max_tile;
};

class AcceleratorConfigSweep
    : public ::testing::TestWithParam<ScaledConfig> {};

TEST_P(AcceleratorConfigSweep, ScaledEnginesStayBitExactAndCycleExact) {
  // The paper's scaling claim as a hard property: any valid (Td, Tk,
  // buffer-tile) configuration computes the identical int8 result and
  // agrees with its own closed-form timing - on both backends, for every
  // DWC geometry the datapath selects a different engine step for.
  const ScaledConfig sc = GetParam();
  EdeaConfig cfg = EdeaConfig::paper();
  cfg.td = sc.td;
  cfg.tk = sc.tk;
  cfg.max_tile_out = sc.max_tile;

  struct Variant {
    const char* name;
    int stride;
    int dilation;
    int depth_multiplier;
  };
  const Variant variants[] = {{"s1", 1, 1, 1},
                              {"s2", 2, 1, 1},
                              {"dilation2", 1, 2, 1},
                              {"dilation2_s2", 2, 2, 1},
                              {"multiplier2", 1, 1, 2}};
  std::uint64_t variant_index = 0;
  for (const Variant& v : variants) {
    SCOPED_TRACE(v.name);
    nn::DscLayerSpec spec;
    spec.in_rows = spec.in_cols = 12;
    spec.in_channels = 24;
    spec.stride = v.stride;
    spec.dilation = v.dilation;
    spec.padding = v.dilation;  // keeps the "same" output extent
    spec.depth_multiplier = v.depth_multiplier;
    spec.out_channels = 40;

    Rng rng(0x5CA1E ^ (static_cast<std::uint64_t>(sc.td) << 16) ^
            static_cast<std::uint64_t>(sc.tk) ^ (variant_index++ << 40));
    const nn::FloatDscLayer fl = nn::make_random_float_layer(spec, rng);
    const nn::QuantDscLayer layer = nn::quantize_layer(
        fl, nn::QuantScale{0.02f}, nn::QuantScale{0.04f},
        nn::QuantScale{0.03f});
    nn::Int8Tensor input(nn::Shape{12, 12, 24});
    for (auto& x : input.storage()) {
      x = rng.bernoulli(0.35)
              ? std::int8_t{0}
              : static_cast<std::int8_t>(rng.uniform_int(0, 127));
    }
    const nn::Int8Tensor golden = layer.forward(input);
    const TimingModel timing(cfg);

    EdeaAccelerator accel(cfg);
    const LayerRunResult r = accel.run_layer(layer, input);
    EXPECT_EQ(r.output, golden);
    EXPECT_EQ(r.timing, timing.layer_timing(spec));

    baseline::SerializedDscAccelerator serialized(cfg);
    const baseline::SerializedLayerResult s =
        serialized.run_layer(layer, input);
    EXPECT_EQ(s.common.output, golden);
    EXPECT_EQ(s.common.timing, timing.serialized_layer_timing(spec));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, AcceleratorConfigSweep,
    ::testing::Values(ScaledConfig{4, 8, 8}, ScaledConfig{8, 8, 8},
                      ScaledConfig{8, 16, 8}, ScaledConfig{8, 32, 8},
                      ScaledConfig{16, 16, 8}, ScaledConfig{16, 32, 8},
                      ScaledConfig{8, 16, 4}, ScaledConfig{8, 16, 16},
                      ScaledConfig{4, 4, 2}),
    [](const ::testing::TestParamInfo<ScaledConfig>& info) {
      return "td" + std::to_string(info.param.td) + "_tk" +
             std::to_string(info.param.tk) + "_tile" +
             std::to_string(info.param.max_tile);
    });

// ------------------------ random network chains (compositional property) ---

class AcceleratorChainSweep : public ::testing::TestWithParam<int> {};

TEST_P(AcceleratorChainSweep, RandomChainsStayBitExact) {
  // Build a random 2-4 layer DSC chain with random (possibly ragged)
  // geometry and verify the accelerator end to end. Exercises the
  // composition property: each layer's output domain is the next layer's
  // input domain, including edge tiles and partial slices mid-chain.
  Rng rng(0xBEEF0000 + static_cast<std::uint64_t>(GetParam()));
  const int depth = static_cast<int>(rng.uniform_int(2, 4));

  int rows = static_cast<int>(rng.uniform_int(6, 20));
  int channels = static_cast<int>(rng.uniform_int(4, 24));
  std::vector<nn::QuantDscLayer> layers;
  for (int i = 0; i < depth; ++i) {
    nn::DscLayerSpec spec;
    spec.index = i;
    spec.in_rows = rows;
    spec.in_cols = rows;
    spec.in_channels = channels;
    spec.stride = rng.bernoulli(0.4) && rows >= 8 ? 2 : 1;
    spec.out_channels = static_cast<int>(rng.uniform_int(4, 40));
    const nn::FloatDscLayer fl = nn::make_random_float_layer(spec, rng);
    layers.push_back(nn::quantize_layer(fl, nn::QuantScale{0.03f},
                                        nn::QuantScale{0.03f},
                                        nn::QuantScale{0.03f}));
    rows = spec.out_rows();
    channels = spec.out_channels;
  }

  nn::Int8Tensor input(nn::Shape{layers[0].spec.in_rows,
                                 layers[0].spec.in_cols,
                                 layers[0].spec.in_channels});
  for (auto& v : input.storage()) {
    v = rng.bernoulli(0.4)
            ? std::int8_t{0}
            : static_cast<std::int8_t>(rng.uniform_int(0, 127));
  }

  EdeaAccelerator accel;
  const NetworkRunResult run = accel.run_network(layers, input);
  nn::Int8Tensor ref = input;
  for (const auto& l : layers) ref = l.forward(ref);
  EXPECT_EQ(run.output, ref);

  // Cycle totals compose additively.
  const TimingModel tm(accel.config());
  std::int64_t expected = 0;
  for (const auto& l : layers) {
    expected += tm.layer_timing(l.spec).total_cycles;
  }
  EXPECT_EQ(run.total_cycles(), expected);
}

INSTANTIATE_TEST_SUITE_P(Chains, AcceleratorChainSweep,
                         ::testing::Range(0, 10));

}  // namespace
}  // namespace edea::core
