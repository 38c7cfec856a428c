// Tests for the serialized baseline accelerator: identical arithmetic to
// EDEA, but with the external intermediate round-trip and without engine
// parallelism - the two properties the paper's design removes.
#include <gtest/gtest.h>

#include "baseline/serialized_accelerator.hpp"
#include "core/accelerator.hpp"
#include "nn/layers.hpp"
#include "util/random.hpp"

namespace edea::baseline {
namespace {

nn::DscLayerSpec spec_of(int rows, int ch, int stride, int out_ch) {
  nn::DscLayerSpec s;
  s.in_rows = rows;
  s.in_cols = rows;
  s.in_channels = ch;
  s.stride = stride;
  s.out_channels = out_ch;
  return s;
}

struct Fixture {
  nn::QuantDscLayer layer;
  nn::Int8Tensor input;
};

Fixture make_fixture(const nn::DscLayerSpec& spec, std::uint64_t seed) {
  Rng rng(seed);
  const nn::FloatDscLayer fl = nn::make_random_float_layer(spec, rng);
  Fixture fx;
  fx.layer = nn::quantize_layer(fl, nn::QuantScale{0.02f},
                                nn::QuantScale{0.03f}, nn::QuantScale{0.03f});
  fx.input = nn::Int8Tensor(
      nn::Shape{spec.in_rows, spec.in_cols, spec.in_channels});
  for (auto& v : fx.input.storage()) {
    v = rng.bernoulli(0.4)
            ? std::int8_t{0}
            : static_cast<std::int8_t>(rng.uniform_int(0, 127));
  }
  return fx;
}

TEST(SerializedBaseline, BitExactAgainstReferenceAndEdea) {
  const Fixture fx = make_fixture(spec_of(16, 16, 1, 32), 1);
  SerializedDscAccelerator baseline;
  core::EdeaAccelerator edea;
  const auto base = baseline.run_layer(fx.layer, fx.input);
  const auto fast = edea.run_layer(fx.layer, fx.input);
  const nn::Int8Tensor golden = fx.layer.forward(fx.input);
  EXPECT_EQ(base.common.output, golden);
  EXPECT_EQ(fast.output, golden);
}

TEST(SerializedBaseline, BitExactWithStride2AndRaggedShapes) {
  for (const auto& spec :
       {spec_of(16, 24, 2, 48), spec_of(7, 5, 1, 9), spec_of(9, 12, 2, 20)}) {
    const Fixture fx = make_fixture(spec, 2);
    SerializedDscAccelerator baseline;
    EXPECT_EQ(baseline.run_layer(fx.layer, fx.input).common.output,
              fx.layer.forward(fx.input));
  }
}

TEST(SerializedBaseline, IntermediateRoundTripsThroughExternalMemory) {
  // The Fig. 3 baseline: N*M*D written out and N*M*D read back.
  const auto spec = spec_of(16, 16, 1, 32);
  const Fixture fx = make_fixture(spec, 3);
  SerializedDscAccelerator baseline;
  const auto r = baseline.run_layer(fx.layer, fx.input);
  const std::int64_t nmd = 16LL * 16 * 16;
  EXPECT_EQ(r.intermediate_external_writes, nmd);
  EXPECT_EQ(r.intermediate_external_reads, nmd);
}

TEST(SerializedBaseline, RoundTripReadsWholeBlocksOnSevenWideTiles) {
  // Dilation 2 at stride 2 shrinks buffer tiles to 7 outputs, so the
  // 2x2 steps of a tile cover 8. The PWC phase fetches each step's whole
  // Tn x Tm block from the external map - every in-map position, even one
  // belonging to the next tile - while the DWC phase writes only the
  // tile's own outputs. 20x20 outputs in tiles of 7, 7, 6: each axis
  // fetches 8 + 8 + 6 = 22 positions against 20 written.
  auto spec = spec_of(40, 8, 2, 8);
  spec.dilation = 2;
  spec.padding = 2;
  const Fixture fx = make_fixture(spec, 8);
  SerializedDscAccelerator baseline;
  const auto r = baseline.run_layer(fx.layer, fx.input);
  EXPECT_EQ(r.intermediate_external_writes, 20 * 20 * 8);  // 3,200
  EXPECT_EQ(r.intermediate_external_reads, 22 * 22 * 8);   // 3,872
}

TEST(SerializedBaseline, EdeaEliminatesExactlyTheIntermediateTraffic) {
  const auto spec = spec_of(16, 16, 1, 32);
  const Fixture fx = make_fixture(spec, 4);
  SerializedDscAccelerator baseline;
  core::EdeaAccelerator edea;
  const auto base = baseline.run_layer(fx.layer, fx.input);
  const auto fast = edea.run_layer(fx.layer, fx.input);
  const auto base_act =
      base.common.external.accesses(arch::TrafficClass::kActivation);
  const auto fast_act =
      fast.external.accesses(arch::TrafficClass::kActivation);
  EXPECT_EQ(base_act - fast_act, base.intermediate_external_writes +
                                     base.intermediate_external_reads);
}

TEST(SerializedBaseline, SlowerThanEdeaByTheDwcPhase) {
  // EDEA overlaps DWC with PWC; the serialized design pays the DWC phase
  // on top. Its PWC phase alone equals EDEA's total (same Eq. 1/2 loop).
  const auto spec = spec_of(16, 32, 1, 64);
  const Fixture fx = make_fixture(spec, 5);
  SerializedDscAccelerator baseline;
  core::EdeaAccelerator edea;
  const auto base = baseline.run_layer(fx.layer, fx.input);
  const auto fast = edea.run_layer(fx.layer, fx.input);
  EXPECT_EQ(base.pwc_phase_cycles, fast.timing.total_cycles);
  EXPECT_EQ(base.common.timing.total_cycles,
            fast.timing.total_cycles + base.dwc_phase_cycles);
  EXPECT_GT(base.common.timing.total_cycles, fast.timing.total_cycles);
}

TEST(SerializedBaseline, SpeedupIsLargestForDwcHeavyLayers) {
  // Small K: DWC work is a large share, so serialization hurts more.
  SerializedDscAccelerator baseline;
  core::EdeaAccelerator edea;
  auto speedup = [&](const nn::DscLayerSpec& spec, std::uint64_t seed) {
    const Fixture fx = make_fixture(spec, seed);
    const auto base = baseline.run_layer(fx.layer, fx.input);
    const auto fast = edea.run_layer(fx.layer, fx.input);
    return static_cast<double>(base.common.timing.total_cycles) /
           static_cast<double>(fast.timing.total_cycles);
  };
  const double dwc_heavy = speedup(spec_of(16, 32, 1, 16), 6);
  const double pwc_heavy = speedup(spec_of(8, 32, 1, 256), 7);
  EXPECT_GT(dwc_heavy, pwc_heavy);
  EXPECT_GT(dwc_heavy, 1.0);
  EXPECT_GT(pwc_heavy, 1.0);
}

// ------------------------------------------------- unified-engine model ---

TEST(UnifiedEngineModel, UtilizationBelowOneForDscLayers) {
  // A unified engine ([2]-[4]) cannot keep all lanes busy during DWC:
  // EDEA's dual engines exist to fix exactly this.
  const UnifiedEngineModel unified{};
  const auto spec = spec_of(16, 128, 1, 128);
  const double util = unified.layer_utilization(spec);
  EXPECT_LT(util, 1.0);
  EXPECT_GT(util, 0.5);
}

TEST(UnifiedEngineModel, UtilizationDropsWithDwcShare) {
  const UnifiedEngineModel unified{};
  // Small K -> DWC share larger -> utilization lower.
  EXPECT_LT(unified.layer_utilization(spec_of(16, 128, 1, 16)),
            unified.layer_utilization(spec_of(16, 128, 1, 512)));
}

TEST(UnifiedEngineModel, PerfectArrayWouldReachOne) {
  UnifiedEngineModel ideal;
  ideal.array_macs = 288;
  ideal.dwc_usable_macs = 288;
  // When DWC can use the whole array, only the PWC phase is at full
  // utilization too - the model degenerates to 1.
  const auto spec = spec_of(8, 64, 1, 64);
  EXPECT_DOUBLE_EQ(ideal.layer_utilization(spec), 1.0);
}

}  // namespace
}  // namespace edea::baseline
