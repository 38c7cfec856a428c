// Tests for DSC layer types (src/nn/layers.*): geometry arithmetic, random
// initialization, quantized forward correctness vs the float reference.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "nn/layers.hpp"
#include "nn/metrics.hpp"
#include "util/check.hpp"
#include "util/random.hpp"

namespace edea::nn {
namespace {

DscLayerSpec small_spec(int rows, int channels, int stride, int out_ch) {
  DscLayerSpec s;
  s.in_rows = rows;
  s.in_cols = rows;
  s.in_channels = channels;
  s.stride = stride;
  s.out_channels = out_ch;
  return s;
}

TEST(DscLayerSpec, OutputGeometryStride1) {
  const DscLayerSpec s = small_spec(32, 32, 1, 64);
  EXPECT_EQ(s.out_rows(), 32);
  EXPECT_EQ(s.out_cols(), 32);
}

TEST(DscLayerSpec, OutputGeometryStride2) {
  const DscLayerSpec s = small_spec(32, 64, 2, 128);
  EXPECT_EQ(s.out_rows(), 16);
  const DscLayerSpec odd = small_spec(5, 8, 2, 8);
  EXPECT_EQ(odd.out_rows(), 3);  // ceil(5/2) with pad 1, kernel 3
}

TEST(DscLayerSpec, MacCounts) {
  const DscLayerSpec s = small_spec(4, 512, 1, 512);
  // DWC: 4*4*512*9 ; PWC: 4*4*512*512.
  EXPECT_EQ(s.dwc_macs(), 73728);
  EXPECT_EQ(s.pwc_macs(), 4194304);
  EXPECT_EQ(s.total_macs(), 73728 + 4194304);
  EXPECT_EQ(s.total_ops(), 2 * (73728 + 4194304));
}

TEST(DscLayerSpec, ToStringMentionsGeometry) {
  const DscLayerSpec s = small_spec(8, 16, 2, 32);
  const std::string str = s.to_string();
  EXPECT_NE(str.find("8x8x16"), std::string::npos);
  EXPECT_NE(str.find("s2"), std::string::npos);
}

TEST(MakeRandomFloatLayer, ShapesAndDeterminism) {
  const DscLayerSpec spec = small_spec(8, 16, 1, 24);
  Rng rng1(99), rng2(99);
  const FloatDscLayer a = make_random_float_layer(spec, rng1);
  const FloatDscLayer b = make_random_float_layer(spec, rng2);
  EXPECT_EQ(a.dwc_weights.shape(), (Shape{3, 3, 16}));
  EXPECT_EQ(a.pwc_weights.shape(), (Shape{24, 16}));
  EXPECT_EQ(a.bn1.channels(), 16u);
  EXPECT_EQ(a.bn2.channels(), 24u);
  EXPECT_EQ(a.dwc_weights, b.dwc_weights);
  EXPECT_EQ(a.pwc_weights, b.pwc_weights);
}

TEST(FillNormal, MatchesTheSerialLoopBitForBit) {
  // Lengths below, at and past the chunking threshold, even and odd, so
  // chunks start at even and odd offsets; a generator that already drew
  // an odd number of normals starts the fill on its cached variate.
  for (const int n : {1, 2, 4095, 8192, 8193, 40001, 300000}) {
    for (const int drawn : {0, 1, 2, 3}) {
      SCOPED_TRACE("n " + std::to_string(n) + " drawn " +
                   std::to_string(drawn));
      Rng serial(77);
      Rng chunked(77);
      for (int i = 0; i < drawn; ++i) {
        (void)serial.normal();
        (void)chunked.normal();
      }
      FloatTensor want(Shape{n});
      for (auto& w : want.storage()) {
        w = static_cast<float>(serial.normal(0.0, 0.5));
      }
      FloatTensor got(Shape{n});
      fill_normal(got, 0.5, chunked);
      const std::size_t bytes = want.size() * sizeof(float);
      EXPECT_EQ(std::memcmp(want.data(), got.data(), bytes), 0);
      for (int i = 0; i < 3; ++i) EXPECT_EQ(serial.normal(), chunked.normal());
    }
  }
}

TEST(MakeRandomFloatLayer, RejectsBadStride) {
  DscLayerSpec spec = small_spec(8, 8, 3, 8);
  Rng rng(1);
  EXPECT_THROW((void)make_random_float_layer(spec, rng), PreconditionError);
}

TEST(FloatDscLayer, ForwardShapesAndIntermediate) {
  const DscLayerSpec spec = small_spec(8, 8, 2, 16);
  Rng rng(7);
  const FloatDscLayer layer = make_random_float_layer(spec, rng);
  FloatTensor input(Shape{8, 8, 8});
  for (auto& v : input.storage()) {
    v = static_cast<float>(std::abs(rng.normal(0.0, 1.0)));
  }
  FloatTensor intermediate;
  const FloatTensor out = layer.forward(input, &intermediate);
  EXPECT_EQ(out.shape(), (Shape{4, 4, 16}));
  EXPECT_EQ(intermediate.shape(), (Shape{4, 4, 8}));
  // Post-ReLU outputs are non-negative.
  for (const float v : out.storage()) EXPECT_GE(v, 0.0f);
  for (const float v : intermediate.storage()) EXPECT_GE(v, 0.0f);
}

/// Builds a quantized layer with scales calibrated on one input, then
/// returns (layer, input, float reference output).
struct QuantFixture {
  QuantDscLayer layer;
  Int8Tensor input_q;
  FloatTensor float_out;
  QuantScale in_scale, mid_scale, out_scale;
};

QuantFixture make_quant_fixture(const DscLayerSpec& spec, std::uint64_t seed) {
  Rng rng(seed);
  const FloatDscLayer fl = make_random_float_layer(spec, rng);
  FloatTensor input(Shape{spec.in_rows, spec.in_cols, spec.in_channels});
  for (auto& v : input.storage()) {
    v = static_cast<float>(std::max(0.0, rng.normal(0.5, 0.5)));
  }
  FloatTensor intermediate;
  const FloatTensor out = fl.forward(input, &intermediate);

  QuantFixture fx;
  fx.in_scale = choose_activation_scale(max_abs(input));
  fx.mid_scale = choose_activation_scale(max_abs(intermediate));
  fx.out_scale = choose_activation_scale(max_abs(out));
  fx.layer = quantize_layer(fl, fx.in_scale, fx.mid_scale, fx.out_scale);
  fx.input_q = quantize_tensor(input, fx.in_scale);
  fx.float_out = out;
  return fx;
}

TEST(QuantDscLayer, ForwardProducesReluClampedInt8) {
  const QuantFixture fx = make_quant_fixture(small_spec(8, 16, 1, 16), 11);
  const Int8Tensor out = fx.layer.forward(fx.input_q);
  for (const auto v : out.storage()) {
    EXPECT_GE(v, 0);
    EXPECT_LE(v, 127);
  }
}

TEST(QuantDscLayer, QuantizedTracksFloatReference) {
  // The int8 network must approximate the float network: high cosine
  // similarity between dequantized int8 output and the float output.
  const QuantFixture fx = make_quant_fixture(small_spec(16, 16, 1, 32), 13);
  const Int8Tensor out_q = fx.layer.forward(fx.input_q);
  const FloatTensor out_deq = dequantize_tensor(out_q, fx.out_scale);
  const double cos = cosine_similarity(out_deq, fx.float_out);
  EXPECT_GT(cos, 0.98) << "quantization destroyed the layer output";
}

TEST(QuantDscLayer, IntermediateExposedAndConsistent) {
  const QuantFixture fx = make_quant_fixture(small_spec(8, 8, 2, 16), 17);
  Int8Tensor intermediate;
  const Int8Tensor out_a = fx.layer.forward(fx.input_q, &intermediate);
  EXPECT_EQ(intermediate.shape(),
            (Shape{fx.layer.spec.out_rows(), fx.layer.spec.out_cols(),
                   fx.layer.spec.in_channels}));
  // Running again without the intermediate must give identical output.
  const Int8Tensor out_b = fx.layer.forward(fx.input_q);
  EXPECT_EQ(out_a, out_b);
}

TEST(QuantDscLayer, InputChannelMismatchThrows) {
  const QuantFixture fx = make_quant_fixture(small_spec(8, 8, 1, 8), 19);
  Int8Tensor wrong(Shape{8, 8, 16});
  EXPECT_THROW((void)fx.layer.forward(wrong), PreconditionError);
}

TEST(QuantDscLayer, DeterministicForward) {
  const QuantFixture fx = make_quant_fixture(small_spec(8, 24, 1, 40), 23);
  EXPECT_EQ(fx.layer.forward(fx.input_q), fx.layer.forward(fx.input_q));
}

TEST(LayerActivationStats, DefaultsToZero) {
  const LayerActivationStats s{};
  EXPECT_DOUBLE_EQ(s.dwc_input_zero_fraction, 0.0);
  EXPECT_DOUBLE_EQ(s.pwc_input_zero_fraction, 0.0);
}

}  // namespace
}  // namespace edea::nn
