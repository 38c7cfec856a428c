// Tests for the model zoo (src/nn/model_zoo.*): variant geometry, width
// scaling, chaining, and accelerator compatibility - the paper's closing
// claim that the design "is also suitable for other DSC-based networks".
#include <gtest/gtest.h>

#include "core/accelerator.hpp"
#include "core/tiler.hpp"
#include "nn/mobilenet.hpp"
#include "nn/model_zoo.hpp"
#include "util/check.hpp"
#include "util/hash.hpp"
#include "util/random.hpp"

namespace edea::nn {
namespace {

TEST(ModelZoo, DefaultVariantMatchesPaperTable) {
  MobileNetVariant v;  // 1.0x @ 32
  const auto specs = mobilenet_variant_specs(v);
  const auto paper = mobilenet_dsc_specs();
  ASSERT_EQ(specs.size(), paper.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(specs[i].in_rows, paper[i].in_rows) << i;
    EXPECT_EQ(specs[i].in_channels, paper[i].in_channels) << i;
    EXPECT_EQ(specs[i].out_channels, paper[i].out_channels) << i;
    EXPECT_EQ(specs[i].stride, paper[i].stride) << i;
  }
}

TEST(ModelZoo, WidthMultiplierScalesChannels) {
  MobileNetVariant half;
  half.width_multiplier = 0.5;
  const auto specs = mobilenet_variant_specs(half);
  EXPECT_EQ(specs[0].in_channels, 16);
  EXPECT_EQ(specs[0].out_channels, 32);
  EXPECT_EQ(specs[12].out_channels, 512);
}

TEST(ModelZoo, ChannelRoundingKeepsTdAlignment) {
  MobileNetVariant v;
  v.width_multiplier = 0.75;
  const auto specs = mobilenet_variant_specs(v, /*channel_round=*/8);
  for (const auto& s : specs) {
    EXPECT_EQ(s.in_channels % 8, 0) << s.to_string();
    EXPECT_EQ(s.out_channels % 8, 0) << s.to_string();
  }
}

TEST(ModelZoo, VariantsChainGeometrically) {
  for (const double alpha : {0.25, 0.5, 0.75, 1.0}) {
    MobileNetVariant v;
    v.width_multiplier = alpha;
    const auto specs = mobilenet_variant_specs(v);
    for (std::size_t i = 0; i + 1 < specs.size(); ++i) {
      EXPECT_EQ(specs[i].out_rows(), specs[i + 1].in_rows);
      EXPECT_EQ(specs[i].out_channels, specs[i + 1].in_channels);
    }
  }
}

TEST(ModelZoo, ImageNetGeometry) {
  const auto specs = mobilenet_imagenet_specs();
  EXPECT_EQ(specs[0].in_rows, 112);  // after the stride-2 stem
  EXPECT_EQ(specs[12].in_rows, 7);   // the classic 7x7x1024 tail
  EXPECT_EQ(specs[12].out_channels, 1024);
}

TEST(ModelZoo, EdeaNetChainsAndEndsAt4x4x256) {
  const auto specs = edeanet_specs();
  ASSERT_EQ(specs.size(), 6u);
  for (std::size_t i = 0; i + 1 < specs.size(); ++i) {
    EXPECT_EQ(specs[i].out_rows(), specs[i + 1].in_rows);
    EXPECT_EQ(specs[i].out_channels, specs[i + 1].in_channels);
  }
  EXPECT_EQ(specs.back().out_rows(), 4);
  EXPECT_EQ(specs.back().out_channels, 256);
}

TEST(ModelZoo, RejectsBadParameters) {
  MobileNetVariant v;
  v.width_multiplier = 0.0;
  EXPECT_THROW((void)mobilenet_variant_specs(v), PreconditionError);
  v.width_multiplier = 1.0;
  v.input_resolution = 2;
  EXPECT_THROW((void)mobilenet_variant_specs(v), PreconditionError);
}

TEST(ModelZoo, RandomQuantNetworkIsDeterministic) {
  const auto specs = edeanet_specs();
  const auto a = make_random_quant_network(specs, 42);
  const auto b = make_random_quant_network(specs, 42);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].dwc_weights, b[i].dwc_weights);
    EXPECT_EQ(a[i].pwc_weights, b[i].pwc_weights);
  }
  const auto c = make_random_quant_network(specs, 43);
  EXPECT_NE(a[0].dwc_weights, c[0].dwc_weights);
}

TEST(ModelZoo, MaterializedNetworksArePinned) {
  // One digest over every parameter a materialized network hands the
  // simulators - int8 DWC/PWC weights, Non-Conv raw pairs and the float
  // k/b they encode - for every zoo network under the transforms
  // WorkloadCatalog::resolve applies. How the normal draws are scheduled
  // may change; the bytes they produce may not.
  util::Fnv1a64 h;
  for (const std::string& name : zoo_network_names()) {
    for (const int dilation : {1, 2}) {
      for (const int multiplier : {1, 2}) {
        std::vector<DscLayerSpec> specs = zoo_specs(name);
        for (DscLayerSpec& s : specs) {
          s.dilation = dilation;
          s.padding *= dilation;
          s.depth_multiplier *= multiplier;
        }
        for (const std::uint64_t seed : {1ull, 12345ull}) {
          for (const QuantDscLayer& l :
               make_random_quant_network(specs, seed)) {
            h.span(l.dwc_weights.storage()).span(l.pwc_weights.storage());
            for (const NonConvParams* p : {&l.nonconv1, &l.nonconv2}) {
              for (const NonConvChannelParams& c : p->channels) {
                h.pod(c.k.raw()).pod(c.b.raw());
              }
              h.span(p->k_float).span(p->b_float);
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(h.digest(), 0xfc0739b7eafedf65ull)
      << "materialized networks changed; new digest 0x" << std::hex
      << h.digest();
}

TEST(ModelZoo, RandomQuantNetworkRaisesTheFirstBadLayersError) {
  // Layers build concurrently, largest first: layer 5, the largest,
  // fails at once and layer 1, left with the fewest weights, starts
  // last. The error raised is still layer 1's, as in a layer-by-layer
  // build.
  std::vector<DscLayerSpec> specs = edeanet_specs();
  specs[1].out_channels = 0;
  specs[5].stride = 3;
  for (int rep = 0; rep < 8; ++rep) {
    try {
      (void)make_random_quant_network(specs, 5);
      FAIL() << "expected PreconditionError";
    } catch (const PreconditionError& e) {
      EXPECT_NE(std::string(e.what()).find("channel counts must be positive"),
                std::string::npos)
          << e.what();
    }
  }
}

// ------------------------ accelerator compatibility (the paper's claim) ---

TEST(ModelZoo, AcceleratorRunsEdeaNetBitExact) {
  const auto layers = make_random_quant_network(edeanet_specs(), 7);
  core::EdeaAccelerator accel;
  Rng rng(9);
  Int8Tensor input(Shape{64, 64, 16});
  for (auto& v : input.storage()) {
    v = rng.bernoulli(0.4) ? std::int8_t{0}
                           : static_cast<std::int8_t>(rng.uniform_int(0, 127));
  }
  const core::NetworkRunResult run = accel.run_network(layers, input);
  Int8Tensor ref = input;
  for (const auto& l : layers) ref = l.forward(ref);
  EXPECT_EQ(run.output, ref);
  // Utilization stays 100%: every EdeaNet channel count is Td/Tk aligned.
  for (const auto& r : run.layers) {
    EXPECT_DOUBLE_EQ(r.dwc_lane_utilization(), 1.0) << r.spec.to_string();
    EXPECT_DOUBLE_EQ(r.pwc_lane_utilization(), 1.0) << r.spec.to_string();
  }
}

TEST(ModelZoo, AcceleratorRunsQuarterWidthMobileNet) {
  MobileNetVariant v;
  v.width_multiplier = 0.25;
  const auto specs = mobilenet_variant_specs(v);
  const auto layers = make_random_quant_network(specs, 11);
  core::EdeaAccelerator accel;
  Rng rng(13);
  Int8Tensor input(Shape{32, 32, specs[0].in_channels});
  for (auto& v8 : input.storage()) {
    v8 = static_cast<std::int8_t>(rng.uniform_int(0, 127));
  }
  const core::NetworkRunResult run = accel.run_network(layers, input);
  Int8Tensor ref = input;
  for (const auto& l : layers) ref = l.forward(ref);
  EXPECT_EQ(run.output, ref);
}

TEST(ModelZoo, EveryVariantLayerFitsTheModeledBuffers) {
  // The fixed silicon buffers must hold every layer of every supported
  // CIFAR-scale variant (K <= 1024 is the modeled PWC weight buffer bound).
  const core::EdeaConfig cfg = core::EdeaConfig::paper();
  for (const double alpha : {0.25, 0.5, 0.75, 1.0}) {
    MobileNetVariant v;
    v.width_multiplier = alpha;
    for (const auto& spec : mobilenet_variant_specs(v)) {
      const core::Tiler tiler(cfg, spec);
      EXPECT_LE(tiler.max_tile_input_bytes(), cfg.dwc_ifmap_buffer_bytes())
          << spec.to_string();
      EXPECT_LE(std::int64_t{spec.out_channels} * cfg.td,
                cfg.pwc_weight_buffer_bytes())
          << spec.to_string();
    }
  }
}

// ----------------------- inverted-residual networks (V2 / EfficientNet) ---

TEST(ModelZoo, MobileNetV2GeometryAndExpansionMultipliers) {
  const auto specs = mobilenet_v2_specs();
  ASSERT_EQ(specs.size(), 17u);  // 1+2+3+4+3+3+1 bottleneck blocks
  // The stem feeds 32 channels at full resolution into the first block,
  // whose expansion factor is 1; every later stage expands by 6, carried
  // as the depthwise stage's depth multiplier.
  EXPECT_EQ(specs[0].in_rows, 32);
  EXPECT_EQ(specs[0].in_channels, 32);
  EXPECT_EQ(specs[0].depth_multiplier, 1);
  EXPECT_EQ(specs[0].out_channels, 16);
  for (std::size_t i = 1; i < specs.size(); ++i) {
    EXPECT_EQ(specs[i].depth_multiplier, 6) << specs[i].to_string();
    EXPECT_EQ(specs[i].intermediate_channels(), specs[i].in_channels * 6);
  }
  // Geometric chaining: each block consumes its predecessor's output.
  for (std::size_t i = 0; i + 1 < specs.size(); ++i) {
    EXPECT_EQ(specs[i].out_rows(), specs[i + 1].in_rows) << i;
    EXPECT_EQ(specs[i].out_cols(), specs[i + 1].in_cols) << i;
    EXPECT_EQ(specs[i].out_channels, specs[i + 1].in_channels) << i;
  }
  // Three stride-2 stages take 32x32 to the classic 4x4x320 tail.
  EXPECT_EQ(specs.back().out_rows(), 4);
  EXPECT_EQ(specs.back().out_channels, 320);
}

TEST(ModelZoo, EfficientNetB0GeometryAndExpansionMultipliers) {
  const auto specs = efficientnet_b0_specs();
  ASSERT_EQ(specs.size(), 16u);  // 1+2+2+3+3+4+1 MBConv blocks
  EXPECT_EQ(specs[0].in_rows, 32);
  EXPECT_EQ(specs[0].in_channels, 32);
  EXPECT_EQ(specs[0].depth_multiplier, 1);
  EXPECT_EQ(specs[0].out_channels, 16);
  for (std::size_t i = 1; i < specs.size(); ++i) {
    EXPECT_EQ(specs[i].depth_multiplier, 6) << specs[i].to_string();
    // The 5x5 MBConv stages are clamped to the 3x3 datapath.
    EXPECT_EQ(specs[i].kernel, 3) << specs[i].to_string();
  }
  for (std::size_t i = 0; i + 1 < specs.size(); ++i) {
    EXPECT_EQ(specs[i].out_rows(), specs[i + 1].in_rows) << i;
    EXPECT_EQ(specs[i].out_channels, specs[i + 1].in_channels) << i;
  }
  // Four stride-2 stages take 32x32 down to the 2x2x320 tail.
  EXPECT_EQ(specs.back().out_rows(), 2);
  EXPECT_EQ(specs.back().out_channels, 320);
}

TEST(ModelZoo, InvertedResidualNetworksRunBitExactOnTheAccelerator) {
  // The paper's closing claim extended to multiplied depthwise stages:
  // the simulated accelerator reproduces the golden quantized forward
  // pass of the V2 geometry exactly.
  const auto specs = mobilenet_v2_specs();
  const auto layers = make_random_quant_network(specs, 19);
  core::EdeaAccelerator accel;
  Rng rng(23);
  Int8Tensor input(Shape{32, 32, specs[0].in_channels});
  for (auto& v : input.storage()) {
    v = rng.bernoulli(0.4) ? std::int8_t{0}
                           : static_cast<std::int8_t>(rng.uniform_int(0, 127));
  }
  const core::NetworkRunResult run = accel.run_network(layers, input);
  Int8Tensor ref = input;
  for (const auto& l : layers) ref = l.forward(ref);
  EXPECT_EQ(run.output, ref);
}

TEST(ModelZoo, LookupByNameResolvesEveryListedNetwork) {
  const auto names = zoo_network_names();
  ASSERT_GE(names.size(), 4u);
  for (const std::string& name : names) {
    SCOPED_TRACE(name);
    const auto specs = zoo_specs(name);
    EXPECT_FALSE(specs.empty());
  }
}

TEST(ModelZoo, LookupByNameMatchesDirectBuilders) {
  const auto cifar = zoo_specs("mobilenet-cifar");
  const auto paper = mobilenet_dsc_specs();
  ASSERT_EQ(cifar.size(), paper.size());
  for (std::size_t i = 0; i < cifar.size(); ++i) {
    EXPECT_EQ(cifar[i].in_channels, paper[i].in_channels) << i;
    EXPECT_EQ(cifar[i].out_channels, paper[i].out_channels) << i;
  }
  EXPECT_EQ(zoo_specs("edeanet-64").size(), edeanet_specs().size());
  EXPECT_EQ(zoo_specs("mobilenet-0.5x")[0].in_channels,
            mobilenet_variant_specs(MobileNetVariant{0.5, 32, 32})[0]
                .in_channels);
}

TEST(ModelZoo, UnknownNameIsAPreconditionErrorListingKnownNames) {
  try {
    (void)zoo_specs("resnet-50");
    FAIL() << "expected PreconditionError";
  } catch (const PreconditionError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("resnet-50"), std::string::npos) << msg;
    EXPECT_NE(msg.find("mobilenet-cifar"), std::string::npos) << msg;
  }
}

TEST(ModelZoo, ImageNetVariantNeedsMoreTiles) {
  // 112x112 feature maps split into many 8x8-output buffer tiles - Eq. 2
  // at scale. Cross-check one layer's tile count.
  const auto specs = mobilenet_imagenet_specs();
  const core::Tiler tiler(core::EdeaConfig::paper(), specs[0]);
  EXPECT_EQ(tiler.tiles().size(), 14u * 14u);  // 112/8 squared
}

}  // namespace
}  // namespace edea::nn
