// Tests for quantized-network serialization (src/nn/serialize.*):
// round-trip fidelity, format validation, corruption handling.
#include <gtest/gtest.h>

#include <sstream>

#include "nn/mobilenet.hpp"
#include "nn/model_zoo.hpp"
#include "nn/serialize.hpp"
#include "util/check.hpp"
#include "util/random.hpp"

namespace edea::nn {
namespace {

std::vector<QuantDscLayer> small_network(std::uint64_t seed) {
  std::vector<DscLayerSpec> specs;
  DscLayerSpec a;
  a.index = 0;
  a.in_rows = a.in_cols = 8;
  a.in_channels = 16;
  a.out_channels = 32;
  specs.push_back(a);
  DscLayerSpec b;
  b.index = 1;
  b.in_rows = b.in_cols = 8;
  b.in_channels = 32;
  b.stride = 2;
  b.out_channels = 48;
  specs.push_back(b);
  return make_random_quant_network(specs, seed);
}

void expect_same_nonconv(const NonConvParams& a, const NonConvParams& b) {
  ASSERT_EQ(a.channel_count(), b.channel_count());
  for (std::size_t c = 0; c < a.channel_count(); ++c) {
    EXPECT_EQ(a.channels[c].k.raw(), b.channels[c].k.raw());
    EXPECT_EQ(a.channels[c].b.raw(), b.channels[c].b.raw());
    EXPECT_FLOAT_EQ(a.k_float[c], b.k_float[c]);
    EXPECT_FLOAT_EQ(a.b_float[c], b.b_float[c]);
  }
}

/// Every field a layer carries, spec included, survived the round trip.
void expect_same_network(const std::vector<QuantDscLayer>& original,
                         const std::vector<QuantDscLayer>& loaded) {
  ASSERT_EQ(loaded.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    SCOPED_TRACE("layer " + std::to_string(i));
    const auto& a = original[i];
    const auto& b = loaded[i];
    EXPECT_EQ(a.spec.index, b.spec.index);
    EXPECT_EQ(a.spec.in_rows, b.spec.in_rows);
    EXPECT_EQ(a.spec.in_cols, b.spec.in_cols);
    EXPECT_EQ(a.spec.in_channels, b.spec.in_channels);
    EXPECT_EQ(a.spec.stride, b.spec.stride);
    EXPECT_EQ(a.spec.out_channels, b.spec.out_channels);
    EXPECT_EQ(a.spec.kernel, b.spec.kernel);
    EXPECT_EQ(a.spec.padding, b.spec.padding);
    EXPECT_EQ(a.spec.dilation, b.spec.dilation);
    EXPECT_EQ(a.spec.depth_multiplier, b.spec.depth_multiplier);
    EXPECT_EQ(a.dwc_weights, b.dwc_weights);
    EXPECT_EQ(a.pwc_weights, b.pwc_weights);
    EXPECT_FLOAT_EQ(a.input_scale.scale, b.input_scale.scale);
    EXPECT_FLOAT_EQ(a.intermediate_scale.scale, b.intermediate_scale.scale);
    EXPECT_FLOAT_EQ(a.output_scale.scale, b.output_scale.scale);
    expect_same_nonconv(a.nonconv1, b.nonconv1);
    expect_same_nonconv(a.nonconv2, b.nonconv2);
  }
}

TEST(Serialize, RoundTripPreservesEverything) {
  const auto original = small_network(1);
  std::stringstream ss;
  save_network(ss, original);
  expect_same_network(original, load_network(ss));
}

TEST(Serialize, EveryZooNetworkRoundTripsUnderEveryTransform) {
  // Dilation and depth multiplier are part of the network: a round trip
  // keeps them, sizes the multiplied DWC weights and Non-Conv block by the
  // intermediate depth, and computes the same outputs. The networks run
  // on an 8x8 input - every layer accepts any spatial extent, and the
  // forward pass sees the dilation of every layer.
  for (const std::string& name : zoo_network_names()) {
    for (const int dilation : {1, 2}) {
      for (const int multiplier : {1, 2}) {
        SCOPED_TRACE(name + " dilation " + std::to_string(dilation) +
                     " multiplier " + std::to_string(multiplier));
        std::vector<DscLayerSpec> specs = zoo_specs(name);
        for (DscLayerSpec& spec : specs) {
          spec.dilation = dilation;
          spec.padding *= dilation;
          spec.depth_multiplier *= multiplier;
        }
        const auto original = make_random_quant_network(specs, 3);
        std::stringstream ss;
        save_network(ss, original);
        EXPECT_EQ(static_cast<std::int64_t>(ss.str().size()),
                  serialized_size(original));
        const auto loaded = load_network(ss);
        expect_same_network(original, loaded);
        if (loaded.size() != original.size()) continue;

        Rng rng(4);
        Int8Tensor want(Shape{8, 8, specs.front().in_channels});
        for (auto& v : want.storage()) {
          v = static_cast<std::int8_t>(rng.uniform_int(0, 127));
        }
        Int8Tensor got = want;
        for (std::size_t i = 0; i < original.size(); ++i) {
          want = original[i].forward(want);
          got = loaded[i].forward(got);
        }
        EXPECT_EQ(want, got);
      }
    }
  }
}

TEST(Serialize, RejectsOldVersionsAndTransformsBelowOne) {
  const auto net = small_network(9);
  std::stringstream ss;
  save_network(ss, net);
  const std::string bytes = ss.str();
  // Overwrites the little-endian int32 at `offset` and loads the result.
  const auto expect_rejected = [&bytes](std::size_t offset,
                                        std::int32_t value,
                                        const std::string& why) {
    std::string patched = bytes;
    for (std::size_t b = 0; b < 4; ++b) {
      patched[offset + b] = static_cast<char>(
          (static_cast<std::uint32_t>(value) >> (8 * b)) & 0xFF);
    }
    std::stringstream in(patched);
    try {
      (void)load_network(in);
      ADD_FAILURE() << "loaded " << value << " at byte " << offset;
    } catch (const PreconditionError& e) {
      EXPECT_NE(std::string(e.what()).find(why), std::string::npos)
          << e.what();
    }
  };
  // A version-1 stream predates the two transform fields.
  expect_rejected(4, 1, "unsupported EDEA model version");
  // The first layer's dilation, then its depth multiplier, follow its
  // eight geometry fields.
  for (const std::int32_t bad : {0, -1}) {
    expect_rejected(12 + 8 * 4, bad, "invalid layer geometry");
    expect_rejected(12 + 9 * 4, bad, "invalid layer geometry");
  }
}

TEST(Serialize, RoundTripPreservesForwardBehaviour) {
  // The loaded network must compute bit-identical outputs - the property
  // that actually matters for deployment.
  const auto original = small_network(2);
  std::stringstream ss;
  save_network(ss, original);
  const auto loaded = load_network(ss);

  Rng rng(3);
  Int8Tensor input(Shape{8, 8, 16});
  for (auto& v : input.storage()) {
    v = static_cast<std::int8_t>(rng.uniform_int(0, 127));
  }
  const Int8Tensor ref = original[1].forward(original[0].forward(input));
  const Int8Tensor got = loaded[1].forward(loaded[0].forward(input));
  EXPECT_EQ(ref, got);
}

TEST(Serialize, SerializedSizeMatchesStream) {
  const auto net = small_network(4);
  std::stringstream ss;
  save_network(ss, net);
  EXPECT_EQ(static_cast<std::int64_t>(ss.str().size()),
            serialized_size(net));
}

TEST(Serialize, RejectsEmptyNetwork) {
  std::stringstream ss;
  EXPECT_THROW(save_network(ss, {}), PreconditionError);
}

TEST(Serialize, RejectsBadMagic) {
  std::stringstream ss;
  ss.write("NOPE", 4);
  ss.write("\0\0\0\0\0\0\0\0", 8);
  EXPECT_THROW((void)load_network(ss), PreconditionError);
}

TEST(Serialize, RejectsTruncatedStream) {
  const auto net = small_network(5);
  std::stringstream ss;
  save_network(ss, net);
  const std::string full = ss.str();
  for (const std::size_t cut :
       {std::size_t{3}, std::size_t{11}, full.size() / 2, full.size() - 1}) {
    std::stringstream truncated(full.substr(0, cut));
    EXPECT_THROW((void)load_network(truncated), PreconditionError)
        << "cut at " << cut;
  }
}

TEST(Serialize, RejectsCorruptedNonConvRaw) {
  // Flip a Non-Conv raw value past the 24-bit envelope: Q8_16::from_raw
  // must reject the stream.
  const auto net = small_network(6);
  std::stringstream ss;
  save_network(ss, net);
  std::string bytes = ss.str();
  // The first Non-Conv record sits after header + spec + scales + weights.
  const std::size_t nonconv_offset = 12 + 10 * 4 + 3 * 4 + 4 +
                                     net[0].dwc_weights.size() + 4 +
                                     net[0].pwc_weights.size() + 4;
  // Break the sign-extension byte of k's stored int32: any value there
  // other than 0x00/0xFF puts the raw pattern outside signed 24 bits.
  bytes[nonconv_offset + 3] = '\x01';
  std::stringstream corrupted(bytes);
  EXPECT_THROW((void)load_network(corrupted), PreconditionError);
}

TEST(Serialize, FileRoundTrip) {
  const auto net = small_network(7);
  const std::string path = "/tmp/edea_serialize_test.bin";
  save_network_file(path, net);
  const auto loaded = load_network_file(path);
  ASSERT_EQ(loaded.size(), net.size());
  EXPECT_EQ(loaded[0].dwc_weights, net[0].dwc_weights);
  EXPECT_THROW((void)load_network_file("/nonexistent/dir/x.bin"),
               PreconditionError);
}

TEST(Serialize, MobileNetSizeIsReasonable) {
  // ~3.2M int8 conv parameters + Non-Conv records: the blob must stay in
  // the low megabytes (it is what the silicon's external memory holds).
  const auto specs_arr = mobilenet_dsc_specs();
  const std::vector<DscLayerSpec> specs(specs_arr.begin(), specs_arr.end());
  const auto net = make_random_quant_network(specs, 8);
  const std::int64_t bytes = serialized_size(net);
  EXPECT_GT(bytes, 3'000'000);
  EXPECT_LT(bytes, 4'500'000);
}

}  // namespace
}  // namespace edea::nn
