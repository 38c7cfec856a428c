#include "nn/model_zoo.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <exception>
#include <numeric>
#include <sstream>

#include "nn/mobilenet.hpp"
#include "util/check.hpp"
#include "util/random.hpp"
#include "util/thread_pool.hpp"

namespace edea::nn {

namespace {

/// MobileNetV1 block table (base channel counts at width multiplier 1.0):
/// {input channels, output channels, stride}. Thirteen DSC blocks.
struct BlockRow {
  int in_ch;
  int out_ch;
  int stride;
};

constexpr std::array<BlockRow, 13> kMobileNetBlocks{{
    {32, 64, 1},
    {64, 128, 2},
    {128, 128, 1},
    {128, 256, 2},
    {256, 256, 1},
    {256, 512, 2},
    {512, 512, 1},
    {512, 512, 1},
    {512, 512, 1},
    {512, 512, 1},
    {512, 512, 1},
    {512, 1024, 2},
    {1024, 1024, 1},
}};

int scaled_channels(int base, double alpha, int round_to) {
  const double scaled = static_cast<double>(base) * alpha;
  const int rounded =
      std::max(round_to,
               static_cast<int>(std::lround(scaled / round_to)) * round_to);
  return rounded;
}

}  // namespace

std::string MobileNetVariant::name() const {
  std::ostringstream os;
  os << "MobileNetV1-" << width_multiplier << "x @" << input_resolution;
  return os.str();
}

std::vector<DscLayerSpec> mobilenet_variant_specs(
    const MobileNetVariant& variant, int channel_round) {
  EDEA_REQUIRE(variant.width_multiplier > 0.0,
               "width multiplier must be positive");
  EDEA_REQUIRE(variant.input_resolution >= 4,
               "input resolution too small for 13 DSC blocks");
  EDEA_REQUIRE(channel_round >= 1, "channel rounding must be >= 1");

  std::vector<DscLayerSpec> specs;
  specs.reserve(kMobileNetBlocks.size());
  int rows = variant.input_resolution;
  for (std::size_t i = 0; i < kMobileNetBlocks.size(); ++i) {
    const BlockRow& row = kMobileNetBlocks[i];
    DscLayerSpec s;
    s.index = static_cast<int>(i);
    s.in_rows = rows;
    s.in_cols = rows;
    s.in_channels =
        scaled_channels(row.in_ch, variant.width_multiplier, channel_round);
    s.out_channels =
        scaled_channels(row.out_ch, variant.width_multiplier, channel_round);
    s.stride = row.stride;
    // Spatial extents cannot shrink below 1; clamp strides once the map
    // is already 1x1 (matches how small-input variants are deployed).
    if (rows == 1) s.stride = 1;
    EDEA_REQUIRE(s.out_rows() >= 1, "network shrinks to nothing");
    specs.push_back(s);
    rows = s.out_rows();
  }
  return specs;
}

std::vector<DscLayerSpec> mobilenet_imagenet_specs(double width_multiplier) {
  // ImageNet stem: 224x224x3, stride-2 conv -> 112x112x32.
  MobileNetVariant v;
  v.width_multiplier = width_multiplier;
  v.input_resolution = 112;
  return mobilenet_variant_specs(v);
}

namespace {

/// One inverted-residual stage: `reps` blocks of expansion factor `t`,
/// `out_ch` output channels, the first block at `stride`. Shared by the
/// MobileNetV2 / EfficientNet-B0 builders below.
struct InvertedResidualStage {
  int t;       ///< expansion factor (folded into depth_multiplier)
  int out_ch;  ///< stage output channels
  int reps;    ///< blocks in the stage
  int stride;  ///< stride of the first block
};

/// Expands a (t, c, n, s) stage table into DSC layer specs. Each inverted
/// residual block is modeled as one DSC layer whose depthwise stage runs
/// at depth multiplier t: the expansion 1x1 conv is approximated by the
/// multiplier (every input channel fans out to t intermediate channels)
/// and the projection 1x1 conv is the DSC's pointwise stage. Residual
/// shortcuts are elementwise adds outside the accelerator's DSC datapath
/// and are not modeled.
template <std::size_t N>
std::vector<DscLayerSpec> inverted_residual_specs(
    const std::array<InvertedResidualStage, N>& stages, int stem_channels,
    int input_resolution) {
  std::vector<DscLayerSpec> specs;
  int rows = input_resolution;
  int in_ch = stem_channels;
  int index = 0;
  for (const InvertedResidualStage& stage : stages) {
    for (int rep = 0; rep < stage.reps; ++rep) {
      DscLayerSpec s;
      s.index = index++;
      s.in_rows = rows;
      s.in_cols = rows;
      s.in_channels = in_ch;
      s.out_channels = stage.out_ch;
      s.stride = rep == 0 ? stage.stride : 1;
      s.depth_multiplier = stage.t;
      if (rows == 1) s.stride = 1;  // clamp once the map is 1x1
      EDEA_REQUIRE(s.out_rows() >= 1, "network shrinks to nothing");
      specs.push_back(s);
      rows = s.out_rows();
      in_ch = stage.out_ch;
    }
  }
  return specs;
}

}  // namespace

std::vector<DscLayerSpec> mobilenet_v2_specs(int input_resolution) {
  EDEA_REQUIRE(input_resolution >= 4,
               "input resolution too small for the MobileNetV2 stages");
  // The (t, c, n, s) bottleneck table of the MobileNetV2 paper, with the
  // first downsampling stride moved into later stages as deployed on
  // 32x32 inputs (the CIFAR convention: stem and stage 2 keep stride 1).
  constexpr std::array<InvertedResidualStage, 7> stages{{
      {1, 16, 1, 1},
      {6, 24, 2, 1},
      {6, 32, 3, 2},
      {6, 64, 4, 2},
      {6, 96, 3, 1},
      {6, 160, 3, 2},
      {6, 320, 1, 1},
  }};
  return inverted_residual_specs(stages, /*stem_channels=*/32,
                                 input_resolution);
}

std::vector<DscLayerSpec> efficientnet_b0_specs(int input_resolution) {
  EDEA_REQUIRE(input_resolution >= 4,
               "input resolution too small for the EfficientNet-B0 stages");
  // The MBConv stage table of the EfficientNet paper at the B0 scaling,
  // clamped to the accelerator's 3x3 depthwise datapath (the 5x5 stages
  // run as 3x3 - a documented geometry approximation, the channel/stride
  // schedule is exact). Squeeze-excite blocks sit outside the DSC
  // datapath and are not modeled.
  constexpr std::array<InvertedResidualStage, 7> stages{{
      {1, 16, 1, 1},
      {6, 24, 2, 2},
      {6, 40, 2, 2},
      {6, 80, 3, 2},
      {6, 112, 3, 1},
      {6, 192, 4, 2},
      {6, 320, 1, 1},
  }};
  return inverted_residual_specs(stages, /*stem_channels=*/32,
                                 input_resolution);
}

std::vector<DscLayerSpec> edeanet_specs() {
  // 64x64 input stem -> 64x64x16; six DSC blocks tapering to 4x4x256.
  struct Row {
    int rows, in_ch, out_ch, stride;
  };
  constexpr std::array<Row, 6> rows{{
      {64, 16, 32, 2},   // -> 32x32x32
      {32, 32, 64, 1},   // -> 32x32x64
      {32, 64, 128, 2},  // -> 16x16x128
      {16, 128, 128, 1}, // -> 16x16x128
      {16, 128, 256, 2}, // -> 8x8x256
      {8, 256, 256, 2},  // -> 4x4x256
  }};
  std::vector<DscLayerSpec> specs;
  specs.reserve(rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    DscLayerSpec s;
    s.index = static_cast<int>(i);
    s.in_rows = rows[i].rows;
    s.in_cols = rows[i].rows;
    s.in_channels = rows[i].in_ch;
    s.out_channels = rows[i].out_ch;
    s.stride = rows[i].stride;
    specs.push_back(s);
  }
  return specs;
}

namespace {

/// The name registry: one row per servable network. Builders are plain
/// function pointers so the table stays constexpr-friendly and additions
/// are one line.
struct ZooRow {
  const char* name;
  std::vector<DscLayerSpec> (*build)();
};

std::vector<DscLayerSpec> build_mobilenet_cifar() {
  const auto specs = mobilenet_dsc_specs();
  return std::vector<DscLayerSpec>(specs.begin(), specs.end());
}

std::vector<DscLayerSpec> build_mobilenet_half() {
  return mobilenet_variant_specs(MobileNetVariant{0.5, 32, 32});
}

std::vector<DscLayerSpec> build_mobilenet_quarter() {
  return mobilenet_variant_specs(MobileNetVariant{0.25, 32, 32});
}

std::vector<DscLayerSpec> build_mobilenet_imagenet() {
  return mobilenet_imagenet_specs();
}

std::vector<DscLayerSpec> build_mobilenet_v2() {
  return mobilenet_v2_specs();
}

std::vector<DscLayerSpec> build_efficientnet_b0() {
  return efficientnet_b0_specs();
}

constexpr std::array<ZooRow, 7> kZoo{{
    {"mobilenet-cifar", &build_mobilenet_cifar},
    {"mobilenet-0.5x", &build_mobilenet_half},
    {"mobilenet-0.25x", &build_mobilenet_quarter},
    {"mobilenet-imagenet", &build_mobilenet_imagenet},
    {"mobilenet-v2", &build_mobilenet_v2},
    {"efficientnet-b0", &build_efficientnet_b0},
    {"edeanet-64", &edeanet_specs},
}};

}  // namespace

std::vector<std::string> zoo_network_names() {
  std::vector<std::string> names;
  names.reserve(kZoo.size());
  for (const ZooRow& row : kZoo) names.emplace_back(row.name);
  return names;
}

std::vector<DscLayerSpec> zoo_specs(const std::string& name) {
  for (const ZooRow& row : kZoo) {
    if (name == row.name) return row.build();
  }
  std::string known;
  for (const ZooRow& row : kZoo) {
    if (!known.empty()) known += ", ";
    known += row.name;
  }
  EDEA_REQUIRE(false, "unknown zoo network '" + name + "' (known: " + known +
                          ")");
  return {};  // unreachable
}

std::vector<QuantDscLayer> make_random_quant_network(
    const std::vector<DscLayerSpec>& specs, std::uint64_t seed) {
  EDEA_REQUIRE(!specs.empty(), "network needs at least one layer");
  // Every layer's generator is forked in layer order, so what a layer
  // draws does not depend on when, or on which thread, it is built.
  Rng rng(seed);
  std::vector<Rng> layer_rngs;
  layer_rngs.reserve(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    layer_rngs.push_back(rng.fork());
  }
  // Largest layers first: the longest builds start while the pool is
  // free, and the small ones fill in around them.
  const auto weight_count = [&specs](std::size_t i) {
    const DscLayerSpec& s = specs[i];
    return std::int64_t{1} * s.intermediate_channels() *
           (s.kernel * s.kernel + s.out_channels);
  };
  std::vector<std::size_t> order(specs.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return weight_count(a) > weight_count(b);
                   });
  std::vector<QuantDscLayer> layers(specs.size());
  // A failing layer does not cancel the others: the lowest-indexed error
  // is rethrown, the one a layer-by-layer build would have raised.
  std::vector<std::exception_ptr> errors(specs.size());
  const auto count = static_cast<std::int64_t>(specs.size());
  util::parallel_for(0, count, [&](std::int64_t k) {
    const std::size_t i = order[static_cast<std::size_t>(k)];
    try {
      const FloatDscLayer fl =
          make_random_float_layer(specs[i], layer_rngs[i]);
      // Fixed demo scales: chained layers share the activation domain so
      // layer i's output scale equals layer i+1's input scale.
      layers[i] = quantize_layer(fl, QuantScale{0.03f}, QuantScale{0.03f},
                                 QuantScale{0.03f});
    } catch (...) {
      errors[i] = std::current_exception();
    }
  });
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  return layers;
}

}  // namespace edea::nn
