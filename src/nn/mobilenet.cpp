#include "nn/mobilenet.hpp"

#include <cmath>

#include "util/check.hpp"

namespace edea::nn {

std::array<DscLayerSpec, kDscLayerCount> mobilenet_dsc_specs() {
  // {index, R, C, D, stride, K}. Stride 2 at layers 1, 3, 5, 11 - this is
  // what produces the paper's "reduced MAC operations due to the stride of
  // 2" at exactly those layers (Fig. 10) and the 2x2 ifmaps at layers 11/12.
  std::array<DscLayerSpec, kDscLayerCount> specs{};
  struct Row {
    int r, d, s, k;
  };
  constexpr std::array<Row, kDscLayerCount> rows{{
      {32, 32, 1, 64},     // 0
      {32, 64, 2, 128},    // 1
      {16, 128, 1, 128},   // 2
      {16, 128, 2, 256},   // 3
      {8, 256, 1, 256},    // 4
      {8, 256, 2, 512},    // 5
      {4, 512, 1, 512},    // 6
      {4, 512, 1, 512},    // 7
      {4, 512, 1, 512},    // 8
      {4, 512, 1, 512},    // 9
      {4, 512, 1, 512},    // 10
      {4, 512, 2, 1024},   // 11
      {2, 1024, 1, 1024},  // 12
  }};
  for (int i = 0; i < kDscLayerCount; ++i) {
    const Row& row = rows[static_cast<std::size_t>(i)];
    DscLayerSpec s;
    s.index = i;
    s.in_rows = row.r;
    s.in_cols = row.r;
    s.in_channels = row.d;
    s.stride = row.s;
    s.out_channels = row.k;
    specs[static_cast<std::size_t>(i)] = s;
  }
  return specs;
}

FloatMobileNet::FloatMobileNet(std::uint64_t seed) {
  Rng rng(seed);

  // Stem: 3x3x3 -> 32 channels, stride 1 (CIFAR variant keeps resolution).
  stem_weights_ = FloatTensor(Shape{32, 3, 3, kCifarChannels});
  const double stem_std = std::sqrt(2.0 / (3.0 * 3.0 * kCifarChannels));
  fill_normal(stem_weights_, stem_std, rng);
  stem_bn_.gamma.assign(32, 1.0f);
  stem_bn_.beta.assign(32, 0.0f);
  stem_bn_.mean.assign(32, 0.0f);
  stem_bn_.var.assign(32, 1.0f);
  for (std::size_t c = 0; c < 32; ++c) {
    stem_bn_.gamma[c] = static_cast<float>(rng.normal(1.0, 0.1));
    stem_bn_.beta[c] = static_cast<float>(rng.normal(0.0, 0.1));
  }

  blocks_.reserve(kDscLayerCount);
  for (const DscLayerSpec& spec : mobilenet_dsc_specs()) {
    Rng layer_rng = rng.fork();
    blocks_.push_back(make_random_float_layer(spec, layer_rng));
  }

  fc_weights_ = FloatTensor(Shape{kCifarClasses, 1024});
  const double fc_std = std::sqrt(2.0 / 1024.0);
  fill_normal(fc_weights_, fc_std, rng);
  fc_bias_ = FloatTensor(Shape{kCifarClasses}, 0.0f);
}

FloatTensor FloatMobileNet::forward_stem(const FloatTensor& image) const {
  EDEA_REQUIRE(image.rank() == 3 && image.dim(0) == kCifarSize &&
                   image.dim(1) == kCifarSize &&
                   image.dim(2) == kCifarChannels,
               "stem expects a 32x32x3 image");
  const Conv2dGeometry geom{3, 1, 1};
  return relu(batch_norm(conv2d(image, stem_weights_, geom), stem_bn_));
}

FloatTensor FloatMobileNet::forward_dsc(
    const FloatTensor& stem_out, std::vector<FloatTensor>* block_inputs,
    std::vector<FloatTensor>* block_intermediates) const {
  FloatTensor x = stem_out;
  for (const FloatDscLayer& block : blocks_) {
    if (block_inputs != nullptr) block_inputs->push_back(x);
    FloatTensor intermediate;
    x = block.forward(x, &intermediate);
    if (block_intermediates != nullptr) {
      block_intermediates->push_back(std::move(intermediate));
    }
  }
  if (block_inputs != nullptr) block_inputs->push_back(x);  // final output
  return x;
}

FloatTensor FloatMobileNet::forward_head(const FloatTensor& features) const {
  const FloatTensor pooled = global_avg_pool(features);
  return linear(pooled, fc_weights_, fc_bias_);
}

FloatTensor FloatMobileNet::forward(const FloatTensor& image) const {
  return forward_head(forward_dsc(forward_stem(image)));
}

std::int64_t FloatMobileNet::parameter_count() const noexcept {
  std::int64_t count = static_cast<std::int64_t>(stem_weights_.size()) +
                       4 * 32;  // stem conv + BN
  for (const FloatDscLayer& b : blocks_) {
    count += static_cast<std::int64_t>(b.dwc_weights.size());
    count += static_cast<std::int64_t>(b.pwc_weights.size());
    count += 4 * (b.spec.in_channels + b.spec.out_channels);  // two BNs
  }
  count += static_cast<std::int64_t>(fc_weights_.size()) +
           static_cast<std::int64_t>(fc_bias_.size());
  return count;
}

CalibrationResult calibrate(const FloatMobileNet& net,
                            const std::vector<FloatTensor>& images) {
  EDEA_REQUIRE(!images.empty(), "calibration needs at least one image");

  std::vector<double> input_max(kDscLayerCount + 1, 0.0);
  std::vector<double> intermediate_max(kDscLayerCount, 0.0);
  double image_max = 0.0;

  for (const FloatTensor& image : images) {
    image_max = std::max(image_max, max_abs(image));
    std::vector<FloatTensor> inputs;
    std::vector<FloatTensor> intermediates;
    (void)net.forward_dsc(net.forward_stem(image), &inputs, &intermediates);
    EDEA_ASSERT(inputs.size() == kDscLayerCount + 1 &&
                    intermediates.size() == kDscLayerCount,
                "calibration capture size mismatch");
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      input_max[i] = std::max(input_max[i], max_abs(inputs[i]));
    }
    for (std::size_t i = 0; i < intermediates.size(); ++i) {
      intermediate_max[i] =
          std::max(intermediate_max[i], max_abs(intermediates[i]));
    }
  }

  CalibrationResult cal;
  cal.image_scale = choose_activation_scale(image_max);
  cal.block_input_scales.reserve(input_max.size());
  for (const double m : input_max) {
    cal.block_input_scales.push_back(choose_activation_scale(m));
  }
  cal.intermediate_scales.reserve(intermediate_max.size());
  for (const double m : intermediate_max) {
    cal.intermediate_scales.push_back(choose_activation_scale(m));
  }
  return cal;
}

QuantMobileNet::QuantMobileNet(const FloatMobileNet& net,
                               const CalibrationResult& cal) {
  EDEA_REQUIRE(cal.block_input_scales.size() == kDscLayerCount + 1,
               "calibration must provide 14 input scales");
  EDEA_REQUIRE(cal.intermediate_scales.size() == kDscLayerCount,
               "calibration must provide 13 intermediate scales");
  input_scale_ = cal.block_input_scales.front();
  output_scale_ = cal.block_input_scales.back();
  image_scale_ = cal.image_scale;

  // int8 stem: quantize the standard-conv weights and fold the stem BN +
  // ReLU + requantization into per-channel Non-Conv parameters (the same
  // Fig. 6 arithmetic the DSC blocks use).
  const QuantScale stem_w_scale = choose_weight_scale(net.stem_weights());
  stem_weights_q_ = quantize_tensor(net.stem_weights(), stem_w_scale);
  stem_nonconv_ =
      fold_nonconv(image_scale_, stem_w_scale, net.stem_bn(), input_scale_);

  blocks_.reserve(kDscLayerCount);
  for (std::size_t i = 0; i < kDscLayerCount; ++i) {
    blocks_.push_back(quantize_layer(net.blocks()[i],
                                     cal.block_input_scales[i],
                                     cal.intermediate_scales[i],
                                     cal.block_input_scales[i + 1]));
  }
}

Int8Tensor QuantMobileNet::quantize_input(const FloatTensor& stem_out) const {
  return quantize_tensor(stem_out, input_scale_);
}

Int8Tensor QuantMobileNet::quantize_image(const FloatTensor& image) const {
  EDEA_REQUIRE(image.rank() == 3 && image.dim(2) == kCifarChannels,
               "expected an HWC image with 3 channels");
  return quantize_tensor(image, image_scale_);
}

Int8Tensor QuantMobileNet::forward_stem_q(const Int8Tensor& image_q) const {
  EDEA_REQUIRE(image_q.rank() == 3 && image_q.dim(2) == kCifarChannels,
               "expected an int8 HWC image with 3 channels");
  const Conv2dGeometry geom{3, 1, 1};
  const Int32Tensor acc = conv2d_q(image_q, stem_weights_q_, geom);
  return apply_nonconv(acc, stem_nonconv_);
}

Int8Tensor QuantMobileNet::forward_dsc(
    const Int8Tensor& block0_input,
    std::vector<LayerActivationStats>* stats) const {
  Int8Tensor x = block0_input;
  for (const QuantDscLayer& block : blocks_) {
    Int8Tensor intermediate;
    Int8Tensor next = block.forward(x, &intermediate);
    if (stats != nullptr) {
      stats->push_back(LayerActivationStats{x.zero_fraction(),
                                            intermediate.zero_fraction()});
    }
    x = std::move(next);
  }
  return x;
}

FloatTensor QuantMobileNet::dequantize_output(const Int8Tensor& out) const {
  return dequantize_tensor(out, output_scale_);
}

}  // namespace edea::nn
