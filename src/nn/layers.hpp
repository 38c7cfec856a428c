// layers.hpp - depthwise-separable-convolution layer types: geometry,
// float parameters, quantized parameters, and the golden forward passes the
// accelerator simulator is validated against.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "nn/ops.hpp"
#include "nn/quant.hpp"
#include "nn/tensor.hpp"
#include "util/random.hpp"

namespace edea::nn {

/// Static geometry of one DSC layer (Fig. 1 nomenclature): ifmap R x C x D,
/// DWC kernel H x W x D with stride s, DWC/PWC intermediate N x M x D, PWC
/// kernels 1 x 1 x D x K, ofmap N x M x K.
struct DscLayerSpec {
  int index = 0;        ///< position in the network (paper: 0..12)
  int in_rows = 32;     ///< R
  int in_cols = 32;     ///< C
  int in_channels = 8;  ///< D
  int stride = 1;       ///< DWC stride (1 or 2)
  int out_channels = 8; ///< K
  int kernel = 3;       ///< H = W (paper uses 3x3 exclusively)
  int padding = 1;      ///< zero padding
  int dilation = 1;     ///< DWC tap spacing (1 = the paper's dense kernels)
  int depth_multiplier = 1;  ///< DWC output channels per input channel

  /// Channels of the DWC->PWC intermediate tensor: D * depth_multiplier.
  [[nodiscard]] int intermediate_channels() const noexcept {
    return in_channels * depth_multiplier;
  }

  [[nodiscard]] Conv2dGeometry dwc_geometry() const noexcept {
    return Conv2dGeometry{kernel, stride, padding, dilation};
  }

  [[nodiscard]] int out_rows() const noexcept {  ///< N
    return dwc_geometry().out_extent(in_rows);
  }
  [[nodiscard]] int out_cols() const noexcept {  ///< M
    return dwc_geometry().out_extent(in_cols);
  }

  /// Multiply-accumulate counts (Fig. 10 x-axis).
  [[nodiscard]] std::int64_t dwc_macs() const noexcept {
    return std::int64_t{1} * out_rows() * out_cols() *
           intermediate_channels() * kernel * kernel;
  }
  [[nodiscard]] std::int64_t pwc_macs() const noexcept {
    return std::int64_t{1} * out_rows() * out_cols() *
           intermediate_channels() * out_channels;
  }
  [[nodiscard]] std::int64_t total_macs() const noexcept {
    return dwc_macs() + pwc_macs();
  }
  /// Operation count: the paper counts one MAC as two operations.
  [[nodiscard]] std::int64_t total_ops() const noexcept {
    return 2 * total_macs();
  }

  [[nodiscard]] std::string to_string() const;
};

/// Float parameters of one DSC layer: DWC kernel + BN, PWC kernel + BN.
struct FloatDscLayer {
  DscLayerSpec spec;
  FloatTensor dwc_weights;  ///< [kh][kw][D*mult]
  BatchNormParams bn1;      ///< after DWC (D*mult channels)
  FloatTensor pwc_weights;  ///< [K][D*mult]
  BatchNormParams bn2;      ///< after PWC (K channels)

  /// Forward pass: DWC -> BN -> ReLU -> PWC -> BN -> ReLU.
  [[nodiscard]] FloatTensor forward(const FloatTensor& input) const;

  /// Forward pass that also returns the post-ReLU intermediate (PWC input),
  /// needed for activation-scale calibration.
  [[nodiscard]] FloatTensor forward(const FloatTensor& input,
                                    FloatTensor* intermediate_out) const;
};

/// Quantized parameters of one DSC layer. The three activation scales are
/// input (DWC ifmap), intermediate (PWC ifmap) and output (next layer's
/// ifmap); nonconv1/nonconv2 fold everything between the two convolutions
/// and after the PWC respectively.
struct QuantDscLayer {
  DscLayerSpec spec;
  Int8Tensor dwc_weights;  ///< [kh][kw][D*mult]
  Int8Tensor pwc_weights;  ///< [K][D*mult]
  QuantScale input_scale;
  QuantScale intermediate_scale;
  QuantScale output_scale;
  NonConvParams nonconv1;  ///< DWC accumulator -> PWC int8 input (D*mult ch.)
  NonConvParams nonconv2;  ///< PWC accumulator -> layer int8 output (K chan.)

  /// Golden quantized forward pass using exactly the accelerator's
  /// fixed-point semantics. Returns the int8 layer output.
  [[nodiscard]] Int8Tensor forward(const Int8Tensor& input) const;

  /// As forward(), also exposing the int8 intermediate (PWC input) so tests
  /// and sparsity probes can inspect it.
  [[nodiscard]] Int8Tensor forward(const Int8Tensor& input,
                                   Int8Tensor* intermediate_out) const;
};

/// Observed activation statistics for one layer of one inference - feeds the
/// power model (Fig. 11 reports input zero percentages for both engines).
struct LayerActivationStats {
  double dwc_input_zero_fraction = 0.0;  ///< zeros in the DWC ifmap
  double pwc_input_zero_fraction = 0.0;  ///< zeros in the PWC ifmap
};

/// Fills `t` with N(0, stddev) draws from `rng` and leaves `rng` exactly
/// where the serial loop `for (w : t) w = float(rng.normal(0, stddev))`
/// would, every element bit for bit. Large tensors are drawn in chunks on
/// util::ThreadPool::shared(), each chunk from a copy of the generator
/// taken at its first element.
void fill_normal(FloatTensor& t, double stddev, Rng& rng);

/// Randomly initializes a float DSC layer (He-style fan-in scaling for
/// weights; BN parameters drawn near identity). Deterministic given rng.
[[nodiscard]] FloatDscLayer make_random_float_layer(const DscLayerSpec& spec,
                                                    Rng& rng);

/// Quantizes a float layer given calibrated activation scales.
[[nodiscard]] QuantDscLayer quantize_layer(const FloatDscLayer& layer,
                                           QuantScale input_scale,
                                           QuantScale intermediate_scale,
                                           QuantScale output_scale);

}  // namespace edea::nn
