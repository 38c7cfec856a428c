#include "core/dsc_datapath.hpp"

#include <algorithm>
#include <cstring>

#include "util/check.hpp"

namespace edea::core {

Int8MapView Int8MapView::whole(const nn::Int8Tensor& map) {
  EDEA_REQUIRE(map.rank() == 3, "a map view needs a [R][C][D] tensor");
  return Int8MapView{map.data(), 0,          0,          map.dim(0),
                     map.dim(1), 0,          map.dim(2), map.dim(0),
                     map.dim(1)};
}

namespace {

/// One pixel's lanes under a depth multiplier of 2 whose first lane
/// starts a source channel: every source byte fills two lanes.
template <int Lanes>
void expand_pairs(std::int8_t* to, const std::int8_t* from) {
  for (int i = 0; i < Lanes / 2; ++i) {
    to[2 * i] = from[i];
    to[2 * i + 1] = from[i];
  }
}

}  // namespace

std::int64_t gather_block(const Int8MapView& src, int row0, int col0,
                          int rows, int cols, int channel0, int lanes,
                          int mult, std::span<std::int8_t> dst) {
  EDEA_ASSERT(dst.size() == static_cast<std::size_t>(rows) *
                                static_cast<std::size_t>(cols) *
                                static_cast<std::size_t>(lanes),
              "gather destination does not match the block");
  const int first = channel0 / mult;  // source channel of lane 0
  EDEA_ASSERT(first >= src.channel0 &&
                  (channel0 + lanes - 1) / mult < src.channel0 + src.channels,
              "gather lanes outside the view's channels");
  const int r_lo = std::max({row0, src.row0, 0});
  const int r_hi = std::min({row0 + rows, src.row0 + src.rows, src.map_rows});
  const int c_lo = std::max({col0, src.col0, 0});
  const int c_hi = std::min({col0 + cols, src.col0 + src.cols, src.map_cols});
  // Only a block that reaches past the bounds has padding to zero.
  if (r_lo != row0 || r_hi != row0 + rows || c_lo != col0 ||
      c_hi != col0 + cols) {
    std::fill(dst.begin(), dst.end(), std::int8_t{0});
  }
  if (r_hi <= r_lo || c_hi <= c_lo) return 0;

  // One pixel's lanes. The widths the engines run (8 and 16) are
  // fixed-size copies the compiler inlines.
  const auto copy_lanes = [lanes](std::int8_t* to, const std::int8_t* from) {
    switch (lanes) {
      case 8:
        std::memcpy(to, from, 8);
        break;
      case 16:
        std::memcpy(to, from, 16);
        break;
      default:
        std::memcpy(to, from, static_cast<std::size_t>(lanes));
    }
  };
  for (int r = r_lo; r < r_hi; ++r) {
    const std::int8_t* pixel =
        src.data +
        (static_cast<std::int64_t>(r - src.row0) * src.cols + (c_lo - src.col0)) *
            src.channels;
    std::int8_t* to =
        dst.data() +
        (static_cast<std::int64_t>(r - row0) * cols + (c_lo - col0)) * lanes;
    if (mult == 1 && lanes == src.channels) {
      // Whole pixels on both sides: the row's run is one contiguous copy.
      std::memcpy(to, pixel, static_cast<std::size_t>(c_hi - c_lo) *
                                 static_cast<std::size_t>(lanes));
      continue;
    }
    for (int c = c_lo; c < c_hi; ++c, pixel += src.channels, to += lanes) {
      if (mult == 1) {
        copy_lanes(to, pixel + (channel0 - src.channel0));
        continue;
      }
      // Lane l reads source channel (channel0 + l) / mult: `mult`
      // consecutive lanes share each source channel.
      if (mult == 2 && channel0 % 2 == 0 && (lanes == 8 || lanes == 16)) {
        const std::int8_t* const from = pixel + (first - src.channel0);
        if (lanes == 8) {
          expand_pairs<8>(to, from);
        } else {
          expand_pairs<16>(to, from);
        }
        continue;
      }
      int from = first - src.channel0;
      int phase = channel0 % mult;
      for (int l = 0; l < lanes; ++l) {
        to[l] = pixel[from];
        if (++phase == mult) {
          phase = 0;
          ++from;
        }
      }
    }
  }
  return std::int64_t{1} * (r_hi - r_lo) * (c_hi - c_lo) * lanes;
}

DscDatapath::DscDatapath(const EdeaConfig& config)
    : config_(config), dwc_(config), pwc_(config) {
  config_.validate();
}

void DscDatapath::begin_layer(const nn::QuantDscLayer& layer) {
  layer_ = &layer;
  dwc_.reset_activity();
  pwc_.reset_activity();
  nonconv_.reset_counters();
  max_abs_psum_ = 0;
}

std::int64_t DscDatapath::load_dwc_slice(const ChannelSlice& slice) {
  const int k = config_.kernel;
  dwc_weights_.resize(static_cast<std::size_t>(k * k * slice.channels));
  for (int i = 0; i < k; ++i) {
    for (int j = 0; j < k; ++j) {
      std::memcpy(&dwc_weights_[static_cast<std::size_t>((i * k + j) *
                                                         slice.channels)],
                  &layer_->dwc_weights(i, j, slice.channel0),
                  static_cast<std::size_t>(slice.channels));
    }
  }
  dwc_.load_weights(dwc_weights_, slice.channels);
  transfer_params_ = std::span(layer_->nonconv1.channels)
                         .subspan(static_cast<std::size_t>(slice.channel0),
                                  static_cast<std::size_t>(slice.channels));
  slice_ = slice;
  return static_cast<std::int64_t>(dwc_weights_.size());
}

std::int64_t DscDatapath::dwc_step(const Int8MapView& src, int out_row0,
                                   int out_col0, std::span<std::int8_t> dst) {
  const nn::DscLayerSpec& spec = layer_->spec;
  const int extent = config_.dwc_window_extent(spec.stride, spec.dilation);
  window_.resize(static_cast<std::size_t>(extent * extent * slice_.channels));
  // Window origin in unpadded map coordinates (the first kernel tap).
  const std::int64_t read = gather_block(
      src, out_row0 * spec.stride - spec.padding,
      out_col0 * spec.stride - spec.padding, extent, extent, slice_.channel0,
      slice_.channels, spec.depth_multiplier, window_);
  dwc_.step(window_, spec.stride, spec.dilation, dwc_out_);
  nonconv_.set_writeback_mode(false);
  nonconv_.apply_block(dwc_out_.acc, transfer_params_, slice_.channels, dst);
  return read;
}

void DscDatapath::load_pwc_slice(const ChannelSlice& slice,
                                 std::span<std::int8_t> dst) {
  const int K = layer_->spec.out_channels;
  EDEA_ASSERT(dst.size() == static_cast<std::size_t>(K) *
                                static_cast<std::size_t>(slice.channels),
              "PWC weight block does not match the slice");
  for (int k = 0; k < K; ++k) {
    std::memcpy(&dst[static_cast<std::size_t>(k * slice.channels)],
                &layer_->pwc_weights(k, slice.channel0),
                static_cast<std::size_t>(slice.channels));
  }
  pwc_.load_weights(dst, K, slice.channels);
}

std::int64_t DscDatapath::pwc_step(std::span<const std::int8_t> activations,
                                   const BufferTile& tile, int sy, int sx,
                                   bool first_slice,
                                   std::span<std::int32_t> psum) {
  // Only the outputs inside the tile accumulate; the rest are dummy lanes.
  const int r0 = sy * config_.tn;  // tile-relative origin of the step
  const int c0 = sx * config_.tm;
  const PsumRange range =
      pwc_.step(activations, PsumTarget{psum, tile.out_rows, tile.out_cols,
                                        r0, c0, !first_slice});
  max_abs_psum_ = std::max({max_abs_psum_, -std::int64_t{range.lo},
                            std::int64_t{range.hi}});
  return std::int64_t{1} * std::min(config_.tn, tile.out_rows - r0) *
         std::min(config_.tm, tile.out_cols - c0) *
         layer_->spec.out_channels;
}

void DscDatapath::write_back(std::span<const std::int32_t> psum,
                             const BufferTile& tile, nn::Int8Tensor& output) {
  const int K = layer_->spec.out_channels;
  const auto row = static_cast<std::size_t>(tile.out_cols) *
                   static_cast<std::size_t>(K);
  nonconv_.set_writeback_mode(true);
  // A tile row is contiguous both in the psum block and in the ofmap.
  for (int r = 0; r < tile.out_rows; ++r) {
    nonconv_.apply_block(
        psum.subspan(static_cast<std::size_t>(r) * row, row),
        layer_->nonconv2.channels, K,
        std::span(&output(tile.out_row0 + r, tile.out_col0, 0), row));
  }
}

void DscDatapath::set_kernel_policy(KernelPolicy policy) noexcept {
  dwc_.set_kernel_policy(policy);
  pwc_.set_kernel_policy(policy);
}

}  // namespace edea::core
