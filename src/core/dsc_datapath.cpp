#include "core/dsc_datapath.hpp"

#include <algorithm>
#include <cstring>

#include "util/check.hpp"

namespace edea::core {

Int8MapView Int8MapView::whole(const nn::Int8Tensor& map) {
  EDEA_REQUIRE(map.rank() == 3, "a map view needs a [R][C][D] tensor");
  return Int8MapView{map.data(), map.dim(0), map.dim(1), map.dim(2),
                     0,          map.dim(0), 0,          map.dim(1)};
}

Int8MapView Int8MapView::clipped(int row0, int col0, int rows,
                                 int cols) const {
  Int8MapView view = *this;
  view.row_lo = std::max(row_lo, row0);
  view.row_hi = std::min(row_hi, row0 + rows);
  view.col_lo = std::max(col_lo, col0);
  view.col_hi = std::min(col_hi, col0 + cols);
  return view;
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
  EDEA_ASSERT(channel0 >= 0 && (channel0 + lanes - 1) / mult < src.channels,
              "gather lanes outside the map's channels");
  const int r_lo = std::max(row0, src.row_lo);
  const int r_hi = std::min(row0 + rows, src.row_hi);
  const int c_lo = std::max(col0, src.col_lo);
  const int c_hi = std::min(col0 + cols, src.col_hi);
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
        src.data + (static_cast<std::int64_t>(r) * src.cols + c_lo) *
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
        copy_lanes(to, pixel + channel0);
        continue;
      }
      // Lane l reads source channel (channel0 + l) / mult: `mult`
      // consecutive lanes share each source channel.
      if (mult == 2 && channel0 % 2 == 0 && (lanes == 8 || lanes == 16)) {
        const std::int8_t* const from = pixel + first;
        if (lanes == 8) {
          expand_pairs<8>(to, from);
        } else {
          expand_pairs<16>(to, from);
        }
        continue;
      }
      int from = first;
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
    : config_(config.validated()), dwc_(config_), pwc_(config_) {}

void DscDatapath::begin_layer(const nn::QuantDscLayer& layer) {
  layer_ = &layer;
  dwc_.reset_activity();
  pwc_.reset_activity();
  transfer_.reset_counters();
  writeback_.reset_counters();
  const auto K = static_cast<std::size_t>(layer.spec.out_channels);
  EDEA_REQUIRE(layer.nonconv2.channels.size() >= K,
               "missing Non-Conv parameters for some kernels");
  writeback_.load(std::span(layer.nonconv2.channels).first(K));
  pwc_input_zeros_ = 0;
  pwc_input_total_ = 0;
  max_abs_psum_ = 0;

  // Every slice's weights, staged once per layer for all its passes:
  // slice s is channels [s * Td, s * Td + channels) of the [kh][kw][D]
  // DWC kernel and of the [K][D] PWC weights.
  const int D = layer.spec.intermediate_channels();
  staged_.resize(static_cast<std::size_t>((D + config_.td - 1) / config_.td));
  for (std::size_t s = 0; s < staged_.size(); ++s) {
    const int d0 = static_cast<int>(s) * config_.td;
    const int channels = std::min(config_.td, D - d0);
    staged_[s].dwc.stage(&layer.dwc_weights(0, 0, d0), D,
                         config_.kernel * config_.kernel, channels);
    staged_[s].pwc.stage(&layer.pwc_weights(0, d0), D,
                         layer.spec.out_channels, channels);
  }
}

std::int64_t DscDatapath::load_dwc_slice(const ChannelSlice& slice) {
  const StagedSlice& staged =
      staged_[static_cast<std::size_t>(slice.channel0 / config_.td)];
  dwc_.load_weights(staged.dwc);
  transfer_.load(std::span(layer_->nonconv1.channels)
                     .subspan(static_cast<std::size_t>(slice.channel0),
                              static_cast<std::size_t>(slice.channels)));
  slice_ = slice;
  return static_cast<std::int64_t>(staged.dwc.weights().size());
}

std::int64_t DscDatapath::load_pwc_slice(const ChannelSlice& slice) {
  const StagedSlice& staged =
      staged_[static_cast<std::size_t>(slice.channel0 / config_.td)];
  pwc_.load_weights(staged.pwc);
  return static_cast<std::int64_t>(staged.pwc.weights().size());
}

std::span<const std::int8_t> DscDatapath::dwc_pass(const Int8MapView& src,
                                                   const BufferTile& tile) {
  const nn::DscLayerSpec& spec = layer_->spec;
  const int rows = tile.step_rows(config_);
  const int cols = tile.step_cols(config_);
  const int window_rows =
      config_.dwc_input_extent(rows, spec.stride, spec.dilation);
  const int window_cols =
      config_.dwc_input_extent(cols, spec.stride, spec.dilation);
  const auto channels = static_cast<std::size_t>(slice_.channels);
  window_.resize(static_cast<std::size_t>(window_rows) *
                 static_cast<std::size_t>(window_cols) * channels);
  // The first step's window starts at the tile's first input tap.
  (void)gather_block(src, tile.in_row0, tile.in_col0, window_rows,
                     window_cols, slice_.channel0, slice_.channels,
                     spec.depth_multiplier, window_);
  dwc_.run_block(window_, rows, cols, spec.stride, spec.dilation, dwc_out_);
  intermediate_.resize(dwc_out_.acc.size());
  transfer_.apply_block(dwc_out_.acc, intermediate_);

  // Only positions inside the tile feed the real ofmap; edge steps'
  // dummy lanes are not PWC inputs.
  const auto real = static_cast<std::size_t>(tile.out_cols) * channels;
  const auto pitch = static_cast<std::size_t>(cols) * channels;
  const std::int8_t* row = intermediate_.data();
  for (int r = 0; r < tile.out_rows; ++r, row += pitch) {
    pwc_input_zeros_ += std::count(row, row + real, std::int8_t{0});
  }
  pwc_input_total_ += std::int64_t{tile.out_rows} * tile.out_cols *
                      slice_.channels;
  return intermediate_;
}

std::span<const std::int32_t> DscDatapath::pwc_pass(
    std::span<const std::int8_t> activations, const BufferTile& tile,
    bool first_slice) {
  const auto entries = static_cast<std::size_t>(tile.out_rows) *
                       static_cast<std::size_t>(tile.out_cols) *
                       static_cast<std::size_t>(layer_->spec.out_channels);
  // Grown, never shrunk: a tile's later slices find its entries in place.
  if (psum_.size() < entries) psum_.resize(entries);
  const std::span<std::int32_t> psum = std::span(psum_).first(entries);
  // Only the outputs inside the tile accumulate; the rest are dummy lanes.
  const PsumRange range = pwc_.run_block(
      activations, tile.step_rows(config_), tile.step_cols(config_),
      PsumTarget{psum, tile.out_rows, tile.out_cols, 0, 0, !first_slice});
  max_abs_psum_ = std::max({max_abs_psum_, -std::int64_t{range.lo},
                            std::int64_t{range.hi}});
  return psum;
}

void DscDatapath::write_back(const BufferTile& tile, nn::Int8Tensor& output) {
  const auto row = static_cast<std::size_t>(tile.out_cols) *
                   static_cast<std::size_t>(layer_->spec.out_channels);
  // A tile row is contiguous both in the psum block and in the ofmap.
  for (int r = 0; r < tile.out_rows; ++r) {
    writeback_.apply_block(
        std::span(psum_).subspan(static_cast<std::size_t>(r) * row, row),
        std::span(&output(tile.out_row0 + r, tile.out_col0, 0), row));
  }
}

void DscDatapath::set_kernel_policy(KernelPolicy policy) noexcept {
  dwc_.set_kernel_policy(policy);
  pwc_.set_kernel_policy(policy);
}

void DscDatapath::fold_tallies(LayerPartial& partial) const noexcept {
  partial.dwc_activity = dwc_.activity();
  partial.pwc_activity = pwc_.activity();
  partial.nonconv_transfer_ops = transfer_.ops();
  partial.nonconv_writeback_ops = writeback_.ops();
  partial.pwc_input_zeros = pwc_input_zeros_;
  partial.pwc_input_total = pwc_input_total_;
  partial.max_abs_psum = max_abs_psum_;
}

}  // namespace edea::core
