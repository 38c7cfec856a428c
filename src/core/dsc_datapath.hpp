// dsc_datapath.hpp - the one DSC datapath both backends schedule.
//
// The "edea" and "serialized" backends run the same arithmetic on the same
// engines and differ only in schedule - the view EcoFlow takes of
// dataflows over one PE array:
//   - EDEA (core/accelerator.cpp) streams every spatial step's DWC output
//     through the on-chip intermediate buffer straight into the PWC
//     engine, one (buffer tile, channel slice) pass at a time;
//   - the serialized baseline (baseline/serialized_accelerator.cpp) runs
//     the DWC over the whole layer, round-trips the intermediate map
//     through external memory, then runs the PWC.
// DscDatapath owns what both share: the DWC and PWC engines, the Non-Conv
// unit array with the bound layer's parameters, and step scratch reused
// from step to step. Its primitives move data and compute; none of them
// tallies traffic. Each schedule counts its own buffer and external
// accesses as bulk arithmetic over what the primitives report (e.g. how
// many elements a gather read), so each backend keeps its measurements.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "arch/counters.hpp"
#include "core/config.hpp"
#include "core/dwc_engine.hpp"
#include "core/kernel_dispatch.hpp"
#include "core/nonconv_unit.hpp"
#include "core/pwc_engine.hpp"
#include "core/tiler.hpp"
#include "nn/layers.hpp"

namespace edea::core {

/// A read-only int8 map stored [rows][cols][channels], its element 0 at
/// map position (row0, col0) holding channel `channel0`. Reads are bounded
/// twice: by the stored extent and by the map ([0, map_rows) x
/// [0, map_cols)); a position outside either reads as zero padding. EDEA
/// views its staged ifmap tile region; the baseline views whole maps.
struct Int8MapView {
  const std::int8_t* data = nullptr;
  int row0 = 0;
  int col0 = 0;
  int rows = 0;
  int cols = 0;
  int channel0 = 0;
  int channels = 0;
  int map_rows = 0;
  int map_cols = 0;

  /// The whole of a [R][C][D] tensor.
  [[nodiscard]] static Int8MapView whole(const nn::Int8Tensor& map);
};

/// Gathers the [rows][cols][lanes] block at map position (row0, col0) of
/// `src` into `dst`; lane l carries source channel (channel0 + l) / mult
/// (the depth-multiplier lane map; mult = 1 copies channels as they are).
/// Positions outside `src`'s bounds read zero. Returns the elements read
/// from `src`: in-bounds positions x lanes.
std::int64_t gather_block(const Int8MapView& src, int row0, int col0,
                          int rows, int cols, int channel0, int lanes,
                          int mult, std::span<std::int8_t> dst);

class DscDatapath {
 public:
  explicit DscDatapath(const EdeaConfig& config);

  /// Binds `layer` (which must outlive the binding) and clears the
  /// engines' MAC activity, the Non-Conv op counts and max |psum|.
  void begin_layer(const nn::QuantDscLayer& layer);

  /// Loads `slice`'s 3x3 DWC kernel slice into the DWC engine and selects
  /// its Non-Conv transfer parameters. Returns the weights loaded
  /// (kernel^2 x slice channels).
  std::int64_t load_dwc_slice(const ChannelSlice& slice);

  /// One DWC engine step for the Tn x Tm outputs at layer position
  /// (out_row0, out_col0) of the loaded slice: gathers the padded, dilated,
  /// multiplier-mapped window from `src`, fires the engine, and writes the
  /// Non-Conv transfer's int8 [Tn][Tm][channels] block to `dst`. Returns
  /// the window elements read from `src`.
  std::int64_t dwc_step(const Int8MapView& src, int out_row0, int out_col0,
                        std::span<std::int8_t> dst);

  /// Gathers `slice`'s PWC weights for every kernel into `dst`, laid out
  /// [K][slice channels] so each kernel group is one contiguous block, and
  /// loads them into the PWC engine for the pass.
  void load_pwc_slice(const ChannelSlice& slice, std::span<std::int8_t> dst);

  /// One spatial step of the PWC engine: every kernel group of the loaded
  /// slice over the step's [Tn][Tm][channels] `activations`, read in
  /// place. The engine accumulates the partial sums for spatial step
  /// (sy, sx) of `tile` straight into the tile's [out_rows][out_cols][K]
  /// `psum` block - overwriting on the first slice. Tracks max |psum|.
  /// Returns the psum entries updated, over all kernel groups.
  std::int64_t pwc_step(std::span<const std::int8_t> activations,
                        const BufferTile& tile, int sy, int sx,
                        bool first_slice, std::span<std::int32_t> psum);

  /// Write-back: `tile`'s psum block through the per-output-channel
  /// Non-Conv units into its region of `output`.
  void write_back(std::span<const std::int32_t> psum, const BufferTile& tile,
                  nn::Int8Tensor& output);

  /// Pins both engines' kernel selection (the kForceGeneric A/B lever).
  void set_kernel_policy(KernelPolicy policy) noexcept;

  [[nodiscard]] const arch::MacActivity& dwc_activity() const noexcept {
    return dwc_.activity();
  }
  [[nodiscard]] const arch::MacActivity& pwc_activity() const noexcept {
    return pwc_.activity();
  }
  [[nodiscard]] std::int64_t transfer_ops() const noexcept {
    return nonconv_.transfer_ops();
  }
  [[nodiscard]] std::int64_t writeback_ops() const noexcept {
    return nonconv_.writeback_ops();
  }
  /// Largest |partial sum| accumulated since begin_layer.
  [[nodiscard]] std::int64_t max_abs_psum() const noexcept {
    return max_abs_psum_;
  }

 private:
  EdeaConfig config_;
  DwcEngine dwc_;
  PwcEngine pwc_;
  NonConvUnitArray nonconv_;

  const nn::QuantDscLayer* layer_ = nullptr;
  ChannelSlice slice_;  ///< the slice load_dwc_slice last loaded
  std::span<const nn::NonConvChannelParams> transfer_params_;

  // Step scratch, reused from step to step.
  std::vector<std::int8_t> dwc_weights_;
  std::vector<std::int8_t> window_;  ///< [extent][extent][slice channels]
  DwcStepOutput dwc_out_;

  std::int64_t max_abs_psum_ = 0;
};

}  // namespace edea::core
