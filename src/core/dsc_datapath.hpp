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
// units with the bound layer's parameters, every slice's weights
// staged once per layer, the PWC accumulator's partial-sum block of the
// tile in flight, and pass scratch reused from pass to pass. Its
// primitives each cover one (buffer tile, channel slice) pass - one
// gather, one DWC engine call over every Tn x Tm step of the tile, one
// Non-Conv transfer of the whole block, one PWC engine call into the
// tile's partial sums - and none of them tallies traffic. Each schedule
// counts its own buffer and external accesses as bulk arithmetic over
// the pass's geometry, so each backend keeps its measurements; what the
// datapath measures itself (MAC activity, Non-Conv ops, the PWC-input
// zero tally, max |psum|) it folds into a LayerPartial.
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
#include "core/run_result.hpp"
#include "core/tiler.hpp"
#include "nn/layers.hpp"

namespace edea::core {

/// A read-only [rows][cols][channels] int8 map, read through a window of
/// bounds: a position outside [row_lo, row_hi) x [col_lo, col_hi) (a
/// rectangle inside the map) reads as zero padding. The baseline reads
/// whole maps; EDEA clips the input to each buffer tile's region, so the
/// dummy lanes of its edge steps read padding, not the next tile.
struct Int8MapView {
  const std::int8_t* data = nullptr;
  int rows = 0;
  int cols = 0;
  int channels = 0;
  int row_lo = 0;
  int row_hi = 0;
  int col_lo = 0;
  int col_hi = 0;

  /// The whole of a [R][C][D] tensor.
  [[nodiscard]] static Int8MapView whole(const nn::Int8Tensor& map);

  /// The same map with its bounds narrowed to the rows x cols region at
  /// (row0, col0), which may reach past the map.
  [[nodiscard]] Int8MapView clipped(int row0, int col0, int rows,
                                    int cols) const;
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

  /// Binds `layer` (which must outlive the binding), stages every channel
  /// slice's DWC and PWC weights in the layouts the kernels read, loads
  /// the write-back Non-Conv units with the per-output-channel parameters,
  /// and clears every tally fold_tallies reports.
  void begin_layer(const nn::QuantDscLayer& layer);

  /// Loads `slice`'s staged 3x3 DWC kernel slice into the DWC engine and
  /// its channels' parameters into the transfer Non-Conv units. Returns
  /// the weights loaded (kernel^2 x slice channels).
  std::int64_t load_dwc_slice(const ChannelSlice& slice);

  /// Loads `slice`'s staged PWC weights for every kernel, [K][slice
  /// channels], into the PWC engine. Returns the weights loaded.
  std::int64_t load_pwc_slice(const ChannelSlice& slice);

  /// The DWC half of one pass over `tile` with the loaded slice: gathers
  /// from `src` the padded, dilated, multiplier-mapped input of every
  /// Tn x Tm step of the tile (its dummy positions included), fires the
  /// engine once over the whole block, and applies the Non-Conv transfer
  /// to it, counting the zeros of the block's real positions (the Fig. 11
  /// PWC-input tally). Returns the pass's int8 intermediate block,
  /// [step_rows][step_cols][slice channels] (BufferTile::step_rows),
  /// valid until the next dwc_pass.
  std::span<const std::int8_t> dwc_pass(const Int8MapView& src,
                                        const BufferTile& tile);

  /// The PWC half of one pass: every kernel of the loaded slice over the
  /// tile's [step_rows][step_cols][slice channels] `activations`, read in
  /// place, in one engine call that accumulates the partial sums straight
  /// into the tile's [out_rows][out_cols][K] psum block - overwriting it
  /// on the first slice. The block is the datapath's, sized from the
  /// largest tile so far and reused across tiles and layers. Tracks max
  /// |psum|. Returns the block, valid until the next pwc_pass; its size is
  /// the psum entries updated over all kernel groups.
  std::span<const std::int32_t> pwc_pass(
      std::span<const std::int8_t> activations, const BufferTile& tile,
      bool first_slice);

  /// Write-back: the psum block of `tile` (its last pwc_pass) through the
  /// per-output-channel Non-Conv units into its region of `output`.
  void write_back(const BufferTile& tile, nn::Int8Tensor& output);

  /// Pins both engines' kernel selection (the kForceGeneric A/B lever).
  void set_kernel_policy(KernelPolicy policy) noexcept;

  /// Sets `partial`'s datapath tallies since begin_layer: both engines'
  /// MAC activity, the two Non-Conv op counts, the PWC-input zero tally
  /// and max |psum|. Its schedule's counters are left as they are.
  void fold_tallies(LayerPartial& partial) const noexcept;

 private:
  EdeaConfig config_;
  DwcEngine dwc_;
  PwcEngine pwc_;
  NonConvUnitArray transfer_;   ///< DWC -> PWC, the loaded slice's channels
  NonConvUnitArray writeback_;  ///< PWC -> ofmap, the layer's K kernels

  /// One slice's weights in the layouts the engines read in place.
  struct StagedSlice {
    DwcWeights dwc;  ///< [kh][kw][channels]
    PwcWeights pwc;  ///< [K][channels]
  };

  const nn::QuantDscLayer* layer_ = nullptr;
  std::vector<StagedSlice> staged_;  ///< the bound layer's, slice by slice
  ChannelSlice slice_;  ///< the slice load_dwc_slice last loaded

  // Pass scratch, reused from pass to pass.
  std::vector<std::int8_t> window_;        ///< the pass's DWC input block
  DwcBlockOutput dwc_out_;
  std::vector<std::int8_t> intermediate_;  ///< the pass's Non-Conv output
  std::vector<std::int32_t> psum_;         ///< the tile's partial sums

  std::int64_t pwc_input_zeros_ = 0;
  std::int64_t pwc_input_total_ = 0;
  std::int64_t max_abs_psum_ = 0;
};

}  // namespace edea::core
