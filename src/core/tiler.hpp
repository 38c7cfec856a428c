// tiler.hpp - decomposes a DSC layer into the loop nest the accelerator
// executes (Sec. II dataflow, loop order La, specialized to the silicon's
// Tn=Tm=2 / Td=8 / Tk=16 / 8x8-output buffer tiles):
//
//   for each buffer tile (ifmap region producing <= 8x8 outputs)   [Eq. 2]
//     for each Td-channel slice                                    [Eq. 2]
//       pass: 9 initiation cycles, then                            [Eq. 1]
//       for each Tn x Tm spatial step                              [Loop 3]
//         for each Tk kernel group                                 [Loop 5]
//           one cycle
//
// The tiler is pure geometry: it yields coordinate ranges; the accelerator
// moves the data. Keeping it separate makes the Eq. 1/2 equivalence and the
// buffer-capacity proofs unit-testable without running convolutions.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "core/config.hpp"
#include "nn/layers.hpp"

namespace edea::core {

/// One ifmap-buffer tile: an output region and the input region backing it.
struct BufferTile {
  // Output coordinates (rows x cols within the layer ofmap).
  int out_row0 = 0;
  int out_col0 = 0;
  int out_rows = 0;
  int out_cols = 0;

  // Input region (unclipped, in unpadded input coordinates; may extend
  // past the image by the padding amount).
  int in_row0 = 0;  ///< top-left including halo (can be negative)
  int in_col0 = 0;
  int in_rows = 0;  ///< full extent including halo
  int in_cols = 0;

  /// Output rows and cols the tile's engine steps cover: its extent
  /// rounded up to whole Tn x Tm steps. Positions past out_rows/out_cols
  /// are the dummy lanes of its edge steps.
  [[nodiscard]] int step_rows(const EdeaConfig& cfg) const {
    return (out_rows + cfg.tn - 1) / cfg.tn * cfg.tn;
  }
  [[nodiscard]] int step_cols(const EdeaConfig& cfg) const {
    return (out_cols + cfg.tm - 1) / cfg.tm * cfg.tm;
  }

  /// Spatial engine steps this tile requires (ceil over Tn x Tm).
  [[nodiscard]] std::int64_t spatial_steps(const EdeaConfig& cfg) const {
    return std::int64_t{step_rows(cfg) / cfg.tn} * (step_cols(cfg) / cfg.tm);
  }

  /// Elements of the *valid* (in-image) part of the input region for one
  /// channel - what actually gets fetched from external memory.
  [[nodiscard]] std::int64_t valid_input_elements(int image_rows,
                                                  int image_cols) const;
};

/// One Td-channel slice.
struct ChannelSlice {
  int channel0 = 0;
  int channels = 0;  ///< <= Td
};

/// One Tk kernel group.
struct KernelGroup {
  int kernel0 = 0;
  int kernels = 0;  ///< <= Tk
};

class Tiler {
 public:
  Tiler(const EdeaConfig& config, const nn::DscLayerSpec& spec);

  [[nodiscard]] const std::vector<BufferTile>& tiles() const noexcept {
    return tiles_;
  }
  [[nodiscard]] const std::vector<ChannelSlice>& slices() const noexcept {
    return slices_;
  }
  [[nodiscard]] const std::vector<KernelGroup>& kernel_groups()
      const noexcept {
    return groups_;
  }

  /// Largest input-region byte footprint over all tiles (one slice of Td
  /// channels) - must fit the DWC ifmap buffer; validated in tests.
  [[nodiscard]] std::int64_t max_tile_input_bytes() const;

  /// Largest output-tile partial-sum entry count - must fit the
  /// accumulator buffer.
  [[nodiscard]] std::int64_t max_tile_psum_entries() const;

  /// Deterministic partition of the tile list for tile-parallel execution:
  /// chunk `chunk` of `chunks` covers tiles() indices [first, second).
  /// Chunks are contiguous in tile order and balanced to within one tile,
  /// and the partition is a pure function of (tile count, chunks) - never
  /// of scheduling - so per-chunk measurement partials merge back in tile
  /// order regardless of which thread ran which chunk. Chunks beyond the
  /// tile count come back empty.
  [[nodiscard]] std::pair<std::size_t, std::size_t> tile_chunk(
      int chunks, int chunk) const;

 private:
  EdeaConfig config_;
  nn::DscLayerSpec spec_;
  std::vector<BufferTile> tiles_;
  std::vector<ChannelSlice> slices_;
  std::vector<KernelGroup> groups_;
};

}  // namespace edea::core
