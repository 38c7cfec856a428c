// Tests for the tiler (src/core/tiler.*): buffer-tile geometry, channel
// slices, kernel groups, and buffer-capacity guarantees for every
// MobileNetV1 layer.
#include <gtest/gtest.h>

#include <utility>

#include "core/dsc_datapath.hpp"
#include "core/tiler.hpp"
#include "nn/mobilenet.hpp"
#include "util/check.hpp"

namespace edea::core {
namespace {

nn::DscLayerSpec spec_of(int rows, int ch, int stride, int out_ch) {
  nn::DscLayerSpec s;
  s.in_rows = rows;
  s.in_cols = rows;
  s.in_channels = ch;
  s.stride = stride;
  s.out_channels = out_ch;
  return s;
}

TEST(Tiler, SingleTileWhenOutputFitsBuffer) {
  const Tiler t(EdeaConfig::paper(), spec_of(8, 16, 1, 32));
  EXPECT_EQ(t.tiles().size(), 1u);
  EXPECT_EQ(t.tiles()[0].out_rows, 8);
  EXPECT_EQ(t.tiles()[0].out_cols, 8);
}

TEST(Tiler, LargeLayerSplitsInto8x8OutputTiles) {
  // Layer 0: 32x32 output -> 16 tiles of 8x8 (the Eq. 2 N_tiles factor
  // that produces exactly 1024 GOPS on layers 0-4).
  const Tiler t(EdeaConfig::paper(), spec_of(32, 32, 1, 64));
  EXPECT_EQ(t.tiles().size(), 16u);
  for (const BufferTile& tile : t.tiles()) {
    EXPECT_EQ(tile.out_rows, 8);
    EXPECT_EQ(tile.out_cols, 8);
  }
}

TEST(Tiler, RaggedOutputProducesEdgeTiles) {
  const Tiler t(EdeaConfig::paper(), spec_of(12, 8, 1, 16));
  // 12 = 8 + 4 per dimension -> 4 tiles: 8x8, 8x4, 4x8, 4x4.
  ASSERT_EQ(t.tiles().size(), 4u);
  EXPECT_EQ(t.tiles()[0].out_rows, 8);
  EXPECT_EQ(t.tiles()[0].out_cols, 8);
  EXPECT_EQ(t.tiles()[3].out_rows, 4);
  EXPECT_EQ(t.tiles()[3].out_cols, 4);
}

TEST(Tiler, InputRegionsCoverHalo) {
  const Tiler t(EdeaConfig::paper(), spec_of(16, 8, 1, 16));
  const BufferTile& first = t.tiles()[0];
  EXPECT_EQ(first.in_row0, -1);  // padding halo
  EXPECT_EQ(first.in_rows, 10);  // 8 outputs + 2 halo at stride 1
  const Tiler t2(EdeaConfig::paper(), spec_of(32, 8, 2, 16));
  EXPECT_EQ(t2.tiles()[0].in_rows, 17);  // (8-1)*2 + 3 at stride 2
}

TEST(Tiler, ChannelSlicesOfTd) {
  const Tiler t(EdeaConfig::paper(), spec_of(8, 20, 1, 16));
  ASSERT_EQ(t.slices().size(), 3u);  // 8 + 8 + 4
  EXPECT_EQ(t.slices()[0].channels, 8);
  EXPECT_EQ(t.slices()[2].channel0, 16);
  EXPECT_EQ(t.slices()[2].channels, 4);
}

TEST(Tiler, KernelGroupsOfTk) {
  const Tiler t(EdeaConfig::paper(), spec_of(8, 8, 1, 40));
  ASSERT_EQ(t.kernel_groups().size(), 3u);  // 16 + 16 + 8
  EXPECT_EQ(t.kernel_groups()[2].kernel0, 32);
  EXPECT_EQ(t.kernel_groups()[2].kernels, 8);
}

TEST(Tiler, SpatialStepsCeilOverTnTm) {
  const EdeaConfig cfg = EdeaConfig::paper();
  BufferTile tile;
  tile.out_rows = 7;
  tile.out_cols = 8;
  EXPECT_EQ(tile.spatial_steps(cfg), 4 * 4);  // ceil(7/2) * ceil(8/2)
}

TEST(Tiler, ValidInputElementsClipsToImage) {
  BufferTile tile;
  tile.in_row0 = -1;
  tile.in_col0 = -1;
  tile.in_rows = 10;
  tile.in_cols = 10;
  // 16x16 image: rows -1..8 clip to 0..8 (9 rows), same for cols.
  EXPECT_EQ(tile.valid_input_elements(16, 16), 81);
  // Fully inside.
  tile.in_row0 = 2;
  tile.in_col0 = 2;
  EXPECT_EQ(tile.valid_input_elements(16, 16), 100);
  // Degenerate: fully outside.
  tile.in_row0 = 100;
  EXPECT_EQ(tile.valid_input_elements(16, 16), 0);
}

TEST(Tiler, EveryMobileNetLayerFitsTheModeledBuffers) {
  // The hardware guarantee behind Fig. 4's buffer sizing: for all 13
  // layers, the worst tile input region fits the DWC ifmap buffer and the
  // worst output tile fits the PWC accumulator.
  const EdeaConfig cfg = EdeaConfig::paper();
  for (const auto& spec : nn::mobilenet_dsc_specs()) {
    const Tiler t(cfg, spec);
    EXPECT_LE(t.max_tile_input_bytes(), cfg.dwc_ifmap_buffer_bytes())
        << spec.to_string();
    EXPECT_LE(t.max_tile_psum_entries() * 4, cfg.accumulator_buffer_bytes())
        << spec.to_string();
    EXPECT_LE(std::int64_t{spec.out_channels} * cfg.td,
              cfg.pwc_weight_buffer_bytes())
        << spec.to_string();
  }
}

TEST(Tiler, MobileNetTileCountsMatchEq2) {
  // N_tiles per layer: 16,4,4,1,1,... (ceil(out/8)^2).
  const EdeaConfig cfg = EdeaConfig::paper();
  const auto specs = nn::mobilenet_dsc_specs();
  const std::array<std::size_t, 13> expected{16, 4, 4, 1, 1, 1, 1,
                                             1,  1, 1, 1, 1, 1};
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const Tiler t(cfg, specs[i]);
    EXPECT_EQ(t.tiles().size(), expected[i]) << "layer " << i;
  }
}

TEST(Tiler, RejectsEmptyOutput) {
  nn::DscLayerSpec bad = spec_of(8, 8, 1, 8);
  bad.in_rows = 0;
  EXPECT_THROW(Tiler(EdeaConfig::paper(), bad), PreconditionError);
}

TEST(EdeaConfig, BufferCapacitiesMatchPaperGeometry) {
  const EdeaConfig cfg = EdeaConfig::paper();
  EXPECT_EQ(cfg.dwc_ifmap_buffer_bytes(), 17 * 17 * 8);
  EXPECT_EQ(cfg.dwc_weight_buffer_bytes(), 2 * 9 * 8);
  EXPECT_EQ(cfg.offline_buffer_bytes(), 2 * 8 * 6);
  EXPECT_EQ(cfg.intermediate_buffer_bytes(), 2 * 2 * 2 * 8);
  EXPECT_EQ(cfg.pwc_weight_buffer_bytes(), 8 * 1024);
  EXPECT_EQ(cfg.accumulator_buffer_bytes(), 4 * 16384);
}

TEST(EdeaConfig, ValidationCatchesBadConfigs) {
  EdeaConfig cfg = EdeaConfig::paper();
  cfg.kernel = 4;  // even kernels unsupported
  EXPECT_THROW(cfg.validate(), PreconditionError);
  cfg = EdeaConfig::paper();
  cfg.max_tile_out = 7;  // not a multiple of Tn
  EXPECT_THROW(cfg.validate(), PreconditionError);
  cfg = EdeaConfig::paper();
  cfg.tn = 0;
  EXPECT_THROW(cfg.validate(), PreconditionError);
}

TEST(EdeaConfig, ValidationBoundsEveryField) {
  // The largest accepted value of every field at once: it validates, the
  // ints derived from it stay far inside int range, and both engines
  // build from it. One step past any single bound throws.
  EdeaConfig big = EdeaConfig::paper();
  big.tn = 16;
  big.tm = 16;
  big.td = 256;
  big.tk = 256;
  big.kernel = 15;
  big.init_cycles = 65536;
  big.max_tile_out = 128;
  EXPECT_NO_THROW(big.validate());
  EXPECT_EQ(big.dwc_mac_count(), 256 * 15 * 15 * 16 * 16);
  EXPECT_EQ(big.pwc_mac_count(), 256 * 256 * 16 * 16);
  EXPECT_EQ(big.ifmap_tile_extent(2), 127 * 2 + 15);
  EXPECT_NO_THROW(DscDatapath{big});

  const std::pair<int EdeaConfig::*, int> past[] = {
      {&EdeaConfig::tn, 32},          {&EdeaConfig::tm, 32},
      {&EdeaConfig::td, 257},         {&EdeaConfig::tk, 257},
      {&EdeaConfig::kernel, 17},      {&EdeaConfig::init_cycles, 65537},
      {&EdeaConfig::max_tile_out, 144}};
  for (const auto& [field, value] : past) {
    EdeaConfig cfg = big;
    cfg.*field = value;
    EXPECT_THROW(cfg.validate(), PreconditionError) << value;
  }
}

}  // namespace
}  // namespace edea::core
