// Tests for the analytic timing model (Eq. 1 / Eq. 2) - including the
// paper's exact published per-layer latency and throughput series
// (Fig. 10 and Fig. 13).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/timing.hpp"
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

TEST(CeilDiv, Basics) {
  EXPECT_EQ(ceil_div(10, 2), 5);
  EXPECT_EQ(ceil_div(11, 2), 6);
  EXPECT_EQ(ceil_div(1, 16), 1);
  EXPECT_EQ(ceil_div(16, 16), 1);
  EXPECT_EQ(ceil_div(17, 16), 2);
}

TEST(TimingModel, TilePassCyclesEq1) {
  const TimingModel tm{EdeaConfig::paper()};
  // Eq. 1: 9 + ceil(N/2)*ceil(M/2)*ceil(K/16).
  EXPECT_EQ(tm.tile_pass_cycles(8, 8, 512), 9 + 16 * 32);
  EXPECT_EQ(tm.tile_pass_cycles(2, 2, 1024), 9 + 1 * 64);
  EXPECT_EQ(tm.tile_pass_cycles(4, 4, 512), 9 + 4 * 32);
  EXPECT_EQ(tm.tile_pass_cycles(3, 3, 8), 9 + 4 * 1);  // ragged + small K
}

TEST(TimingModel, LayerTimingEq2) {
  const TimingModel tm{EdeaConfig::paper()};
  // Layer 6 (4x4x512 -> 512): one tile, 64 slices, pass = 137 cycles.
  const LayerTiming t = tm.layer_timing(spec_of(4, 512, 1, 512));
  EXPECT_EQ(t.passes, 64);
  EXPECT_EQ(t.init_cycles, 64 * 9);
  EXPECT_EQ(t.compute_cycles, 64 * 128);
  EXPECT_EQ(t.total_cycles, 64 * 137);
  EXPECT_EQ(t.dwc_active_cycles, 64 * 4);
  EXPECT_EQ(t.pwc_active_cycles, 64 * 128);
}

TEST(TimingModel, BufferTileCount) {
  const TimingModel tm{EdeaConfig::paper()};
  EXPECT_EQ(tm.buffer_tile_count(spec_of(32, 32, 1, 64)), 16);
  EXPECT_EQ(tm.buffer_tile_count(spec_of(32, 64, 2, 128)), 4);
  EXPECT_EQ(tm.buffer_tile_count(spec_of(4, 512, 1, 512)), 1);
}

TEST(TimingModel, TimeNsAtOneGigahertz) {
  const TimingModel tm{EdeaConfig::paper()};
  const LayerTiming t = tm.layer_timing(spec_of(4, 512, 1, 512));
  EXPECT_DOUBLE_EQ(t.time_ns(1.0), 8768.0);
  EXPECT_DOUBLE_EQ(t.time_ns(2.0), 4384.0);
}

// ----------------------- published series (Fig. 10 latency, Fig. 13) ---

TEST(TimingModel, MobileNetLatenciesMatchPaperFig10) {
  const TimingModel tm{EdeaConfig::paper()};
  const auto specs = nn::mobilenet_dsc_specs();
  // Cycle counts derived in DESIGN.md sec. 4 from Eq. 1/2; at 1 GHz these
  // are the nanosecond latencies of Fig. 10.
  const std::array<std::int64_t, 13> expected{
      4672, 4384, 8768, 4240, 8480, 4384, 8768,
      8768, 8768, 8768, 8768, 4672, 9344};
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(tm.layer_timing(specs[i]).total_cycles, expected[i])
        << "layer " << i;
  }
}

TEST(TimingModel, MobileNetThroughputMatchesPaperFig13) {
  const TimingModel tm{EdeaConfig::paper()};
  const auto specs = nn::mobilenet_dsc_specs();
  // Fig. 13: 1024 GOPS for layers 0-4, 973.5 for 5-10, 905.6 for 11-12.
  for (int i = 0; i <= 4; ++i) {
    EXPECT_NEAR(tm.layer_throughput_gops(specs[static_cast<std::size_t>(i)]),
                1024.0, 0.05)
        << "layer " << i;
  }
  for (int i = 5; i <= 10; ++i) {
    EXPECT_NEAR(tm.layer_throughput_gops(specs[static_cast<std::size_t>(i)]),
                973.5, 0.1)
        << "layer " << i;
  }
  for (int i = 11; i <= 12; ++i) {
    EXPECT_NEAR(tm.layer_throughput_gops(specs[static_cast<std::size_t>(i)]),
                905.6, 0.1)
        << "layer " << i;
  }
}

TEST(TimingModel, PeakThroughputIs1024Gops) {
  // 512 PWC MACs * 2 ops at 1 GHz = 1024 GOPS: the initiation overhead is
  // exactly compensated by the DWC engine's extra 288*S MACs when S = 16,
  // i.e. the paper's "peak throughput of 1024 GOPS".
  const TimingModel tm{EdeaConfig::paper()};
  double peak = 0.0;
  for (const auto& spec : nn::mobilenet_dsc_specs()) {
    peak = std::max(peak, tm.layer_throughput_gops(spec));
  }
  EXPECT_NEAR(peak, 1024.0, 0.05);
}

TEST(TimingModel, AverageThroughputMatchesPaper) {
  // Paper abstract: average throughput 981.42 GOPS. Our layer table gives
  // 979.9; assert within 0.5%.
  const TimingModel tm{EdeaConfig::paper()};
  std::int64_t ops = 0, cycles = 0;
  for (const auto& spec : nn::mobilenet_dsc_specs()) {
    ops += spec.total_ops();
    cycles += tm.layer_timing(spec).total_cycles;
  }
  const double avg = static_cast<double>(ops) / static_cast<double>(cycles);
  EXPECT_NEAR(avg, 981.42, 981.42 * 0.005);
}

TEST(TimingModel, StrideTwoLayersHaveFewerMacs) {
  // Fig. 10's dips at layers 1, 3, 5, 11.
  const auto specs = nn::mobilenet_dsc_specs();
  EXPECT_LT(specs[1].total_macs(), specs[2].total_macs());
  EXPECT_LT(specs[3].total_macs(), specs[4].total_macs());
  EXPECT_LT(specs[5].total_macs(), specs[6].total_macs());
  EXPECT_LT(specs[11].total_macs(), specs[12].total_macs());
}

TEST(TimingModel, InitiationShareGrowsForSmallLayers) {
  // Sec. IV-A: the 9 initiation cycles account for a larger share on later
  // (smaller) layers - layer 12's throughput is the lowest.
  const TimingModel tm{EdeaConfig::paper()};
  const auto specs = nn::mobilenet_dsc_specs();
  // Layers 6-10 amortize the 9 cycles over 128 compute cycles per pass;
  // layers 11-12 only over 64 - hence Fig. 13's drop to 905.6 GOPS.
  const LayerTiming t6 = tm.layer_timing(specs[6]);
  const LayerTiming t12 = tm.layer_timing(specs[12]);
  const double share6 = static_cast<double>(t6.init_cycles) /
                        static_cast<double>(t6.total_cycles);
  const double share12 = static_cast<double>(t12.init_cycles) /
                         static_cast<double>(t12.total_cycles);
  EXPECT_LT(share6, share12);
}

TEST(TimingModel, DwcIdlesMoreWhenKernelCountGrows) {
  // Sec. III-D: "DWC PE arrays encounter more idle time due to fewer MAC
  // operations in DWC compared to PWC".
  const TimingModel tm{EdeaConfig::paper()};
  const LayerTiming small_k = tm.layer_timing(spec_of(8, 64, 1, 16));
  const LayerTiming large_k = tm.layer_timing(spec_of(8, 64, 1, 1024));
  const double duty_small = static_cast<double>(small_k.dwc_active_cycles) /
                            static_cast<double>(small_k.total_cycles);
  const double duty_large = static_cast<double>(large_k.dwc_active_cycles) /
                            static_cast<double>(large_k.total_cycles);
  EXPECT_GT(duty_small, duty_large);
}

TEST(TimingModel, RaggedLayersCountExactly) {
  // 12x12 output: tiles 8x8, 8x4, 4x8, 4x4 -> per-slice passes of
  // 9 + 16g, 9 + 8g, 9 + 8g, 9 + 4g with g = ceil(K/16).
  const TimingModel tm{EdeaConfig::paper()};
  const nn::DscLayerSpec spec = spec_of(12, 8, 1, 32);
  const std::int64_t g = 2;
  const std::int64_t expected = (9 + 16 * g) + 2 * (9 + 8 * g) + (9 + 4 * g);
  EXPECT_EQ(tm.layer_timing(spec).total_cycles, expected);
}

TEST(TimingModel, SerializedScheduleClosedForm) {
  const TimingModel tm{EdeaConfig::paper()};
  // Layer 6 (4x4x512 -> 512): 64 passes, each a DWC phase of 9 + 4
  // cycles followed by a PWC phase of 9 + 128.
  const LayerTiming t = tm.serialized_layer_timing(spec_of(4, 512, 1, 512));
  EXPECT_EQ(t.total_cycles, 64 * (9 + 4) + 64 * (9 + 128));
  EXPECT_EQ(t.compute_cycles, t.total_cycles);
  EXPECT_EQ(t.passes, 0);
  EXPECT_EQ(t.init_cycles, 0);
  EXPECT_EQ(t.dwc_active_cycles, 64 * 4);
  EXPECT_EQ(t.pwc_active_cycles, 64 * 128);

  // MobileNetV1 end to end: the serialized schedule pays every DWC phase
  // and its initiation on top of EDEA's overlapped total.
  std::int64_t edea = 0;
  std::int64_t serialized = 0;
  for (const auto& spec : nn::mobilenet_dsc_specs()) {
    edea += tm.layer_timing(spec).total_cycles;
    serialized += tm.serialized_layer_timing(spec).total_cycles;
  }
  EXPECT_EQ(edea, 92784);
  EXPECT_EQ(serialized, 104480);
}

TEST(TimingModel, ScalingTkReducesCycles) {
  // Doubling Tk halves the kernel-group count: direct latency win,
  // utilization preserved (the paper's scaling argument).
  EdeaConfig big = EdeaConfig::paper();
  big.tk = 32;
  const TimingModel base{EdeaConfig::paper()};
  const TimingModel scaled{big};
  const nn::DscLayerSpec spec = spec_of(4, 512, 1, 512);
  EXPECT_EQ(base.layer_timing(spec).compute_cycles,
            2 * scaled.layer_timing(spec).compute_cycles);
}

TEST(TimingModel, FirstPassEventsFollowEq1OnAMultipliedStride2Layer) {
  // Fig. 7 of a stride-2, depth-multiplier-2 layer at Td=16: 16 input
  // channels make 32 intermediate ones, so the first slice carries 16;
  // K=48 at Tk=16 makes 3 kernel groups, so step s starts at cycle
  // init_cycles + 3s (Eq. 1's steady state).
  EdeaConfig config = EdeaConfig::paper();
  config.td = 16;
  config.init_cycles = 5;
  nn::DscLayerSpec spec = spec_of(16, 16, 2, 48);
  spec.depth_multiplier = 2;
  const std::vector<PipelineEvent> events =
      TimingModel(config).first_pass_events(spec);

  const auto expect_event = [&](std::size_t i, std::int64_t cycle,
                                const std::string& stage,
                                const std::string& detail) {
    ASSERT_LT(i, events.size());
    EXPECT_EQ(events[i].cycle, cycle) << "event " << i;
    EXPECT_EQ(events[i].stage, stage) << "event " << i;
    EXPECT_EQ(events[i].detail, detail) << "event " << i;
  };
  expect_event(0, 0, "DWC Input Ifmap & Weight", "tile(0,0) slice 0");
  expect_event(1, 0, "PWC Input Weight", "slice weights for 48 kernels");
  expect_event(2, 2, "DWC Input offline Data", "16 (k,b) pairs");
  std::size_t i = 3;
  for (int s = 0; s < 4; ++s) {
    const std::int64_t cycle = 5 + 3 * s;
    // 8x8 outputs make 4 steps per row: the first four are row 0.
    expect_event(i++, cycle, "DWC Engine Process",
                 "step (0," + std::to_string(s) + ")");
    expect_event(i++, cycle, "Non-Conv Unit Process", "64 values");
    expect_event(i++, cycle, "Write Intermediate Buffer",
                 "half " + std::to_string(s % 2));
    if (s < 2) expect_event(i++, cycle, "PWC Engine Process", "group k0=0");
  }
  EXPECT_EQ(events.size(), i);

  // A one-step tile has one step's events.
  const std::vector<PipelineEvent> single =
      TimingModel(config).first_pass_events(spec_of(2, 8, 1, 16));
  ASSERT_EQ(single.size(), 7u);
  EXPECT_EQ(single.back().cycle, 5);
  EXPECT_EQ(single[2].detail, "8 (k,b) pairs");
}

}  // namespace
}  // namespace edea::core
