// Tests for the hardware primitives (src/arch): external memory traffic
// accounting, MAC lanes and adder trees.
#include <gtest/gtest.h>

#include <array>

#include "arch/counters.hpp"
#include "arch/ext_memory.hpp"
#include "arch/pe.hpp"
#include "util/check.hpp"

namespace edea::arch {
namespace {

// ------------------------------------------------------- external memory ---

TEST(ExternalMemory, SeparatesTrafficClasses) {
  ExternalMemory mem;
  mem.record_read(TrafficClass::kActivation, 100);
  mem.record_write(TrafficClass::kActivation, 50);
  mem.record_read(TrafficClass::kWeight, 30);
  mem.record_read(TrafficClass::kParameter, 7);
  EXPECT_EQ(mem.accesses(TrafficClass::kActivation), 150);
  EXPECT_EQ(mem.accesses(TrafficClass::kWeight), 30);
  EXPECT_EQ(mem.accesses(TrafficClass::kParameter), 7);
  EXPECT_EQ(mem.total_accesses(), 187);
  mem.reset();
  EXPECT_EQ(mem.total_accesses(), 0);
}

TEST(ExternalMemory, NegativeCountRejected) {
  ExternalMemory mem;
  EXPECT_THROW(mem.record_read(TrafficClass::kWeight, -1),
               PreconditionError);
}

TEST(ExternalMemory, TrafficClassNames) {
  EXPECT_EQ(traffic_class_name(TrafficClass::kActivation), "activation");
  EXPECT_EQ(traffic_class_name(TrafficClass::kWeight), "weight");
  EXPECT_EQ(traffic_class_name(TrafficClass::kParameter), "parameter");
}

// ------------------------------------------------------------- counters ---

TEST(AccessCounter, Accumulates) {
  AccessCounter a;
  a.record_read(10, 2);
  a.record_write(4);
  AccessCounter b;
  b.record_read(1);
  a += b;
  EXPECT_EQ(a.reads, 3);
  EXPECT_EQ(a.writes, 1);
  EXPECT_EQ(a.read_bytes, 11);
  EXPECT_EQ(a.total_accesses(), 4);
  EXPECT_EQ(a.total_bytes(), 15);
}

TEST(MacActivity, UtilizationAndZeroFraction) {
  MacActivity m;
  m.lane_cycles = 100;
  m.useful_macs = 80;
  m.zero_operand_macs = 20;
  EXPECT_DOUBLE_EQ(m.utilization(), 0.8);
  EXPECT_DOUBLE_EQ(m.zero_operand_fraction(), 0.25);
  MacActivity empty;
  EXPECT_DOUBLE_EQ(empty.utilization(), 0.0);
  EXPECT_DOUBLE_EQ(empty.zero_operand_fraction(), 0.0);
}

// ------------------------------------------------------------- MAC lane ---

TEST(MacLane, MultiplyAndTrack) {
  MacLane lane;
  MacActivity act;
  EXPECT_EQ(lane.multiply(3, -4, act), -12);
  EXPECT_EQ(lane.multiply(0, 100, act), 0);
  EXPECT_EQ(act.lane_cycles, 2);
  EXPECT_EQ(act.useful_macs, 2);
  EXPECT_EQ(act.zero_operand_macs, 1);  // only the zero *activation* counts
  EXPECT_EQ(lane.multiply(5, 0, act), 0);
  EXPECT_EQ(act.zero_operand_macs, 1);  // zero weight is not gated
  lane.idle(act);
  EXPECT_EQ(act.lane_cycles, 4);
  EXPECT_EQ(act.useful_macs, 3);
}

TEST(MacLane, FullInt8Range) {
  MacLane lane;
  MacActivity act;
  EXPECT_EQ(lane.multiply(-128, -128, act), 16384);
  EXPECT_EQ(lane.multiply(-128, 127, act), -16256);
  EXPECT_EQ(lane.multiply(127, 127, act), 16129);
}

// ------------------------------------------------------------ adder tree ---

TEST(AdderTree, DepthMatchesFanIn) {
  EXPECT_EQ(AdderTree(9).depth(), 4);  // DWC engine: 9-input tree
  EXPECT_EQ(AdderTree(8).depth(), 3);  // PWC engine: 8-input tree
  EXPECT_EQ(AdderTree(2).depth(), 1);
  EXPECT_EQ(AdderTree(1).depth(), 0);
}

TEST(AdderTree, SumsExactly) {
  AdderTree tree(9);
  std::array<std::int32_t, 9> products{1, -2, 3, -4, 5, -6, 7, -8, 9};
  EXPECT_EQ(tree.sum(products), 5);
}

TEST(AdderTree, MatchesNaiveSummationOnRandomData) {
  AdderTree tree(8);
  std::array<std::int32_t, 8> p{};
  std::uint32_t state = 12345;
  for (int trial = 0; trial < 200; ++trial) {
    std::int64_t naive = 0;
    for (auto& v : p) {
      state = state * 1664525u + 1013904223u;
      v = static_cast<std::int32_t>(state % 40000u) - 20000;
      naive += v;
    }
    EXPECT_EQ(tree.sum(p), static_cast<std::int32_t>(naive));
  }
}

TEST(AdderTree, WrongOperandCountThrows) {
  AdderTree tree(9);
  std::array<std::int32_t, 8> p{};
  EXPECT_THROW((void)tree.sum(p), PreconditionError);
}

TEST(AdderTree, RejectsNonPositiveFanIn) {
  EXPECT_THROW(AdderTree(0), PreconditionError);
}

}  // namespace
}  // namespace edea::arch
