// Tests for src/util: error handling, PRNG, statistics, table printing.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <sstream>

#include "util/check.hpp"
#include "util/logging.hpp"
#include "util/random.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace edea {
namespace {

// ---------------------------------------------------------------- check ---

TEST(Check, RequirePassesOnTrue) {
  EXPECT_NO_THROW(EDEA_REQUIRE(1 + 1 == 2, "arithmetic works"));
}

TEST(Check, RequireThrowsPreconditionError) {
  EXPECT_THROW(EDEA_REQUIRE(false, "must fail"), PreconditionError);
}

TEST(Check, AssertThrowsInvariantError) {
  EXPECT_THROW(EDEA_ASSERT(false, "broken invariant"), InvariantError);
}

TEST(Check, MessagesCarryExpressionAndContext) {
  try {
    EDEA_REQUIRE(2 < 1, "two is not less than one");
    FAIL() << "expected throw";
  } catch (const PreconditionError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("2 < 1"), std::string::npos);
    EXPECT_NE(what.find("two is not less than one"), std::string::npos);
  }
}

TEST(Check, InvariantErrorIsLogicError) {
  EXPECT_THROW(EDEA_ASSERT(false, ""), std::logic_error);
}

// ------------------------------------------------------------------ rng ---

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a(), b());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformIntRespectsBounds) {
  Rng rng(11);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all values hit
}

TEST(Rng, UniformIntSingletonRange) {
  Rng rng(13);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(rng.uniform_int(5, 5), 5);
  }
}

TEST(Rng, UniformIntRejectsInvertedBounds) {
  Rng rng(17);
  EXPECT_THROW((void)rng.uniform_int(2, 1), PreconditionError);
}

TEST(Rng, NormalHasApproximatelyUnitMoments) {
  Rng rng(19);
  RunningStats s;
  for (int i = 0; i < 50000; ++i) s.add(rng.normal());
  EXPECT_NEAR(s.mean(), 0.0, 0.02);
  EXPECT_NEAR(s.stddev(), 1.0, 0.02);
}

TEST(Rng, SkipNormalsAdvancesExactlyLikeNormalCalls) {
  // Even and odd counts, from a generator with and without a cached
  // variate: afterwards the next three draws match, the first of which
  // may be the cached one, and so does the raw state.
  for (const int cached : {0, 1}) {
    for (const std::uint64_t n : {0u, 1u, 2u, 3u, 4u, 7u, 10u, 1001u}) {
      SCOPED_TRACE("cached " + std::to_string(cached) + " n " +
                   std::to_string(n));
      Rng called(41);
      Rng skipped(41);
      for (int i = 0; i < cached; ++i) {
        (void)called.normal();
        (void)skipped.normal();
      }
      for (std::uint64_t i = 0; i < n; ++i) (void)called.normal();
      skipped.skip_normals(n);
      for (int i = 0; i < 3; ++i) EXPECT_EQ(called.normal(), skipped.normal());
      EXPECT_EQ(called(), skipped());
    }
  }
}

TEST(Rng, BernoulliFrequencyMatchesP) {
  Rng rng(23);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (rng.bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng parent(29);
  Rng child = parent.fork();
  // The child stream should not simply replay the parent stream.
  Rng parent2(29);
  (void)parent2();  // advance past the fork draw
  int same = 0;
  for (int i = 0; i < 32; ++i) {
    if (child() == parent2()) ++same;
  }
  EXPECT_LT(same, 2);
}

// ---------------------------------------------------------------- stats ---

TEST(RunningStats, MeanAndVariance) {
  RunningStats s;
  for (const double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 4.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_EQ(s.count(), 8);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, EmptySampleThrows) {
  RunningStats s;
  EXPECT_THROW((void)s.mean(), PreconditionError);
  EXPECT_THROW((void)s.variance(), PreconditionError);
  EXPECT_THROW((void)s.min(), PreconditionError);
}

TEST(RunningStats, SingleValue) {
  RunningStats s;
  s.add(3.5);
  EXPECT_DOUBLE_EQ(s.mean(), 3.5);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(RelativeError, Basics) {
  EXPECT_DOUBLE_EQ(relative_error(110.0, 100.0), 0.1);
  EXPECT_DOUBLE_EQ(relative_error(100.0, 100.0), 0.0);
  EXPECT_GT(relative_error(1.0, 0.0), 1e9);  // guarded by eps
}

// ---------------------------------------------------------------- table ---

TEST(TextTable, RendersHeaderAndRows) {
  TextTable t({"layer", "value"});
  t.add_row({"L0", "1.50"});
  t.add_row({"L1", "2.25"});
  std::ostringstream os;
  t.render(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("layer"), std::string::npos);
  EXPECT_NE(s.find("L1"), std::string::npos);
  EXPECT_NE(s.find("2.25"), std::string::npos);
  EXPECT_EQ(t.row_count(), 2u);
  EXPECT_EQ(t.column_count(), 2u);
}

TEST(TextTable, ShortRowsPadToColumnCount) {
  TextTable t({"a", "b", "c"});
  t.add_row({"only"});
  std::ostringstream os;
  EXPECT_NO_THROW(t.render(os));
}

TEST(TextTable, OverlongRowThrows) {
  TextTable t({"a"});
  EXPECT_THROW(t.add_row({"x", "y"}), PreconditionError);
}

TEST(TextTable, NumberFormatting) {
  EXPECT_EQ(TextTable::num(3.14159, 2), "3.14");
  EXPECT_EQ(TextTable::num(std::int64_t{1234567}), "1,234,567");
  EXPECT_EQ(TextTable::num(std::int64_t{-1000}), "-1,000");
  EXPECT_EQ(TextTable::num(std::int64_t{999}), "999");
  EXPECT_EQ(TextTable::percent(0.4689, 1), "46.9%");
}

TEST(TextTable, EmptyHeaderListThrows) {
  EXPECT_THROW(TextTable({}), PreconditionError);
}

// -------------------------------------------------------------- logging ---

TEST(Logging, LevelRoundTrip) {
  const log::Level before = log::level();
  log::set_level(log::Level::kWarn);
  EXPECT_EQ(log::level(), log::Level::kWarn);
  log::set_level(before);
}

TEST(Logging, LevelNames) {
  EXPECT_EQ(log::level_name(log::Level::kDebug), "DEBUG");
  EXPECT_EQ(log::level_name(log::Level::kError), "ERROR");
}

TEST(Logging, MacroRespectsThreshold) {
  // With the level at kError, an INFO emitter must not evaluate its
  // stream arguments at all (the macro short-circuits).
  const log::Level before = log::level();
  log::set_level(log::Level::kError);
  int evaluations = 0;
  auto count = [&]() {
    ++evaluations;
    return "x";
  };
  EDEA_LOG_INFO << count();
  EXPECT_EQ(evaluations, 0);
  log::set_level(before);
}

}  // namespace
}  // namespace edea
