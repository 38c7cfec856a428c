// job_key_test - core::JobKey, the one definition of a request's
// identity: its hash feed, cache-file order, entry encoding and
// validation loop over the same dimensions, in a fixed order.
#include "core/job_key.hpp"

#include <gtest/gtest.h>

#include <string>

#include "util/binary.hpp"
#include "util/check.hpp"
#include "util/hash.hpp"

namespace edea::core {
namespace {

JobKey sample() {
  JobKey key;
  key.config.td = 16;
  key.backend = "serialized";
  key.batch = 2;
  key.dilation = 3;
  key.depth_multiplier = 4;
  return key;
}

TEST(JobKeyTest, FeedHashesConfigBackendThenEveryCountInOrder) {
  const JobKey key = sample();
  util::Fnv1a64 fed;
  key.feed(fed);
  util::Fnv1a64 by_hand;
  by_hand.pod(key.config.hash()).str("serialized").pod(2).pod(3).pod(4);
  EXPECT_EQ(fed.digest(), by_hand.digest());
}

TEST(JobKeyTest, PrecedesOrdersByConfigHashThenBackendThenCounts) {
  const JobKey base = sample();
  for (const CountDim& dim : kCountDims) {
    SCOPED_TRACE(dim.name);
    JobKey larger = base;
    ++(larger.*dim.field);
    EXPECT_TRUE(base.precedes(larger));
    EXPECT_FALSE(larger.precedes(base));
  }
  JobKey edea = base;
  edea.backend = "edea";
  edea.batch = 99;  // the backend decides before any count
  EXPECT_TRUE(edea.precedes(base));
  EXPECT_FALSE(base.precedes(base));
}

TEST(JobKeyTest, EncodeDecodeRoundTripsExactly) {
  const JobKey key = sample();
  util::ByteWriter w;
  key.encode(w);
  util::ByteReader r(std::string_view(w.buffer().data(), w.buffer().size()));
  EXPECT_EQ(JobKey::decode(r, "test.cache"), key);
  EXPECT_TRUE(r.exhausted());
}

TEST(JobKeyTest, DecodeRejectsKeysThatCouldNeverBeServed) {
  const auto decode_of = [](const JobKey& key) {
    util::ByteWriter w;
    key.encode(w);
    util::ByteReader r(std::string_view(w.buffer().data(), w.buffer().size()));
    return JobKey::decode(r, "test.cache");
  };
  JobKey unknown = sample();
  unknown.backend = "warp-drive";
  EXPECT_THROW((void)decode_of(unknown), PreconditionError);
  for (const CountDim& dim : kCountDims) {
    SCOPED_TRACE(dim.name);
    JobKey zero = sample();
    zero.*dim.field = 0;
    EXPECT_THROW((void)decode_of(zero), PreconditionError);
  }
}

TEST(JobKeyTest, ValidateNamesTheOwnerAndTheField) {
  JobKey key;
  key.dilation = 0;
  try {
    key.validate("sweep job", "net@1");
    FAIL() << "dilation 0 must be rejected";
  } catch (const PreconditionError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("sweep job 'net@1': dilation must be >= 1, got 0"),
              std::string::npos)
        << what;
  }
  EXPECT_NO_THROW(JobKey().validate("defaults"));
}

}  // namespace
}  // namespace edea::core
