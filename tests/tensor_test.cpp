// Tests for the dense tensor substrate (src/nn/tensor.hpp).
#include <gtest/gtest.h>

#include <cstdint>
#include <utility>

#include "nn/tensor.hpp"
#include "util/check.hpp"

namespace edea::nn {
namespace {

TEST(Shape, BasicProperties) {
  const Shape s{4, 5, 6};
  EXPECT_EQ(s.rank(), 3u);
  EXPECT_EQ(s[0], 4);
  EXPECT_EQ(s[1], 5);
  EXPECT_EQ(s[2], 6);
  EXPECT_EQ(s.volume(), 120u);
  EXPECT_EQ(s.to_string(), "[4x5x6]");
}

TEST(Shape, Equality) {
  EXPECT_EQ((Shape{2, 3}), (Shape{2, 3}));
  EXPECT_NE((Shape{2, 3}), (Shape{3, 2}));
  EXPECT_NE((Shape{2, 3}), (Shape{2, 3, 1}));
}

TEST(Shape, Rank0VolumeIsZeroByContract) {
  // Pinned semantics (see tensor.hpp): rank 0 means "no tensor", so its
  // volume is 0, not the mathematical empty product 1 - Tensor(Shape{})
  // must allocate nothing and the memory planner sizes it at zero bytes.
  const Shape none;
  EXPECT_EQ(none.rank(), 0u);
  EXPECT_EQ(none.volume(), 0u);
  EXPECT_TRUE(Int8Tensor(none).empty());
  // Since rank >= 1 extents are strictly positive, volume() == 0 uniquely
  // identifies the rank-0 shape.
  EXPECT_GT((Shape{1}).volume(), 0u);
}

TEST(Shape, Rank4VolumeAndEquality) {
  const Shape s{2, 3, 4, 5};
  EXPECT_EQ(s.rank(), 4u);
  EXPECT_EQ(s.volume(), 120u);
  EXPECT_EQ(s, (Shape{2, 3, 4, 5}));
  EXPECT_NE(s, (Shape{2, 3, 4}));
  EXPECT_NE(s, (Shape{5, 4, 3, 2}));
  // Rank-0 equals itself and differs from every ranked shape.
  EXPECT_EQ(Shape{}, Shape{});
  EXPECT_NE(Shape{}, (Shape{1}));
}

TEST(Shape, RejectsInvalidExtents) {
  EXPECT_THROW(Shape({0, 1}), PreconditionError);
  EXPECT_THROW(Shape({-1}), PreconditionError);
}

TEST(Shape, AxisOutOfRangeThrows) {
  const Shape s{2, 2};
  EXPECT_THROW((void)s[2], PreconditionError);
}

TEST(Tensor, DefaultIsEmpty) {
  const FloatTensor t;
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.size(), 0u);
}

TEST(Tensor, ZeroInitialized) {
  const Int8Tensor t(Shape{3, 3, 3});
  for (const auto v : t.storage()) EXPECT_EQ(v, 0);
}

TEST(Tensor, FillValueConstructor) {
  const FloatTensor t(Shape{2, 2}, 1.5f);
  for (const auto v : t.storage()) EXPECT_FLOAT_EQ(v, 1.5f);
}

TEST(Tensor, RowMajorIndexing3D) {
  Int32Tensor t(Shape{2, 3, 4});
  std::int32_t counter = 0;
  for (int i = 0; i < 2; ++i) {
    for (int j = 0; j < 3; ++j) {
      for (int k = 0; k < 4; ++k) {
        t(i, j, k) = counter++;
      }
    }
  }
  // Row-major means storage order equals iteration order above.
  for (std::size_t i = 0; i < t.size(); ++i) {
    EXPECT_EQ(t.storage()[i], static_cast<std::int32_t>(i));
  }
  EXPECT_EQ(t(1, 2, 3), 23);
  EXPECT_EQ(t.offset(1, 0, 0), 12u);
}

TEST(Tensor, RowMajorIndexing4D) {
  FloatTensor t(Shape{2, 2, 2, 2});
  t(1, 1, 1, 1) = 7.0f;
  EXPECT_FLOAT_EQ(t.storage()[15], 7.0f);
  t(0, 1, 0, 1) = 3.0f;
  EXPECT_FLOAT_EQ(t.storage()[5], 3.0f);
}

TEST(Tensor, CheckedAccessThrows) {
  Int8Tensor t(Shape{2, 2, 2});
  EXPECT_NO_THROW((void)t.at(1, 1, 1));
  EXPECT_THROW((void)t.at(2, 0, 0), PreconditionError);
  EXPECT_THROW((void)t.at(0, -1, 0), PreconditionError);
}

TEST(Tensor, TransformAppliesElementwise) {
  FloatTensor t(Shape{4}, 2.0f);
  t.transform([](float v) { return v * v; });
  for (const auto v : t.storage()) EXPECT_FLOAT_EQ(v, 4.0f);
}

TEST(Tensor, ZeroFraction) {
  Int8Tensor t(Shape{10});
  for (int i = 0; i < 4; ++i) t(i) = 1;
  EXPECT_DOUBLE_EQ(t.zero_fraction(), 0.6);
  const Int8Tensor empty;
  EXPECT_DOUBLE_EQ(empty.zero_fraction(), 0.0);
}

TEST(Tensor, EqualityComparesShapeAndData) {
  Int8Tensor a(Shape{2, 2, 1});
  Int8Tensor b(Shape{2, 2, 1});
  EXPECT_EQ(a, b);
  b(0, 0, 0) = 1;
  EXPECT_NE(a, b);
  const Int8Tensor c(Shape{4, 1, 1});
  EXPECT_NE(a, c);
}

TEST(Tensor, CopyIsDeep) {
  const Int8Tensor source(Shape{2, 3}, 3);
  Int8Tensor copy = source;  // NOLINT: the copy is the point
  EXPECT_NE(copy.data(), source.data());
  copy(0, 0) = 99;  // mutating the copy must not reach the source
  EXPECT_EQ(source(0, 0), 3);
  EXPECT_EQ(copy(0, 1), 3);

  Int8Tensor assigned;
  assigned = copy;
  EXPECT_NE(assigned.data(), copy.data());
  EXPECT_EQ(assigned, copy);
}

TEST(Tensor, MoveKeepsTheBuffer) {
  Int8Tensor owned(Shape{4}, 5);
  const std::int8_t* before = owned.data();
  Int8Tensor moved = std::move(owned);
  EXPECT_EQ(moved.data(), before);  // the vector's buffer survives the move
  EXPECT_EQ(moved.shape(), Shape{4});
  EXPECT_EQ(moved(2), 5);

  Int8Tensor assigned;
  assigned = std::move(moved);
  EXPECT_EQ(assigned.data(), before);
  EXPECT_EQ(assigned(3), 5);
}

TEST(Tensor, MaxAbs) {
  FloatTensor t(Shape{3});
  t(0) = -5.0f;
  t(1) = 2.0f;
  t(2) = 4.5f;
  EXPECT_DOUBLE_EQ(max_abs(t), 5.0);
  const FloatTensor empty;
  EXPECT_DOUBLE_EQ(max_abs(empty), 0.0);
}

}  // namespace
}  // namespace edea::nn
