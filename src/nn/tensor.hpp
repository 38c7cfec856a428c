// tensor.hpp - dense row-major tensors (rank 1..4) for the NN substrate.
//
// Feature maps use HWC layout ([row][col][channel]), depthwise kernels
// [kh][kw][channel], pointwise kernels [out_channel][in_channel], and
// standard-conv kernels [out_channel][kh][kw][in_channel]. Rank is bounded
// at 4 so indexing stays branch-light in convolution inner loops.
#pragma once

#include <array>
#include <cstdint>
#include <numeric>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "util/check.hpp"

namespace edea::nn {

/// Shape of a tensor: up to 4 extents. Value type, comparable, printable.
class Shape {
 public:
  Shape() = default;

  Shape(std::initializer_list<int> dims) {
    EDEA_REQUIRE(dims.size() >= 1 && dims.size() <= 4,
                 "tensor rank must be in [1, 4]");
    rank_ = dims.size();
    std::size_t i = 0;
    for (const int d : dims) {
      EDEA_REQUIRE(d > 0, "tensor extents must be positive");
      dims_[i++] = d;
    }
  }

  [[nodiscard]] std::size_t rank() const noexcept { return rank_; }

  [[nodiscard]] int operator[](std::size_t axis) const {
    EDEA_REQUIRE(axis < rank_, "shape axis out of range");
    return dims_[axis];
  }

  /// Total number of elements.
  ///
  /// Rank-0 semantics (pinned, do not change casually): a
  /// default-constructed Shape has rank 0 and volume() == 0, NOT the
  /// mathematical empty product 1. Throughout the codebase a rank-0 shape
  /// means "no tensor" - Tensor(Shape{}) must allocate nothing, empty()
  /// must be true, and the memory planner (nn/arena.hpp) must size a
  /// rank-0 blob at zero bytes. Since rank >= 1 shapes require strictly
  /// positive extents, volume() == 0 holds exactly for the rank-0 shape.
  [[nodiscard]] std::size_t volume() const noexcept {
    std::size_t v = 1;
    for (std::size_t i = 0; i < rank_; ++i) {
      v *= static_cast<std::size_t>(dims_[i]);
    }
    return rank_ == 0 ? 0 : v;
  }

  friend bool operator==(const Shape& a, const Shape& b) noexcept {
    if (a.rank_ != b.rank_) return false;
    for (std::size_t i = 0; i < a.rank_; ++i) {
      if (a.dims_[i] != b.dims_[i]) return false;
    }
    return true;
  }
  friend bool operator!=(const Shape& a, const Shape& b) noexcept {
    return !(a == b);
  }

  [[nodiscard]] std::string to_string() const {
    std::string s = "[";
    for (std::size_t i = 0; i < rank_; ++i) {
      if (i != 0) s += "x";
      s += std::to_string(dims_[i]);
    }
    return s + "]";
  }

 private:
  std::array<int, 4> dims_ = {0, 0, 0, 0};
  std::size_t rank_ = 0;
};

inline std::ostream& operator<<(std::ostream& os, const Shape& s) {
  return os << s.to_string();
}

/// Dense row-major tensor. T is float (reference model), std::int8_t
/// (quantized operands) or std::int32_t (accumulators). A tensor owns its
/// elements in one std::vector sized by the shape, so copies are deep and
/// moves hand the buffer over.
template <typename T>
class Tensor {
 public:
  Tensor() = default;

  explicit Tensor(Shape shape) : shape_(shape), data_(shape.volume(), T{}) {
    compute_strides();
  }

  Tensor(Shape shape, T fill_value)
      : shape_(shape), data_(shape.volume(), fill_value) {
    compute_strides();
  }

  [[nodiscard]] const Shape& shape() const noexcept { return shape_; }
  [[nodiscard]] std::size_t rank() const noexcept { return shape_.rank(); }
  [[nodiscard]] int dim(std::size_t axis) const { return shape_[axis]; }
  [[nodiscard]] std::size_t size() const noexcept { return data_.size(); }
  [[nodiscard]] bool empty() const noexcept { return data_.empty(); }

  [[nodiscard]] T* data() noexcept { return data_.data(); }
  [[nodiscard]] const T* data() const noexcept { return data_.data(); }

  [[nodiscard]] std::vector<T>& storage() noexcept { return data_; }
  [[nodiscard]] const std::vector<T>& storage() const noexcept {
    return data_;
  }

  // Unchecked fast-path indexing (used by inner loops). Callers are expected
  // to iterate within the shape; the checked at() variants validate.
  [[nodiscard]] T& operator()(int i) noexcept {
    return data_[static_cast<std::size_t>(i)];
  }
  [[nodiscard]] const T& operator()(int i) const noexcept {
    return data_[static_cast<std::size_t>(i)];
  }
  [[nodiscard]] T& operator()(int i, int j) noexcept {
    return data_[offset(i, j)];
  }
  [[nodiscard]] const T& operator()(int i, int j) const noexcept {
    return data_[offset(i, j)];
  }
  [[nodiscard]] T& operator()(int i, int j, int k) noexcept {
    return data_[offset(i, j, k)];
  }
  [[nodiscard]] const T& operator()(int i, int j, int k) const noexcept {
    return data_[offset(i, j, k)];
  }
  [[nodiscard]] T& operator()(int i, int j, int k, int l) noexcept {
    return data_[offset(i, j, k, l)];
  }
  [[nodiscard]] const T& operator()(int i, int j, int k, int l) const noexcept {
    return data_[offset(i, j, k, l)];
  }

  /// Bounds-checked element access (throws PreconditionError).
  [[nodiscard]] T& at(int i, int j, int k) {
    check_index(0, i);
    check_index(1, j);
    check_index(2, k);
    return (*this)(i, j, k);
  }
  [[nodiscard]] const T& at(int i, int j, int k) const {
    check_index(0, i);
    check_index(1, j);
    check_index(2, k);
    return (*this)(i, j, k);
  }

  [[nodiscard]] std::size_t offset(int i, int j) const noexcept {
    return static_cast<std::size_t>(i) * strides_[0] +
           static_cast<std::size_t>(j);
  }
  [[nodiscard]] std::size_t offset(int i, int j, int k) const noexcept {
    return static_cast<std::size_t>(i) * strides_[0] +
           static_cast<std::size_t>(j) * strides_[1] +
           static_cast<std::size_t>(k);
  }
  [[nodiscard]] std::size_t offset(int i, int j, int k, int l) const noexcept {
    return static_cast<std::size_t>(i) * strides_[0] +
           static_cast<std::size_t>(j) * strides_[1] +
           static_cast<std::size_t>(k) * strides_[2] +
           static_cast<std::size_t>(l);
  }

  /// Applies fn to every element in place.
  template <typename Fn>
  void transform(Fn&& fn) {
    for (T& v : data_) v = fn(v);
  }

  /// Fraction of elements equal to zero. Core metric for Fig. 11.
  [[nodiscard]] double zero_fraction() const {
    if (data_.empty()) return 0.0;
    std::size_t zeros = 0;
    for (const T v : data_) {
      if (v == T{}) ++zeros;
    }
    return static_cast<double>(zeros) / static_cast<double>(data_.size());
  }

  /// Equality compares shape and elements.
  friend bool operator==(const Tensor& a, const Tensor& b) {
    return a.shape_ == b.shape_ && a.data_ == b.data_;
  }
  friend bool operator!=(const Tensor& a, const Tensor& b) {
    return !(a == b);
  }

 private:
  void compute_strides() {
    const std::size_t r = shape_.rank();
    std::size_t acc = 1;
    for (std::size_t axis = r; axis-- > 1;) {
      acc *= static_cast<std::size_t>(shape_[axis]);
      strides_[axis - 1] = acc;
    }
  }

  void check_index(std::size_t axis, int idx) const {
    EDEA_REQUIRE(axis < shape_.rank() && idx >= 0 && idx < shape_[axis],
                 "tensor index out of bounds");
  }

  Shape shape_;
  std::array<std::size_t, 3> strides_ = {0, 0, 0};
  std::vector<T> data_;
};

using FloatTensor = Tensor<float>;
using Int8Tensor = Tensor<std::int8_t>;
using Int32Tensor = Tensor<std::int32_t>;

/// Maximum absolute value of a tensor (0 for empty tensors).
template <typename T>
[[nodiscard]] double max_abs(const Tensor<T>& t) {
  double m = 0.0;
  const T* p = t.data();
  for (std::size_t i = 0; i < t.size(); ++i) {
    const double a = std::abs(static_cast<double>(p[i]));
    if (a > m) m = a;
  }
  return m;
}

}  // namespace edea::nn
