// sram.hpp - on-chip SRAM buffer model.
//
// EDEA (Fig. 4) stages every operand an engine reads in an on-chip
// buffer: the DWC ifmap tile, the intermediate tile (double buffered - the
// direct transfer of the paper's title), the PWC weight slice and the PWC
// partial-sum accumulator. A SramBuffer models one of them over storage
// its owner provides (a tile worker's accumulator) and enforces its
// hard capacity: touching bytes past it is a ResourceError naming the
// buffer - the tiler exists precisely because layers do not fit.
//
// Access is by span, with one capacity check per staged row or block
// rather than per element. The buffer counts nothing itself: every access
// the simulator reports is tallied in bulk by the schedule that makes it
// (core::LayerPartial), where the number is a function of the dataflow.
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "util/check.hpp"

namespace edea::arch {

class SramBuffer {
 public:
  /// Models the buffer over `capacity_bytes` of storage at `backing`, which
  /// must be non-null and outlive the buffer.
  SramBuffer(std::string name, std::uint8_t* backing,
             std::int64_t capacity_bytes)
      : name_(std::move(name)), bytes_(backing), capacity_(capacity_bytes) {
    EDEA_REQUIRE(capacity_bytes > 0, "SRAM capacity must be positive");
    EDEA_REQUIRE(backing != nullptr,
                 "SRAM '" + name_ + "' needs backing storage");
  }

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] std::int64_t capacity() const noexcept { return capacity_; }

  /// `count` elements of T starting at element `index`, after one capacity
  /// check for the whole span.
  template <typename T>
  [[nodiscard]] std::span<T> span(std::int64_t index, std::int64_t count) {
    const auto size = static_cast<std::int64_t>(sizeof(T));
    const std::int64_t addr = index * size;
    if (index < 0 || count < 0 || addr + count * size > capacity_) {
      throw ResourceError("SRAM '" + name_ + "': out-of-range access at addr " +
                          std::to_string(addr) + " size " +
                          std::to_string(count * size) + " (capacity " +
                          std::to_string(capacity_) + ")");
    }
    return {reinterpret_cast<T*>(bytes_ + addr),
            static_cast<std::size_t>(count)};
  }

 private:
  std::string name_;
  std::uint8_t* bytes_ = nullptr;
  std::int64_t capacity_ = 0;
};

}  // namespace edea::arch
