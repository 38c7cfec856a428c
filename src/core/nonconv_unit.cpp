#include "core/nonconv_unit.hpp"

#include "util/check.hpp"

namespace edea::core {

void NonConvUnitArray::apply_block(
    std::span<const std::int32_t> acc,
    std::span<const nn::NonConvChannelParams> params, int channels,
    std::span<std::int8_t> out) {
  EDEA_REQUIRE(channels > 0, "channel count must be positive");
  EDEA_REQUIRE(acc.size() == out.size(), "accumulator/output size mismatch");
  EDEA_REQUIRE(acc.size() % static_cast<std::size_t>(channels) == 0,
               "block size must be a whole number of channel groups");
  EDEA_REQUIRE(params.size() >= static_cast<std::size_t>(channels),
               "missing Non-Conv parameters for some channels");

  // [pixel][channel]: channel ch of every pixel uses params[ch].
  const auto width = static_cast<std::size_t>(channels);
  for (std::size_t pixel = 0; pixel < acc.size(); pixel += width) {
    for (std::size_t ch = 0; ch < width; ++ch) {
      out[pixel + ch] = params[ch].apply(acc[pixel + ch]);
    }
  }

  const auto ops = static_cast<std::int64_t>(acc.size());
  if (writeback_) {
    writeback_ops_ += ops;
  } else {
    transfer_ops_ += ops;
  }
}

}  // namespace edea::core
