// serialize.hpp - binary serialization of quantized DSC networks.
//
// Deployment path for the library: a quantized network (weights, scales,
// folded Non-Conv parameters) is frozen once and shipped to the
// accelerator as a flat parameter blob - mirroring how the silicon's
// offline buffer contents are produced. The format is a simple
// little-endian TLV container with a magic/version header and per-layer
// records; integrity is guarded by explicit length checks (a truncated or
// corrupted stream throws, never yields a half-loaded network).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "nn/layers.hpp"

namespace edea::nn {

inline constexpr std::uint32_t kModelMagic = 0x45444541;  // "EDEA"
/// Version 2 added each layer's DWC dilation and depth multiplier.
inline constexpr std::uint32_t kModelVersion = 2;

/// Writes a stack of quantized DSC layers to a binary stream.
void save_network(std::ostream& os, const std::vector<QuantDscLayer>& layers);

/// Reads a stack of quantized DSC layers from a binary stream. Throws
/// PreconditionError on malformed input (bad magic, version, truncation,
/// or out-of-range parameters).
[[nodiscard]] std::vector<QuantDscLayer> load_network(std::istream& is);

/// Convenience file-path wrappers.
void save_network_file(const std::string& path,
                       const std::vector<QuantDscLayer>& layers);
[[nodiscard]] std::vector<QuantDscLayer> load_network_file(
    const std::string& path);

/// Size in bytes the serialized form of `layers` will occupy.
[[nodiscard]] std::int64_t serialized_size(
    const std::vector<QuantDscLayer>& layers);

}  // namespace edea::nn
