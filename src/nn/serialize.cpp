#include "nn/serialize.hpp"

#include <cstring>
#include <fstream>
#include <istream>
#include <limits>
#include <ostream>

#include "util/check.hpp"

namespace edea::nn {

namespace {

// --- little-endian primitive IO -------------------------------------------

void write_u32(std::ostream& os, std::uint32_t v) {
  unsigned char b[4] = {static_cast<unsigned char>(v & 0xFF),
                        static_cast<unsigned char>((v >> 8) & 0xFF),
                        static_cast<unsigned char>((v >> 16) & 0xFF),
                        static_cast<unsigned char>((v >> 24) & 0xFF)};
  os.write(reinterpret_cast<const char*>(b), 4);
}

void write_i32(std::ostream& os, std::int32_t v) {
  write_u32(os, static_cast<std::uint32_t>(v));
}

void write_f32(std::ostream& os, float v) {
  static_assert(sizeof(float) == 4);
  std::uint32_t bits;
  std::memcpy(&bits, &v, 4);
  write_u32(os, bits);
}

std::uint32_t read_u32(std::istream& is) {
  unsigned char b[4];
  is.read(reinterpret_cast<char*>(b), 4);
  EDEA_REQUIRE(is.good(), "truncated model stream");
  return static_cast<std::uint32_t>(b[0]) |
         (static_cast<std::uint32_t>(b[1]) << 8) |
         (static_cast<std::uint32_t>(b[2]) << 16) |
         (static_cast<std::uint32_t>(b[3]) << 24);
}

std::int32_t read_i32(std::istream& is) {
  return static_cast<std::int32_t>(read_u32(is));
}

float read_f32(std::istream& is) {
  const std::uint32_t bits = read_u32(is);
  float v;
  std::memcpy(&v, &bits, 4);
  return v;
}

void write_int8_block(std::ostream& os, const Int8Tensor& t) {
  write_u32(os, static_cast<std::uint32_t>(t.size()));
  os.write(reinterpret_cast<const char*>(t.data()),
           static_cast<std::streamsize>(t.size()));
}

void read_int8_block(std::istream& is, Int8Tensor& t) {
  const std::uint32_t n = read_u32(is);
  EDEA_REQUIRE(n == t.size(), "weight block size mismatch in model stream");
  is.read(reinterpret_cast<char*>(t.data()),
          static_cast<std::streamsize>(n));
  EDEA_REQUIRE(is.good(), "truncated weight block in model stream");
}

void write_nonconv(std::ostream& os, const NonConvParams& p) {
  write_u32(os, static_cast<std::uint32_t>(p.channel_count()));
  for (std::size_t c = 0; c < p.channel_count(); ++c) {
    write_i32(os, p.channels[c].k.raw());
    write_i32(os, p.channels[c].b.raw());
    write_f32(os, p.k_float[c]);
    write_f32(os, p.b_float[c]);
  }
}

NonConvParams read_nonconv(std::istream& is, int expected_channels) {
  const std::uint32_t n = read_u32(is);
  EDEA_REQUIRE(n == static_cast<std::uint32_t>(expected_channels),
               "Non-Conv channel count mismatch in model stream");
  NonConvParams p;
  p.channels.reserve(n);
  p.k_float.reserve(n);
  p.b_float.reserve(n);
  for (std::uint32_t c = 0; c < n; ++c) {
    // from_raw validates the 24-bit envelope - corrupt streams throw here.
    const arch::Q8_16 k = arch::Q8_16::from_raw(read_i32(is));
    const arch::Q8_16 b = arch::Q8_16::from_raw(read_i32(is));
    p.channels.push_back(NonConvChannelParams{k, b});
    p.k_float.push_back(read_f32(is));
    p.b_float.push_back(read_f32(is));
  }
  return p;
}

}  // namespace

void save_network(std::ostream& os,
                  const std::vector<QuantDscLayer>& layers) {
  EDEA_REQUIRE(!layers.empty(), "cannot serialize an empty network");
  write_u32(os, kModelMagic);
  write_u32(os, kModelVersion);
  write_u32(os, static_cast<std::uint32_t>(layers.size()));
  for (const QuantDscLayer& l : layers) {
    const DscLayerSpec& s = l.spec;
    write_i32(os, s.index);
    write_i32(os, s.in_rows);
    write_i32(os, s.in_cols);
    write_i32(os, s.in_channels);
    write_i32(os, s.stride);
    write_i32(os, s.out_channels);
    write_i32(os, s.kernel);
    write_i32(os, s.padding);
    write_i32(os, s.dilation);
    write_i32(os, s.depth_multiplier);
    write_f32(os, l.input_scale.scale);
    write_f32(os, l.intermediate_scale.scale);
    write_f32(os, l.output_scale.scale);
    write_int8_block(os, l.dwc_weights);
    write_int8_block(os, l.pwc_weights);
    write_nonconv(os, l.nonconv1);
    write_nonconv(os, l.nonconv2);
  }
  EDEA_REQUIRE(os.good(), "stream error while writing model");
}

std::vector<QuantDscLayer> load_network(std::istream& is) {
  EDEA_REQUIRE(read_u32(is) == kModelMagic, "not an EDEA model stream");
  EDEA_REQUIRE(read_u32(is) == kModelVersion,
               "unsupported EDEA model version");
  const std::uint32_t count = read_u32(is);
  EDEA_REQUIRE(count > 0 && count < 4096,
               "implausible layer count in model stream");

  std::vector<QuantDscLayer> layers;
  layers.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    QuantDscLayer l;
    DscLayerSpec& s = l.spec;
    s.index = read_i32(is);
    s.in_rows = read_i32(is);
    s.in_cols = read_i32(is);
    s.in_channels = read_i32(is);
    s.stride = read_i32(is);
    s.out_channels = read_i32(is);
    s.kernel = read_i32(is);
    s.padding = read_i32(is);
    s.dilation = read_i32(is);
    s.depth_multiplier = read_i32(is);
    EDEA_REQUIRE(s.in_rows > 0 && s.in_cols > 0 && s.in_channels > 0 &&
                     s.out_channels > 0 && (s.stride == 1 || s.stride == 2) &&
                     s.kernel > 0 && s.padding >= 0 && s.dilation >= 1 &&
                     s.depth_multiplier >= 1 &&
                     std::int64_t{s.in_channels} * s.depth_multiplier <=
                         std::numeric_limits<int>::max(),
                 "invalid layer geometry in model stream");
    l.input_scale.scale = read_f32(is);
    l.intermediate_scale.scale = read_f32(is);
    l.output_scale.scale = read_f32(is);
    EDEA_REQUIRE(l.input_scale.scale > 0 && l.intermediate_scale.scale > 0 &&
                     l.output_scale.scale > 0,
                 "non-positive scale in model stream");
    l.dwc_weights =
        Int8Tensor(Shape{s.kernel, s.kernel, s.intermediate_channels()});
    l.pwc_weights =
        Int8Tensor(Shape{s.out_channels, s.intermediate_channels()});
    read_int8_block(is, l.dwc_weights);
    read_int8_block(is, l.pwc_weights);
    l.nonconv1 = read_nonconv(is, s.intermediate_channels());
    l.nonconv2 = read_nonconv(is, s.out_channels);
    layers.push_back(std::move(l));
  }
  return layers;
}

void save_network_file(const std::string& path,
                       const std::vector<QuantDscLayer>& layers) {
  std::ofstream os(path, std::ios::binary);
  EDEA_REQUIRE(os.is_open(), "cannot open '" + path + "' for writing");
  save_network(os, layers);
}

std::vector<QuantDscLayer> load_network_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  EDEA_REQUIRE(is.is_open(), "cannot open '" + path + "' for reading");
  return load_network(is);
}

std::int64_t serialized_size(const std::vector<QuantDscLayer>& layers) {
  std::int64_t bytes = 12;  // magic + version + count
  for (const QuantDscLayer& l : layers) {
    bytes += 10 * 4 + 3 * 4;  // spec fields + scales
    bytes += 4 + static_cast<std::int64_t>(l.dwc_weights.size());
    bytes += 4 + static_cast<std::int64_t>(l.pwc_weights.size());
    bytes += 4 + 16 * static_cast<std::int64_t>(l.nonconv1.channel_count());
    bytes += 4 + 16 * static_cast<std::int64_t>(l.nonconv2.channel_count());
  }
  return bytes;
}

}  // namespace edea::nn
