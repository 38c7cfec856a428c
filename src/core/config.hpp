// config.hpp - static configuration of the EDEA accelerator.
//
// The paper's silicon fixes Tn=Tm=2, Td=8, Tk=16 (the Case-6/La winner of
// the design space exploration), 3x3 DWC kernels, a 9-cycle pipeline
// initiation, and a 1 GHz clock. The struct keeps every one of these a
// named, validated parameter so the scaling study (Sec. III-B: "PE arrays
// are friendly to scaling") can vary them.
#pragma once

#include <charconv>
#include <cstdint>
#include <string>
#include <utility>

#include "util/binary.hpp"
#include "util/check.hpp"
#include "util/hash.hpp"

namespace edea::core {

struct EdeaConfig {
  // --- dataflow tile sizes (Table I / Table II nomenclature) ---
  int tn = 2;   ///< output tile rows per engine step
  int tm = 2;   ///< output tile cols per engine step
  int td = 8;   ///< input channels per slice (DWC parallel channels)
  int tk = 16;  ///< PWC kernels per group
  int kernel = 3;  ///< DWC kernel extent (H = W)

  // --- pipeline / buffering ---
  int init_cycles = 9;     ///< Fig. 7 initiation interval
  int max_tile_out = 8;    ///< ifmap buffer sized for an 8x8 output tile
  double clock_ghz = 1.0;  ///< TT corner, 0.8 V

  /// The canonical configuration of the fabricated accelerator.
  [[nodiscard]] static EdeaConfig paper() { return EdeaConfig{}; }

  /// Throws PreconditionError unless every field is in range. The upper
  /// bounds (Tn, Tm <= 16; Td, Tk <= 256; kernel <= 15; max_tile_out <=
  /// 128; init_cycles <= 65536) lie far above any design the paper
  /// explores, and keep every int the config, tiler, timing model and
  /// engines form from them - Td x kernel^2 x Tn x Tm, the ifmap tile
  /// extent - inside int range, so an out-of-range design point fails
  /// here, before anything multiplies it.
  void validate() const {
    EDEA_REQUIRE(tn > 0 && tm > 0 && td > 0 && tk > 0, "tile sizes positive");
    EDEA_REQUIRE(tn <= 16 && tm <= 16, "Tn and Tm must be <= 16");
    EDEA_REQUIRE(td <= 256 && tk <= 256, "Td and Tk must be <= 256");
    EDEA_REQUIRE(kernel > 0 && kernel % 2 == 1, "kernel must be odd");
    EDEA_REQUIRE(kernel <= 15, "kernel must be <= 15");
    EDEA_REQUIRE(init_cycles >= 0, "initiation cycles non-negative");
    EDEA_REQUIRE(init_cycles <= 65536, "initiation cycles must be <= 65536");
    EDEA_REQUIRE(max_tile_out >= tn && max_tile_out >= tm,
                 "buffer tile must hold at least one engine step");
    EDEA_REQUIRE(max_tile_out <= 128, "buffer tile must be <= 128");
    EDEA_REQUIRE(max_tile_out % tn == 0 && max_tile_out % tm == 0,
                 "buffer tile must be a whole number of engine steps");
    EDEA_REQUIRE(clock_ghz > 0.0, "clock must be positive");
  }

  /// validate(), then this configuration: for member initializers that
  /// build engines from it.
  [[nodiscard]] const EdeaConfig& validated() const {
    validate();
    return *this;
  }

  // --- derived structural quantities (Fig. 5) ---

  /// DWC engine multiplier count: Td x H x W x Tn x Tm (= 288 in the paper).
  [[nodiscard]] int dwc_mac_count() const noexcept {
    return td * kernel * kernel * tn * tm;
  }

  /// PWC engine multiplier count: Td x Tk x Tn x Tm (= 512 in the paper).
  [[nodiscard]] int pwc_mac_count() const noexcept { return td * tk * tn * tm; }

  /// Total PE (multiplier) count (= 800 in the paper, Table III).
  [[nodiscard]] int total_mac_count() const noexcept {
    return dwc_mac_count() + pwc_mac_count();
  }

  /// Input rows (or cols) the DWC reads for `outputs` output rows (or
  /// cols) at `stride` with kernel taps spaced `dilation` apart:
  /// (outputs-1)*stride + (kernel-1)*dilation + 1.
  [[nodiscard]] int dwc_input_extent(int outputs, int stride,
                                     int dilation = 1) const noexcept {
    return (outputs - 1) * stride + (kernel - 1) * dilation + 1;
  }

  /// Input window extent the DWC engine consumes for one step (Tn
  /// outputs). Paper (dilation 1): 4x4 at stride 1, 5x5 at stride 2.
  [[nodiscard]] int dwc_window_extent(int stride, int dilation = 1) const
      noexcept {
    return dwc_input_extent(tn, stride, dilation);
  }

  /// Input region extent backing a full buffer tile at `stride`.
  [[nodiscard]] int ifmap_tile_extent(int stride) const noexcept {
    return dwc_input_extent(max_tile_out, stride);
  }

  /// Largest output-tile extent whose input region still fits the (fixed,
  /// dilation-1-sized) DWC ifmap buffer at this stride/dilation. Dilation
  /// inflates the input halo of a tile, so dilated layers shrink the tile
  /// rather than growing silicon: both the Tiler and the TimingModel step
  /// by this value (they must agree - run_layer asserts cycle-exactness).
  /// Returns 0 when even a 1x1 output tile overflows the buffer (the
  /// dilation is infeasible on this configuration).
  [[nodiscard]] int effective_max_tile_out(int stride, int dilation) const
      noexcept {
    const std::int64_t capacity = dwc_ifmap_buffer_bytes();
    for (int t = max_tile_out; t > 0; --t) {
      const std::int64_t extent = dwc_input_extent(t, stride, dilation);
      if (extent * extent * td <= capacity) return t;
    }
    return 0;
  }

  // --- buffer capacities in bytes (Fig. 4 instances) ---

  /// DWC ifmap buffer: worst-case input region (stride 2) x Td channels.
  [[nodiscard]] std::int64_t dwc_ifmap_buffer_bytes() const noexcept {
    const int extent = ifmap_tile_extent(/*stride=*/2);
    return std::int64_t{1} * extent * extent * td;
  }

  /// DWC weight buffer: one kernel slice (3x3xTd), double buffered.
  [[nodiscard]] std::int64_t dwc_weight_buffer_bytes() const noexcept {
    return std::int64_t{2} * kernel * kernel * td;
  }

  /// Offline buffer: Non-Conv (k, b) pairs for one slice (Td channels),
  /// 3 bytes each (24-bit), double buffered.
  [[nodiscard]] std::int64_t offline_buffer_bytes() const noexcept {
    return std::int64_t{2} * td * 6;
  }

  /// Intermediate buffer: one Tn x Tm x Td int8 tile, double buffered
  /// (DWC fills one half while PWC drains the other - the direct-transfer
  /// mechanism of the paper's title).
  [[nodiscard]] std::int64_t intermediate_buffer_bytes() const noexcept {
    return std::int64_t{2} * tn * tm * td;
  }

  /// PWC weight buffer: one slice's weights for every kernel (Td x K_max).
  [[nodiscard]] std::int64_t pwc_weight_buffer_bytes(
      int max_out_channels = 1024) const noexcept {
    return std::int64_t{1} * td * max_out_channels;
  }

  /// PWC accumulator: 32-bit partial sums for one buffer tile's ofmap.
  /// Worst case over MobileNetV1: 8x8 spatial x 256 kernels (= layer 3/4).
  [[nodiscard]] std::int64_t accumulator_buffer_bytes(
      int max_psum_entries = 16384) const noexcept {
    return std::int64_t{4} * max_psum_entries;
  }

  /// "EdeaConfig{Tn=2,Tm=2,Td=8,Tk=16,k=3,init=9,tile=8,clk=1GHz}". The
  /// clock prints as an ostream prints a double by default, %g with six
  /// significant digits: "1", "0.8", "1e-07".
  [[nodiscard]] std::string to_string() const {
    std::string out;
    out.reserve(80);
    append_to(out);
    return out;
  }

  /// Appends to_string() to `out`, for callers that render a line around
  /// it.
  void append_to(std::string& out) const {
    const std::pair<const char*, int> fields[] = {
        {"EdeaConfig{Tn=", tn},     {",Tm=", tm},
        {",Td=", td},               {",Tk=", tk},
        {",k=", kernel},            {",init=", init_cycles},
        {",tile=", max_tile_out}};
    char buf[32];  // "-1.23457e+308" or an int, with room to spare
    for (const auto& [label, value] : fields) {
      out += label;
      out.append(buf, std::to_chars(buf, buf + sizeof buf, value).ptr);
    }
    out += ",clk=";
    out.append(buf, std::to_chars(buf, buf + sizeof buf, clock_ghz,
                                  std::chars_format::general, 6)
                        .ptr);
    out += "GHz}";
  }

  /// Two configurations are equal iff every parameter matches; the
  /// simulation service relies on this as the exact (collision-free) part
  /// of its cache key.
  friend bool operator==(const EdeaConfig&, const EdeaConfig&) = default;

  /// Binary encoding used by the simulation service's persisted result
  /// cache: every parameter, field by field, in declaration order (the
  /// same fields operator== and hash() consume).
  void encode(util::ByteWriter& w) const {
    w.pod(tn);
    w.pod(tm);
    w.pod(td);
    w.pod(tk);
    w.pod(kernel);
    w.pod(init_cycles);
    w.pod(max_tile_out);
    w.pod(clock_ghz);
  }
  [[nodiscard]] static EdeaConfig decode(util::ByteReader& r) {
    EdeaConfig c;
    c.tn = r.pod<int>();
    c.tm = r.pod<int>();
    c.td = r.pod<int>();
    c.tk = r.pod<int>();
    c.kernel = r.pod<int>();
    c.init_cycles = r.pod<int>();
    c.max_tile_out = r.pod<int>();
    c.clock_ghz = r.pod<double>();
    return c;
  }

  /// Deterministic content hash over every parameter, consistent with
  /// operator== (required by hash-map users of the pair). Fields are fed
  /// individually (never the whole struct) so padding bytes between the
  /// int block and `clock_ghz` can't leak into the digest; -0.0
  /// canonicalizes to 0.0 because the two compare equal.
  [[nodiscard]] std::uint64_t hash() const noexcept {
    util::Fnv1a64 h;
    h.pod(tn).pod(tm).pod(td).pod(tk).pod(kernel);
    h.pod(init_cycles).pod(max_tile_out);
    h.pod(clock_ghz == 0.0 ? 0.0 : clock_ghz);
    return h.digest();
  }
};

}  // namespace edea::core
