// run_result.hpp - measurement records produced by accelerator runs.
// Shared by the EDEA accelerator (src/core) and the serialized baseline
// (src/baseline) so benches can tabulate them uniformly.
#pragma once

#include <cstdint>
#include <vector>

#include "arch/counters.hpp"
#include "arch/ext_memory.hpp"
#include "core/timing.hpp"
#include "nn/layers.hpp"
#include "nn/tensor.hpp"
#include "util/binary.hpp"
#include "util/hash.hpp"

namespace edea::core {

/// Access counters of the five on-chip buffers of Fig. 4 plus the PWC
/// accumulator. Element-granular (one count per int8/int32 element moved).
struct BufferAccessSnapshot {
  arch::AccessCounter dwc_ifmap;
  arch::AccessCounter dwc_weight;
  arch::AccessCounter offline;
  arch::AccessCounter intermediate;
  arch::AccessCounter pwc_weight;
  arch::AccessCounter accumulator;

  BufferAccessSnapshot& operator+=(const BufferAccessSnapshot& o) noexcept {
    dwc_ifmap += o.dwc_ifmap;
    dwc_weight += o.dwc_weight;
    offline += o.offline;
    intermediate += o.intermediate;
    pwc_weight += o.pwc_weight;
    accumulator += o.accumulator;
    return *this;
  }

  friend bool operator==(const BufferAccessSnapshot&,
                         const BufferAccessSnapshot&) = default;
};

/// Dataflow-level counters used to validate the Table II equations: these
/// count operand *consumptions* by the engines (a padded window position
/// counts even though the SRAM never stores padding).
struct DataflowCounters {
  std::int64_t dwc_window_elements = 0;  ///< Tr*Tc*Td per DWC step
  std::int64_t dwc_weight_elements = 0;  ///< kernel slice loads into engine
  std::int64_t pwc_activation_elements = 0;  ///< intermediate reads per group
  std::int64_t pwc_weight_elements = 0;      ///< external weight loads

  DataflowCounters& operator+=(const DataflowCounters& o) noexcept {
    dwc_window_elements += o.dwc_window_elements;
    dwc_weight_elements += o.dwc_weight_elements;
    pwc_activation_elements += o.pwc_activation_elements;
    pwc_weight_elements += o.pwc_weight_elements;
    return *this;
  }

  friend bool operator==(const DataflowCounters&, const DataflowCounters&) =
      default;
};

/// Every counter of one layer run - the mergeable base of a
/// LayerRunResult. EDEA's tile workers each tally their share of the
/// layer's buffer tiles in a private partial (writing output elements
/// straight into the shared, disjointly partitioned output tensor), and
/// the partials are reduced in tile order once all workers finish. Every
/// field is either an integer sum over passes or a max, so the reduction
/// is exact: a merged partial is bit-identical to the serial tally. The
/// datapath's own tallies (MAC activity, Non-Conv ops, the PWC-input zero
/// tally, max |psum|) come from DscDatapath::fold_tallies.
struct LayerPartial {
  LayerTiming timing;  ///< measured cycle counts (asserted == Eq. 1/2)
  BufferAccessSnapshot buffers;
  DataflowCounters dataflow;
  arch::ExternalMemory external;

  arch::MacActivity dwc_activity;
  arch::MacActivity pwc_activity;
  std::int64_t nonconv_transfer_ops = 0;
  std::int64_t nonconv_writeback_ops = 0;

  /// PWC-input sparsity tally (Fig. 11 numerator/denominator).
  std::int64_t pwc_input_zeros = 0;
  std::int64_t pwc_input_total = 0;

  /// Largest |partial sum| observed in the PWC accumulator. The silicon
  /// carries 24-bit accumulators (Fig. 6); this statistic validates that
  /// envelope on real data.
  std::int64_t max_abs_psum = 0;

  LayerPartial& operator+=(const LayerPartial& o) noexcept {
    timing += o.timing;
    buffers += o.buffers;
    dataflow += o.dataflow;
    external += o.external;
    dwc_activity += o.dwc_activity;
    pwc_activity += o.pwc_activity;
    nonconv_transfer_ops += o.nonconv_transfer_ops;
    nonconv_writeback_ops += o.nonconv_writeback_ops;
    pwc_input_zeros += o.pwc_input_zeros;
    pwc_input_total += o.pwc_input_total;
    if (o.max_abs_psum > max_abs_psum) max_abs_psum = o.max_abs_psum;
    return *this;
  }
  // No operator==: LayerRunResult derives from this struct, and a
  // comparison that ignored its output tensor would pass for one of it.
};

/// Everything measured while running one DSC layer: the counters of its
/// LayerPartial base, the spec, the output and the Fig. 11 fractions.
struct LayerRunResult : LayerPartial {
  nn::DscLayerSpec spec;
  nn::Int8Tensor output;

  /// Tensor-level input-activation zero fractions (Fig. 11 quantities).
  double dwc_input_zero_fraction = 0.0;
  double pwc_input_zero_fraction = 0.0;

  /// Sets pwc_input_zero_fraction from the pwc_input_zeros /
  /// pwc_input_total tally (0 when nothing was counted). Both backends
  /// call it once their tallies are in.
  void set_pwc_input_zero_fraction() noexcept {
    pwc_input_zero_fraction =
        pwc_input_total == 0 ? 0.0
                             : static_cast<double>(pwc_input_zeros) /
                                   static_cast<double>(pwc_input_total);
  }

  /// True iff every partial sum stayed within the signed 24-bit envelope.
  [[nodiscard]] bool within_24bit_accumulator() const noexcept {
    return max_abs_psum <= ((std::int64_t{1} << 23) - 1);
  }

  // --- derived metrics ---

  [[nodiscard]] double time_ns(double clock_ghz) const noexcept {
    return timing.time_ns(clock_ghz);
  }

  /// Layer throughput in GOPS (2 ops per MAC over the layer's nominal work).
  [[nodiscard]] double throughput_gops(double clock_ghz) const noexcept {
    return static_cast<double>(spec.total_ops()) / time_ns(clock_ghz);
  }

  /// Lane utilization of each engine over its *active* cycles; the paper's
  /// "100% PE utilization" claim is about exactly this quantity.
  [[nodiscard]] double dwc_lane_utilization() const noexcept {
    const auto active_lanes = dwc_activity.useful_macs;
    const auto offered =
        timing.dwc_active_cycles == 0
            ? std::int64_t{0}
            : dwc_activity.lane_cycles;
    return offered == 0 ? 0.0
                        : static_cast<double>(active_lanes) /
                              static_cast<double>(offered);
  }
  [[nodiscard]] double pwc_lane_utilization() const noexcept {
    return pwc_activity.lane_cycles == 0
               ? 0.0
               : static_cast<double>(pwc_activity.useful_macs) /
                     static_cast<double>(pwc_activity.lane_cycles);
  }

  /// Temporal occupancy (active cycles / total cycles) of each engine.
  [[nodiscard]] double dwc_duty() const noexcept {
    return timing.total_cycles == 0
               ? 0.0
               : static_cast<double>(timing.dwc_active_cycles) /
                     static_cast<double>(timing.total_cycles);
  }
  [[nodiscard]] double pwc_duty() const noexcept {
    return timing.total_cycles == 0
               ? 0.0
               : static_cast<double>(timing.pwc_active_cycles) /
                     static_cast<double>(timing.total_cycles);
  }
};

/// Compact digest of a network run - what a simulation client needs to
/// display or compare without shipping per-layer tensors: headline
/// counters plus a content hash of the final output, so two runs can be
/// checked for bit-identity from one line of text.
struct RunSummary {
  std::size_t layer_count = 0;
  std::int64_t total_cycles = 0;
  std::int64_t total_ops = 0;
  double average_gops = 0.0;
  std::uint64_t output_hash = 0;  ///< FNV-1a over the final int8 output

  /// Peak bytes of the run's planned buffers: the peak_bytes of an
  /// nn::MemoryPlanner plan of them, a figure only (nothing is allocated
  /// from it). What it counts is the backend's: "edea" plans the
  /// activations of every image in the batch (each tile worker's
  /// accumulator is outside the plan), so the peak grows with batch;
  /// "serialized" plans one image's activations together with its
  /// intermediate maps and psum blocks and runs a batch as standalone
  /// runs, so it reports the standalone peak at every batch. A pure
  /// function of (backend, network, input shape, batch): host-side
  /// execution knobs - tile parallelism, worker count - never move it, so
  /// summaries stay comparable across them (the tile-parallel
  /// bit-identity suite compares whole summaries).
  std::uint64_t peak_arena_bytes = 0;

  friend bool operator==(const RunSummary&, const RunSummary&) = default;

  /// Binary encoding used by the simulation service's persisted result
  /// cache. Fields are written individually (never the whole struct) so
  /// padding can't leak into the file, and `layer_count` is pinned to 64
  /// bits so the layout doesn't depend on the host's size_t.
  void encode(util::ByteWriter& w) const {
    w.pod(static_cast<std::uint64_t>(layer_count));
    w.pod(total_cycles);
    w.pod(total_ops);
    w.pod(average_gops);
    w.pod(output_hash);
    w.pod(peak_arena_bytes);
  }
  [[nodiscard]] static RunSummary decode(util::ByteReader& r) {
    RunSummary s;
    s.layer_count = static_cast<std::size_t>(r.pod<std::uint64_t>());
    s.total_cycles = r.pod<std::int64_t>();
    s.total_ops = r.pod<std::int64_t>();
    s.average_gops = r.pod<double>();
    s.output_hash = r.pod<std::uint64_t>();
    s.peak_arena_bytes = r.pod<std::uint64_t>();
    return s;
  }
};

/// Aggregate over a whole network run.
struct NetworkRunResult {
  std::vector<LayerRunResult> layers;
  nn::Int8Tensor output;

  /// Peak bytes of the run's planned buffers (see
  /// RunSummary::peak_arena_bytes for what it counts and the invariance
  /// contract). Zero for hand-assembled results that never went through
  /// a planner.
  std::size_t peak_arena_bytes = 0;

  [[nodiscard]] std::int64_t total_cycles() const noexcept {
    std::int64_t c = 0;
    for (const auto& l : layers) c += l.timing.total_cycles;
    return c;
  }
  [[nodiscard]] std::int64_t total_ops() const noexcept {
    std::int64_t o = 0;
    for (const auto& l : layers) o += l.spec.total_ops();
    return o;
  }
  /// Average throughput = total ops / total time (the paper's 981.42 GOPS).
  [[nodiscard]] double average_throughput_gops(double clock_ghz) const {
    const double ns = static_cast<double>(total_cycles()) / clock_ghz;
    return ns == 0.0 ? 0.0 : static_cast<double>(total_ops()) / ns;
  }

  /// Digests the run into a RunSummary (see above).
  [[nodiscard]] RunSummary summary(double clock_ghz) const {
    RunSummary s;
    s.layer_count = layers.size();
    s.total_cycles = total_cycles();
    s.total_ops = total_ops();
    s.average_gops = average_throughput_gops(clock_ghz);
    s.output_hash = util::Fnv1a64().span(output.storage()).digest();
    s.peak_arena_bytes = static_cast<std::uint64_t>(peak_arena_bytes);
    return s;
  }
};

}  // namespace edea::core
