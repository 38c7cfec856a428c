// kernel_dispatch.hpp - shape-specialized fast-path kernels for the two
// engine inner loops, behind a registry with the generic path as fallback.
//
// The simulator's arithmetic hot path is the five nested loops of
// DwcEngine::step (ch x ty x tx x k x k) and the four of PwcEngine::step -
// fully generic, one virtual-free but heavily abstracted MAC at a time
// (MacLane call, member scratch write, AdderTree pairwise sum). For every
// sweep, DSE run, and service cache miss those loops are the wall clock.
// This registry lets a hot (op family, kernel, stride, dilation,
// depth_multiplier) shape select a hand-specialized implementation with
// unrolled, compiler-vectorizable accumulator loops, while every other
// shape falls back to the generic reference implementation.
//
// Registered shapes (all wildcarded over the depth multiplier):
//   dwc k=3 s=1 d=1, dwc k=3 s=2 d=1, dwc k=3 s=1 d=2, dwc k=3 s=2 d=2
//     - one template, the nine tap offsets scaled by the dilation;
//   pwc k=1 s=1 d=1
//     - kernel-innermost dot products over the transposed, int16 weights the
//       PWC engine stages once per weight load. The slice width selects
//       the loop inside the kernel: whole groups of eight channels run
//       unrolled eight at a time (width 8 is one group, width 16 two),
//       and the channels of a ragged slice past the last whole group run
//       one at a time.
// Every other shape (other kernel extents, dilations above 2) runs the
// generic path.
//
// The contract every registered kernel must honor (pinned by
// tests/kernel_dispatch_test.cpp and the differential harness's
// specialized-vs-forced-generic axis):
//   1. bit-identical accumulators to the generic path. All sums are int32
//     with |product| <= 128*128 and at most a few dozen terms, so integer
//     addition is associative in range - any summation order is exact.
//   2. bit-identical MacActivity accounting: one lane_cycle and one
//     useful_mac per modeled multiply, one zero_operand_mac per multiply
//     whose activation operand is zero. Specialized kernels may tally in
//     bulk; the totals must match the generic per-multiply tallies.
// Cycle/energy/access counters live above the kernel boundary (in the
// engines and tile workers) and are untouched by dispatch, so a
// specialized run's every counter stays bit-identical to generic.
//
// Escape hatch: KernelPolicy::kForceGeneric (per engine / accelerator,
// reachable through AcceleratorBackend::set_kernel_policy) pins the
// generic path for A/B tests, and the EDEA_FORCE_GENERIC_KERNELS
// environment variable flips the process-wide default - the lever the
// micro-bench matrix and bit-identity suites use.
#pragma once

#include <compare>
#include <cstdint>
#include <string>
#include <vector>

#include "arch/counters.hpp"

namespace edea::core {

/// Which engine inner loop a kernel implements.
enum class OpFamily : int { kDwc = 0, kPwc = 1 };

/// Kernel implementation policy of an engine (or a whole accelerator):
/// kAuto consults the KernelDispatch registry, kForceGeneric pins the
/// generic reference path (the A/B escape hatch). The process default is
/// kAuto unless EDEA_FORCE_GENERIC_KERNELS is set in the environment.
enum class KernelPolicy : int { kAuto = 0, kForceGeneric = 1 };

/// Registry key: the loop-shape parameters a specialization is allowed to
/// assume. `depth_multiplier` 0 is the "any multiplier" wildcard - the
/// engine-level arithmetic is multiplier-invariant (the window/weight
/// builders fold the multiplier before the engines run), so the built-in
/// kernels register wildcarded; an exact-multiplier entry, when present,
/// wins over the wildcard.
struct KernelShapeKey {
  OpFamily family = OpFamily::kDwc;
  int kernel = 3;            ///< kernel extent (1 for PWC)
  int stride = 1;            ///< spatial stride (1 for PWC)
  int dilation = 1;          ///< kernel tap pitch (1 for PWC)
  int depth_multiplier = 0;  ///< exact multiplier, or 0 = any

  friend auto operator<=>(const KernelShapeKey&,
                          const KernelShapeKey&) = default;

  [[nodiscard]] std::string to_string() const;
};

/// Operands of one DWC engine step, as raw spans: everything the inner
/// loop reads and the accumulator block it writes. Kernels own no scratch
/// and touch nothing else - in particular no engine member state, so a
/// kernel invocation is reentrant by construction.
struct DwcKernelArgs {
  const std::int8_t* window = nullptr;   ///< [extent][extent][channels]
  int extent = 0;                        ///< square spatial extent
  int channels = 0;                      ///< active channels (<= Td)
  const std::int8_t* weights = nullptr;  ///< [kh][kw][channels]
  int tn = 0;                            ///< output tile rows
  int tm = 0;                            ///< output tile cols
  int kernel = 0;                        ///< kernel extent
  int stride = 0;
  int dilation = 0;
  std::int32_t* acc = nullptr;           ///< out: [tn][tm][channels]
  arch::MacActivity* activity = nullptr;
};
using DwcKernelFn = void (*)(const DwcKernelArgs&);

/// Operands of one PWC engine step. `td` is the configured adder-tree
/// fan-in: lanes for channels in [channels, td) are modeled idle, and a
/// kernel must account their lane_cycles exactly like the generic path.
/// The weights come in two layouts: `weights` (what the generic path
/// reads) and the same values transposed and widened to int16,
/// `weights_t` (what the specialized kernel streams, its inner loop
/// running over kernels and multiplying in int16).
struct PwcKernelArgs {
  const std::int8_t* activations = nullptr;  ///< [rows][cols][channels]
  const std::int8_t* weights = nullptr;      ///< [kernels][channels]
  const std::int16_t* weights_t = nullptr;   ///< [channels][kernels]
  int rows = 0;
  int cols = 0;
  int channels = 0;  ///< active channels (<= td)
  int kernels = 0;   ///< kernels this step (its kernel groups together)
  int td = 0;        ///< configured channel lanes per dot product
  std::int32_t* psum = nullptr;              ///< out: [rows][cols][kernels]
  arch::MacActivity* activity = nullptr;
};
using PwcKernelFn = void (*)(const PwcKernelArgs&);

/// The generic reference implementations: the exact loops the engines ran
/// before dispatch existed (per-multiply MacLane accounting, pairwise
/// AdderTree summation) with caller-local scratch. Every shape not in the
/// registry - and every shape under kForceGeneric - runs these.
void generic_dwc_kernel(const DwcKernelArgs& args);
void generic_pwc_kernel(const PwcKernelArgs& args);

/// The process-wide kernel registry. Thread-safe; the built-in
/// specializations (3x3 DWC at strides 1 and 2 and dilations 1 and 2, 1x1
/// PWC, all at any depth multiplier) are registered in-registry at
/// construction so static-library link order can never drop them.
class KernelDispatch {
 public:
  /// The singleton the engines consult.
  [[nodiscard]] static KernelDispatch& instance();

  /// Registers (or replaces) a kernel for a shape. Keys are validated:
  /// positive odd kernel extent for DWC (extent 1 for PWC), stride 1 or 2,
  /// dilation >= 1, depth_multiplier >= 0 (0 = wildcard). `label` names
  /// the implementation in registered_shapes().
  void register_dwc(const KernelShapeKey& key, DwcKernelFn fn,
                    std::string label);
  void register_pwc(const KernelShapeKey& key, PwcKernelFn fn,
                    std::string label);

  /// Lookup: exact key first, then the depth_multiplier wildcard (0).
  /// Returns the generic implementation when no specialization matches -
  /// callers can invoke the result unconditionally.
  [[nodiscard]] DwcKernelFn find_dwc(const KernelShapeKey& key) const;
  [[nodiscard]] PwcKernelFn find_pwc(const KernelShapeKey& key) const;

  /// True when `key` would resolve to a specialized (non-generic) kernel.
  [[nodiscard]] bool has_specialization(const KernelShapeKey& key) const;

  /// "<key> -> <label>" lines for every registered entry, in key order
  /// (docs, tests, and the micro-bench matrix enumerate these).
  [[nodiscard]] std::vector<std::string> registered_shapes() const;

  /// Process-wide default policy: kForceGeneric when the
  /// EDEA_FORCE_GENERIC_KERNELS environment variable is set non-empty and
  /// not "0" at first use, else kAuto. Engines read this at construction.
  [[nodiscard]] static KernelPolicy default_policy();

 private:
  KernelDispatch();

  struct Impl;
  Impl* impl_;  // never freed: the registry lives for the process
};

}  // namespace edea::core
