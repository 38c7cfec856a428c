// backend.hpp - the pluggable accelerator-backend seam of the simulator.
//
// The paper's central claims are comparative: EDEA's direct DWC->PWC
// transfer and parallel dual engines versus a serialized baseline that
// round-trips intermediates through external memory (Fig. 3, Table III).
// "Which dataflow" is therefore an experimental dimension, not a constant
// - every layer of the stack (SweepRunner, dse, the simulation service,
// benches) selects a backend by string id through the registry below
// instead of hard-instantiating EdeaAccelerator.
//
// Contract every backend must honor (tests/backend_test.cpp):
//   - run_network consumes the same nn::QuantDscNetwork workloads and
//     produces a core::NetworkRunResult,
//   - outputs are BIT-EXACT across backends: the arithmetic (engines,
//     Non-Conv math, quantization) is shared; backends may only differ in
//     *measurements* - cycles, traffic, buffer accesses - which is what
//     makes a cross-backend sweep a controlled experiment,
//   - set_tile_parallelism accepts any width >= 1 and never changes
//     results (a backend without a host-parallel implementation runs
//     serially at every width; one with it must be bit-identical).
//
// Two backends ship in-tree, registered eagerly by the registry itself so
// static-library link order can never drop them:
//   "edea"        the dual-engine accelerator with direct data transfer
//                 (core::EdeaAccelerator - the paper's architecture),
//   "serialized"  the comparison architecture: serial DWC-then-PWC phases
//                 with the intermediate map round-tripping through
//                 external memory (baseline::SerializedDscAccelerator).
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/config.hpp"
#include "core/kernel_dispatch.hpp"
#include "core/run_result.hpp"
#include "nn/layers.hpp"
#include "nn/tensor.hpp"

namespace edea::core {

/// The backend id every consumer defaults to when none is requested.
inline constexpr std::string_view kDefaultBackendId = "edea";

/// A full-network accelerator model selectable by id. See the file comment
/// for the cross-backend contract.
class AcceleratorBackend {
 public:
  virtual ~AcceleratorBackend() = default;

  /// Runs a stack of DSC layers back to back, layer i+1 consuming layer
  /// i's output. The input is the int8 ifmap [R][C][D] of the first layer.
  [[nodiscard]] virtual NetworkRunResult run_network(
      const std::vector<nn::QuantDscLayer>& layers,
      const nn::Int8Tensor& input) = 0;

  /// Runs the same input through the network `batch` times (batch >= 1,
  /// else PreconditionError) and returns one result per image. Contract:
  /// every per-image result is bit-identical to a standalone run_network
  /// call - batching may only amortize host-side setup (peak planning,
  /// worker creation), never change arithmetic or measurements. The base
  /// implementation is the literal reference: `batch` sequential
  /// run_network calls, each result carrying its own standalone peak in
  /// NetworkRunResult::peak_arena_bytes (the serialized baseline keeps
  /// it, so its peak is the same at every batch). EdeaAccelerator
  /// overrides it to run the images layer-major and reports the peak of
  /// one plan of every image's activations in every result.
  [[nodiscard]] virtual std::vector<NetworkRunResult> run_network_batch(
      const std::vector<nn::QuantDscLayer>& layers,
      const nn::Int8Tensor& input, int batch);

  /// Host-side tile parallelism inside one layer. Every backend accepts
  /// any width >= 1 (zero/negative is a PreconditionError) and produces
  /// results bit-identical to width 1.
  virtual void set_tile_parallelism(int parallelism) = 0;
  [[nodiscard]] virtual int tile_parallelism() const noexcept = 0;

  /// Engine inner-loop kernel selection (core/kernel_dispatch.hpp):
  /// kForceGeneric pins the generic reference kernels, kAuto lets hot
  /// shapes run their specialized implementations. Either way results and
  /// every counter are bit-identical - the knob exists for A/B testing,
  /// which is why the base implementation is a no-op (a backend that runs
  /// no specialized engine kernel has nothing to pin).
  virtual void set_kernel_policy(KernelPolicy policy) { (void)policy; }

  /// The configuration this backend instance was built from.
  [[nodiscard]] virtual const EdeaConfig& config() const noexcept = 0;

  /// The registry id this backend answers to ("edea", "serialized", ...).
  [[nodiscard]] virtual std::string_view backend_id() const noexcept = 0;
};

/// Builds a fresh backend instance for one simulation job. Instances carry
/// per-run state (SRAM, counters) and must never be shared across threads
/// - exactly the EdeaAccelerator rule, now per backend.
using BackendFactory =
    std::function<std::unique_ptr<AcceleratorBackend>(const EdeaConfig&)>;

/// True iff `id` resolves in the registry. The cheap guard protocol
/// parsers and CLI validators use to reject unknown ids up front.
[[nodiscard]] bool backend_known(const std::string& id);

/// Every registered backend id, sorted - stable across processes, so
/// error messages and --help listings are deterministic.
[[nodiscard]] std::vector<std::string> backend_ids();

/// "edea, serialized, ..." - the sorted id list as one human-readable
/// string, for "unknown backend" diagnostics.
[[nodiscard]] std::string known_backends_string();

/// Instantiates the backend registered under `id` with `config`. Throws
/// PreconditionError for unknown ids (naming the known ones); any
/// configuration problem is the backend constructor's to raise.
[[nodiscard]] std::unique_ptr<AcceleratorBackend> make_backend(
    const std::string& id, const EdeaConfig& config = EdeaConfig::paper());

/// Registers (or replaces) a backend factory under `id`. The two in-tree
/// backends are pre-registered; embedders can add their own dataflows and
/// every sweep/DSE/service path picks them up by id. Empty ids and ids
/// with whitespace are rejected (they could not travel through the
/// key=value line protocol). Returns true when `id` was new.
bool register_backend(const std::string& id, BackendFactory factory);

}  // namespace edea::core
