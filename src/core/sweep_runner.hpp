// sweep_runner.hpp - concurrent evaluation of independent simulation jobs.
//
// A sweep is a list of (network, accelerator config) pairs - the shape of
// every design-space study in the paper (Sec. II DSE, Sec. III-B scaling)
// and of the reproduction benches. Jobs are independent by construction:
// each one gets its own EdeaAccelerator instance (the accelerator carries
// per-run SRAM and counter state and must never be shared across threads),
// while the quantized layers and input tensors are read-only and may be
// shared freely. Results come back in job order regardless of scheduling,
// so a parallel sweep is bit-identical to a serial one.
#pragma once

#include <string>
#include <vector>

#include "core/backend.hpp"
#include "core/config.hpp"
#include "core/job_key.hpp"
#include "core/run_result.hpp"
#include "nn/layers.hpp"
#include "nn/tensor.hpp"

namespace edea::util {
class ThreadPool;
}

namespace edea::core {

/// One simulation job: run `layers` on an accelerator built from `config`,
/// starting from `input`. The pointed-to network and tensor must outlive
/// the sweep; they are never written. The job's identity - config,
/// backend, batch and workload transforms - is its JobKey base (see
/// core/job_key.hpp), set by whoever builds the job; the transforms are
/// already baked into every layer spec by the resolver and are carried so
/// outcomes can echo them and the service cache can key on them. An
/// unknown backend or a count < 1 is a PreconditionError: a typo'd
/// dimension is a caller bug, not a design point.
struct SweepJob : JobKey {
  std::string name;
  const std::vector<nn::QuantDscLayer>* layers = nullptr;
  const nn::Int8Tensor* input = nullptr;
  /// Precomputed network_fingerprint(*layers, *input), or 0 for "not
  /// computed". Hashing a workload touches every weight and input byte -
  /// hundreds of microseconds for real networks - so callers that submit
  /// the same immutable workload many times (the simulation service via
  /// WorkloadCatalog) compute it once at materialization and carry it
  /// here. Consumers must fall back to hashing when it is 0.
  std::uint64_t fingerprint = 0;
};

/// Result of one job. A job whose configuration cannot map the network
/// (ResourceError, PreconditionError, ...) reports the failure in `error`
/// instead of aborting the sweep - infeasible points are data in a DSE.
///
/// The JobKey base echoes the job's identity: it is part of the protocol
/// line and of the service cache key.
struct SweepOutcome : JobKey {
  std::string name;
  bool ok = false;
  std::string error;
  NetworkRunResult result;
  /// True iff this outcome was served from a memoizing cache rather than
  /// simulated. Always false from SweepRunner itself; the simulation
  /// service (src/service) sets it on cache hits.
  bool cache_hit = false;
  /// Headline digest of `result`, captured when the outcome was produced
  /// (ok outcomes only - it stays default for failures). This is what the
  /// service protocol reports and what the persisted result cache stores.
  RunSummary summary;
  /// True when this outcome was served at summary level: `summary` (and
  /// ok/error) are authoritative but `result` is empty. The simulation
  /// service sets it on everything it serves from its cache - warm hits,
  /// coalesced duplicates, entries loaded from a cache file - because the
  /// cache stores summaries only; just the submitter whose miss ran the
  /// simulation receives the per-layer result (see
  /// SimulationService::CompletionCallback).
  bool summary_only = false;
};

/// Execution policy of a SweepRunner.
struct SweepOptions {
  /// Worker parallelism: 0 = use the shared pool (hardware concurrency),
  /// 1 = run strictly serially on the calling thread (the reference path),
  /// n > 1 = use a dedicated pool of n threads. Negative values are a
  /// precondition violation - there is no "negative thread count" to clamp
  /// to, and silently coercing would mask caller arithmetic bugs.
  int parallelism = 0;

  /// Tile-level parallelism *inside* each job: every layer's buffer tiles
  /// are split over at most this many workers on the process-wide shared
  /// pool (see EdeaAccelerator::set_tile_parallelism). 1 (the default) is
  /// the strictly serial reference path. Unlike `parallelism` there is no
  /// 0 = auto policy: tile workers compete with sweep-level jobs for the
  /// same pool, so the per-job width must be stated explicitly - zero and
  /// negative values are a precondition violation. Results are
  /// bit-identical at every width.
  int tile_parallelism = 1;

  void validate() const {
    EDEA_REQUIRE(
        parallelism >= 0,
        "parallelism must be 0 (auto), 1 (serial), or a thread count");
    EDEA_REQUIRE(tile_parallelism >= 1,
                 "tile_parallelism must be >= 1 (1 = serial tiles; there is "
                 "no auto policy at tile level)");
  }
};

/// Runs one job on a fresh accelerator built from the job's backend id
/// through the registry. Never propagates simulation failures: an
/// infeasible configuration (ResourceError, ...) comes back with
/// ok == false and the failure text in `error`, so callers that fan jobs
/// out (SweepRunner, the simulation service) can treat infeasible points
/// as data. Null network/input pointers are still a hard
/// PreconditionError - that is a caller bug, not a design point - and so
/// are a tile_parallelism < 1 (see SweepOptions::tile_parallelism) and an
/// invalid key (an unknown backend id or a count < 1, JobKey::validate).
[[nodiscard]] SweepOutcome evaluate_job(const SweepJob& job,
                                        int tile_parallelism = 1);

/// Order-sensitive 64-bit fingerprint of a simulation workload: the layer
/// geometries, quantized weights, activation scales, folded Non-Conv
/// parameters, and the input tensor - everything that determines a run's
/// output besides the accelerator configuration. Two workloads with equal
/// fingerprints are (up to hash collision) the same computation, which is
/// what the simulation service keys its result cache on.
[[nodiscard]] std::uint64_t network_fingerprint(
    const std::vector<nn::QuantDscLayer>& layers, const nn::Int8Tensor& input);

class SweepRunner {
 public:
  using Options = SweepOptions;

  explicit SweepRunner(Options options = Options());

  /// Evaluates every job; outcome i corresponds to jobs[i].
  [[nodiscard]] std::vector<SweepOutcome> run(
      const std::vector<SweepJob>& jobs) const;

 private:
  Options options_;
};

}  // namespace edea::core
