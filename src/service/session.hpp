// session.hpp - the session layer of the service tier.
//
// A Session serves exactly one connection (a transport Stream) of the
// line protocol (service/protocol.hpp) against a shared
// SimulationService. Everything on the wire side - framing, request ids,
// reply modes, protocol errors, the corking writer, the `stats` barrier -
// is the WireFront it shares with the cluster router
// (service/wire_front.hpp). What a Session adds is its dispatch:
//
//   - workload resolution: zoo names materialize through a shared
//     WorkloadCatalog so duplicate requests across sessions share one
//     materialized network; unknown networks answer an error outcome
//     line in their slot,
//   - submission: each resolved job goes to
//     SimulationService::submit_streaming, whose completion callback
//     finishes the reply slot - so independent requests simulate
//     concurrently, duplicates coalesce in the service, and neither of
//     the front's threads ever blocks inside the simulation pool
//     (sessions still run on dedicated transport threads, never on the
//     pool - see transport.hpp),
//   - admission: when the service runs a bounded queue, a run line that
//     would start a fresh simulation at the bound answers
//     `busy id=<n> retry_ms=<m>` in its slot instead of queueing,
//   - `stats`: the service's cache counters, snapshotted at the front's
//     barrier - deterministic for a given request stream, which is what
//     lets CI byte-compare socket sessions against the stdio reference,
//   - traffic recording for the stdio server's --verify gate.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/sweep_runner.hpp"
#include "nn/layers.hpp"
#include "nn/tensor.hpp"
#include "service/simulation_service.hpp"
#include "service/wire_front.hpp"

namespace edea::service {

class Stream;

/// Thread-safe registry of materialized workloads: the quantized network
/// and synthetic input behind one (zoo name, seed, dilation,
/// depth multiplier) tuple. Materialization is deterministic in the key,
/// happens once per key and outside the catalog's lock - a resolve of a
/// built key never waits behind another key's build - and the returned
/// reference stays valid (and immutable) for the catalog's lifetime: jobs
/// submitted by any session may point into it.
class WorkloadCatalog {
 public:
  struct Workload {
    std::vector<nn::QuantDscLayer> layers;
    nn::Int8Tensor input;
    /// network_fingerprint(layers, input), hashed once at
    /// materialization. Hashing walks every weight byte (~hundreds of
    /// microseconds), so recomputing it per request would dominate the
    /// cache-hit serving path - sessions stamp this into each SweepJob
    /// instead (SweepJob::fingerprint).
    std::uint64_t fingerprint = 0;
  };

  /// Resolves (materializing on first use). `dilation` is applied to
  /// every layer of the zoo geometry, scaling its padding along so output
  /// extents are preserved; `depth_multiplier` multiplies into each
  /// layer's existing multiplier (so it composes with zoo networks that
  /// already carry one, e.g. MobileNetV2 expansion factors). Throws
  /// PreconditionError for names the model zoo cannot resolve or
  /// non-positive transforms.
  [[nodiscard]] const Workload& resolve(const std::string& network,
                                        std::uint64_t seed, int dilation = 1,
                                        int depth_multiplier = 1);

 private:
  std::mutex mutex_;
  /// Signalled when a build finishes or fails.
  std::condition_variable built_;
  /// std::map with unique_ptr values: addresses stay stable across
  /// inserts while sessions hold references. A null value marks a key
  /// whose build is under way.
  std::map<std::tuple<std::string, std::uint64_t, int, int>,
           std::unique_ptr<Workload>>
      workloads_;
};

/// A session's configuration: the wire policy (whether `mode unordered`
/// is honored - see WireOptions) plus its dispatch knobs.
struct SessionOptions : WireOptions {
  /// Record every submitted job and its outcome (in request order) in
  /// SessionStats - what the stdio server's --verify gate replays against
  /// a serial SweepRunner.
  bool record_traffic = false;

  /// The retry hint busy replies advertise (`busy id=<n> retry_ms=<m>`).
  /// Must be >= 1 - validated at Session construction.
  int busy_retry_ms = 25;
};

/// What one serve() call did. Counters cover the whole session (`runs`
/// includes unresolved networks); the traffic vectors are filled only
/// under SessionOptions::record_traffic and are index-aligned (jobs[i]
/// produced outcomes[i]).
struct SessionStats : WireStats {
  std::uint64_t busy_replies = 0;  ///< runs rejected by admission control
  std::vector<core::SweepJob> jobs;          ///< resolved, submitted jobs
  std::vector<core::SweepOutcome> outcomes;  ///< their outcomes, in order
};

class Session {
 public:
  Session(SimulationService& service, WorkloadCatalog& catalog,
          SessionOptions options = SessionOptions());

  /// Serves the connection until its input is exhausted, then drains all
  /// pending responses. Blocking; returns the session's statistics.
  SessionStats serve(Stream& stream);

 private:
  SimulationService& service_;
  WorkloadCatalog& catalog_;
  SessionOptions options_;
};

}  // namespace edea::service
