// job_key.hpp - the identity of one simulation request, defined once.
//
// A design point is a workload plus five dimensions: the accelerator
// configuration, the backend (dataflow), and the counts batch, dilation
// and depth_multiplier. JobKey holds the five. SweepJob, SweepOutcome and
// service::Request derive from it, and everything that validates, hashes,
// orders, stores, parses or echoes a request's identity goes through it:
//   - the service cache keys on (workload fingerprint, JobKey) and the
//     cluster router's ring key hashes (network, seed, JobKey) - both
//     through feed();
//   - the cache file stores each entry's key with encode()/decode() and
//     orders entries with precedes();
//   - the line protocol's `key=` parser and outcome echo loop over
//     kCountDims.
// A key is set where the job is named - a `run` line's keys, or the code
// that builds a SweepJob - and nowhere else: a dimension left out is the
// default below, as an EdeaConfig field left out is the paper's value.
//
// Adding a count dimension: one JobKey field and one kCountDims row. The
// protocol key, the echo, validation, hashing, ordering and the cache
// entry all follow. What the new count *means* still lives where it acts
// (a workload transform in WorkloadCatalog::resolve, a run knob in the
// backends). It changes the cache entry layout, so bump kCacheVersion in
// service/simulation_service.cpp, and it changes every ring key, so shard
// caches written before the change stop being routed to. A non-count
// dimension needs its own line in each JobKey function.
#pragma once

#include <array>
#include <string>
#include <string_view>

#include "core/backend.hpp"
#include "core/config.hpp"
#include "util/binary.hpp"
#include "util/hash.hpp"

namespace edea::core {

/// The full identity of a request, less its workload.
struct JobKey {
  /// Backend id (core/backend.hpp registry): the same workload and
  /// configuration on different dataflows are different experiments.
  std::string backend = std::string(kDefaultBackendId);
  /// Images per run (AcceleratorBackend::run_network_batch). Per-image
  /// measurements are bit-identical to `batch` standalone runs; only the
  /// summary's peak_arena_bytes can differ ("edea" plans every image's
  /// activations together and reports that larger peak, "serialized"
  /// reports the standalone peak at every batch).
  int batch = 1;
  /// Workload transforms already baked into the layers by the resolver
  /// (WorkloadCatalog::resolve): the DWC dilation and the extra depthwise
  /// multiplier. Each > 1 is a different computation.
  int dilation = 1;
  int depth_multiplier = 1;
  EdeaConfig config;

  friend bool operator==(const JobKey&, const JobKey&) = default;

  /// Throws PreconditionError unless the clock is finite, the backend is
  /// registered and every count is >= 1. The message starts with `what`,
  /// then `name` quoted when given ("sweep job 'x': batch must be >= 1,
  /// got 0").
  void validate(std::string_view what, std::string_view name = {}) const;

  /// Feeds the key into `h`: config.hash(), the backend, then every count
  /// as an int. The service cache and route_key feed it after their own
  /// prefix; the order is part of the ring placement of every persisted
  /// shard cache, so it never changes.
  void feed(util::Fnv1a64& h) const noexcept;

  /// The cache file's entry order (after the fingerprint): config hash,
  /// then backend, then each count.
  [[nodiscard]] bool precedes(const JobKey& other) const;

  /// A cache entry's key: EdeaConfig::encode, the backend, then one int32
  /// per count (cache format v4).
  void encode(util::ByteWriter& w) const;

  /// The inverse of encode, reading an entry of cache file `file` (named
  /// in errors). Throws PreconditionError when the bytes run out or the
  /// key fails validate(): such an entry could never be served.
  [[nodiscard]] static JobKey decode(util::ByteReader& r,
                                     std::string_view file);
};

/// One count dimension: its name and its field. The name is the protocol
/// key and echo (`depth_multiplier=`).
struct CountDim {
  const char* name;
  int JobKey::*field;
};

/// Every count dimension, in hash, cache-file and echo order.
inline constexpr std::array<CountDim, 3> kCountDims{{
    {"batch", &JobKey::batch},
    {"dilation", &JobKey::dilation},
    {"depth_multiplier", &JobKey::depth_multiplier},
}};

inline void JobKey::feed(util::Fnv1a64& h) const noexcept {
  h.pod(config.hash()).str(backend);
  for (const CountDim& dim : kCountDims) h.pod(this->*dim.field);
}

}  // namespace edea::core
