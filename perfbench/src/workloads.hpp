// workloads.hpp - the benchmark's seeded request streams.
//
// Every workload is a pure function of its seed: the same seed yields the
// same hot set, the same stream of request lines per connection, and the
// same workload (network, seed, dilation, depth multiplier) keys the
// set-up pre-warms. The server only ever receives these generated lines.
//
//   serve-hit     uniform replay of a 32-point hot set on small networks
//   routed-mixed  75% replay of a 24-point hot set, 25% fresh points in a
//                 block-stratified shuffle (each block holds one point of
//                 every (network, backend) pair, so a run's mix of cheap
//                 and expensive simulations hardly depends on the seed);
//                 every 8th fresh point is on a never-seen workload seed
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "util/random.hpp"

namespace perfbench {

/// One design point: the request line plus what the checker knows of it.
struct Point {
  std::string line;
  int hot = -1;           ///< index into the hot set, -1 = fresh point
  bool checked = false;   ///< recomputed serially after the phase
  bool digested = false;  ///< part of the default-seed digest
};

/// A materialized-workload key: (zoo network, seed, dilation, multiplier),
/// exactly WorkloadCatalog's key.
using WorkloadKey = std::tuple<std::string, std::uint64_t, int, int>;

/// How load reaches the serving stack.
struct LoadShape {
  std::size_t connections = 1;  ///< concurrent client connections
  std::size_t window = 4;       ///< requests in flight per connection
  unsigned pool_threads = 2;    ///< dispatch pool threads per server
  std::size_t cache_capacity = 256;
  int shards = 0;  ///< 0 = one server process; n > 0 = router over n shards
  /// Requests per client connection. run_pipelined keeps every response
  /// in memory, so the timed phase replays in chunks of this size, one
  /// connection each, which bounds the generator's memory.
  std::size_t chunk = 64;
  /// Traced runs keep per-request records for every `trace_stride`-th
  /// request id (all misses regardless), bounding the trace's memory.
  std::uint64_t trace_stride = 1;
};

class Workload {
 public:
  /// Throws std::invalid_argument for an unknown workload name.
  static std::unique_ptr<Workload> make(const std::string& name,
                                        std::uint64_t seed);

  virtual ~Workload() = default;

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const LoadShape& shape() const { return shape_; }

  /// Points warmed through the wire during set-up.
  [[nodiscard]] const std::vector<Point>& hot_set() const { return hot_; }

  /// Workload keys materialized into every server's catalog during
  /// set-up without simulating.
  [[nodiscard]] const std::vector<WorkloadKey>& prewarm_keys() const {
    return prewarm_;
  }

  /// The next point of connection `connection`'s stream.
  virtual Point next(std::size_t connection) = 0;

  /// Restarts every stream from its beginning (the traced pass replays
  /// exactly the stream the untraced pass saw).
  virtual void restart() = 0;

 protected:
  Workload(std::string name, LoadShape shape)
      : name_(std::move(name)), shape_(shape) {}

  std::string name_;
  LoadShape shape_;
  std::vector<Point> hot_;
  std::vector<WorkloadKey> prewarm_;
};

/// Parses a request line's workload key (network, seed, dilation,
/// multiplier) the way the session resolves it.
WorkloadKey workload_key_of(const std::string& line);

}  // namespace perfbench
