// arena.hpp - the planned memory peak of a network run, as a number.
//
// A network run touches a predictable set of buffers: the input image and
// one activation tensor per layer, plus whatever per-layer scratch a
// backend's schedule holds (the serialized baseline's round-tripped
// intermediate map and psum block). The runtime describes them to a
// MemoryPlanner as *blobs* - (bytes, liveness interval) pairs - and the
// planner assigns every blob an offset inside one notional arena, reusing
// the bytes of blobs whose liveness has ended (FeatherCNN-style shared
// memory pool, planned ahead of time). Nothing is allocated: the tensors
// of a run own their bytes, and the plan's peak_bytes is the working-set
// figure the run reports as NetworkRunResult::peak_arena_bytes. The plan
// is deterministic (same blobs in, same offsets out).
//
// Liveness is expressed in abstract *steps*: blob A may share bytes with
// blob B iff their [first_step, last_step] intervals do not intersect.
// For a batched network run the step axis is the layer index (layer-major
// execution: all images run layer i before any image runs layer i+1), so
// image b's layer-i output is live over [i, i+1] and the familiar
// ping-pong activation reuse falls out of interval non-intersection.
#pragma once

#include <cstddef>
#include <vector>

#include "nn/layers.hpp"
#include "nn/tensor.hpp"
#include "util/check.hpp"

namespace edea::nn {

/// Index of a blob inside its planner and plan (dense, in add order).
using BlobId = std::size_t;

/// One planned buffer: size plus the inclusive liveness interval
/// [first_step, last_step] over the run's abstract step axis.
struct BlobSpec {
  std::size_t bytes = 0;
  std::size_t first_step = 0;
  std::size_t last_step = 0;
};

struct PlannedBlob {
  BlobSpec spec;
  std::size_t offset = 0;  ///< byte offset inside the notional arena
};

/// Result of planning: every blob with its offset, the arena size that
/// holds them all (peak_bytes), and the size a naive no-reuse layout would
/// need (unreused_bytes) so planning quality is checkable: peak_bytes <=
/// unreused_bytes always, and strictly less whenever any two blobs'
/// liveness intervals are disjoint.
struct ArenaPlan {
  std::vector<PlannedBlob> blobs;
  std::size_t peak_bytes = 0;
  std::size_t unreused_bytes = 0;
};

/// Collects blob descriptions, then assigns offsets in one deterministic
/// pass. Offsets are 64-byte aligned, as one allocation holding int8,
/// int32 and float slices side by side would need them, so the peak
/// counts that padding.
class MemoryPlanner {
 public:
  static constexpr std::size_t kAlignment = 64;

  /// Registers a blob; returns its id (dense, in registration order).
  BlobId add_blob(std::size_t bytes, std::size_t first_step,
                  std::size_t last_step) {
    EDEA_REQUIRE(first_step <= last_step,
                 "blob liveness interval must not be inverted");
    blobs_.push_back(BlobSpec{bytes, first_step, last_step});
    return blobs_.size() - 1;
  }

  /// First-fit offset assignment in registration order: each blob takes the
  /// lowest aligned offset that does not overlap any already-placed blob
  /// with an intersecting liveness interval. Deterministic by construction
  /// (no hashing, no address-dependent ordering).
  [[nodiscard]] ArenaPlan plan() const;

 private:
  std::vector<BlobSpec> blobs_;
};

/// Registers the activation blobs of running `batch` images through
/// `layers` (layer-major execution order) with `planner`, image by image:
/// each image's input, then its layer outputs in order. The step axis is
/// the layer index: inputs are live at step 0 only, layer i's outputs over
/// [i, i+1] (clamped to the last layer), so consecutive layers ping-pong
/// and anything older is reused. Callers add their per-layer scratch
/// blobs to the same planner before calling plan().
void plan_network_activations(MemoryPlanner& planner,
                              const std::vector<QuantDscLayer>& layers,
                              const Shape& input_shape, int batch);

}  // namespace edea::nn
