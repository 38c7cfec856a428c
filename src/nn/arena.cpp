#include "nn/arena.hpp"

#include <algorithm>
#include <cstdint>
#include <utility>

namespace edea::nn {
namespace {

constexpr std::size_t align_up(std::size_t bytes) {
  constexpr std::size_t a = MemoryPlanner::kAlignment;
  return (bytes + a - 1) / a * a;
}

bool liveness_intersects(const BlobSpec& a, const BlobSpec& b) {
  return a.first_step <= b.last_step && b.first_step <= a.last_step;
}

}  // namespace

ArenaPlan MemoryPlanner::plan() const {
  ArenaPlan out;
  out.blobs.reserve(blobs_.size());

  std::size_t peak = 0;
  std::size_t sum = 0;
  // Reused between blobs to avoid re-allocating per placement.
  std::vector<std::pair<std::size_t, std::size_t>> busy;

  for (const BlobSpec& spec : blobs_) {
    const std::size_t aligned = align_up(spec.bytes);
    std::size_t offset = 0;
    if (aligned != 0) {
      // Collect the address ranges of already-placed blobs whose liveness
      // intersects this one; the new blob must avoid exactly those.
      busy.clear();
      for (const PlannedBlob& placed : out.blobs) {
        const std::size_t placed_bytes = align_up(placed.spec.bytes);
        if (placed_bytes != 0 && liveness_intersects(placed.spec, spec)) {
          busy.emplace_back(placed.offset, placed.offset + placed_bytes);
        }
      }
      std::sort(busy.begin(), busy.end());
      // First fit: walk the busy ranges in address order, keeping the
      // lowest candidate offset that leaves a large-enough gap. Ranges may
      // overlap each other (two blobs that both conflict with the new one
      // need not conflict with one another), hence the max().
      for (const auto& [begin, end] : busy) {
        if (offset + aligned <= begin) break;
        offset = std::max(offset, end);
      }
    }
    sum += aligned;
    peak = std::max(peak, offset + aligned);
    out.blobs.push_back(PlannedBlob{spec, offset});
  }

  out.peak_bytes = peak;
  out.unreused_bytes = sum;
  return out;
}

void plan_network_activations(MemoryPlanner& planner,
                              const std::vector<QuantDscLayer>& layers,
                              const Shape& input_shape, int batch) {
  EDEA_REQUIRE(!layers.empty(), "cannot plan an empty network");
  EDEA_REQUIRE(batch >= 1, "batch must be >= 1");

  const std::size_t last = layers.size() - 1;
  for (int b = 0; b < batch; ++b) {
    // The input is only read while layer 0 runs; afterwards its bytes are
    // fair game for later activations.
    planner.add_blob(input_shape.volume() * sizeof(std::int8_t),
                     /*first_step=*/0, /*last_step=*/0);
    for (std::size_t i = 0; i < layers.size(); ++i) {
      const DscLayerSpec& spec = layers[i].spec;
      const Shape shape{spec.out_rows(), spec.out_cols(), spec.out_channels};
      // Written while layer i runs, read while layer i+1 runs.
      planner.add_blob(shape.volume() * sizeof(std::int8_t),
                       /*first_step=*/i, /*last_step=*/std::min(i + 1, last));
    }
  }
}

}  // namespace edea::nn
