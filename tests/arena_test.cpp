// arena_test - properties of the static memory planner (src/nn/arena.hpp):
// no two live blobs ever share bytes, offsets are deterministic, the
// batched activation plan's peak grows monotonically with batch size,
// liveness-based reuse genuinely shrinks the peak versus the naive
// no-reuse sum on a real zoo network, and each backend's reported
// peak_arena_bytes is pinned by value.
#include "nn/arena.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <string>
#include <vector>

#include "core/backend.hpp"
#include "nn/model_zoo.hpp"
#include "util/random.hpp"

namespace edea::nn {
namespace {

bool liveness_intersects(const BlobSpec& a, const BlobSpec& b) {
  return a.first_step <= b.last_step && b.first_step <= a.last_step;
}

bool bytes_overlap(const PlannedBlob& a, const PlannedBlob& b) {
  if (a.spec.bytes == 0 || b.spec.bytes == 0) return false;
  return a.offset < b.offset + b.spec.bytes &&
         b.offset < a.offset + a.spec.bytes;
}

/// Zoo layers with only the geometry filled in - the planner reads specs,
/// not weights, so tests need not materialize random networks.
std::vector<QuantDscLayer> spec_only_layers(const std::string& zoo_name) {
  std::vector<QuantDscLayer> layers;
  for (const DscLayerSpec& spec : zoo_specs(zoo_name)) {
    QuantDscLayer layer;
    layer.spec = spec;
    layers.push_back(std::move(layer));
  }
  return layers;
}

Shape input_shape_of(const std::vector<QuantDscLayer>& layers) {
  const DscLayerSpec& first = layers.front().spec;
  return Shape{first.in_rows, first.in_cols, first.in_channels};
}

TEST(MemoryPlannerTest, LiveBlobsNeverShareBytes) {
  // Property test over randomized blob populations: any two blobs whose
  // liveness intervals intersect must occupy disjoint byte ranges.
  Rng rng(20260808);
  for (int trial = 0; trial < 50; ++trial) {
    MemoryPlanner planner;
    const int blobs = 2 + static_cast<int>(rng.uniform_int(0, 30));
    for (int i = 0; i < blobs; ++i) {
      const auto first = static_cast<std::size_t>(rng.uniform_int(0, 12));
      const auto last = first + static_cast<std::size_t>(rng.uniform_int(0, 4));
      const auto bytes = static_cast<std::size_t>(rng.uniform_int(0, 4096));
      planner.add_blob(bytes, first, last);
    }
    const ArenaPlan plan = planner.plan();
    ASSERT_EQ(plan.blobs.size(), static_cast<std::size_t>(blobs));
    for (std::size_t a = 0; a < plan.blobs.size(); ++a) {
      for (std::size_t b = a + 1; b < plan.blobs.size(); ++b) {
        if (liveness_intersects(plan.blobs[a].spec, plan.blobs[b].spec)) {
          EXPECT_FALSE(bytes_overlap(plan.blobs[a], plan.blobs[b]))
              << "trial " << trial << ": live blobs " << a << " and " << b
              << " overlap";
        }
      }
    }
    EXPECT_LE(plan.peak_bytes, plan.unreused_bytes);
    for (const PlannedBlob& blob : plan.blobs) {
      EXPECT_EQ(blob.offset % MemoryPlanner::kAlignment, 0u);
      EXPECT_LE(blob.offset + blob.spec.bytes, plan.peak_bytes);
    }
  }
}

TEST(MemoryPlannerTest, OffsetsAreDeterministicAcrossRuns) {
  const auto build = [] {
    MemoryPlanner planner;
    Rng rng(99);
    for (int i = 0; i < 40; ++i) {
      const auto first = static_cast<std::size_t>(rng.uniform_int(0, 8));
      planner.add_blob(static_cast<std::size_t>(rng.uniform_int(1, 2000)),
                       first,
                       first + static_cast<std::size_t>(rng.uniform_int(0, 3)));
    }
    return planner.plan();
  };
  const ArenaPlan a = build();
  const ArenaPlan b = build();
  ASSERT_EQ(a.blobs.size(), b.blobs.size());
  for (std::size_t i = 0; i < a.blobs.size(); ++i) {
    EXPECT_EQ(a.blobs[i].offset, b.blobs[i].offset) << "blob " << i;
  }
  EXPECT_EQ(a.peak_bytes, b.peak_bytes);
  EXPECT_EQ(a.unreused_bytes, b.unreused_bytes);
}

TEST(MemoryPlannerTest, DisjointLivenessPingPongsAndAdjacentLiveStack) {
  MemoryPlanner planner;
  const BlobId in = planner.add_blob(100, 0, 0);
  const BlobId a0 = planner.add_blob(100, 0, 1);
  const BlobId a1 = planner.add_blob(100, 1, 2);
  const BlobId a2 = planner.add_blob(100, 2, 3);
  const ArenaPlan plan = planner.plan();
  // act0 conflicts with the input (both live at step 0) so it stacks; act1
  // conflicts with act0 but NOT the input, so it reuses the input's bytes.
  EXPECT_NE(plan.blobs[in].offset, plan.blobs[a0].offset);
  EXPECT_EQ(plan.blobs[a1].offset, plan.blobs[in].offset);
  EXPECT_EQ(plan.blobs[a2].offset, plan.blobs[a0].offset);
  EXPECT_LT(plan.peak_bytes, plan.unreused_bytes);
}

TEST(MemoryPlannerTest, NetworkActivationPeakIsMonotoneInBatch) {
  const std::vector<QuantDscLayer> layers = spec_only_layers("edeanet-64");
  const Shape input = input_shape_of(layers);
  std::size_t previous = 0;
  for (const int batch : {1, 2, 3, 4, 8, 16}) {
    MemoryPlanner planner;
    plan_network_activations(planner, layers, input, batch);
    const ArenaPlan plan = planner.plan();
    EXPECT_GT(plan.peak_bytes, previous) << "batch " << batch;
    previous = plan.peak_bytes;
  }
}

TEST(MemoryPlannerTest, ReuseShrinksPeakOnEveryZooNetwork) {
  // The acceptance bar: planned peak strictly below the naive sum of all
  // blob sizes on every network the zoo can name.
  for (const std::string& name : zoo_network_names()) {
    SCOPED_TRACE(name);
    const std::vector<QuantDscLayer> layers = spec_only_layers(name);
    MemoryPlanner planner;
    plan_network_activations(planner, layers, input_shape_of(layers), 1);
    const ArenaPlan plan = planner.plan();
    EXPECT_LT(plan.peak_bytes, plan.unreused_bytes);

    // And unreused_bytes really is the naive layout: every blob at its
    // own aligned offset.
    std::size_t naive = 0;
    for (const PlannedBlob& blob : plan.blobs) {
      const std::size_t a = MemoryPlanner::kAlignment;
      naive += (blob.spec.bytes + a - 1) / a * a;
    }
    EXPECT_EQ(plan.unreused_bytes, naive);
  }
}

TEST(MemoryPlannerTest, ActivationPlanChainsEveryImage) {
  // Image by image: the input, then every layer's output, each sized by
  // its shape and live from its layer to the next.
  const std::vector<QuantDscLayer> layers = spec_only_layers("edeanet-64");
  const Shape input = input_shape_of(layers);
  MemoryPlanner planner;
  plan_network_activations(planner, layers, input, 2);
  const ArenaPlan plan = planner.plan();
  const std::size_t per_image = 1 + layers.size();
  ASSERT_EQ(plan.blobs.size(), 2 * per_image);
  for (std::size_t b = 0; b < 2; ++b) {
    SCOPED_TRACE("image " + std::to_string(b));
    const BlobSpec& in = plan.blobs[b * per_image].spec;
    EXPECT_EQ(in.bytes, input.volume());
    EXPECT_EQ(in.first_step, 0u);
    EXPECT_EQ(in.last_step, 0u);
    for (std::size_t i = 0; i < layers.size(); ++i) {
      const DscLayerSpec& spec = layers[i].spec;
      const Shape shape{spec.out_rows(), spec.out_cols(), spec.out_channels};
      const BlobSpec& act = plan.blobs[b * per_image + 1 + i].spec;
      EXPECT_EQ(act.bytes, shape.volume()) << "layer " << i;
      EXPECT_EQ(act.first_step, i);
      EXPECT_EQ(act.last_step, std::min(i + 1, layers.size() - 1));
    }
  }
}

TEST(MemoryPlannerTest, BackendPeaksArePinnedByValue) {
  // The peak_arena_bytes each backend reports, by value, on the seed-7 zoo
  // networks. "edea" plans every image's activation chain, so its peak is
  // the batch times one image's; "serialized" plans one image's
  // activations, intermediate maps and psum blocks and reports that at
  // every batch. The peak depends on geometry only, so a zero input does.
  struct Pin {
    const char* network;
    std::size_t edea;
    std::size_t serialized;
  };
  constexpr Pin kPins[] = {
      {"edeanet-64", 98304, 147456},     {"mobilenet-0.25x", 24576, 36864},
      {"mobilenet-0.5x", 49152, 73728},  {"mobilenet-cifar", 98304, 147456},
      {"mobilenet-v2", 49152, 202752},   {"efficientnet-b0", 49152, 86016},
  };
  for (const Pin& pin : kPins) {
    const std::vector<QuantDscLayer> layers =
        make_random_quant_network(zoo_specs(pin.network), 7);
    const Int8Tensor input(input_shape_of(layers));
    for (const int batch : {1, 3}) {
      SCOPED_TRACE(std::string(pin.network) + " batch " +
                   std::to_string(batch));
      for (const core::NetworkRunResult& r :
           core::make_backend("edea")->run_network_batch(layers, input,
                                                         batch)) {
        EXPECT_EQ(r.peak_arena_bytes,
                  pin.edea * static_cast<std::size_t>(batch));
      }
      for (const core::NetworkRunResult& r :
           core::make_backend("serialized")
               ->run_network_batch(layers, input, batch)) {
        EXPECT_EQ(r.peak_arena_bytes, pin.serialized);
      }
    }
  }
}

}  // namespace
}  // namespace edea::nn
