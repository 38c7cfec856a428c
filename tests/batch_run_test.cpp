// batch_run_test - the batched-execution contract of
// AcceleratorBackend::run_network_batch: every per-image result of a
// batch=N run is bit-identical to N standalone run_network calls (batching
// amortizes planning/setup, never arithmetic), the edea backend's batched
// arena peak grows with batch while staying tile-parallelism-invariant,
// the serialized baseline's stays at its standalone peak, and every
// planner-backed backend reports a non-zero peak_arena_bytes.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/backend.hpp"
#include "nn/model_zoo.hpp"
#include "util/check.hpp"
#include "util/random.hpp"

namespace edea::core {
namespace {

constexpr double kClockGhz = 1.0;

nn::Int8Tensor random_input(const nn::DscLayerSpec& spec, std::uint64_t seed) {
  Rng rng(seed);
  nn::Int8Tensor input(
      nn::Shape{spec.in_rows, spec.in_cols, spec.in_channels});
  for (auto& v : input.storage()) {
    v = rng.bernoulli(0.4) ? std::int8_t{0}
                           : static_cast<std::int8_t>(rng.uniform_int(0, 127));
  }
  return input;
}

std::vector<nn::QuantDscLayer> test_network() {
  return nn::make_random_quant_network(nn::zoo_specs("edeanet-64"), 7);
}

/// Everything except peak_arena_bytes, which legitimately reflects the
/// batched plan rather than the single-image one.
void expect_same_measurements(const NetworkRunResult& got,
                              const NetworkRunResult& want) {
  const RunSummary g = got.summary(kClockGhz);
  const RunSummary w = want.summary(kClockGhz);
  EXPECT_EQ(g.layer_count, w.layer_count);
  EXPECT_EQ(g.total_cycles, w.total_cycles);
  EXPECT_EQ(g.total_ops, w.total_ops);
  EXPECT_EQ(g.average_gops, w.average_gops);
  EXPECT_EQ(g.output_hash, w.output_hash);
  EXPECT_EQ(got.output.storage(), want.output.storage());
  ASSERT_EQ(got.layers.size(), want.layers.size());
  for (std::size_t l = 0; l < got.layers.size(); ++l) {
    SCOPED_TRACE("layer " + std::to_string(l));
    EXPECT_EQ(got.layers[l].output.storage(), want.layers[l].output.storage());
    EXPECT_EQ(got.layers[l].timing, want.layers[l].timing);
    EXPECT_EQ(got.layers[l].buffers, want.layers[l].buffers);
    EXPECT_EQ(got.layers[l].dataflow, want.layers[l].dataflow);
    EXPECT_EQ(got.layers[l].external, want.layers[l].external);
    EXPECT_EQ(got.layers[l].max_abs_psum, want.layers[l].max_abs_psum);
    EXPECT_EQ(got.layers[l].dwc_input_zero_fraction,
              want.layers[l].dwc_input_zero_fraction);
    EXPECT_EQ(got.layers[l].pwc_input_zero_fraction,
              want.layers[l].pwc_input_zero_fraction);
  }
}

TEST(BatchRun, EveryBackendMatchesSequentialRuns) {
  const std::vector<nn::QuantDscLayer> layers = test_network();
  const nn::Int8Tensor input = random_input(layers.front().spec, 21);
  for (const std::string& id : backend_ids()) {
    SCOPED_TRACE("backend " + id);
    const NetworkRunResult reference =
        make_backend(id)->run_network(layers, input);
    const std::vector<NetworkRunResult> batched =
        make_backend(id)->run_network_batch(layers, input, 3);
    ASSERT_EQ(batched.size(), 3u);
    for (std::size_t b = 0; b < batched.size(); ++b) {
      SCOPED_TRACE("image " + std::to_string(b));
      expect_same_measurements(batched[b], reference);
    }
  }
}

TEST(BatchRun, BatchedRunIsTileParallelismInvariant) {
  const std::vector<nn::QuantDscLayer> layers = test_network();
  const nn::Int8Tensor input = random_input(layers.front().spec, 5);
  auto serial = make_backend("edea");
  auto parallel = make_backend("edea");
  parallel->set_tile_parallelism(4);
  const auto a = serial->run_network_batch(layers, input, 2);
  const auto b = parallel->run_network_batch(layers, input, 2);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE("image " + std::to_string(i));
    // Full summary equality INCLUDING peak_arena_bytes: the activation
    // plan is a pure function of (network, batch), never of worker count.
    EXPECT_EQ(a[i].summary(kClockGhz), b[i].summary(kClockGhz));
    EXPECT_EQ(a[i].output.storage(), b[i].output.storage());
  }
}

TEST(BatchRun, PeakArenaBytesIsReportedAndGrowsWithBatch) {
  const std::vector<nn::QuantDscLayer> layers = test_network();
  const nn::Int8Tensor input = random_input(layers.front().spec, 9);
  for (const std::string& id : backend_ids()) {
    SCOPED_TRACE("backend " + id);
    const NetworkRunResult single =
        make_backend(id)->run_network(layers, input);
    EXPECT_GT(single.peak_arena_bytes, 0u);
    EXPECT_EQ(single.summary(kClockGhz).peak_arena_bytes,
              static_cast<std::uint64_t>(single.peak_arena_bytes));
  }
  // The edea backend plans the whole batch into one arena, so a larger
  // batch means more simultaneously-live activations.
  const auto b1 = make_backend("edea")->run_network_batch(layers, input, 1);
  const auto b4 = make_backend("edea")->run_network_batch(layers, input, 4);
  EXPECT_GT(b4.front().peak_arena_bytes, b1.front().peak_arena_bytes);
  EXPECT_EQ(b1.front().peak_arena_bytes,
            make_backend("edea")->run_network(layers, input).peak_arena_bytes);
}

TEST(BatchRun, SerializedBatchReportsItsStandalonePeak) {
  // The serialized baseline keeps the base-class batch loop: each image
  // is a standalone run planning its own arena (activations, intermediate
  // maps and psum scratch together), so the batch reports that peak.
  const std::vector<nn::QuantDscLayer> layers = test_network();
  const nn::Int8Tensor input = random_input(layers.front().spec, 9);
  const std::size_t standalone =
      make_backend("serialized")->run_network(layers, input).peak_arena_bytes;
  const auto batched =
      make_backend("serialized")->run_network_batch(layers, input, 3);
  ASSERT_EQ(batched.size(), 3u);
  for (const NetworkRunResult& r : batched) {
    EXPECT_EQ(r.peak_arena_bytes, standalone);
  }
}

TEST(BatchRun, RejectsNonPositiveBatch) {
  const std::vector<nn::QuantDscLayer> layers = test_network();
  const nn::Int8Tensor input = random_input(layers.front().spec, 3);
  for (const std::string& id : backend_ids()) {
    SCOPED_TRACE("backend " + id);
    auto backend = make_backend(id);
    EXPECT_THROW((void)backend->run_network_batch(layers, input, 0),
                 PreconditionError);
    EXPECT_THROW((void)backend->run_network_batch(layers, input, -2),
                 PreconditionError);
  }
}

}  // namespace
}  // namespace edea::core
