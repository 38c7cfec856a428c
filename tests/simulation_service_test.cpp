// simulation_service_test - behaviour of the long-running simulation
// front end: memoization (identical resubmission is a hit and
// bit-identical), cache keying (config or workload change is a miss),
// exact counters under concurrent submission, LRU eviction, in-flight
// coalescing, and bit-identity of served batches against the serial
// core::SweepRunner reference.
#include "service/simulation_service.hpp"

#include <gtest/gtest.h>

#include <future>
#include <latch>
#include <limits>
#include <thread>
#include <vector>

#include "core/sweep_runner.hpp"
#include "nn/model_zoo.hpp"
#include "service_submit.hpp"
#include "util/check.hpp"
#include "util/random.hpp"

namespace edea::service {
namespace {

/// Small two-layer DSC network (fast enough to simulate many times).
std::vector<nn::DscLayerSpec> tiny_specs() {
  nn::DscLayerSpec a;
  a.index = 0;
  a.in_rows = 8;
  a.in_cols = 8;
  a.in_channels = 16;
  a.out_channels = 32;
  nn::DscLayerSpec b;
  b.index = 1;
  b.in_rows = 8;
  b.in_cols = 8;
  b.in_channels = 32;
  b.stride = 2;
  b.out_channels = 32;
  return {a, b};
}

nn::Int8Tensor tiny_input(std::uint64_t seed) {
  Rng rng(seed);
  nn::Int8Tensor input(nn::Shape{8, 8, 16});
  for (auto& v : input.storage()) {
    v = static_cast<std::int8_t>(rng.uniform_int(-64, 64));
  }
  return input;
}

/// One network + input, reusable across tests.
struct Fixture {
  std::vector<nn::QuantDscLayer> layers =
      nn::make_random_quant_network(tiny_specs(), 77);
  nn::Int8Tensor input = tiny_input(78);

  [[nodiscard]] core::SweepJob job(const std::string& name, int td = 8,
                                   int tk = 16) const {
    core::SweepJob j;
    j.name = name;
    j.config.td = td;
    j.config.tk = tk;
    j.layers = &layers;
    j.input = &input;
    return j;
  }
};

/// Outcomes agree on the whole RunSummary (output hash and total cycles
/// included) and, when neither is a summary-only hit, on the per-layer
/// result too.
void expect_bit_identical(const core::SweepOutcome& a,
                          const core::SweepOutcome& b) {
  EXPECT_EQ(a.ok, b.ok);
  EXPECT_EQ(a.error, b.error);
  if (!a.ok || !b.ok) return;
  EXPECT_EQ(a.summary, b.summary);
  if (a.summary_only || b.summary_only) return;
  EXPECT_EQ(a.result.total_cycles(), b.result.total_cycles());
  EXPECT_EQ(a.result.output.storage(), b.result.output.storage());
  EXPECT_EQ(a.result.summary(1.0), b.result.summary(1.0));
}

/// Submits every job at once (all in flight concurrently) and waits for
/// all of them; outcome i answers jobs[i], like SweepRunner::run.
std::vector<core::SweepOutcome> serve_all(
    SimulationService& svc, const std::vector<core::SweepJob>& jobs) {
  std::vector<std::future<core::SweepOutcome>> futures;
  for (const core::SweepJob& job : jobs) {
    futures.push_back(submit_future(svc, job));
  }
  std::vector<core::SweepOutcome> outcomes;
  for (std::future<core::SweepOutcome>& f : futures) {
    outcomes.push_back(f.get());
  }
  return outcomes;
}

TEST(SimulationServiceTest, IdenticalResubmissionIsAHitAndBitIdentical) {
  Fixture fx;
  SimulationService svc;

  const core::SweepOutcome first = submit_future(svc, fx.job("first")).get();
  ASSERT_TRUE(first.ok) << first.error;
  EXPECT_FALSE(first.cache_hit);
  EXPECT_FALSE(first.summary_only);  // the miss's own submitter: per-layer

  const core::SweepOutcome second = submit_future(svc, fx.job("second")).get();
  EXPECT_TRUE(second.cache_hit);
  EXPECT_TRUE(second.summary_only);  // the cache stores summaries only
  EXPECT_TRUE(second.result.layers.empty());
  EXPECT_EQ(second.name, "second");  // identity is per-request
  expect_bit_identical(first, second);

  const CacheStats stats = svc.cache_stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(SimulationServiceTest, DifferingConfigIsAMiss) {
  Fixture fx;
  SimulationService svc;

  ASSERT_TRUE(submit_future(svc, fx.job("paper", 8, 16)).get().ok);
  const core::SweepOutcome scaled =
      submit_future(svc, fx.job("4x", 16, 32)).get();
  EXPECT_FALSE(scaled.cache_hit);

  // clock_ghz participates in the key too (it changes reported GOPS).
  core::SweepJob clocked = fx.job("clocked");
  clocked.config.clock_ghz = 0.8;
  EXPECT_FALSE(submit_future(svc, std::move(clocked)).get().cache_hit);

  const CacheStats stats = svc.cache_stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 3u);
  EXPECT_EQ(stats.entries, 3u);
}

TEST(SimulationServiceTest, DifferingWorkloadIsAMiss) {
  Fixture fx;
  SimulationService svc;
  ASSERT_TRUE(submit_future(svc, fx.job("a")).get().ok);

  // Same config, different weights -> different fingerprint.
  Fixture other;
  other.layers = nn::make_random_quant_network(tiny_specs(), 99);
  EXPECT_FALSE(submit_future(svc, other.job("b")).get().cache_hit);

  // Same weights, different input -> different fingerprint.
  Fixture shifted;
  shifted.input = tiny_input(1234);
  EXPECT_FALSE(submit_future(svc, shifted.job("c")).get().cache_hit);

  EXPECT_EQ(svc.cache_stats().misses, 3u);
  EXPECT_EQ(svc.cache_stats().hits, 0u);
}

TEST(SimulationServiceTest, BatchMatchesSerialSweepRunnerBitExactly) {
  Fixture fx;
  // >= 8 mixed requests including repeats and an infeasible point - the
  // acceptance shape of the service.
  std::vector<core::SweepJob> jobs;
  jobs.push_back(fx.job("j0", 8, 16));
  jobs.push_back(fx.job("j1", 16, 16));
  jobs.push_back(fx.job("j2", 8, 32));
  jobs.push_back(fx.job("j3", 8, 16));   // repeat of j0
  jobs.push_back(fx.job("j4", 16, 32));
  jobs.push_back(fx.job("j5", 16, 16));  // repeat of j1
  core::SweepJob infeasible = fx.job("j6");
  infeasible.config.kernel = 5;  // cannot map 3x3 layers
  jobs.push_back(infeasible);
  jobs.push_back(fx.job("j7", 8, 32));   // repeat of j2

  const std::vector<core::SweepOutcome> serial =
      core::SweepRunner(core::SweepRunner::Options{1}).run(jobs);

  SimulationService svc;
  const std::vector<core::SweepOutcome> served = serve_all(svc, jobs);

  ASSERT_EQ(served.size(), serial.size());
  for (std::size_t i = 0; i < served.size(); ++i) {
    SCOPED_TRACE("job " + std::to_string(i));
    EXPECT_EQ(served[i].name, serial[i].name);
    expect_bit_identical(served[i], serial[i]);
  }
  EXPECT_FALSE(served[6].ok);
  // Submission order is the request order, so the first occurrence is the
  // miss and every repeat is the hit - deterministically.
  EXPECT_FALSE(served[0].cache_hit);
  EXPECT_FALSE(served[0].summary_only);
  for (const std::size_t repeat : {3u, 5u, 7u}) {
    EXPECT_TRUE(served[repeat].cache_hit);
    EXPECT_TRUE(served[repeat].summary_only);
  }

  const CacheStats stats = svc.cache_stats();
  EXPECT_EQ(stats.misses, 5u);  // 4 feasible configs + 1 infeasible
  EXPECT_EQ(stats.hits, 3u);
}

TEST(SimulationServiceTest, StatsAreExactUnderConcurrentSubmission) {
  Fixture fx;
  SimulationService svc;

  // Many client threads hammer the same request plus a private one each.
  constexpr int kClients = 6;
  std::vector<std::thread> clients;
  std::vector<core::SweepOutcome> shared_outcomes(kClients);
  std::vector<core::SweepOutcome> private_outcomes(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      auto shared = submit_future(svc, fx.job("shared-" + std::to_string(c)));
      auto mine = submit_future(
          svc, fx.job("mine-" + std::to_string(c), 8, 16 + 16 * (c + 1)));
      shared_outcomes[static_cast<std::size_t>(c)] = shared.get();
      private_outcomes[static_cast<std::size_t>(c)] = mine.get();
    });
  }
  for (std::thread& t : clients) t.join();

  // Exactly one simulation for the shared key (coalesced or cached, both
  // count as hits), one per private key.
  const CacheStats stats = svc.cache_stats();
  EXPECT_EQ(stats.misses, 1u + kClients);
  EXPECT_EQ(stats.hits, kClients - 1u);
  EXPECT_EQ(stats.entries, 1u + kClients);

  // Every view of the shared request matches the reference run: the miss
  // per layer, the summary-only hits on their whole summary.
  const core::SweepOutcome reference = core::evaluate_job(fx.job("reference"));
  int summary_only = 0;
  for (int c = 0; c < kClients; ++c) {
    SCOPED_TRACE("client " + std::to_string(c));
    const core::SweepOutcome& shared =
        shared_outcomes[static_cast<std::size_t>(c)];
    EXPECT_EQ(shared.summary_only, shared.cache_hit);
    summary_only += shared.summary_only ? 1 : 0;
    expect_bit_identical(reference, shared);
  }
  EXPECT_EQ(summary_only, kClients - 1);
}

TEST(SimulationServiceTest, LruEvictionIsCountedAndBounded) {
  Fixture fx;
  ServiceOptions options;
  options.cache_capacity = 1;
  SimulationService svc(options);

  ASSERT_TRUE(submit_future(svc, fx.job("a", 8, 16)).get().ok);  // resident
  ASSERT_TRUE(submit_future(svc, fx.job("b", 16, 16)).get().ok);  // evicts a
  // "a" was evicted -> resubmission simulates again.
  EXPECT_FALSE(submit_future(svc, fx.job("a2", 8, 16)).get().cache_hit);

  const CacheStats stats = svc.cache_stats();
  EXPECT_EQ(stats.misses, 3u);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.evictions, 2u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(SimulationServiceTest, EvictionOrderIsLeastRecentlyUsedNotFifo) {
  Fixture fx;
  ServiceOptions options;
  options.cache_capacity = 2;
  SimulationService svc(options);

  ASSERT_TRUE(submit_future(svc, fx.job("a", 8, 16)).get().ok);   // [a]
  ASSERT_TRUE(submit_future(svc, fx.job("b", 16, 16)).get().ok);  // [b a]
  // Touch "a": it becomes most recently used, so the next insertion must
  // evict "b" - FIFO would (wrongly) evict "a" as the oldest insertion.
  EXPECT_TRUE(submit_future(svc, fx.job("a-touch", 8, 16)).get().cache_hit);
  ASSERT_TRUE(submit_future(svc, fx.job("c", 8, 32)).get().ok);   // evicts b

  EXPECT_TRUE(submit_future(svc, fx.job("a-again", 8, 16)).get().cache_hit)
      << "the recently used entry must have survived";
  EXPECT_FALSE(submit_future(svc, fx.job("b-again", 16, 16)).get().cache_hit)
      << "the least recently used entry must have been evicted";

  const CacheStats stats = svc.cache_stats();
  EXPECT_EQ(stats.misses, 4u);  // a, b, c, b-again
  EXPECT_EQ(stats.hits, 2u);    // a-touch, a-again
  EXPECT_EQ(stats.evictions, 2u);  // b (by c), then a or c (by b-again)
  EXPECT_EQ(stats.entries, 2u);
}

TEST(SimulationServiceTest, HammeringOneDesignPointCostsExactlyOneMiss) {
  // N threads fire the *same* design point through one gate: whatever the
  // interleaving, the first submission simulates and every other one is a
  // hit - coalesced onto the in-flight simulation or served from the
  // completed entry, both accounted identically.
  Fixture fx;
  SimulationService svc;

  constexpr int kClients = 8;
  std::latch gate(kClients);
  std::vector<std::thread> clients;
  std::vector<core::SweepOutcome> outcomes(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      auto future = [&] {
        gate.arrive_and_wait();  // maximize racing submissions
        return submit_future(svc, fx.job("hammer-" + std::to_string(c)));
      }();
      outcomes[static_cast<std::size_t>(c)] = future.get();
    });
  }
  for (std::thread& t : clients) t.join();

  const CacheStats stats = svc.cache_stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, kClients - 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.in_flight, 0u);

  // The one miss carries the per-layer result; every hit is summary-only.
  // All of them match the reference run.
  const core::SweepOutcome reference = core::evaluate_job(fx.job("reference"));
  int flagged_hits = 0;
  for (int c = 0; c < kClients; ++c) {
    SCOPED_TRACE("client " + std::to_string(c));
    const core::SweepOutcome& outcome = outcomes[static_cast<std::size_t>(c)];
    flagged_hits += outcome.cache_hit ? 1 : 0;
    EXPECT_EQ(outcome.summary_only, outcome.cache_hit);
    expect_bit_identical(reference, outcome);
    EXPECT_EQ(outcome.name, "hammer-" + std::to_string(c));
  }
  EXPECT_EQ(flagged_hits, kClients - 1);
}

TEST(SimulationServiceTest, ZeroCapacityDisablesMemoization) {
  Fixture fx;
  ServiceOptions options;
  options.cache_capacity = 0;
  SimulationService svc(options);

  const core::SweepOutcome first = submit_future(svc, fx.job("a")).get();
  const core::SweepOutcome second = submit_future(svc, fx.job("b")).get();
  EXPECT_FALSE(first.cache_hit);
  EXPECT_FALSE(second.cache_hit);
  expect_bit_identical(first, second);  // still deterministic

  const CacheStats stats = svc.cache_stats();
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.entries, 0u);
}

TEST(SimulationServiceTest, DedicatedPoolServesIdentically) {
  Fixture fx;
  ServiceOptions options;
  options.worker_threads = 3;
  SimulationService svc(options);

  const core::SweepOutcome served =
      submit_future(svc, fx.job("dedicated")).get();
  const core::SweepOutcome reference = core::evaluate_job(fx.job("dedicated"));
  expect_bit_identical(served, reference);
}

TEST(SimulationServiceTest, TileParallelServiceIsBitIdentical) {
  // A service running every request with tile-parallel layers must serve
  // outcomes bit-identical to the plain (serial-tile) service and to the
  // serial SweepRunner reference.
  Fixture fx;
  ServiceOptions options;
  options.tile_parallelism = 4;
  SimulationService svc(options);

  std::vector<core::SweepJob> jobs;
  jobs.push_back(fx.job("a", 8, 16));
  jobs.push_back(fx.job("b", 16, 32));
  jobs.push_back(fx.job("c", 4, 8));
  const auto served = serve_all(svc, jobs);

  core::SweepOptions serial;
  serial.parallelism = 1;  // tile_parallelism defaults to 1: fully serial
  const auto reference = core::SweepRunner(serial).run(jobs);
  ASSERT_EQ(served.size(), reference.size());
  for (std::size_t i = 0; i < served.size(); ++i) {
    SCOPED_TRACE("outcome " + std::to_string(i));
    expect_bit_identical(reference[i], served[i]);
  }
}

TEST(SimulationServiceTest, ZeroOrNegativeTileParallelismIsAPreconditionError) {
  // Mirrors the sweep-level negative-parallelism tests: the service must
  // reject a zero or negative tile width at construction, loudly, instead
  // of silently picking a policy.
  for (const int bad : {0, -1, -64}) {
    SCOPED_TRACE("tile_parallelism=" + std::to_string(bad));
    ServiceOptions options;
    options.tile_parallelism = bad;
    EXPECT_THROW(SimulationService{options}, PreconditionError);
  }
  ServiceOptions ok;
  ok.tile_parallelism = 4;
  EXPECT_NO_THROW(SimulationService{ok});
}

TEST(SimulationServiceTest, NullNetworkIsAPreconditionError) {
  SimulationService svc;
  core::SweepJob dangling;
  dangling.name = "dangling";
  EXPECT_THROW((void)submit_future(svc, std::move(dangling)),
               PreconditionError);
}

TEST(SimulationServiceTest, NonFiniteClockIsAPreconditionError) {
  // NaN never equals itself, so a NaN-keyed cache entry could never be
  // found again - the service rejects it at the boundary.
  Fixture fx;
  SimulationService svc;
  core::SweepJob poisoned = fx.job("poisoned");
  poisoned.config.clock_ghz = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW((void)submit_future(svc, std::move(poisoned)),
               PreconditionError);
}

TEST(SimulationServiceTest, FingerprintIsOrderAndContentSensitive) {
  Fixture fx;
  const std::uint64_t base = core::network_fingerprint(fx.layers, fx.input);

  // Same data hashes the same.
  EXPECT_EQ(base, core::network_fingerprint(fx.layers, fx.input));

  // One flipped input byte changes it.
  nn::Int8Tensor tweaked = fx.input;
  tweaked.storage()[0] = static_cast<std::int8_t>(tweaked.storage()[0] + 1);
  EXPECT_NE(base, core::network_fingerprint(fx.layers, tweaked));

  // One flipped weight changes it.
  auto layers = fx.layers;
  layers[0].dwc_weights.storage()[0] = static_cast<std::int8_t>(
      layers[0].dwc_weights.storage()[0] + 1);
  EXPECT_NE(base, core::network_fingerprint(layers, fx.input));
}

}  // namespace
}  // namespace edea::service
