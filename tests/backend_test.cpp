// backend_test - the cross-backend contract of the pluggable accelerator
// seam (core/backend.hpp), pinned by the acceptance criteria of the
// backend refactor:
//   (a) for every zoo network, the "edea" and "serialized" backends
//       produce bit-identical output tensors (and so identical summary
//       output hashes) - the arithmetic is shared,
//   (b) the serialized backend reports strictly more external-memory
//       traffic and at least as many cycles as "edea" (the Fig. 3 /
//       Table III claim),
//   (c) a mixed-backend request stream served over a real socket is
//       byte-identical to the stdio reference, including persisted-cache
//       hits keyed per backend.
// Plus the registry mechanics themselves (lookup, registration rules,
// sweep plumbing).
#include "core/backend.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "baseline/serialized_accelerator.hpp"
#include "core/accelerator.hpp"
#include "core/sweep_runner.hpp"
#include "nn/model_zoo.hpp"
#include "service/session.hpp"
#include "service/simulation_service.hpp"
#include "service/transport.hpp"
#include "util/check.hpp"
#include "util/random.hpp"

namespace edea::core {
namespace {

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

std::int64_t total_external_accesses(const NetworkRunResult& result) {
  std::int64_t total = 0;
  for (const auto& layer : result.layers) {
    total += layer.external.total_accesses();
  }
  return total;
}

// --- registry mechanics -----------------------------------------------------

TEST(BackendRegistryTest, InTreeBackendsAreRegistered) {
  EXPECT_TRUE(backend_known("edea"));
  EXPECT_TRUE(backend_known("serialized"));
  EXPECT_FALSE(backend_known(""));
  EXPECT_FALSE(backend_known("warp-drive"));

  const std::vector<std::string> ids = backend_ids();
  EXPECT_NE(std::find(ids.begin(), ids.end(), "edea"), ids.end());
  EXPECT_NE(std::find(ids.begin(), ids.end(), "serialized"), ids.end());
  EXPECT_TRUE(std::is_sorted(ids.begin(), ids.end()));

  const std::string known = known_backends_string();
  EXPECT_NE(known.find("edea"), std::string::npos);
  EXPECT_NE(known.find("serialized"), std::string::npos);
}

TEST(BackendRegistryTest, MakeBackendInstantiatesTheRequestedDataflow) {
  const std::unique_ptr<AcceleratorBackend> edea = make_backend("edea");
  ASSERT_NE(edea, nullptr);
  EXPECT_EQ(edea->backend_id(), "edea");
  EXPECT_NE(dynamic_cast<EdeaAccelerator*>(edea.get()), nullptr);

  EdeaConfig config;
  config.td = 16;
  const std::unique_ptr<AcceleratorBackend> serialized =
      make_backend("serialized", config);
  ASSERT_NE(serialized, nullptr);
  EXPECT_EQ(serialized->backend_id(), "serialized");
  EXPECT_EQ(serialized->config().td, 16);
  EXPECT_NE(dynamic_cast<baseline::SerializedDscAccelerator*>(
                serialized.get()),
            nullptr);
}

TEST(BackendRegistryTest, UnknownIdThrowsNamingTheVocabulary) {
  try {
    (void)make_backend("warp-drive");
    FAIL() << "unknown backend id must throw";
  } catch (const PreconditionError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("warp-drive"), std::string::npos) << what;
    EXPECT_NE(what.find("edea"), std::string::npos) << what;
    EXPECT_NE(what.find("serialized"), std::string::npos) << what;
  }
}

TEST(BackendRegistryTest, RegistrationRejectsUnusableIds) {
  const BackendFactory factory = [](const EdeaConfig& config) {
    return std::make_unique<EdeaAccelerator>(config);
  };
  EXPECT_THROW((void)register_backend("", factory), PreconditionError);
  EXPECT_THROW((void)register_backend("two words", factory),
               PreconditionError);
  EXPECT_THROW((void)register_backend("x", nullptr), PreconditionError);
}

TEST(BackendRegistryTest, EmbedderBackendsResolveEverywhere) {
  // A registered third dataflow is immediately reachable through the
  // whole plumbing - here via evaluate_job, the narrow waist.
  const bool fresh = register_backend(
      "test-alias", [](const EdeaConfig& config) {
        return std::make_unique<EdeaAccelerator>(config);
      });
  EXPECT_TRUE(fresh || backend_known("test-alias"));

  const auto specs = nn::zoo_specs("edeanet-64");
  const auto layers = nn::make_random_quant_network(specs, 11);
  const nn::Int8Tensor input = random_input(specs.front(), 12);
  SweepJob job;
  job.name = "aliased";
  job.backend = "test-alias";
  job.layers = &layers;
  job.input = &input;
  const SweepOutcome outcome = evaluate_job(job);
  ASSERT_TRUE(outcome.ok) << outcome.error;
  EXPECT_EQ(outcome.backend, "test-alias");
}

// --- sweep plumbing ---------------------------------------------------------

TEST(BackendSweepTest, EvaluateJobResolvesEmptyBackendToDefault) {
  const auto specs = nn::zoo_specs("edeanet-64");
  const auto layers = nn::make_random_quant_network(specs, 21);
  const nn::Int8Tensor input = random_input(specs.front(), 22);
  SweepJob job;
  job.name = "default";
  job.layers = &layers;
  job.input = &input;
  const SweepOutcome outcome = evaluate_job(job);
  ASSERT_TRUE(outcome.ok) << outcome.error;
  EXPECT_EQ(outcome.backend, std::string(kDefaultBackendId));
}

TEST(BackendSweepTest, UnknownJobBackendIsAPreconditionError) {
  const auto specs = nn::zoo_specs("edeanet-64");
  const auto layers = nn::make_random_quant_network(specs, 21);
  const nn::Int8Tensor input = random_input(specs.front(), 22);
  SweepJob job;
  job.name = "typo";
  job.backend = "serializd";  // the typo the hard error exists for
  job.layers = &layers;
  job.input = &input;
  EXPECT_THROW((void)evaluate_job(job), PreconditionError);
  // A sweep does not swallow it either.
  EXPECT_THROW((void)SweepRunner(SweepOptions{1}).run({job}),
               PreconditionError);
}

TEST(BackendSweepTest, RunnerRunsEachJobOnItsOwnBackend) {
  const auto specs = nn::zoo_specs("edeanet-64");
  const auto layers = nn::make_random_quant_network(specs, 31);
  const nn::Int8Tensor input = random_input(specs.front(), 32);

  SweepJob serialized;
  serialized.name = "serialized";
  serialized.backend = "serialized";
  serialized.layers = &layers;
  serialized.input = &input;
  SweepJob edea = serialized;
  edea.name = "edea";
  edea.backend = "edea";

  const std::vector<SweepOutcome> outcomes =
      SweepRunner(SweepOptions{1}).run({serialized, edea});
  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_EQ(outcomes[0].backend, "serialized");
  EXPECT_EQ(outcomes[1].backend, "edea");
  // Both simulated the same workload: identical outputs, divergent cycles.
  ASSERT_TRUE(outcomes[0].ok) << outcomes[0].error;
  ASSERT_TRUE(outcomes[1].ok) << outcomes[1].error;
  EXPECT_EQ(outcomes[0].summary.output_hash, outcomes[1].summary.output_hash);
  EXPECT_GT(outcomes[0].summary.total_cycles,
            outcomes[1].summary.total_cycles);
}

TEST(BackendContractTest, SerializedBackendValidatesTileParallelism) {
  baseline::SerializedDscAccelerator accel;
  EXPECT_THROW(accel.set_tile_parallelism(0), PreconditionError);
  EXPECT_THROW(accel.set_tile_parallelism(-2), PreconditionError);
  accel.set_tile_parallelism(4);  // accepted; execution stays serial
  EXPECT_EQ(accel.tile_parallelism(), 4);
}

/// Every measurement of two layer runs, field by field.
void expect_same_layer(const LayerRunResult& a, const LayerRunResult& b) {
  EXPECT_EQ(a.output, b.output);
  EXPECT_EQ(a.timing, b.timing);
  EXPECT_EQ(a.buffers, b.buffers);
  EXPECT_EQ(a.dataflow, b.dataflow);
  EXPECT_EQ(a.external, b.external);
  EXPECT_EQ(a.dwc_activity, b.dwc_activity);
  EXPECT_EQ(a.pwc_activity, b.pwc_activity);
  EXPECT_EQ(a.nonconv_transfer_ops, b.nonconv_transfer_ops);
  EXPECT_EQ(a.nonconv_writeback_ops, b.nonconv_writeback_ops);
  EXPECT_EQ(a.pwc_input_zeros, b.pwc_input_zeros);
  EXPECT_EQ(a.pwc_input_total, b.pwc_input_total);
  EXPECT_EQ(a.max_abs_psum, b.max_abs_psum);
  EXPECT_EQ(a.dwc_input_zero_fraction, b.dwc_input_zero_fraction);
  EXPECT_EQ(a.pwc_input_zero_fraction, b.pwc_input_zero_fraction);
}

TEST(BackendContractTest, ReusedInstancesMatchFreshOnesAcrossTileSizes) {
  // The datapath keeps one psum block, sized from the largest tile so far
  // and reused across tiles and layers. A large-tile layer (8x8 outputs x
  // 256 kernels: the whole accumulator), a small-tile one (4x4 x 32) and
  // the large one again, run on one instance of each backend, must each
  // measure exactly what a fresh instance measures.
  struct Case {
    nn::QuantDscLayer layer;
    nn::Int8Tensor input;
  };
  const auto make_case = [](int rows, int channels, int kernels,
                            std::uint64_t seed) {
    nn::DscLayerSpec spec;
    spec.in_rows = rows;
    spec.in_cols = rows;
    spec.in_channels = channels;
    spec.out_channels = kernels;
    return Case{nn::make_random_quant_network({spec}, seed).front(),
                random_input(spec, seed)};
  };
  const Case large = make_case(16, 32, 256, 61);
  const Case small = make_case(4, 16, 32, 62);

  EdeaAccelerator edea;
  baseline::SerializedDscAccelerator serialized;
  int run = 0;
  for (const Case* c : {&large, &small, &large}) {
    SCOPED_TRACE("run " + std::to_string(run++));
    expect_same_layer(edea.run_layer(c->layer, c->input),
                      EdeaAccelerator().run_layer(c->layer, c->input));
    const baseline::SerializedLayerResult reused =
        serialized.run_layer(c->layer, c->input);
    const baseline::SerializedLayerResult fresh =
        baseline::SerializedDscAccelerator().run_layer(c->layer, c->input);
    expect_same_layer(reused.common, fresh.common);
    EXPECT_EQ(reused.dwc_phase_cycles, fresh.dwc_phase_cycles);
    EXPECT_EQ(reused.pwc_phase_cycles, fresh.pwc_phase_cycles);
    EXPECT_EQ(reused.intermediate_external_writes,
              fresh.intermediate_external_writes);
    EXPECT_EQ(reused.intermediate_external_reads,
              fresh.intermediate_external_reads);
  }
}

// --- (a) + (b): the cross-backend contract on every zoo network ------------

TEST(BackendContractTest, EveryZooNetworkBitExactOutputsAndFig3Ordering) {
  for (const std::string& name : nn::zoo_network_names()) {
    SCOPED_TRACE("network " + name);
    EdeaConfig config;  // paper defaults
    if (name == "mobilenet-imagenet") {
      // Same accommodation as the tile-parallel suite: the paper
      // accumulator cannot hold K=512 kernels under 8x8 output tiles.
      config.max_tile_out = 4;
    }
    const auto specs = nn::zoo_specs(name);
    const auto layers = nn::make_random_quant_network(specs, 2025);
    const nn::Int8Tensor input = random_input(specs.front(), 5252);

    std::unique_ptr<AcceleratorBackend> edea = make_backend("edea", config);
    std::unique_ptr<AcceleratorBackend> serialized =
        make_backend("serialized", config);
    const NetworkRunResult fast = edea->run_network(layers, input);
    const NetworkRunResult slow = serialized->run_network(layers, input);

    // (a) bit-exact outputs: the final tensor, every per-layer tensor,
    // and the summaries' content hashes.
    ASSERT_EQ(fast.layers.size(), slow.layers.size());
    EXPECT_EQ(fast.output.storage(), slow.output.storage());
    for (std::size_t l = 0; l < fast.layers.size(); ++l) {
      SCOPED_TRACE("layer " + std::to_string(l));
      EXPECT_EQ(fast.layers[l].output.storage(),
                slow.layers[l].output.storage());
    }
    const RunSummary fast_summary = fast.summary(config.clock_ghz);
    const RunSummary slow_summary = slow.summary(config.clock_ghz);
    EXPECT_EQ(fast_summary.output_hash, slow_summary.output_hash);
    EXPECT_EQ(fast_summary.total_ops, slow_summary.total_ops);
    EXPECT_EQ(fast_summary.layer_count, slow_summary.layer_count);

    // (b) the Fig. 3 ordering: the round-trip dataflow moves strictly
    // more data through external memory and can never be faster.
    EXPECT_GT(total_external_accesses(slow), total_external_accesses(fast));
    EXPECT_GE(slow_summary.total_cycles, fast_summary.total_cycles);
    for (std::size_t l = 0; l < fast.layers.size(); ++l) {
      SCOPED_TRACE("layer " + std::to_string(l));
      EXPECT_GT(slow.layers[l].external.total_accesses(),
                fast.layers[l].external.total_accesses());
      EXPECT_GE(slow.layers[l].timing.total_cycles,
                fast.layers[l].timing.total_cycles);
    }
  }
}

}  // namespace
}  // namespace edea::core

// --- (c): mixed-backend request stream over the wire ------------------------

namespace edea::service {
namespace {

/// The mixed-backend scripted stream: both dataflows, explicit and
/// defaulted ids, repeats that must hit per-backend cache keys, an
/// infeasible point on the baseline, and an unknown id that must answer
/// protocol-error. mobilenet-0.25x td=16 is the cheapest zoo simulation.
std::vector<std::string> mixed_backend_stream() {
  return {
      "# mixed-backend session",
      "run mobilenet-0.25x seed=3 td=16",
      "run mobilenet-0.25x seed=3 td=16 backend=serialized",
      "run mobilenet-0.25x seed=3 td=16 backend=edea",  // repeat of 1 -> hit
      "run mobilenet-0.25x seed=3 td=16 backend=serialized",  // repeat -> hit
      "run mobilenet-0.25x seed=3 kernel=5 backend=serialized",  // infeasible
      "run mobilenet-0.25x seed=3 backend=warp-drive",  // protocol error
      "stats",
  };
}

std::vector<std::string> serve_stdio(SimulationService& svc,
                                     const std::vector<std::string>& lines) {
  std::ostringstream joined;
  for (const std::string& line : lines) joined << line << "\n";
  std::istringstream in(joined.str());
  std::ostringstream out;
  StdioStream stream(in, out);
  WorkloadCatalog catalog;
  (void)Session(svc, catalog).serve(stream);

  std::vector<std::string> responses;
  std::istringstream replay(out.str());
  std::string line;
  while (std::getline(replay, line)) responses.push_back(line);
  return responses;
}

/// Extracts "key=value" from a response line ("" when absent).
std::string token_of(const std::string& line, const std::string& key) {
  const std::size_t at = line.find(" " + key + "=");
  if (at == std::string::npos) return "";
  const std::size_t begin = at + key.size() + 2;
  const std::size_t end = line.find(' ', begin);
  return line.substr(begin, end == std::string::npos ? end : end - begin);
}

TEST(BackendServiceTest, MixedBackendSocketStreamMatchesStdioByteForByte) {
  // Reference: the stdio code path on a fresh service.
  SimulationService stdio_svc;
  const std::vector<std::string> expected =
      serve_stdio(stdio_svc, mixed_backend_stream());

  // Same stream over a real loopback socket against another fresh service.
  SimulationService socket_svc;
  WorkloadCatalog socket_catalog;
  SocketTransportOptions options;
  options.max_sessions = 1;
  SocketTransport transport(options);
  std::thread server([&] {
    transport.serve([&](Stream& stream) {
      Session(socket_svc, socket_catalog).serve(stream);
    });
  });
  std::vector<std::string> responses;
  {
    std::unique_ptr<Stream> client =
        connect_socket("127.0.0.1", transport.port(), /*retry_ms=*/5000);
    for (const std::string& line : mixed_backend_stream()) {
      ASSERT_TRUE(client->write_line(line));
    }
    client->close_write();
    std::string line;
    while (client->read_line(line)) responses.push_back(line);
  }
  server.join();

  EXPECT_EQ(responses, expected);

  // The stream's semantic shape, pinned once on the reference bytes:
  // 5 run replies + 1 protocol error + 1 stats line.
  ASSERT_EQ(expected.size(), 7u);
  EXPECT_EQ(token_of(expected[0], "backend"), "edea");
  EXPECT_EQ(token_of(expected[1], "backend"), "serialized");
  EXPECT_EQ(token_of(expected[0], "cache"), "miss");
  EXPECT_EQ(token_of(expected[1], "cache"), "miss");  // distinct key!
  EXPECT_EQ(token_of(expected[2], "cache"), "hit");
  EXPECT_EQ(token_of(expected[3], "cache"), "hit");
  // Bit-exact across dataflows, divergent measurements.
  EXPECT_EQ(token_of(expected[0], "out"), token_of(expected[1], "out"));
  EXPECT_NE(token_of(expected[0], "cycles"),
            token_of(expected[1], "cycles"));
  EXPECT_EQ(expected[4].rfind("error ", 0), 0u) << expected[4];
  EXPECT_EQ(expected[5].rfind("protocol-error ", 0), 0u) << expected[5];
  EXPECT_NE(expected[5].find("warp-drive"), std::string::npos);
  // 2 misses (one per backend) + infeasible miss; repeats hit.
  EXPECT_EQ(expected[6], "stats hits=2 misses=3 evictions=0 entries=3 "
                         "inflight=0");
}

TEST(BackendServiceTest, PersistedCacheReplayIsKeyedPerBackend) {
  // First life: serve the mixed stream and persist the summaries.
  const std::string path = testing::TempDir() + "edea_backend_replay.cache";
  std::vector<std::string> first;
  {
    SimulationService svc;
    first = serve_stdio(svc, mixed_backend_stream());
    EXPECT_EQ(svc.save_cache(path), 3u);  // edea + serialized + infeasible
  }

  // Second life: every run request is served summary-only from the
  // per-backend persisted entries - same content, cache=hit everywhere.
  SimulationService svc;
  EXPECT_EQ(svc.load_cache(path), 3u);
  const std::vector<std::string> replay =
      serve_stdio(svc, mixed_backend_stream());
  ASSERT_EQ(replay.size(), first.size());
  for (std::size_t i = 0; i + 1 < replay.size(); ++i) {
    SCOPED_TRACE("response " + std::to_string(i));
    if (token_of(first[i], "cache").empty()) {
      EXPECT_EQ(replay[i], first[i]);  // protocol-error line, unchanged
      continue;
    }
    EXPECT_EQ(token_of(replay[i], "cache"), "hit") << replay[i];
    // Content identical up to the cache flag: replace and compare.
    std::string expected_line = first[i];
    const std::size_t at = expected_line.find("cache=miss");
    if (at != std::string::npos) {
      expected_line.replace(at, 10, "cache=hit");
    }
    EXPECT_EQ(replay[i], expected_line);
  }
  EXPECT_EQ(replay.back(), "stats hits=5 misses=0 evictions=0 entries=3 "
                           "inflight=0");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace edea::service
