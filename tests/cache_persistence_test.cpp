// cache_persistence_test - the restart-surviving result cache of the
// simulation service: save -> load -> hit round trips (including error
// outcomes), bit-identical protocol lines from persisted summaries,
// merge-on-resave, loaded entries pinned outside the LRU, and loud
// rejection of corrupted, truncated, or version-skewed cache files.
#include "service/simulation_service.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <future>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "core/sweep_runner.hpp"
#include "nn/model_zoo.hpp"
#include "service/protocol.hpp"
#include "service/router.hpp"
#include "service_submit.hpp"
#include "util/binary.hpp"
#include "util/check.hpp"
#include "util/hash.hpp"
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

  [[nodiscard]] core::SweepJob infeasible(const std::string& name) const {
    core::SweepJob j = job(name);
    j.config.kernel = 5;  // cannot map 3x3 layers -> error outcome
    return j;
  }
};

std::string temp_cache_path(const std::string& name) {
  return testing::TempDir() + "edea_" + name + ".cache";
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out.good()) << path;
  out << bytes;
}

/// A hand-built cache payload framed as a file: the bytes, then their
/// FNV-1a digest - a file that passes the checksum whatever it claims.
std::string framed(const util::ByteWriter& w) {
  const std::uint64_t digest =
      util::Fnv1a64().bytes(w.buffer().data(), w.buffer().size()).digest();
  std::string bytes(w.buffer().data(), w.buffer().size());
  bytes.append(reinterpret_cast<const char*>(&digest), sizeof(digest));
  return bytes;
}

TEST(CachePersistenceTest, SaveLoadRoundTripServesHitsBitIdentically) {
  const std::string path = temp_cache_path("roundtrip");
  Fixture fx;

  // First life: simulate three points (one infeasible), persist.
  core::SweepOutcome first_ok, first_err;
  {
    SimulationService svc;
    first_ok = submit_future(svc, fx.job("a", 8, 16)).get();
    ASSERT_TRUE(first_ok.ok) << first_ok.error;
    ASSERT_TRUE(submit_future(svc, fx.job("b", 16, 32)).get().ok);
    first_err = submit_future(svc, fx.infeasible("bad")).get();
    ASSERT_FALSE(first_err.ok);
    EXPECT_EQ(svc.save_cache(path), 3u);
  }

  // Second life: every point is a hit, no simulation, summary-only, and
  // the protocol line matches the first life's byte for byte.
  SimulationService svc;
  EXPECT_EQ(svc.load_cache(path), 3u);
  EXPECT_EQ(svc.cache_stats().entries, 3u);

  core::SweepOutcome replay = submit_future(svc, fx.job("a", 8, 16)).get();
  EXPECT_TRUE(replay.cache_hit);
  EXPECT_TRUE(replay.summary_only);
  EXPECT_TRUE(replay.ok);
  EXPECT_EQ(replay.summary, first_ok.summary);
  core::SweepOutcome first_as_hit = first_ok;
  first_as_hit.cache_hit = true;
  EXPECT_EQ(format_outcome_line(replay), format_outcome_line(first_as_hit));

  core::SweepOutcome replay_err =
      submit_future(svc, fx.infeasible("bad")).get();
  EXPECT_TRUE(replay_err.cache_hit);
  EXPECT_FALSE(replay_err.ok);
  EXPECT_EQ(replay_err.error, first_err.error);

  const CacheStats stats = svc.cache_stats();
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.misses, 0u);
  std::remove(path.c_str());
}

TEST(CachePersistenceTest, EntriesAreKeyedPerBackendAcrossRestarts) {
  const std::string path = temp_cache_path("backends");
  Fixture fx;

  // Same workload and config on both dataflows: two distinct keys, two
  // distinct summaries (cycles diverge; outputs hash identically).
  core::SweepOutcome edea_first, serial_first;
  {
    SimulationService svc;
    core::SweepJob fast = fx.job("fast");
    fast.backend = "edea";
    core::SweepJob slow = fx.job("slow");
    slow.backend = "serialized";
    edea_first = submit_future(svc, fast).get();
    serial_first = submit_future(svc, slow).get();
    ASSERT_TRUE(edea_first.ok) << edea_first.error;
    ASSERT_TRUE(serial_first.ok) << serial_first.error;
    EXPECT_EQ(svc.cache_stats().misses, 2u);  // no aliasing between keys
    EXPECT_EQ(svc.save_cache(path), 2u);
  }
  EXPECT_EQ(edea_first.summary.output_hash, serial_first.summary.output_hash);
  EXPECT_NE(edea_first.summary.total_cycles, serial_first.summary.total_cycles);

  // Restart: each backend's request hits its own persisted entry and
  // reproduces that backend's summary, not the other's.
  SimulationService svc;
  EXPECT_EQ(svc.load_cache(path), 2u);
  core::SweepJob fast = fx.job("fast");
  fast.backend = "edea";
  core::SweepJob slow = fx.job("slow");
  slow.backend = "serialized";
  const core::SweepOutcome edea_replay = submit_future(svc, fast).get();
  const core::SweepOutcome serial_replay = submit_future(svc, slow).get();
  EXPECT_TRUE(edea_replay.cache_hit);
  EXPECT_TRUE(serial_replay.cache_hit);
  EXPECT_TRUE(edea_replay.summary_only);
  EXPECT_EQ(edea_replay.backend, "edea");
  EXPECT_EQ(serial_replay.backend, "serialized");
  EXPECT_EQ(edea_replay.summary, edea_first.summary);
  EXPECT_EQ(serial_replay.summary, serial_first.summary);
  EXPECT_EQ(svc.cache_stats().misses, 0u);
  std::remove(path.c_str());
}

TEST(CachePersistenceTest, ResaveMergesPersistedAndLiveEntries) {
  const std::string path = temp_cache_path("merge");
  Fixture fx;
  {
    SimulationService svc;
    ASSERT_TRUE(submit_future(svc, fx.job("a", 8, 16)).get().ok);
    EXPECT_EQ(svc.save_cache(path), 1u);
  }
  {
    // Second life serves the old point from persistence and simulates a
    // new one; the resave must carry both.
    SimulationService svc;
    EXPECT_EQ(svc.load_cache(path), 1u);
    EXPECT_TRUE(submit_future(svc, fx.job("a", 8, 16)).get().cache_hit);
    ASSERT_TRUE(submit_future(svc, fx.job("b", 16, 32)).get().ok);
    EXPECT_EQ(svc.save_cache(path), 2u);
  }
  SimulationService svc;
  EXPECT_EQ(svc.load_cache(path), 2u);
  EXPECT_TRUE(submit_future(svc, fx.job("a", 8, 16)).get().cache_hit);
  EXPECT_TRUE(submit_future(svc, fx.job("b", 16, 32)).get().cache_hit);
  EXPECT_EQ(svc.cache_stats().misses, 0u);
  std::remove(path.c_str());
}

TEST(CachePersistenceTest, LoadedEntriesArePinnedOutsideTheLru) {
  const std::string path = temp_cache_path("pinned");
  Fixture fx;
  {
    SimulationService svc;
    ASSERT_TRUE(submit_future(svc, fx.job("p", 8, 16)).get().ok);
    ASSERT_TRUE(submit_future(svc, fx.job("q", 16, 32)).get().ok);
    EXPECT_EQ(svc.save_cache(path), 2u);
  }
  // One LRU slot: loaded entries neither take it nor compete for it.
  ServiceOptions options;
  options.cache_capacity = 1;
  SimulationService svc(options);
  EXPECT_EQ(svc.load_cache(path), 2u);
  EXPECT_TRUE(submit_future(svc, fx.job("p", 8, 16)).get().cache_hit);
  ASSERT_FALSE(submit_future(svc, fx.job("x", 8, 32)).get().cache_hit);
  EXPECT_TRUE(submit_future(svc, fx.job("q", 16, 32)).get().cache_hit);
  ASSERT_FALSE(submit_future(svc, fx.job("y", 16, 16)).get().cache_hit);
  EXPECT_TRUE(submit_future(svc, fx.job("p", 8, 16)).get().cache_hit);
  EXPECT_TRUE(submit_future(svc, fx.job("q", 16, 32)).get().cache_hit);

  const CacheStats stats = svc.cache_stats();
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.hits, 4u);
  EXPECT_EQ(stats.evictions, 1u);  // y evicted x, never a loaded entry
  EXPECT_EQ(stats.entries, 3u);    // p, q and y
  std::remove(path.c_str());
}

TEST(CachePersistenceTest, PinnedHitsLeaveLruOrderAlone) {
  const std::string path = temp_cache_path("pinned_order");
  Fixture fx;
  {
    SimulationService svc;
    ASSERT_TRUE(submit_future(svc, fx.job("p", 4, 8)).get().ok);
    EXPECT_EQ(svc.save_cache(path), 1u);
  }
  ServiceOptions options;
  options.cache_capacity = 2;
  SimulationService svc(options);
  EXPECT_EQ(svc.load_cache(path), 1u);
  ASSERT_TRUE(submit_future(svc, fx.job("a", 8, 16)).get().ok);   // [a]
  ASSERT_TRUE(submit_future(svc, fx.job("b", 16, 16)).get().ok);  // [b a]
  // Touch a ([a b]), then hit the pinned p: the order must stay [a b].
  EXPECT_TRUE(submit_future(svc, fx.job("a", 8, 16)).get().cache_hit);
  EXPECT_TRUE(submit_future(svc, fx.job("p", 4, 8)).get().cache_hit);
  ASSERT_TRUE(submit_future(svc, fx.job("c", 8, 32)).get().ok);  // evicts b
  EXPECT_TRUE(submit_future(svc, fx.job("a", 8, 16)).get().cache_hit)
      << "the pinned hit must not have moved the LRU's recency order";
  EXPECT_FALSE(submit_future(svc, fx.job("b", 16, 16)).get().cache_hit);
  EXPECT_EQ(svc.cache_stats().evictions, 2u);  // b by c, then c by b
  std::remove(path.c_str());
}

TEST(CachePersistenceTest, LoadSkipsKeysAlreadyLiveOrInFlight) {
  const std::string path = temp_cache_path("live_wins");
  Fixture fx;
  {
    SimulationService svc;
    ASSERT_TRUE(submit_future(svc, fx.job("a", 8, 16)).get().ok);
    ASSERT_TRUE(submit_future(svc, fx.job("b", 16, 32)).get().ok);
    ASSERT_TRUE(submit_future(svc, fx.job("c", 16, 16)).get().ok);
    EXPECT_EQ(svc.save_cache(path), 3u);
  }
  // One runner and one LRU slot. a's completion callback holds the only
  // runner, so b stays queued - in flight - while the file loads.
  ServiceOptions options;
  options.worker_threads = 1;
  options.cache_capacity = 1;
  SimulationService svc(options);
  std::promise<void> release;
  const std::shared_future<void> released = release.get_future().share();
  std::promise<core::SweepOutcome> a_done;
  ASSERT_EQ(svc.submit_streaming(fx.job("a", 8, 16), 0,
                                 [&](core::SweepOutcome o) {
                                   a_done.set_value(std::move(o));
                                   released.wait();
                                 }),
            Admission::kAdmitted);
  ASSERT_TRUE(a_done.get_future().get().ok);
  std::future<core::SweepOutcome> b = submit_future(svc, fx.job("b", 16, 32));
  EXPECT_EQ(svc.load_cache(path), 1u) << "a is live and b in flight: only c";
  EXPECT_EQ(svc.cache_stats().entries, 3u);
  release.set_value();

  // b completes as the miss it was, with its per-layer result, and its
  // completion evicts a: the load left a an ordinary LRU entry.
  const core::SweepOutcome b_out = b.get();
  ASSERT_TRUE(b_out.ok);
  EXPECT_FALSE(b_out.cache_hit);
  EXPECT_FALSE(b_out.summary_only);
  EXPECT_TRUE(submit_future(svc, fx.job("c", 16, 16)).get().cache_hit);
  EXPECT_FALSE(submit_future(svc, fx.job("a", 8, 16)).get().cache_hit);
  const CacheStats stats = svc.cache_stats();
  EXPECT_EQ(stats.misses, 3u);     // a, b, a again
  EXPECT_EQ(stats.evictions, 2u);  // a by b, then b by a
  EXPECT_EQ(stats.entries, 2u);    // c (pinned) and a
  std::remove(path.c_str());
}

TEST(CachePersistenceTest, SavedFileBytesAreDeterministic) {
  const std::string path_a = temp_cache_path("det_a");
  const std::string path_b = temp_cache_path("det_b");
  Fixture fx;
  for (const std::string& path : {path_a, path_b}) {
    SimulationService svc;
    // Insertion orders differ; the file must not.
    if (path == path_a) {
      ASSERT_TRUE(submit_future(svc, fx.job("x", 8, 16)).get().ok);
      ASSERT_TRUE(submit_future(svc, fx.job("y", 16, 32)).get().ok);
    } else {
      ASSERT_TRUE(submit_future(svc, fx.job("y", 16, 32)).get().ok);
      ASSERT_TRUE(submit_future(svc, fx.job("x", 8, 16)).get().ok);
    }
    EXPECT_EQ(svc.save_cache(path), 2u);
  }
  EXPECT_EQ(read_file(path_a), read_file(path_b));
  std::remove(path_a.c_str());
  std::remove(path_b.c_str());
}

TEST(CachePersistenceTest, MissingFileIsAFreshStartNotAnError) {
  SimulationService svc;
  EXPECT_EQ(svc.load_cache(temp_cache_path("does_not_exist")), 0u);
  EXPECT_EQ(svc.cache_stats().entries, 0u);
}

TEST(CachePersistenceTest, CorruptedFileIsRejectedAndCacheUnchanged) {
  const std::string path = temp_cache_path("corrupt");
  Fixture fx;
  {
    SimulationService svc;
    ASSERT_TRUE(submit_future(svc, fx.job("a")).get().ok);
    EXPECT_EQ(svc.save_cache(path), 1u);
  }
  std::string bytes = read_file(path);
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x5A);
  write_file(path, bytes);

  SimulationService svc;
  EXPECT_THROW((void)svc.load_cache(path), PreconditionError);
  EXPECT_EQ(svc.cache_stats().entries, 0u);
  // The service stays fully functional: the point simulates as a miss.
  const core::SweepOutcome out = submit_future(svc, fx.job("a")).get();
  EXPECT_TRUE(out.ok);
  EXPECT_FALSE(out.cache_hit);
  std::remove(path.c_str());
}

TEST(CachePersistenceTest, TruncatedFileIsRejected) {
  const std::string path = temp_cache_path("truncated");
  Fixture fx;
  {
    SimulationService svc;
    ASSERT_TRUE(submit_future(svc, fx.job("a")).get().ok);
    EXPECT_EQ(svc.save_cache(path), 1u);
  }
  const std::string bytes = read_file(path);
  // Every proper prefix must be rejected - the checksum trails the file,
  // so truncation at any point loses or garbles it.
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{7}, bytes.size() / 2,
        bytes.size() - 1}) {
    SCOPED_TRACE("keep=" + std::to_string(keep));
    write_file(path, bytes.substr(0, keep));
    SimulationService svc;
    EXPECT_THROW((void)svc.load_cache(path), PreconditionError);
    EXPECT_EQ(svc.cache_stats().entries, 0u);
  }
  std::remove(path.c_str());
}

TEST(CachePersistenceTest, VersionSkewAndTrailingGarbageAreRejected) {
  const std::string path = temp_cache_path("skew");
  Fixture fx;
  {
    SimulationService svc;
    ASSERT_TRUE(submit_future(svc, fx.job("a")).get().ok);
    EXPECT_EQ(svc.save_cache(path), 1u);
  }
  const std::string bytes = read_file(path);

  // Flipping the version (bytes 8..11, after the 8-byte magic) while
  // leaving everything else intact fails the checksum; a file that also
  // "fixed" its checksum would still fail the version gate - either way
  // the load must throw.
  std::string skewed = bytes;
  skewed[8] = static_cast<char>(skewed[8] + 1);
  write_file(path, skewed);
  {
    SimulationService svc;
    EXPECT_THROW((void)svc.load_cache(path), PreconditionError);
  }

  // Appending bytes invalidates the trailing checksum too.
  write_file(path, bytes + "garbage");
  {
    SimulationService svc;
    EXPECT_THROW((void)svc.load_cache(path), PreconditionError);
  }
  std::remove(path.c_str());
}

TEST(CachePersistenceTest, BatchSizesAreDistinctKeysAcrossRestarts) {
  const std::string path = temp_cache_path("batches");
  Fixture fx;

  // Same workload, config, and backend at batch 1 and batch 4: two keys,
  // two summaries (the batched arena plan has a larger peak).
  core::SweepOutcome single_first, batched_first;
  {
    SimulationService svc;
    core::SweepJob single = fx.job("single");
    core::SweepJob batched = fx.job("batched");
    batched.batch = 4;
    single_first = submit_future(svc, single).get();
    batched_first = submit_future(svc, batched).get();
    ASSERT_TRUE(single_first.ok) << single_first.error;
    ASSERT_TRUE(batched_first.ok) << batched_first.error;
    EXPECT_EQ(svc.cache_stats().misses, 2u);  // no aliasing between keys
    EXPECT_EQ(svc.save_cache(path), 2u);
  }
  EXPECT_EQ(single_first.summary.output_hash,
            batched_first.summary.output_hash);
  EXPECT_GT(batched_first.summary.peak_arena_bytes,
            single_first.summary.peak_arena_bytes);

  SimulationService svc;
  EXPECT_EQ(svc.load_cache(path), 2u);
  core::SweepJob single = fx.job("single");
  core::SweepJob batched = fx.job("batched");
  batched.batch = 4;
  const core::SweepOutcome single_replay = submit_future(svc, single).get();
  const core::SweepOutcome batched_replay = submit_future(svc, batched).get();
  EXPECT_TRUE(single_replay.cache_hit);
  EXPECT_TRUE(batched_replay.cache_hit);
  EXPECT_EQ(single_replay.batch, 1);
  EXPECT_EQ(batched_replay.batch, 4);
  EXPECT_EQ(single_replay.summary, single_first.summary);
  EXPECT_EQ(batched_replay.summary, batched_first.summary);
  EXPECT_EQ(svc.cache_stats().misses, 0u);
  std::remove(path.c_str());
}

TEST(CachePersistenceTest, TransformKnobsAreDistinctKeysAcrossRestarts) {
  const std::string path = temp_cache_path("transforms");
  Fixture fx;

  // Same workload, config, backend, and batch at three transform points:
  // (1,1), (2,1), (1,2) - three keys, no aliasing, each echoing its own
  // knobs after the file round trip (the format-v4 fields).
  core::SweepOutcome plain_first, dilated_first, multiplied_first;
  {
    SimulationService svc;
    core::SweepJob plain = fx.job("plain");
    core::SweepJob dilated = fx.job("dilated");
    dilated.dilation = 2;
    core::SweepJob multiplied = fx.job("multiplied");
    multiplied.depth_multiplier = 2;
    plain_first = submit_future(svc, plain).get();
    dilated_first = submit_future(svc, dilated).get();
    multiplied_first = submit_future(svc, multiplied).get();
    ASSERT_TRUE(plain_first.ok) << plain_first.error;
    EXPECT_EQ(svc.cache_stats().misses, 3u);  // no aliasing between keys
    EXPECT_EQ(svc.save_cache(path), 3u);
  }

  SimulationService svc;
  EXPECT_EQ(svc.load_cache(path), 3u);
  core::SweepJob plain = fx.job("plain");
  core::SweepJob dilated = fx.job("dilated");
  dilated.dilation = 2;
  core::SweepJob multiplied = fx.job("multiplied");
  multiplied.depth_multiplier = 2;
  const core::SweepOutcome plain_replay = submit_future(svc, plain).get();
  const core::SweepOutcome dilated_replay = submit_future(svc, dilated).get();
  const core::SweepOutcome multiplied_replay =
      submit_future(svc, multiplied).get();
  EXPECT_TRUE(plain_replay.cache_hit);
  EXPECT_TRUE(dilated_replay.cache_hit);
  EXPECT_TRUE(multiplied_replay.cache_hit);
  EXPECT_EQ(plain_replay.dilation, 1);
  EXPECT_EQ(dilated_replay.dilation, 2);
  EXPECT_EQ(dilated_replay.depth_multiplier, 1);
  EXPECT_EQ(multiplied_replay.depth_multiplier, 2);
  EXPECT_EQ(plain_replay.summary, plain_first.summary);
  EXPECT_EQ(dilated_replay.summary, dilated_first.summary);
  EXPECT_EQ(multiplied_replay.summary, multiplied_first.summary);
  EXPECT_EQ(svc.cache_stats().misses, 0u);

  // The persisted-line contract holds for transformed entries too: the
  // replayed (summary-only) outcome formats byte-identically to the live
  // one served as a hit, dilation= echo included.
  core::SweepOutcome dilated_as_hit = dilated_first;
  dilated_as_hit.cache_hit = true;
  EXPECT_EQ(format_outcome_line(dilated_replay),
            format_outcome_line(dilated_as_hit));

  // Byte-determinism extends to the v4 fields: a second service reaching
  // the same entries in another order persists the identical file.
  const std::string path_b = temp_cache_path("transforms_b");
  {
    SimulationService reordered;
    ASSERT_TRUE(submit_future(reordered, multiplied).get().ok);
    ASSERT_TRUE(submit_future(reordered, dilated).get().ok);
    ASSERT_TRUE(submit_future(reordered, plain).get().ok);
    EXPECT_EQ(reordered.save_cache(path_b), 3u);
  }
  EXPECT_EQ(read_file(path), read_file(path_b));
  std::remove(path.c_str());
  std::remove(path_b.c_str());
}

TEST(CachePersistenceTest, VersionThreeFilesAreRejectedByTheVersionGate) {
  // A well-formed v3 file (correct magic, correct checksum, zero entries)
  // must trip the *version* check, not the checksum: v3 predates the
  // dilation / depth-multiplier key fields, so a v3 file cannot say which
  // workload transform its fingerprints were computed over - reject
  // loudly, never guess.
  const std::string path = temp_cache_path("v3");
  util::ByteWriter w;
  w.pod(std::uint64_t{0x0053414341454445ull});  // "EDEACAS\0" magic
  w.pod(std::uint32_t{3});                      // the superseded version
  w.pod(std::uint64_t{0});                      // entry count
  const std::uint64_t digest =
      util::Fnv1a64().bytes(w.buffer().data(), w.buffer().size()).digest();
  std::string bytes(w.buffer().data(), w.buffer().size());
  bytes.append(reinterpret_cast<const char*>(&digest), sizeof(digest));
  write_file(path, bytes);

  SimulationService svc;
  try {
    (void)svc.load_cache(path);
    FAIL() << "a v3 cache file must be rejected";
  } catch (const PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find("unsupported version 3"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(svc.cache_stats().entries, 0u);
  std::remove(path.c_str());
}

TEST(CachePersistenceTest, VersionTwoFilesAreRejectedByTheVersionGate) {
  // A well-formed v2 file (correct magic, correct checksum, zero entries)
  // must trip the *version* check, not the checksum: v2 predates
  // batch-keyed entries and the summary's peak_arena_bytes field, so its
  // entries can never decode correctly - reject loudly, never migrate.
  const std::string path = temp_cache_path("v2");
  util::ByteWriter w;
  w.pod(std::uint64_t{0x0053414341454445ull});  // "EDEACAS\0" magic
  w.pod(std::uint32_t{2});                      // the superseded version
  w.pod(std::uint64_t{0});                      // entry count
  const std::uint64_t digest =
      util::Fnv1a64().bytes(w.buffer().data(), w.buffer().size()).digest();
  std::string bytes(w.buffer().data(), w.buffer().size());
  bytes.append(reinterpret_cast<const char*>(&digest), sizeof(digest));
  write_file(path, bytes);

  SimulationService svc;
  try {
    (void)svc.load_cache(path);
    FAIL() << "a v2 cache file must be rejected";
  } catch (const PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find("unsupported version 2"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(svc.cache_stats().entries, 0u);
  std::remove(path.c_str());
}

TEST(CachePersistenceTest, ImpossibleEntryCountsAreRejectedBeforeAllocating) {
  // A 28-byte v4 file - magic, version, entry count, checksum, all valid -
  // claiming more entries than any payload could hold. Allocating for the
  // claimed count first would throw std::length_error (2^62) or
  // std::bad_alloc (10^9) instead of the documented PreconditionError;
  // merge_cache_files loads through the same path.
  const std::string path = temp_cache_path("huge_count");
  const std::string merged = temp_cache_path("huge_count_merged");
  Fixture fx;
  SimulationService svc;
  ASSERT_TRUE(submit_future(svc, fx.job("a")).get().ok);
  for (const std::uint64_t count :
       {std::uint64_t{1} << 62, std::uint64_t{1000000000}}) {
    SCOPED_TRACE("count=" + std::to_string(count));
    util::ByteWriter w;
    w.pod(std::uint64_t{0x0053414341454445ull});  // "EDEACAS\0" magic
    w.pod(std::uint32_t{4});
    w.pod(count);
    const std::string bytes = framed(w);
    ASSERT_EQ(bytes.size(), 28u);
    write_file(path, bytes);
    EXPECT_THROW((void)svc.load_cache(path), PreconditionError);
    EXPECT_EQ(svc.cache_stats().entries, 1u);  // left unchanged
    EXPECT_THROW((void)merge_cache_files({path}, merged), PreconditionError);
  }
  std::remove(path.c_str());
  std::remove(merged.c_str());
}

TEST(CachePersistenceTest, NonFiniteClocksAreRejectedAndCacheUnchanged) {
  // A checksummed v4 file whose one entry has a NaN or infinite clock:
  // no request can carry that key (the service refuses a non-finite
  // clock), and a NaN key never equals itself, so a second load would add
  // it again. JobKey::decode refuses it; the live entry stays alone.
  const std::string path = temp_cache_path("non_finite_clock");
  Fixture fx;
  SimulationService svc;
  ASSERT_TRUE(submit_future(svc, fx.job("a")).get().ok);
  for (const double clock : {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity()}) {
    SCOPED_TRACE("clock_ghz=" + std::to_string(clock));
    core::JobKey key;
    key.config.clock_ghz = clock;
    util::ByteWriter w;
    w.pod(std::uint64_t{0x0053414341454445ull});  // "EDEACAS\0" magic
    w.pod(std::uint32_t{4});
    w.pod(std::uint64_t{1});
    w.pod(std::uint64_t{0x10});  // fingerprint
    key.encode(w);
    w.pod(std::uint8_t{1});
    w.str("");
    core::RunSummary{}.encode(w);
    write_file(path, framed(w));
    for (int attempt = 0; attempt < 2; ++attempt) {
      EXPECT_THROW((void)svc.load_cache(path), PreconditionError);
      EXPECT_EQ(svc.cache_stats().entries, 1u);
    }
    util::ByteReader r(std::string_view(w.buffer()).substr(28));
    EXPECT_THROW((void)core::JobKey::decode(r, path), PreconditionError);
  }
  std::remove(path.c_str());
}

TEST(CachePersistenceTest, VersionFourLayoutMatchesAnIndependentWriter) {
  // The v4 layout written field by field, independently of the service's
  // encoder: fingerprint, EdeaConfig::encode, backend, i32 batch, i32
  // dilation, i32 depth_multiplier, u8 ok, error, RunSummary::encode.
  // Three entries already in save order: two that differ only in
  // depth_multiplier, then an error entry on the serialized backend. The
  // counts take distinct values, so a decoder that swapped two of them
  // would serve an entry under the wrong key (a miss below), and an
  // encoder that swapped them, or a changed sort, would write different
  // bytes back. Either would strand every cache file already written.
  struct Entry {
    std::uint64_t fingerprint;
    std::string backend;
    int depth_multiplier;
    bool ok;
    std::string error;
    core::RunSummary summary;
  };
  core::RunSummary four;
  four.layer_count = 2;
  four.total_cycles = 1000;
  four.total_ops = 5000;
  four.average_gops = 1.25;
  four.output_hash = 0x1111;
  four.peak_arena_bytes = 4096;
  core::RunSummary five = four;
  five.total_cycles = 2000;
  five.output_hash = 0x2222;
  const std::vector<Entry> entries = {
      {0x10, "edea", 4, true, "", four},
      {0x10, "edea", 5, true, "", five},
      {0x20, "serialized", 4, false, "boom", core::RunSummary{}},
  };
  const core::EdeaConfig config = core::EdeaConfig::paper();
  util::ByteWriter w;
  w.pod(std::uint64_t{0x0053414341454445ull});  // "EDEACAS\0" magic
  w.pod(std::uint32_t{4});
  w.pod(static_cast<std::uint64_t>(entries.size()));
  for (const Entry& e : entries) {
    w.pod(e.fingerprint);
    config.encode(w);
    w.str(e.backend);
    w.pod(std::int32_t{2});  // batch
    w.pod(std::int32_t{3});  // dilation
    w.pod(static_cast<std::int32_t>(e.depth_multiplier));
    w.pod(static_cast<std::uint8_t>(e.ok ? 1 : 0));
    w.str(e.error);
    e.summary.encode(w);
  }
  const std::string bytes = framed(w);
  const std::string path = temp_cache_path("v4_layout");
  const std::string resaved = temp_cache_path("v4_layout_resaved");
  write_file(path, bytes);

  SimulationService svc;
  ASSERT_EQ(svc.load_cache(path), 3u);
  Fixture fx;  // any workload: the stamped fingerprint keys the lookup
  for (const Entry& e : entries) {
    SCOPED_TRACE(e.backend + " depth_multiplier=" +
                 std::to_string(e.depth_multiplier));
    core::SweepJob job = fx.job("probe");
    job.config = config;
    job.fingerprint = e.fingerprint;
    job.backend = e.backend;
    job.batch = 2;
    job.dilation = 3;
    job.depth_multiplier = e.depth_multiplier;
    const core::SweepOutcome out = submit_future(svc, job).get();
    EXPECT_TRUE(out.cache_hit);
    EXPECT_EQ(out.ok, e.ok);
    EXPECT_EQ(out.error, e.error);
    EXPECT_EQ(out.summary, e.summary);
  }
  EXPECT_EQ(svc.cache_stats().misses, 0u);
  EXPECT_EQ(svc.save_cache(resaved), 3u);
  EXPECT_EQ(read_file(resaved), bytes);
  std::remove(path.c_str());
  std::remove(resaved.c_str());
}

TEST(CachePersistenceTest, ZeroCapacityServiceIgnoresPersistence) {
  const std::string path = temp_cache_path("nocache");
  Fixture fx;
  {
    SimulationService svc;
    ASSERT_TRUE(submit_future(svc, fx.job("a")).get().ok);
    EXPECT_EQ(svc.save_cache(path), 1u);
  }
  ServiceOptions options;
  options.cache_capacity = 0;  // memoization disabled disables persistence
  SimulationService svc(options);
  EXPECT_EQ(svc.load_cache(path), 0u);
  EXPECT_FALSE(submit_future(svc, fx.job("a")).get().cache_hit);
  std::remove(path.c_str());
}

TEST(CachePersistenceTest, UnwritablePathThrowsResourceError) {
  SimulationService svc;
  EXPECT_THROW((void)svc.save_cache("/nonexistent-dir/edea.cache"),
               ResourceError);
}

}  // namespace
}  // namespace edea::service
