// cache_fuzz_test - a seeded mutation fuzzer for the result-cache file
// (SimulationService::load_cache and core::JobKey::decode).
//
// The seed is one saved v4 file: entries on both backends, at batch 3,
// under both workload transforms (dilation and depth multiplier), and one
// error outcome. Each fixed seed mutates it a few hundred times - bit
// flips, truncations, deleted and duplicated byte runs - and on half of
// the cases re-stamps the trailing FNV-1a digest, so the mutation reaches
// the decoder instead of stopping at the checksum. Every case pins one of
// two outcomes:
//   (1) load_cache throws PreconditionError and cache_stats() is
//       unchanged, or
//   (2) every loaded key passes JobKey::validate and loads exactly once: a
//       second load_cache of the same file adds nothing.
// Every failure names its case as a one-line repro - the seed, the case
// index, whether the digest was re-stamped and each mutation with its
// offsets - so it can be replayed standalone.
#include "service/simulation_service.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/sweep_runner.hpp"
#include "nn/model_zoo.hpp"
#include "service_submit.hpp"
#include "util/binary.hpp"
#include "util/check.hpp"
#include "util/hash.hpp"
#include "util/random.hpp"

namespace edea::service {
namespace {

constexpr std::uint64_t kSeeds[] = {1, 2, 31, 20261020};
constexpr int kCasesPerSeed = 500;

/// Header bytes before the first entry: magic, version, entry count.
constexpr std::size_t kHeaderBytes = 8 + 4 + 8;

std::string temp_path(const std::string& name) {
  return testing::TempDir() + "edea_cache_fuzz_" + name + ".cache";
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

/// The seed file: six outcomes saved by a live service.
std::string seed_file() {
  nn::DscLayerSpec a;
  a.index = 0;
  a.in_rows = 8;
  a.in_cols = 8;
  a.in_channels = 16;
  a.out_channels = 16;
  nn::DscLayerSpec b = a;
  b.index = 1;
  b.stride = 2;
  const std::vector<nn::QuantDscLayer> layers =
      nn::make_random_quant_network({a, b}, 91);
  Rng rng(92);
  nn::Int8Tensor input(nn::Shape{8, 8, 16});
  for (auto& v : input.storage()) {
    v = static_cast<std::int8_t>(rng.uniform_int(-64, 64));
  }

  SimulationService svc;
  const auto job = [&](const char* backend, int batch, int dilation,
                       int depth_multiplier) {
    core::SweepJob j;
    j.name = backend;
    j.backend = backend;
    j.batch = batch;
    j.dilation = dilation;
    j.depth_multiplier = depth_multiplier;
    j.layers = &layers;
    j.input = &input;
    return j;
  };
  std::vector<core::SweepJob> jobs = {
      job("edea", 1, 1, 1),       job("serialized", 1, 1, 1),
      job("edea", 3, 1, 1),       job("serialized", 3, 2, 1),
      job("edea", 1, 1, 2),       job("serialized", 1, 1, 1)};
  jobs.back().config.kernel = 5;  // an error outcome
  for (const core::SweepJob& j : jobs) {
    const core::SweepOutcome out = submit_future(svc, j).get();
    EXPECT_EQ(out.ok, j.config.kernel == 3) << out.error;
  }
  const std::string path = temp_path("seed");
  EXPECT_EQ(svc.save_cache(path), jobs.size());
  std::string bytes = read_file(path);
  std::remove(path.c_str());
  return bytes;
}

// --- mutators --------------------------------------------------------------

std::size_t pick(Rng& rng, std::size_t n) {
  return static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
}

/// Applies one mutation and appends its name and offsets to `log`.
void mutate_once(Rng& rng, std::string& bytes, std::string& log) {
  if (!log.empty()) log += ',';
  if (bytes.empty()) {
    bytes.push_back(static_cast<char>(pick(rng, 256)));
    log += "grow";
    return;
  }
  const std::size_t at = pick(rng, bytes.size());
  const std::size_t run = 1 + pick(rng, 16);
  switch (pick(rng, 4)) {
    case 0: {
      const std::size_t bit = pick(rng, 8);
      bytes[at] = static_cast<char>(bytes[at] ^ (1 << bit));
      log += "flip@" + std::to_string(at) + "." + std::to_string(bit);
      break;
    }
    case 1:
      bytes.resize(at);
      log += "truncate@" + std::to_string(at);
      break;
    case 2:
      bytes.erase(at, run);
      log += "delete@" + std::to_string(at) + "+" + std::to_string(run);
      break;
    default:
      bytes.insert(at, bytes.substr(at, run));
      log += "duplicate@" + std::to_string(at) + "+" + std::to_string(run);
      break;
  }
}

/// Overwrites the trailing 8 bytes with the FNV-1a digest of the rest, as
/// save_cache frames a file. Files too short to hold a digest are left.
void restamp(std::string& bytes) {
  if (bytes.size() < sizeof(std::uint64_t)) return;
  const std::size_t payload = bytes.size() - sizeof(std::uint64_t);
  const std::uint64_t digest =
      util::Fnv1a64().bytes(bytes.data(), payload).digest();
  std::memcpy(bytes.data() + payload, &digest, sizeof(digest));
}

/// The keys of a file save_cache wrote, decoded field by field without
/// JobKey::decode (which validates on its own).
std::vector<core::JobKey> saved_keys(const std::string& bytes) {
  util::ByteReader r(
      std::string_view(bytes).substr(0, bytes.size() - sizeof(std::uint64_t)));
  (void)r.pod<std::uint64_t>();  // magic
  (void)r.pod<std::uint32_t>();  // version
  const auto count = r.pod<std::uint64_t>();
  std::vector<core::JobKey> keys;
  for (std::uint64_t i = 0; i < count; ++i) {
    (void)r.pod<std::uint64_t>();  // fingerprint
    core::JobKey key;
    key.config = core::EdeaConfig::decode(r);
    key.backend = r.str();
    for (const core::CountDim& dim : core::kCountDims) {
      key.*dim.field = static_cast<int>(r.pod<std::int32_t>());
    }
    (void)r.pod<std::uint8_t>();  // ok
    (void)r.str();                // error
    (void)core::RunSummary::decode(r);
    keys.push_back(std::move(key));
  }
  return keys;
}

TEST(CacheFuzzTest, MutatedFilesAreRejectedOrLoadValidKeysOnce) {
  const std::string seed = seed_file();
  ASSERT_GT(seed.size(), kHeaderBytes + sizeof(std::uint64_t));
  const std::string path = temp_path("case");
  const std::string resaved = temp_path("resaved");
  int rejected = 0;
  int loaded_cases = 0;
  for (const std::uint64_t fuzz_seed : kSeeds) {
    Rng rng(fuzz_seed);
    for (int i = 0; i < kCasesPerSeed; ++i) {
      std::string bytes = seed;
      std::string log;
      for (std::size_t n = 1 + pick(rng, 3); n > 0; --n) {
        mutate_once(rng, bytes, log);
      }
      const bool restamped = rng.bernoulli(0.5);
      if (restamped) restamp(bytes);
      SCOPED_TRACE("cache fuzz seed=" + std::to_string(fuzz_seed) +
                   " index=" + std::to_string(i) +
                   " restamped=" + (restamped ? "1" : "0") +
                   " mutations=" + log);
      write_file(path, bytes);

      SimulationService svc;
      const CacheStats before = svc.cache_stats();
      std::size_t loaded = 0;
      try {
        loaded = svc.load_cache(path);
      } catch (const PreconditionError&) {
        ++rejected;
        EXPECT_EQ(svc.cache_stats(), before);
        continue;
      } catch (const std::exception& e) {
        ADD_FAILURE() << "load_cache threw a non-precondition error: "
                      << e.what();
        continue;
      }
      ++loaded_cases;
      ASSERT_EQ(svc.cache_stats().entries, loaded);

      // Every loaded key is one a request could carry...
      ASSERT_EQ(svc.save_cache(resaved), loaded);
      for (const core::JobKey& key : saved_keys(read_file(resaved))) {
        EXPECT_NO_THROW(key.validate("loaded key"))
            << key.backend << " " << key.config.to_string();
      }
      // ...and equals itself, so loading the file again adds nothing.
      EXPECT_EQ(svc.load_cache(path), 0u);
      EXPECT_EQ(svc.cache_stats().entries, loaded);
    }
  }
  std::remove(path.c_str());
  std::remove(resaved.c_str());
  // The mutations must reach both outcomes, and the decoder past the
  // checksum.
  EXPECT_GT(rejected, 200);
  EXPECT_GT(loaded_cases, 40);
}

}  // namespace
}  // namespace edea::service
