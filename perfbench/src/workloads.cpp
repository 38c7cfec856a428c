#include "workloads.hpp"

#include <array>
#include <functional>
#include <set>
#include <stdexcept>

#include "service/protocol.hpp"

namespace perfbench {

namespace {

/// Clock overrides. The clock only rescales reported GOPS, so it is the
/// axis that keeps design points distinct without changing their cost.
const std::array<const char*, 8> kClocks = {"",    "0.8", "0.9", "1.1",
                                            "1.2", "0.7", "1.3", "0.6"};

/// Configuration variants: bits 0-2 (the knob set) toggle td=16, tk=32
/// and init_cycles=5 over the paper defaults, the remaining bits pick a
/// clock. The knob set changes what a simulation costs, so streams rotate
/// through it instead of drawing it: every run sees the same cost mix and
/// the seed varies only weights, inputs, order and clocks.
constexpr int kKnobSets = 8;

enum class Transform { kNone, kDilated, kMultiplied };

/// One request's design point, before it is rendered into a line.
struct Design {
  std::string network;
  std::uint64_t seed = 1;
  bool serialized = false;
  int config = 0;
  Transform transform = Transform::kNone;

  [[nodiscard]] int dilation() const {
    return transform == Transform::kDilated ? 2 : 1;
  }
  [[nodiscard]] int depth_multiplier() const {
    return transform == Transform::kMultiplied ? 2 : 1;
  }

  [[nodiscard]] std::string line() const {
    std::string s = "run " + network + " seed=" + std::to_string(seed);
    if ((config & 1) != 0) s += " td=16";
    if ((config & 2) != 0) s += " tk=32";
    if ((config & 4) != 0) s += " init_cycles=5";
    const char* clock = kClocks[static_cast<std::size_t>(config >> 3)];
    if (*clock != '\0') s += std::string(" clock_ghz=") + clock;
    if (dilation() > 1) s += " dilation=" + std::to_string(dilation());
    if (depth_multiplier() > 1) {
      s += " depth_multiplier=" + std::to_string(depth_multiplier());
    }
    if (serialized) s += " backend=serialized";
    return s;
  }

  [[nodiscard]] WorkloadKey key() const {
    return {network, seed, dilation(), depth_multiplier()};
  }
};

template <class T>
void shuffle(std::vector<T>& items, edea::Rng& rng) {
  for (std::size_t i = items.size(); i > 1; --i) {
    const auto j = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(i) - 1));
    std::swap(items[i - 1], items[j]);
  }
}

/// Interchangeable design points of one (network, backend, transform),
/// drawn without replacement in a seeded order: every workload seed times
/// every clock, per knob set.
class Group {
 public:
  Group(const Design& base, const std::vector<std::uint64_t>& seeds,
        edea::Rng& rng) {
    for (int knobs = 0; knobs < kKnobSets; ++knobs) {
      for (const std::uint64_t seed : seeds) {
        for (std::size_t clock = 0; clock < kClocks.size(); ++clock) {
          Design d = base;
          d.seed = seed;
          d.config = knobs | static_cast<int>(clock << 3);
          candidates_[static_cast<std::size_t>(knobs)].push_back(d);
        }
      }
      shuffle(candidates_[static_cast<std::size_t>(knobs)], rng);
    }
  }

  /// The next unused point with knob set `rotation % kKnobSets`. A list
  /// drawn dry starts over; by then the shards' LRU caches have long
  /// evicted its points, so a repeat is still a miss.
  Design take(std::size_t rotation) {
    const std::size_t knobs = rotation % kKnobSets;
    const std::vector<Design>& list = candidates_[knobs];
    return list[used_[knobs]++ % list.size()];
  }
  void rewind() { used_.fill(0); }

 private:
  std::array<std::vector<Design>, kKnobSets> candidates_;
  std::array<std::size_t, kKnobSets> used_{};
};

/// Two distinct workload seeds derived from the run seed.
std::vector<std::uint64_t> workload_seeds(edea::Rng& rng) {
  const std::uint64_t first = 1 + rng() % 50000;
  return {first, first + 1 + rng() % 50000};
}

Point hot_point(const Design& d, int index) {
  Point p;
  p.line = d.line();
  p.hot = index;
  p.checked = true;
  p.digested = true;
  return p;
}

/// Marks the stream's checked and digested fresh points: the first eight
/// always (their replies feed the default-seed digest), then every 24th.
void mark_fresh(Point& p, std::size_t fresh_index) {
  p.digested = fresh_index < 8;
  p.checked = p.digested || fresh_index % 24 == 0;
}

/// Builds a hot set of distinct points: `count` draws cycling over the
/// given (network, backend, transform) pattern, each from its own group.
std::vector<Point> build_hot_set(
    int count, const std::vector<std::uint64_t>& seeds, edea::Rng& rng,
    const std::function<Design(int)>& pattern) {
  std::vector<Group> groups;
  std::vector<std::string> group_lines;  // base line identifies the group
  std::vector<std::size_t> taken;        // points drawn per group
  std::vector<Point> hot;
  for (int i = 0; i < count; ++i) {
    const Design base = pattern(i);
    const std::string id = base.line();
    std::size_t g = 0;
    while (g < group_lines.size() && group_lines[g] != id) ++g;
    if (g == group_lines.size()) {
      groups.emplace_back(base, seeds, rng);
      group_lines.push_back(id);
      taken.push_back(0);
    }
    hot.push_back(hot_point(groups[g].take(taken[g]++), i));
  }
  return hot;
}

LoadShape hit_shape() {
  LoadShape s;
  s.connections = 2;
  s.window = 32;
  s.pool_threads = 2;
  s.chunk = 32768;
  s.trace_stride = 64;
  return s;
}

/// serve-hit: uniform replay of a warmed 32-point hot set.
class ServeHit final : public Workload {
 public:
  explicit ServeHit(std::uint64_t seed)
      : Workload("serve-hit", hit_shape()), seed_(seed) {
    edea::Rng rng(seed ^ 0x484954ull);
    const std::vector<std::uint64_t> seeds = workload_seeds(rng);
    // Small networks keep the warm-up short; both backends, and a
    // dilated and a multiplied transform per (network, backend). The
    // costly transformed points come first, so the two pool threads
    // finish the warm-up together instead of one idling behind the other.
    hot_ = build_hot_set(32, seeds, rng, [](int i) {
      Design d;
      d.serialized = (i & 1) != 0;
      d.network = ((i >> 1) & 1) != 0 ? "edeanet-64" : "mobilenet-0.25x";
      const int t = i >> 2;
      d.transform = t == 0   ? Transform::kMultiplied
                    : t == 1 ? Transform::kDilated
                             : Transform::kNone;
      return d;
    });
    restart();
  }

  Point next(std::size_t connection) override {
    const auto i = static_cast<std::size_t>(
        rngs_[connection].uniform_int(0, static_cast<std::int64_t>(hot_.size()) - 1));
    return hot_[i];
  }

  void restart() override {
    rngs_.clear();
    for (std::size_t c = 0; c < shape_.connections; ++c) {
      rngs_.emplace_back(seed_ * 0x9E3779B97F4A7C15ull + c + 1);
    }
  }

 private:
  std::uint64_t seed_;
  std::vector<edea::Rng> rngs_;
};

LoadShape routed_shape() {
  LoadShape s;
  s.connections = 1;
  s.window = 8;
  s.pool_threads = 1;
  s.cache_capacity = 32;
  s.shards = 2;
  s.chunk = 256;
  return s;
}

/// Small networks only: a hit waits behind the misses on its shard's
/// ordered connection, so short misses keep hit latency short and its
/// run-to-run spread narrow.
const std::array<const char*, 2> kRoutedNetworks = {"mobilenet-0.25x",
                                                    "edeanet-64"};

/// Never-seen workload seeds of one run. The stream draws them in turn,
/// so every run materializes the same keys early in its timed phase and
/// the catalogs stop growing after that, however fast the run is.
constexpr std::size_t kNewSeeds = 16;

/// routed-mixed: 75% hot-set repeats, 25% fresh points through a router.
class RoutedMixed final : public Workload {
 public:
  explicit RoutedMixed(std::uint64_t seed)
      : Workload("routed-mixed", routed_shape()), seed_(seed) {
    edea::Rng rng(seed ^ 0x524f555445ull);
    const std::vector<std::uint64_t> seeds = workload_seeds(rng);
    hot_ = build_hot_set(24, seeds, rng, [](int i) {
      Design d;
      d.serialized = (i & 1) != 0;
      d.network = kRoutedNetworks[static_cast<std::size_t>((i >> 1) & 1)];
      const int t = (i >> 2) % 3;
      d.transform = t == 1   ? Transform::kDilated
                    : t == 2 ? Transform::kMultiplied
                             : Transform::kNone;
      return d;
    });
    std::set<std::string> hot_lines;
    for (const Point& p : hot_) hot_lines.insert(p.line);
    for (const char* network : kRoutedNetworks) {
      for (const bool serialized : {false, true}) {
        for (const Transform t : {Transform::kNone, Transform::kDilated,
                                  Transform::kMultiplied}) {
          Design base;
          base.network = network;
          base.serialized = serialized;
          base.transform = t;
          groups_.emplace_back(base, seeds, rng);
        }
      }
      for (const std::uint64_t s : seeds) {
        for (const Transform t : {Transform::kNone, Transform::kDilated,
                                  Transform::kMultiplied}) {
          Design d;
          d.network = network;
          d.seed = s;
          d.transform = t;
          prewarm_.push_back(d.key());
        }
      }
    }
    hot_lines_ = std::move(hot_lines);
    new_seed_base_ = 1000000 + (seed % 1000) * 100000;
    restart();
  }

  Point next(std::size_t /*connection*/) override {
    if (rng_.uniform() < 0.75) {
      const auto i = static_cast<std::size_t>(
          rng_.uniform_int(0, static_cast<std::int64_t>(hot_.size()) - 1));
      return hot_[i];
    }
    Point p;
    if (fresh_ % 8 == 7) {
      // A seed of the never-seen pool: its owner shard materializes it on
      // first use, inside the timed phase.
      const std::size_t draw = fresh_ / 8;
      const std::size_t round = draw / kNewSeeds;
      Design d;
      d.network = kRoutedNetworks[draw % kRoutedNetworks.size()];
      d.serialized = round % 2 == 1;
      d.seed = new_seed_base_ + draw % kNewSeeds;
      d.config = static_cast<int>(round % kKnobSets) |
                 static_cast<int>(rng_.uniform_int(0, 7) << 3);
      p.line = d.line();
    } else {
      for (;;) {
        if (cursor_ == block_.size()) fill_block();
        p.line = block_[cursor_++];
        if (hot_lines_.count(p.line) == 0) break;
      }
    }
    mark_fresh(p, fresh_++);
    return p;
  }

  void restart() override {
    rng_ = edea::Rng(seed_ ^ 0x4d49584544ull);
    for (Group& g : groups_) g.rewind();
    block_.clear();
    cursor_ = 0;
    blocks_ = 0;
    fresh_ = 0;
  }

 private:
  /// One block: a point of every (network, backend), the transform
  /// rotating with the block and the knob set every three blocks,
  /// shuffled.
  void fill_block() {
    block_.clear();
    cursor_ = 0;
    for (std::size_t pair = 0; pair < groups_.size() / 3; ++pair) {
      const std::size_t t = (blocks_ + pair) % 3;
      block_.push_back(groups_[pair * 3 + t].take(blocks_ / 3 + pair).line());
    }
    shuffle(block_, rng_);
    ++blocks_;
  }

  std::uint64_t seed_;
  std::vector<Group> groups_;
  std::set<std::string> hot_lines_;
  std::uint64_t new_seed_base_ = 0;
  edea::Rng rng_;
  std::vector<std::string> block_;
  std::size_t cursor_ = 0;
  std::size_t blocks_ = 0;
  std::size_t fresh_ = 0;
};

}  // namespace

std::unique_ptr<Workload> Workload::make(const std::string& name,
                                         std::uint64_t seed) {
  if (name == "serve-hit") return std::make_unique<ServeHit>(seed);
  if (name == "routed-mixed") return std::make_unique<RoutedMixed>(seed);
  throw std::invalid_argument("unknown workload '" + name + "'");
}

WorkloadKey workload_key_of(const std::string& line) {
  const edea::service::ParsedLine parsed =
      edea::service::parse_request_line(line);
  if (parsed.kind != edea::service::ParsedLine::Kind::kRun) {
    throw std::invalid_argument("not a run line: '" + line + "'");
  }
  const edea::service::Request& r = parsed.request;
  return {r.network, r.seed, r.dilation, r.depth_multiplier};
}

}  // namespace perfbench
