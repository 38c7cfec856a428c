#include "profile.hpp"

#include <algorithm>
#include <atomic>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <thread>
#include <tuple>

#include "baseline/serialized_accelerator.hpp"
#include "core/accelerator.hpp"
#include "core/sweep_runner.hpp"
#include "nn/model_zoo.hpp"
#include "service/protocol.hpp"
#include "service/router.hpp"

namespace perfbench {

namespace {

using edea::service::ParsedLine;
using edea::service::Request;

/// Calls per micro side pass (parse, route, catalog hit, dispatch hit,
/// render): enough for a stable median of sub-microsecond calls.
constexpr int kMicroCalls = 4000;

double us_between(std::int64_t start, std::int64_t end) {
  return static_cast<double>(end - start) * 1e-3;
}

Request parse(const std::string& line) {
  return edea::service::parse_request_line(line).request;
}

/// The lines a side pass runs over: the hot set, then the fresh points
/// the traced pass served.
std::vector<const Point*> own_points(Workload& workload, const Pass& pass) {
  std::vector<const Point*> points;
  for (const Point& p : workload.hot_set()) points.push_back(&p);
  for (const Served& s : pass.timed.fresh) points.push_back(&s.point);
  return points;
}

/// The zoo specs of a workload key, transformed the way the catalog does.
std::vector<edea::nn::DscLayerSpec> specs_of(const WorkloadKey& key) {
  const auto& [network, seed, dilation, multiplier] = key;
  (void)seed;
  std::vector<edea::nn::DscLayerSpec> specs = edea::nn::zoo_specs(network);
  for (edea::nn::DscLayerSpec& spec : specs) {
    spec.dilation = dilation;
    spec.padding *= dilation;
    spec.depth_multiplier *= multiplier;
  }
  return specs;
}

// --- spans of the traced pass ----------------------------------------------

struct SpanKey {
  const void* layers;
  const void* input;
  std::uint64_t config_hash;
  bool serialized;
  int batch;
  friend bool operator<(const SpanKey& a, const SpanKey& b) {
    return std::tie(a.layers, a.input, a.config_hash, a.serialized, a.batch) <
           std::tie(b.layers, b.input, b.config_hash, b.serialized, b.batch);
  }
};

/// A miss joined to the backend span it caused.
struct JoinedMiss {
  const MissTrace* miss;
  const BackendSpan* span;
};

/// Pairs every traced miss with its backend span: same workload, config,
/// backend and batch, matched in time order.
std::vector<JoinedMiss> join_misses(const Recorder& recorder, Pass& pass) {
  std::map<SpanKey, std::vector<const BackendSpan*>> spans;
  for (const BackendSpan& s : recorder.backend_spans) {
    spans[SpanKey{s.layers, s.input, s.config_hash, s.serialized, s.batch}]
        .push_back(&s);
  }
  for (auto& [key, list] : spans) {
    std::sort(list.begin(), list.end(),
              [](const BackendSpan* a, const BackendSpan* b) {
                return a->start < b->start;
              });
  }
  std::vector<const MissTrace*> misses;
  for (const MissTrace& m : recorder.misses) misses.push_back(&m);
  std::sort(misses.begin(), misses.end(),
            [](const MissTrace* a, const MissTrace* b) {
              return a->read < b->read;
            });
  std::vector<Server*> servers = pass.stack->servers();
  std::map<SpanKey, std::size_t> used;
  std::vector<JoinedMiss> joined;
  for (const MissTrace* m : misses) {
    const Request r = parse(m->line);
    Server& server = *servers[m->shard < 0 ? 0 : static_cast<std::size_t>(m->shard)];
    const auto& w = server.catalog().resolve(r.network, r.seed, r.dilation,
                                             r.depth_multiplier);
    const SpanKey key{&w.layers, &w.input, r.config.hash(),
                      r.backend == "serialized", r.batch};
    const auto it = spans.find(key);
    if (it == spans.end()) continue;
    std::size_t& next = used[key];
    if (next >= it->second.size()) continue;
    const BackendSpan* span = it->second[next++];
    if (span->start < m->read || span->end > m->write) continue;
    joined.push_back(JoinedMiss{m, span});
  }
  return joined;
}

/// Per-request trace coverage: the share of client-observed latency that
/// no server-side span on the request's path covers.
struct Coverage {
  std::vector<double> unattributed_us;
  std::vector<double> share;
  /// (client connection key, id) -> unattributed us, for the trace file.
  std::map<std::pair<std::uint64_t, std::uint64_t>, double> per_request;
};

Coverage coverage(const Recorder& recorder, Side front) {
  std::map<std::uint64_t, const ConnectionTrace*> servers;
  std::set<std::uint64_t> ambiguous;
  for (const ConnectionTrace& c : recorder.connections) {
    if (c.side != front) continue;
    if (!servers.emplace(c.key, &c).second) ambiguous.insert(c.key);
  }
  Coverage out;
  for (const ConnectionTrace& client : recorder.connections) {
    if (client.side != Side::kClient || ambiguous.count(client.key) != 0) {
      continue;
    }
    const auto it = servers.find(client.key);
    if (it == servers.end()) continue;
    std::map<std::uint64_t, const RequestTimes*> by_id;
    for (const RequestTimes& t : it->second->requests) by_id[t.id] = &t;
    for (const RequestTimes& c : client.requests) {
      const auto s = by_id.find(c.id);
      if (s == by_id.end()) continue;
      const double latency = us_between(c.start, c.end);
      const double residence = us_between(s->second->start, s->second->end);
      if (latency <= 0.0) continue;
      const double unattributed = std::max(0.0, latency - residence);
      out.unattributed_us.push_back(unattributed);
      out.share.push_back(unattributed / latency);
      out.per_request[{client.key, c.id}] = unattributed;
    }
  }
  return out;
}

struct BackendStats {
  double sims = 0.0;
  std::vector<double> sim_ms;
  double ns = 0.0;
  double cycles = 0.0;
  double busy_ns_in_phase = 0.0;
};

BackendStats backend_stats(const Recorder& recorder, bool serialized,
                           const Pass& pass) {
  BackendStats out;
  for (const BackendSpan& s : recorder.backend_spans) {
    if (s.serialized != serialized) continue;
    out.sims += 1.0;
    out.sim_ms.push_back(static_cast<double>(s.end - s.start) * 1e-6);
    out.ns += static_cast<double>(s.end - s.start);
    out.cycles += static_cast<double>(s.cycles);
    const std::int64_t lo = std::max(s.start, pass.timed_start);
    const std::int64_t hi = std::min(s.end, pass.timed_end);
    if (hi > lo) out.busy_ns_in_phase += static_cast<double>(hi - lo);
  }
  return out;
}

// --- side passes -------------------------------------------------------------

struct MaterializeTimes {
  std::vector<double> materialize_ms;
  std::vector<double> fingerprint_ms;
  std::vector<double> catalog_hit_us;
};

/// Materializes, fingerprints and looks up the workload's own keys.
MaterializeTimes materialize_pass(Workload& workload, const Pass& pass) {
  std::vector<WorkloadKey> keys;
  std::set<WorkloadKey> seen;
  const auto take = [&](const WorkloadKey& key) {
    if (keys.size() < 6 && seen.insert(key).second) keys.push_back(key);
  };
  for (const WorkloadKey& key : workload.prewarm_keys()) take(key);
  for (const Point* p : own_points(workload, pass)) {
    take(workload_key_of(p->line));
  }

  MaterializeTimes out;
  edea::service::WorkloadCatalog catalog;
  for (const WorkloadKey& key : keys) {
    const std::vector<edea::nn::DscLayerSpec> specs = specs_of(key);
    std::int64_t start = now_ns();
    const std::vector<edea::nn::QuantDscLayer> layers =
        edea::nn::make_random_quant_network(specs, std::get<1>(key));
    out.materialize_ms.push_back(us_between(start, now_ns()) * 1e-3);

    const auto& w = catalog.resolve(std::get<0>(key), std::get<1>(key),
                                    std::get<2>(key), std::get<3>(key));
    start = now_ns();
    const std::uint64_t fingerprint =
        edea::core::network_fingerprint(w.layers, w.input);
    out.fingerprint_ms.push_back(us_between(start, now_ns()) * 1e-3);
    if (fingerprint != w.fingerprint || layers.size() != w.layers.size()) {
      throw std::runtime_error("side pass disagrees with the catalog");
    }
  }
  for (int i = 0; i < kMicroCalls; ++i) {
    const WorkloadKey& key = keys[static_cast<std::size_t>(i) % keys.size()];
    const std::int64_t start = now_ns();
    (void)catalog.resolve(std::get<0>(key), std::get<1>(key), std::get<2>(key),
                          std::get<3>(key));
    out.catalog_hit_us.push_back(us_between(start, now_ns()));
  }
  return out;
}

struct LineTimes {
  std::vector<double> parse_us;
  std::vector<double> route_us;
};

/// Parses and routes the workload's own lines.
LineTimes line_pass(Workload& workload, const Pass& pass) {
  const std::vector<const Point*> points = own_points(workload, pass);
  edea::service::HashRing ring;
  ring.add_node("shard0");
  ring.add_node("shard1");
  LineTimes out;
  std::size_t owners = 0;  // keeps the lookups observable
  for (int i = 0; i < kMicroCalls; ++i) {
    const std::string& line =
        points[static_cast<std::size_t>(i) % points.size()]->line;
    std::int64_t start = now_ns();
    const ParsedLine parsed = edea::service::parse_request_line(line);
    out.parse_us.push_back(us_between(start, now_ns()));
    start = now_ns();
    const std::string& owner =
        ring.owner(edea::service::route_key(parsed.request));
    out.route_us.push_back(us_between(start, now_ns()));
    owners += owner.size();
  }
  if (owners == 0) throw std::runtime_error("ring returned no owner");
  return out;
}

struct DispatchTimes {
  std::vector<double> hit_us;
  std::vector<double> render_us;
};

/// Submits warm keys straight to the live services and renders the
/// summary-only outcomes their hits deliver.
DispatchTimes dispatch_pass(Workload& workload, Pass& pass) {
  std::vector<const Point*> warm;
  for (const Point& p : workload.hot_set()) warm.push_back(&p);
  struct Delivery {
    std::atomic<bool> done{false};
    std::int64_t at = 0;
    edea::core::SweepOutcome outcome;
  };
  std::vector<Server*> servers = pass.stack->servers();
  std::vector<std::uint64_t> sessions;
  for (Server* s : servers) sessions.push_back(s->service().new_session_id());

  DispatchTimes out;
  std::vector<edea::core::SweepOutcome> outcomes;
  for (int i = 0; i < kMicroCalls && !warm.empty(); ++i) {
    const std::string& line = warm[static_cast<std::size_t>(i) % warm.size()]->line;
    const Request r = parse(line);
    const std::size_t owner = pass.stack->owner(line);
    Server& server = *servers[owner];
    const auto& w = server.catalog().resolve(r.network, r.seed, r.dilation,
                                             r.depth_multiplier);
    auto delivery = std::make_shared<Delivery>();
    const std::int64_t start = now_ns();
    const auto verdict = server.service().submit_streaming(
        job_for(r, w), sessions[owner], [delivery](edea::core::SweepOutcome o) {
          delivery->at = now_ns();
          delivery->outcome = std::move(o);
          delivery->done.store(true);
        });
    if (verdict != edea::service::Admission::kAdmitted) continue;
    if (!delivery->done.load()) {
      // Evicted since: a fresh simulation, not a hit. Let it finish.
      while (!delivery->done.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      continue;
    }
    out.hit_us.push_back(us_between(start, delivery->at));
    if (outcomes.size() < 64) outcomes.push_back(delivery->outcome);
  }
  std::size_t bytes = 0;
  for (int i = 0; i < kMicroCalls && !outcomes.empty(); ++i) {
    const edea::core::SweepOutcome& o =
        outcomes[static_cast<std::size_t>(i) % outcomes.size()];
    const std::int64_t start = now_ns();
    const std::string line = edea::service::format_outcome_line(o);
    out.render_us.push_back(us_between(start, now_ns()));
    bytes += line.size();
  }
  if (!outcomes.empty() && bytes == 0) {
    throw std::runtime_error("rendered nothing");
  }
  return out;
}

struct LayerTimes {
  std::map<std::string, std::vector<double>> edea_us;  // by layer class
  std::vector<double> serialized_us;
};

/// Runs a few of the workload's own jobs layer by layer, timing each
/// run_layer call.
LayerTimes layer_pass(Workload& workload, const Pass& pass) {
  // One job per (backend, transform): plain, dilated, multiplied.
  std::map<std::pair<bool, int>, Request> chosen;
  for (const Point* p : own_points(workload, pass)) {
    const Request r = parse(p->line);
    const int transform = r.dilation > 1 ? 1 : r.depth_multiplier > 1 ? 2 : 0;
    const bool serialized = r.backend == "serialized";
    if (serialized && transform == 2) continue;  // one transform suffices
    chosen.emplace(std::make_pair(serialized, transform), r);
  }
  LayerTimes out;
  edea::service::WorkloadCatalog catalog;
  for (const auto& [which, r] : chosen) {
    const auto& w =
        catalog.resolve(r.network, r.seed, r.dilation, r.depth_multiplier);
    edea::nn::Int8Tensor x = w.input;
    if (!which.first) {
      edea::core::EdeaAccelerator accel(r.config);
      for (const edea::nn::QuantDscLayer& layer : w.layers) {
        const std::int64_t start = now_ns();
        edea::core::LayerRunResult result = accel.run_layer(layer, x);
        const double us = us_between(start, now_ns());
        const auto& spec = layer.spec;
        const std::string cls = spec.dilation > 1          ? "dilated"
                                : spec.depth_multiplier > 1 ? "multiplied"
                                : spec.stride == 1          ? "s1"
                                                            : "s2";
        out.edea_us[cls].push_back(us);
        x = std::move(result.output);
      }
    } else {
      edea::baseline::SerializedDscAccelerator accel(r.config);
      for (const edea::nn::QuantDscLayer& layer : w.layers) {
        const std::int64_t start = now_ns();
        edea::baseline::SerializedLayerResult result = accel.run_layer(layer, x);
        out.serialized_us.push_back(us_between(start, now_ns()));
        x = std::move(result.common.output);
      }
    }
  }
  return out;
}

// --- trace file --------------------------------------------------------------

void write_trace(const std::string& path, const Recorder& recorder,
                 const std::vector<JoinedMiss>& joined,
                 const Coverage& cover, std::int64_t origin) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  constexpr std::size_t kMaxEvents = 200000;
  std::size_t events = 0;
  bool first = true;
  const auto event = [&](const std::string& name, int tid, std::int64_t start,
                         std::int64_t end, const std::string& args) {
    if (events++ >= kMaxEvents) return;
    out << (first ? "\n" : ",\n");
    first = false;
    out << "{\"name\":\"" << name << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << tid
        << ",\"ts\":" << us_between(origin, start)
        << ",\"dur\":" << us_between(start, end) << ",\"args\":{" << args
        << "}}";
  };
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  std::map<const BackendSpan*, const MissTrace*> parent;
  for (const JoinedMiss& j : joined) parent[j.span] = j.miss;
  for (const BackendSpan& s : recorder.backend_spans) {
    std::string args = "\"cycles\":" + std::to_string(s.cycles) +
                       ",\"batch\":" + std::to_string(s.batch);
    const auto it = parent.find(&s);
    if (it != parent.end()) {
      args += ",\"shard\":" + std::to_string(it->second->shard) +
              ",\"parent_read_us\":" +
              std::to_string(us_between(origin, it->second->read));
    }
    event(s.serialized ? "baseline.serialized.run_network_batch"
                       : "core.edea.run_network_batch",
          s.serialized ? 4 : 3, s.start, s.end, args);
  }
  for (const JoinedMiss& j : joined) {
    event("session.miss", 2, j.miss->read, j.miss->write,
          "\"shard\":" + std::to_string(j.miss->shard));
  }
  for (const ConnectionTrace& c : recorder.connections) {
    const char* name = c.side == Side::kClient    ? "client.request"
                       : c.side == Side::kSession ? "session.request"
                                                  : "router.request";
    const int tid = c.side == Side::kClient ? 0 : c.side == Side::kRouter ? 1 : 2;
    for (const RequestTimes& t : c.requests) {
      std::string args = "\"conn\":\"" + std::to_string(c.key) +
                         "\",\"id\":" + std::to_string(t.id);
      if (c.side == Side::kClient) {
        const auto it = cover.per_request.find({c.key, t.id});
        if (it != cover.per_request.end()) {
          args += ",\"unattributed_us\":" + std::to_string(it->second);
        }
      } else {
        args += ",\"parent\":\"client.request\"";
      }
      event(name, tid, t.start, t.end, args);
    }
  }
  out << "\n]}\n";
  if (!out) throw std::runtime_error("failed writing trace file " + path);
}

}  // namespace

const std::vector<LayerMetricInfo>& per_layer_table() {
  static const std::vector<LayerMetricInfo> table = {
      {"nn.materialize_ms", "ms", "setup_s, latency_p90_ms",
       "routed-mixed (serve-hit: setup_s only)"},
      {"core.fingerprint_ms", "ms", "setup_s", "serve-hit, routed-mixed"},
      {"session.catalog_hit_us", "us", "req_per_s", "serve-hit"},
      {"session.materializations", "count", "latency_p90_ms",
       "routed-mixed (0 on serve-hit)"},
      {"session.hit_residence_us", "us", "latency_p50_ms, req_per_s",
       "serve-hit"},
      {"session.pre_sim_ms", "ms", "latency_p50_ms, latency_p90_ms",
       "routed-mixed"},
      {"session.post_sim_us", "us", "latency_p50_ms", "routed-mixed"},
      {"protocol.parse_us", "us", "req_per_s", "serve-hit"},
      {"protocol.render_us", "us", "req_per_s", "serve-hit"},
      {"dispatch.hit_us", "us", "req_per_s", "serve-hit"},
      {"dispatch.hit_ratio", "ratio", "latency_p50_ms, req_per_s",
       "routed-mixed (1 on serve-hit)"},
      {"dispatch.evictions", "per_1k_req", "req_per_s",
       "routed-mixed (0 on serve-hit)"},
      {"dispatch.pool_busy_share", "ratio", "req_per_s", "routed-mixed"},
      {"transport.write_us", "us", "req_per_s", "serve-hit"},
      {"transport.lines_per_write", "ratio", "req_per_s", "serve-hit"},
      {"core.edea.sims", "count", "base for core.edea.*", "all"},
      {"core.edea.sim_ms", "ms",
       "req_per_s, latency_p50_ms, latency_p90_ms",
       "routed-mixed (serve-hit: setup_s only)"},
      {"core.edea.ns_per_cycle", "ns", "req_per_s", "routed-mixed"},
      {"core.edea.layer_us.s1", "us", "req_per_s", "routed-mixed"},
      {"core.edea.layer_us.s2", "us", "req_per_s", "routed-mixed"},
      {"core.edea.layer_us.dilated", "us", "req_per_s", "routed-mixed"},
      {"core.edea.layer_us.multiplied", "us", "req_per_s", "routed-mixed"},
      {"baseline.serialized.sims", "count", "base for baseline.serialized.*",
       "all"},
      {"baseline.serialized.sim_ms", "ms", "req_per_s", "routed-mixed"},
      {"baseline.serialized.ns_per_cycle", "ns", "req_per_s", "routed-mixed"},
      {"baseline.serialized.layer_us", "us", "req_per_s", "routed-mixed"},
      {"router.hit_latency_p50_ms", "ms", "latency_p50_ms", "routed-mixed"},
      {"router.shard_skew", "ratio", "req_per_s", "routed-mixed"},
      {"router.retries", "count", "req_per_s", "routed-mixed"},
      {"router.route_us", "us", "req_per_s", "routed-mixed"},
      {"trace.overhead_share", "ratio", "none", "all"},
      {"trace.unattributed_share", "ratio", "none (trace coverage)", "all"},
      {"trace.unattributed_us", "us", "none (trace coverage)", "all"},
  };
  return table;
}

std::vector<Metric> per_layer_metrics(Workload& workload, Pass& traced,
                                      const Recorder& recorder,
                                      double untraced_rps,
                                      const std::string& trace_file) {
  std::map<std::string, double> v;

  // Spans of the traced pass.
  v["session.hit_residence_us"] = median(recorder.hit_residence_us);
  const std::vector<JoinedMiss> joined = join_misses(recorder, traced);
  std::vector<double> pre_ms;
  std::vector<double> post_us;
  for (const JoinedMiss& j : joined) {
    pre_ms.push_back(us_between(j.miss->read, j.span->start) * 1e-3);
    post_us.push_back(us_between(j.span->end, j.miss->write));
  }
  v["session.pre_sim_ms"] = median(pre_ms);
  v["session.post_sim_us"] = median(post_us);
  v["transport.write_us"] = median(recorder.write_us);
  v["transport.lines_per_write"] =
      recorder.write_us.empty()
          ? 0.0
          : static_cast<double>(recorder.lines_written) /
                static_cast<double>(recorder.write_us.size());

  const double wall_ns =
      static_cast<double>(traced.timed_end - traced.timed_start);
  double busy_ns = 0.0;
  for (const bool serialized : {false, true}) {
    const BackendStats b = backend_stats(recorder, serialized, traced);
    const std::string prefix =
        serialized ? "baseline.serialized." : "core.edea.";
    v[prefix + "sims"] = b.sims;
    v[prefix + "sim_ms"] = median(b.sim_ms);
    v[prefix + "ns_per_cycle"] = b.cycles > 0.0 ? b.ns / b.cycles : 0.0;
    busy_ns += b.busy_ns_in_phase;
  }
  v["dispatch.pool_busy_share"] =
      wall_ns > 0.0 ? busy_ns / (traced.stack->pool_threads() * wall_ns) : 0.0;

  const Coverage cover = coverage(
      recorder, workload.shape().shards > 0 ? Side::kRouter : Side::kSession);
  v["trace.unattributed_share"] = median(cover.share);
  v["trace.unattributed_us"] = median(cover.unattributed_us);

  // Counters over the timed phase.
  const std::uint64_t hits = traced.after.hits - traced.before.hits;
  const std::uint64_t misses = traced.after.misses - traced.before.misses;
  v["dispatch.hit_ratio"] =
      hits + misses == 0 ? 0.0
                         : static_cast<double>(hits) /
                               static_cast<double>(hits + misses);
  // Per 1000 submissions (hits + misses), so the figure does not grow
  // with the number of requests a faster run gets through.
  v["dispatch.evictions"] =
      hits + misses == 0
          ? 0.0
          : 1000.0 *
                static_cast<double>(traced.after.evictions -
                                    traced.before.evictions) /
                static_cast<double>(hits + misses);
  double max_share = 0.0;
  double sum_share = 0.0;
  for (std::size_t s = 0; s < traced.submissions_after.size(); ++s) {
    const double n = static_cast<double>(traced.submissions_after[s] -
                                         traced.submissions_before[s]);
    max_share = std::max(max_share, n);
    sum_share += n;
  }
  const double mean_share =
      sum_share / static_cast<double>(traced.submissions_after.size());
  v["router.shard_skew"] = mean_share > 0.0 ? max_share / mean_share : 0.0;
  v["router.retries"] = static_cast<double>(traced.retries);
  v["router.hit_latency_p50_ms"] = median(traced.sink->hits().samples());
  v["trace.overhead_share"] =
      untraced_rps > 0.0 ? 1.0 - traced.req_per_s() / untraced_rps : 0.0;

  // Workload keys the timed phase had to materialize: keys absent from
  // the owner's catalog after set-up. WorkloadCatalog has no public
  // counter, so this follows the stream and the ring; the stream draws
  // its never-seen seeds from a fixed pool, so the count does not grow
  // with the number of requests served.
  std::set<std::pair<std::size_t, WorkloadKey>> resident;
  for (std::size_t s = 0; s < traced.stack->servers().size(); ++s) {
    for (const WorkloadKey& key : workload.prewarm_keys()) {
      resident.emplace(s, key);
    }
  }
  for (const Point& p : workload.hot_set()) {
    resident.emplace(traced.stack->owner(p.line), workload_key_of(p.line));
  }
  double materializations = 0.0;
  for (const Served& s : traced.timed.fresh) {
    if (resident
            .emplace(traced.stack->owner(s.point.line),
                     workload_key_of(s.point.line))
            .second) {
      materializations += 1.0;
    }
  }
  v["session.materializations"] = materializations;

  // Side passes over the workload's own lines and jobs.
  const MaterializeTimes m = materialize_pass(workload, traced);
  v["nn.materialize_ms"] = median(m.materialize_ms);
  v["core.fingerprint_ms"] = median(m.fingerprint_ms);
  v["session.catalog_hit_us"] = median(m.catalog_hit_us);
  const LineTimes lines = line_pass(workload, traced);
  v["protocol.parse_us"] = median(lines.parse_us);
  v["router.route_us"] = median(lines.route_us);
  const DispatchTimes d = dispatch_pass(workload, traced);
  v["dispatch.hit_us"] = median(d.hit_us);
  v["protocol.render_us"] = median(d.render_us);
  const LayerTimes layers = layer_pass(workload, traced);
  for (const char* cls : {"s1", "s2", "dilated", "multiplied"}) {
    const auto it = layers.edea_us.find(cls);
    v[std::string("core.edea.layer_us.") + cls] =
        it == layers.edea_us.end() ? 0.0 : median(it->second);
  }
  v["baseline.serialized.layer_us"] = median(layers.serialized_us);

  if (!trace_file.empty()) {
    // Time zero of the file is the traced pass's first recorded event.
    std::int64_t origin = traced.timed_start;
    for (const BackendSpan& s : recorder.backend_spans) {
      origin = std::min(origin, s.start);
    }
    for (const ConnectionTrace& c : recorder.connections) {
      for (const RequestTimes& t : c.requests) origin = std::min(origin, t.start);
    }
    write_trace(trace_file, recorder, joined, cover, origin);
  }

  std::vector<Metric> out;
  for (const LayerMetricInfo& info : per_layer_table()) {
    out.push_back(Metric{info.name, v.at(info.name), info.unit});
  }
  return out;
}

}  // namespace perfbench
