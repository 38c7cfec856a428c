// edea_perfbench - the repository benchmark: the real serving stack
// (SocketTransport -> Session -> SimulationService, plus ClusterRouter for
// routed-mixed) driven over loopback TCP by the shipped pipelined client.
//
//   edea_perfbench --workload serve-hit|routed-mixed
//                  --seed N --seconds S --trace 0|1 [--trace-file PATH]
//
// --trace 0 prints the end-to-end metrics (setup_s, req_per_s,
// latency_p50_ms, latency_p90_ms, rss_peak_mb) of one untraced pass.
// --trace 1 runs an untraced pass, then a traced pass of the same stream,
// and prints the per-layer metrics (profile.hpp); the spans go to
// --trace-file. Either way every reply is checked, a seeded sample is
// recomputed serially, and for the default seed a digest of the simulated
// reply fields must equal the committed one. The last stdout line is one
// JSON object; the exit code is nonzero on any failed or wrong reply, and
// the failures are repeated on stderr.
#include <pthread.h>

#include <cstdlib>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "harness.hpp"
#include "profile.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

/// The default seed, whose digest of simulated reply fields is committed.
constexpr std::uint64_t kDefaultSeed = 1;

/// Digest of the simulated fields (cycles=, ops=, out=, layers=) of the
/// default seed's hot-set and first fresh replies, per workload. A change
/// that alters any simulated statistic changes it.
struct CommittedDigest {
  const char* workload;
  std::uint64_t digest;
};
constexpr CommittedDigest kCommittedDigests[] = {
    {"serve-hit", 0xb03099b67b16b5b2ull},
    {"routed-mixed", 0x55607c994f4cd4ceull},
};

/// Fewest set-ups of an untraced run, half before and half after the
/// timed phase (short set-ups repeat more); setup_s is their median.
constexpr int kSetups = 4;

/// Stack reserved for every thread the process starts. SocketTransport
/// keeps each finished session thread, stack mapping included, until the
/// server shuts down; at glibc's 8 MiB default a 40 s serve-hit run
/// reserved 3.9 GiB of address space, and under a 4 GiB address-space
/// limit thread creation failed. Both workloads, traced or not, also run
/// with 64 KiB stacks. The size is a reservation only: it changes nothing
/// that is timed.
constexpr std::size_t kThreadStackBytes = std::size_t{1} << 20;

void reserve_small_thread_stacks() {
  pthread_attr_t attr;
  if (pthread_attr_init(&attr) != 0) return;
  if (pthread_attr_setstacksize(&attr, kThreadStackBytes) == 0) {
    (void)pthread_setattr_default_np(&attr);
  }
  (void)pthread_attr_destroy(&attr);
}

struct Args {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 20.0;
  bool trace = false;
  std::string trace_file;
};

[[noreturn]] void usage(const std::string& problem) {
  std::cerr << "edea_perfbench: " << problem
            << "\nusage: edea_perfbench --workload "
               "serve-hit|routed-mixed --seed N --seconds S "
               "--trace 0|1 [--trace-file PATH]\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(flag + " needs a value");
    const std::string value = argv[++i];
    try {
      std::size_t used = 0;
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value, &used);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value, &used);
        if (args.seconds <= 0.0) usage("--seconds must be positive");
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        args.trace = value == "1";
      } else if (flag == "--trace-file") {
        args.trace_file = value;
      } else {
        usage("unknown flag " + flag);
      }
      if (used != 0 && used != value.size()) usage("bad value " + value);
    } catch (const std::logic_error&) {
      usage("bad value " + value + " for " + flag);
    }
  }
  if (args.workload.empty()) usage("--workload is required");
  return args;
}

/// Totals of every request the run sent, and every failure found.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void phase(const std::string& label, const PhaseResult& r) {
    attempted += r.sent;
    failed += r.failed;
    std::cout << "phase " << label << ": sent " << r.sent << ", succeeded "
              << r.succeeded << ", failed " << r.failed;
    if (r.wall_s > 0.0) std::cout << ", " << r.wall_s << " s";
    std::cout << "\n";
    for (const std::string& f : r.failures) report(label + " FAILED: " + f);
  }

  void problems(const std::string& label, const std::vector<std::string>& list) {
    failed += list.size();
    for (const std::string& p : list) report(label + " FAILED: " + p);
  }

  /// A failure goes to stdout with the report and to stderr, so the cause
  /// of a failed run shows in either stream.
  static void report(const std::string& what) {
    std::cout << "  " << what << "\n";
    std::cerr << "edea_perfbench: " << what << "\n";
  }
};

/// Recomputes the pass's hot set and checked fresh points serially.
void check_pass(const Workload& workload, const Pass& pass,
                const std::string& label, Tally& tally) {
  std::vector<Served> served;
  for (std::size_t i = 0; i < workload.hot_set().size(); ++i) {
    served.push_back(Served{workload.hot_set()[i],
                            i < pass.hot_replies.size() ? pass.hot_replies[i]
                                                        : std::string()});
  }
  for (const Served& s : pass.timed.fresh) {
    if (s.point.checked) served.push_back(s);
  }
  const std::vector<std::string> mismatches = recompute(served, 4);
  std::cout << "check " << label << ": recomputed " << served.size()
            << " replies serially, " << mismatches.size() << " mismatches\n";
  tally.problems("check " + label, mismatches);
}

/// Digest of the default seed's deterministic replies: the hot set in
/// index order, then the first fresh points of the stream.
std::uint64_t pass_digest(const Pass& pass) {
  std::vector<std::string> replies = pass.hot_replies;
  for (const Served& s : pass.timed.fresh) {
    if (s.point.digested) replies.push_back(s.reply);
  }
  return simulated_digest(replies);
}

std::string hex(std::uint64_t v) {
  std::ostringstream os;
  os << "0x" << std::hex << std::setw(16) << std::setfill('0') << v;
  return os.str();
}

void print_json(bool correct, const Tally& tally,
                const std::vector<Metric>& metrics) {
  std::ostringstream os;
  os << std::setprecision(12);
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << tally.attempted
     << ", \"failed\": " << tally.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    os << (i == 0 ? "" : ", ") << "\"" << metrics[i].name
       << "\": {\"value\": " << metrics[i].value << ", \"unit\": \""
       << metrics[i].unit << "\"}";
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

int run(const Args& args) {
  std::unique_ptr<Workload> workload = Workload::make(args.workload, args.seed);
  const LoadShape& shape = workload->shape();
  std::cout << "workload " << workload->name() << " seed " << args.seed << ": "
            << shape.connections << " connection(s), window " << shape.window
            << ", " << (shape.shards > 0 ? "router over " : "one server, ")
            << (shape.shards > 0 ? std::to_string(shape.shards) + " shards x "
                                 : std::string())
            << shape.pool_threads << " pool thread(s), cache "
            << shape.cache_capacity << ", timed phase " << args.seconds
            << " s\n";
  std::cout << std::setprecision(6);

  Tally tally;
  Pass pass = run_pass(*workload, args.seconds, args.trace ? 1 : kSetups,
                       nullptr, args.seed);
  tally.phase("warm-up", pass.warm);
  tally.phase("timed", pass.timed);
  check_pass(*workload, pass, "untraced", tally);

  bool digest_ok = true;
  if (args.seed == kDefaultSeed) {
    const std::uint64_t digest = pass_digest(pass);
    for (const CommittedDigest& c : kCommittedDigests) {
      if (args.workload != c.workload) continue;
      digest_ok = digest == c.digest;
      std::cout << "digest of simulated reply fields: " << hex(digest)
                << (digest_ok ? " (matches the committed value)" : "") << "\n";
      if (!digest_ok) {
        Tally::report("digest " + hex(digest) + " differs from the committed " +
                      hex(c.digest));
      }
    }
  }

  const Reservoir& latencies = pass.sink->all();
  std::vector<Metric> metrics;
  if (!args.trace) {
    const std::vector<double> setups = pass.setup_s;
    metrics = {
        {"setup_s", median(setups), "s"},
        {"req_per_s", pass.req_per_s(), "1/s"},
        {"latency_p50_ms", quantile(latencies.samples(), 0.5), "ms"},
        {"latency_p90_ms", quantile(latencies.samples(), 0.9), "ms"},
        {"rss_peak_mb", pass.rss_mb, "MiB"},
    };
    std::cout << "setup_s = " << metrics[0].value << " s (median of "
              << setups.size() << " set-ups:";
    for (const double s : setups) std::cout << " " << s;
    std::cout << ")\n"
              << "req_per_s = " << metrics[1].value << " 1/s ("
              << pass.timed.succeeded << " replies in " << pass.timed.wall_s
              << " s)\n"
              << "latency_p50_ms = " << metrics[2].value << " ms (n = "
              << latencies.seen() << ")\n"
              << "latency_p90_ms = " << metrics[3].value << " ms (n = "
              << latencies.seen() << ")\n"
              << "rss_peak_mb = " << metrics[4].value << " MiB\n";
  } else {
    const double untraced_rps = pass.req_per_s();
    std::cout << "untraced req_per_s = " << untraced_rps << " 1/s\n";
    pass = Pass();  // stop the untraced stack before tracing starts

    Recorder recorder;
    install_timed_backends();
    set_active_recorder(&recorder);
    Pass traced =
        run_pass(*workload, args.seconds, 1, &recorder, args.seed);
    // A short replay of the pass's own recent lines, all cache hits, so
    // the hit-path spans exist on every workload.
    std::vector<Point> replay;
    std::vector<const std::string*> expected;
    const std::vector<Served>& fresh = traced.timed.fresh;
    for (std::size_t i = fresh.size(); i > 0 && replay.size() < 64; --i) {
      replay.push_back(fresh[i - 1].point);
      expected.push_back(&fresh[i - 1].reply);
    }
    for (std::size_t i = 0; replay.size() < 64 && i < workload->hot_set().size();
         ++i) {
      replay.push_back(workload->hot_set()[i]);
      expected.push_back(&traced.hot_replies[i]);
    }
    Client client(*workload, *traced.stack, args.seed);
    const PhaseResult replayed =
        client.send(std::move(replay), *traced.sink, &recorder, expected);
    set_active_recorder(nullptr);
    recorder.wait_sessions_closed();
    restore_backends();

    tally.phase("traced warm-up", traced.warm);
    tally.phase("traced timed", traced.timed);
    tally.phase("traced hit replay", replayed);
    check_pass(*workload, traced, "traced", tally);
    std::cout << "traced req_per_s = " << traced.req_per_s() << " 1/s\n";

    metrics = per_layer_metrics(*workload, traced, recorder, untraced_rps,
                                args.trace_file);
    const auto& table = per_layer_table();
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      std::cout << metrics[i].name << " = " << metrics[i].value << " "
                << metrics[i].unit << "   [moves " << table[i].moves
                << " on " << table[i].on << "]\n";
    }
    if (!args.trace_file.empty()) {
      std::cout << "spans written to " << args.trace_file << "\n";
    }
  }

  const bool correct = tally.failed == 0 && digest_ok;
  if (!digest_ok) ++tally.failed;
  print_json(correct, tally, metrics);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  reserve_small_thread_stacks();
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::cerr << "edea_perfbench: " << e.what() << "\n";
    return 1;
  }
}
