// profile.hpp - the traced run's per-layer metrics.
//
// Two sources, both recorded from the benchmark's own files:
//   - the traced pass's spans (trace.hpp): session residence, the miss
//     path around each backend span, transport writes, backend run times,
//     and per-request trace coverage against the client's latency;
//   - side passes that time direct calls into one layer over the
//     workload's own lines and jobs: materialization, fingerprinting,
//     catalog lookups, parsing, routing, dispatch hits, rendering, and
//     each backend's run_layer.
#pragma once

#include <string>
#include <vector>

#include "harness.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Static description of a per-layer metric: what it should move where.
struct LayerMetricInfo {
  const char* name;
  const char* unit;
  const char* moves;  ///< the e2e metric(s) it should move
  const char* on;     ///< on which workload(s)
};

/// Every per-layer metric, in report order.
const std::vector<LayerMetricInfo>& per_layer_table();

/// Computes every per-layer metric of the table. `traced` is the traced
/// pass (its stack still serving), `recorder` holds its spans (recording
/// has ended), `untraced_rps` is the untraced pass's req_per_s. Writes the
/// spans as Chrome trace-event JSON to `trace_file` unless it is empty.
std::vector<Metric> per_layer_metrics(Workload& workload, Pass& traced,
                                      const Recorder& recorder,
                                      double untraced_rps,
                                      const std::string& trace_file);

}  // namespace perfbench
