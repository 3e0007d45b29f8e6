// Ablation: chip-level scaling -- one tuned implicit convolution,
// batch-split over 1..4 core groups by the graph engine, the one
// multi-core-group path. Each CG owns its memory channel, so training
// batches scale near-linearly toward the chip-level TFLOPS the paper
// reports (its 2.1 TFLOPS implicit CONV is a 4-CG figure; everything else
// in this repo is per-CG); inference (batch 1) cannot be split and is the
// scaling limit.
#include <cstdio>

#include "bench_util.hpp"
#include "graph/compile.hpp"

using namespace swatop;

int main() {
  const SwatopConfig cfg;
  bench::print_title("Ablation -- data-parallel scaling over core groups");
  bench::BenchJson bj("ablation_chip_scaling");
  std::printf("chip peak (4 CGs): %.2f TFLOPS\n",
              4.0 * cfg.machine.peak_gflops() / 1000.0);

  // One 3x3 convolution, 256 -> 256 channels over a 30x30 (padded) input.
  graph::Graph g("conv");
  g.add_input("in", {30, 256});
  graph::Node conv;
  conv.kind = graph::NodeKind::Conv;
  conv.name = "conv";
  conv.inputs = {"in"};
  conv.output = "out";
  conv.kernel = 3;
  conv.channels_out = 256;
  g.add(conv);
  CompiledNet net = compile(g, cfg);

  bench::print_row({"batch", "groups", "used", "GFLOPS", "chip-eff"});
  for (const std::int64_t batch : {1, 32, 128}) {
    for (int groups : {1, 2, 4}) {
      graph::NetOptions opts;
      opts.groups = groups;
      opts.mode = sim::ExecMode::TimingOnly;
      opts.check = false;
      const graph::NetRunResult r = net.run(batch, opts);
      // Efficiency against the peak of every group asked for: idle groups
      // count (NetRunResult::efficiency divides by the groups used).
      const double chip_eff =
          r.gflops / (groups * cfg.machine.peak_gflops());
      bench::print_row({std::to_string(batch), std::to_string(groups),
                        std::to_string(r.groups_used),
                        bench::fmt(r.gflops, 1),
                        bench::fmt(chip_eff * 100.0, 1) + "%"});
      bj.add("b" + std::to_string(batch) + "/g" + std::to_string(groups),
             {{"batch", std::to_string(batch)},
              {"groups", std::to_string(groups)},
              {"groups_used", std::to_string(r.groups_used)}},
             {{"gflops", r.gflops}, {"chip_efficiency", chip_eff}},
             r.cycles);
    }
  }
  std::printf("\nlarge batches scale near-linearly (private memory channels "
              "per CG); batch 1 cannot be split\n");
  return 0;
}
