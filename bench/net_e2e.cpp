// End-to-end network benchmark on the graph engine: VGG16 / ResNet / YOLO
// compiled through swatop::compile() (epilogue fusion + inter-layer SPM
// residency on by default) and executed whole (timing mode) with the batch
// split across the 4 core groups. Prints a table and writes two JSON series
// via the shared bench_util emitter:
//   BENCH_net_e2e.json            -- the fused defaults CI tracks,
//     including the tuner's work counts per net (tune_enumerated /
//     tune_lowered / tune_ranked / tune_measured / tune_ir_nodes), which
//     are exact and gated with zero tolerance,
//   BENCH_net_fusion_ablation.json -- the same nets with fusion and
//     residency forced off, plus the fused-over-unfused speedup, so the
//     bench-regression gate catches both a fused regression and a silent
//     loss of the fusion win itself.
//
// Quick mode runs batch 8; SWATOP_FULL=1 runs the paper's batch 32.
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "graph/build.hpp"
#include "graph/compile.hpp"

using namespace swatop;

int main() {
  const std::int64_t batch = bench::full_scale() ? 32 : 8;
  bench::print_title("end-to-end networks on the graph engine (4 CGs, "
                     "batch " +
                     std::to_string(batch) + ")");
  bench::BenchJson bj("net_e2e");
  bench::BenchJson ablation("net_fusion_ablation");
  bench::print_row({"network", "layers", "shapes", "GFLOPS", "eff%",
                    "ms/image", "elided MB", "peak MB", "reuse%"});
  std::vector<std::vector<std::string>> ablation_rows;

  for (const char* net : {"vgg16", "resnet", "yolo"}) {
    CompiledNet compiled = compile(graph::build_net(net));
    graph::NetOptions opts;
    opts.groups = 4;
    opts.mode = sim::ExecMode::TimingOnly;
    const graph::NetRunResult r = compiled.run(batch, opts);

    const double planned_mb =
        static_cast<double>(r.planned_peak_floats) * 4.0 / 1e6;
    const double reuse = 100.0 * static_cast<double>(r.planned_peak_floats) /
                         static_cast<double>(r.naive_floats);
    const double elided_mb =
        static_cast<double>(r.dma_bytes_elided) / 1e6;
    bench::print_row({net,
                      std::to_string(compiled.graph().conv_count()),
                      std::to_string(r.shapes_tuned), bench::fmt(r.gflops, 1),
                      bench::fmt(100.0 * r.efficiency, 1),
                      bench::fmt(r.ms_per_image, 2), bench::fmt(elided_mb, 1),
                      bench::fmt(planned_mb, 1), bench::fmt(reuse, 0)});

    bj.add(net,
           {{"net", net},
            {"batch", std::to_string(batch)},
            {"groups", "4"}},
           {{"gflops", r.gflops},
            {"efficiency", r.efficiency},
            {"ms_per_image", r.ms_per_image},
            {"sync_cycles", r.sync_cycles},
            {"planned_peak_bytes",
             static_cast<double>(r.planned_peak_floats) * 4.0},
            {"naive_bytes", static_cast<double>(r.naive_floats) * 4.0},
            {"shapes_tuned", static_cast<double>(r.shapes_tuned)},
            {"convs_fused", static_cast<double>(r.fusion.convs_fused)},
            {"resident_tensors", static_cast<double>(r.resident_tensors)},
            {"dma_bytes_elided", static_cast<double>(r.dma_bytes_elided)},
            {"tune_seconds", r.tune_seconds},
            {"tune_enumerated", static_cast<double>(r.tune_enumerated)},
            {"tune_lowered", static_cast<double>(r.tune_lowered)},
            {"tune_ranked", static_cast<double>(r.tune_ranked)},
            {"tune_measured", static_cast<double>(r.tune_measured)},
            {"tune_ir_nodes", static_cast<double>(r.tune_ir_nodes)}},
           r.cycles);

    // Ablation: the same network with the epilogue fusion pass and the SPM
    // residency pass disabled (run_network's --no-fusion/--no-residency).
    graph::NetOptions plain = opts;
    plain.fusion = false;
    plain.residency = false;
    const graph::NetRunResult u = compiled.run(batch, plain);
    ablation.add(net,
                 {{"net", net},
                  {"batch", std::to_string(batch)},
                  {"groups", "4"}},
                 {{"fused_gflops", r.gflops},
                  {"unfused_gflops", u.gflops},
                  {"fused_cycles", r.cycles},
                  {"unfused_cycles", u.cycles},
                  {"fusion_speedup", u.cycles / r.cycles},
                  {"convs_fused", static_cast<double>(r.fusion.convs_fused)},
                  {"dma_bytes_elided",
                   static_cast<double>(r.dma_bytes_elided)}},
                 0.0);
    ablation_rows.push_back({net, bench::fmt(r.gflops, 1),
                             bench::fmt(u.gflops, 1),
                             bench::fmt(u.cycles / r.cycles, 2) + "x"});
  }

  std::printf("\nfusion ablation (fusion + residency off)\n");
  bench::print_row({"network", "fused", "unfused", "speedup"});
  for (const auto& row : ablation_rows) bench::print_row(row);
  return 0;
}
