// Observability demo: tune a conv layer with profiling enabled, execute it,
// and dump (a) a Chrome trace-event JSON you can open in chrome://tracing
// or https://ui.perfetto.dev, and (b) a human-readable text report of where
// the cycles went (DMA occupancy, wasted transaction bytes, pipeline issue
// mix, SPM footprint, tuner model-vs-measured accuracy).
//
//   $ ./profile_operator [trace.json]
#include <cstdio>
#include <fstream>

#include "graph/compile.hpp"
#include "nets/nets.hpp"
#include "obs/attribution.hpp"
#include "obs/roofline.hpp"
#include "ops/implicit_conv.hpp"
#include "tune/journal.hpp"

int main(int argc, char** argv) {
  using namespace swatop;
  const char* trace_path = argc > 1 ? argv[1] : "profile_operator.trace.json";

  const auto layers = nets::vgg16();
  const ops::ConvShape shape = nets::to_shape(layers[8], 8);  // conv4_2
  std::printf("profiling VGG16 %s (%s)\n\n", layers[8].name.c_str(),
              shape.to_string().c_str());
  ops::ImplicitConvOp op(shape);

  SwatopConfig cfg;
  cfg.observability.enabled = true;  // counters + trace
  cfg.tune_top_k = 4;  // measure the 4 model-ranked best (traced too)

  // compile() owns the tuning journal: every candidate the tuner considers
  // is recorded without the caller wiring anything up.
  CompiledOp compiled = compile(op, cfg);
  const rt::RunResult r = compiled.run(sim::ExecMode::TimingOnly);
  std::printf("picked %s: %.0f cycles measured, %.1f GFLOPS\n\n",
              compiled.candidate.strategy.to_string().c_str(),
              r.cycles, r.gflops(op.flops(), cfg.machine));

  // The profile snapshot rides on the run result.
  std::fputs(r.profile.report().c_str(), stdout);

  // Exact cycle attribution + roofline placement from the same counters,
  // and what the tuner's search looked like.
  const obs::Attribution attr = obs::attribute(r.profile.counters);
  std::printf("\n%s", obs::attribution_report(attr).c_str());
  const obs::RooflineMachine m = {cfg.machine.peak_flops_per_cycle(),
                                  cfg.machine.dma_bytes_per_cycle()};
  const std::vector<obs::RooflinePoint> pts = {
      obs::roofline_place(op.name(), r.profile.counters, m)};
  std::printf("\n%s", obs::roofline_report(pts, m).c_str());
  std::printf("\n%s", tune::journal_summary(compiled.journal()).c_str());

  std::ofstream out(trace_path);
  r.profile.write_chrome_trace(out);
  std::printf("\nwrote %s -- open it in chrome://tracing or "
              "https://ui.perfetto.dev\n",
              trace_path);
  return out.good() ? 0 : 1;
}
