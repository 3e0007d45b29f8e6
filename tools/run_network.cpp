// End-to-end network runner: build a CNN graph, tune every distinct layer
// once, plan the activation arena, and execute the whole network on the
// simulated SW26010 -- functionally (validated against the naive whole-net
// reference) or timing-only.
//
//   run_network vgg16 4
//   run_network resnet 8 --groups 4 --timing-only
//   run_network yolo 4 --method winograd --report trace.json
//
// Exit status: 0 on success, 1 when the functional check exceeds the
// tolerance, 2 on usage errors.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>

#include "cli.hpp"
#include "common/check.hpp"
#include "graph/build.hpp"
#include "graph/compile.hpp"

namespace {

void usage() {
  std::cerr
      << "usage: run_network <vgg16|resnet|yolo> <batch>\n"
         "         [--groups N]        core groups to split the batch over "
         "(1-4, default 1)\n"
         "         [--method M]        auto|implicit|explicit|winograd "
         "(default auto)\n"
         "         [--timing-only]     price the run without moving data\n"
         "         [--no-check]        skip the whole-net reference check\n"
         "         [--no-fusion]       disable epilogue fusion (ablation)\n"
         "         [--no-residency]    disable inter-layer SPM residency\n"
         "         [--tol X]           check tolerance (default 1e-4)\n"
         "         [--cache FILE]      persistent schedule cache\n"
         "         [--report FILE]     write the Chrome trace JSON\n"
         "         [--full-report]     per-layer cycle attribution, "
         "roofline and\n"
         "                             tuning-journal summary after the "
         "run\n"
         "         [--journal FILE]    write the tuning journal (JSONL)\n";
}

}  // namespace

int main(int argc, char** argv) {
  swatop::cli::Args args(argc, argv, usage);
  const std::string net = args.pop("network name");
  if (net != "vgg16" && net != "resnet" && net != "yolo")
    args.fail("unknown network '" + net +
              "' (expected vgg16, resnet or yolo)");
  const std::int64_t batch =
      args.int64("batch", args.pop("batch size"), 1, 1 << 20);

  swatop::SwatopConfig cfg;
  swatop::graph::NetOptions opts;
  std::string report_path;
  std::string journal_path;
  bool full_report = false;
  bool tol_set = false;
  while (args.more()) {
    const std::string a = args.pop("option");
    if (a == "--groups") {
      opts.groups = static_cast<int>(args.int64(a, args.value(a), 1, 4));
    } else if (a == "--method") {
      const std::string v = args.value(a);
      const auto m = swatop::graph::parse_conv_method(v);
      if (!m)
        args.fail("unknown method '" + v +
                  "' (expected auto, implicit, explicit or winograd)");
      opts.method = *m;
    } else if (a == "--timing-only") {
      opts.mode = swatop::sim::ExecMode::TimingOnly;
    } else if (a == "--no-check") {
      opts.check = false;
    } else if (a == "--no-fusion") {
      opts.fusion = false;
    } else if (a == "--no-residency") {
      opts.residency = false;
    } else if (a == "--tol") {
      opts.tolerance = args.real(a, args.value(a), /*require_positive=*/true);
      tol_set = true;
    } else if (a == "--cache") {
      cfg.cache.enabled = true;
      cfg.cache.path = args.value(a);
    } else if (a == "--report") {
      report_path = args.value(a);
      cfg.observability.enabled = true;
    } else if (a == "--full-report") {
      full_report = true;
    } else if (a == "--journal") {
      journal_path = args.value(a);
    } else {
      args.fail("unknown option '" + a + "'");
    }
  }
  // Flag-combination sanity: the tolerance only gates the functional
  // reference check, so pairing it with modes that skip the check would
  // silently do nothing -- reject instead.
  if (tol_set && !opts.check)
    args.fail("--tol has no effect with --no-check");
  if (tol_set && opts.mode == swatop::sim::ExecMode::TimingOnly)
    args.fail("--tol has no effect with --timing-only (no data to check)");

  try {
    // compile() is the fusion-aware front door: it owns the tuning journal
    // and keeps the report attached to the run that produced it.
    swatop::CompiledNet compiled =
        swatop::compile(swatop::graph::build_net(net), cfg);
    const swatop::graph::NetRunResult r = compiled.run(batch, opts);

    std::printf("== %s  batch %lld  groups %d  (%s) ==\n",
                compiled.graph().name().c_str(),
                static_cast<long long>(batch), r.groups_used,
                opts.mode == swatop::sim::ExecMode::Functional
                    ? "functional"
                    : "timing-only");
    std::printf("%-14s %-9s %22s %12s %10s\n", "layer", "method", "shape",
                "cycles", "GFLOPS");
    for (const auto& l : r.layers) {
      if (!l.conv) continue;
      char shape[64];
      std::snprintf(shape, sizeof(shape), "%lldx%lld ni%lld no%lld k%lld",
                    static_cast<long long>(l.shape.ri),
                    static_cast<long long>(l.shape.ci),
                    static_cast<long long>(l.shape.ni),
                    static_cast<long long>(l.shape.no),
                    static_cast<long long>(l.shape.kr));
      std::printf("%-14s %-9s %22s %12.0f %10.1f%s\n", l.name.c_str(),
                  l.kind.c_str(), shape, l.cycles, l.gflops,
                  l.from_cache ? "  (cached)" : "");
    }
    double mpe_cycles = 0.0;
    for (const auto& l : r.layers)
      if (!l.conv) mpe_cycles += l.cycles;
    std::printf("%-14s %-9s %22s %12.0f\n", "(mpe passes)", "-", "-",
                mpe_cycles);

    // Wall-clock seconds go to stderr, so that stdout is byte-stable.
    std::printf("\ntuning: %lld distinct shapes (%lld cache hits): "
                "%lld strategies enumerated, %lld bounded, %lld ranked\n",
                static_cast<long long>(r.shapes_tuned),
                static_cast<long long>(r.cache_hits),
                static_cast<long long>(r.tune_enumerated),
                static_cast<long long>(r.tune_bounded),
                static_cast<long long>(r.tune_ranked));
    std::fprintf(stderr, "tuning took %.1fs\n", r.tune_seconds);
    std::printf(
        "memory: planned peak %.1f MB vs no-reuse %.1f MB (%.0f%%)\n",
        static_cast<double>(r.planned_peak_floats) * 4.0 / 1e6,
        static_cast<double>(r.naive_floats) * 4.0 / 1e6,
        100.0 * static_cast<double>(r.planned_peak_floats) /
            static_cast<double>(r.naive_floats > 0 ? r.naive_floats : 1));
    std::printf(
        "chip:   %.3e cycles (%.2e sync), %.1f GFLOPS, %.1f%% of %d-CG "
        "peak\n",
        r.cycles, r.sync_cycles, r.gflops, 100.0 * r.efficiency,
        r.groups_used);
    std::printf("        %.2f ms/batch, %.2f ms/image\n", r.ms_per_batch,
                r.ms_per_image);
    if (r.checked)
      std::printf("check:  max rel err %.2e (tol %.0e)\n", r.max_rel_err,
                  opts.tolerance);

    if (full_report) {
      std::printf("\n%s", compiled.report().c_str());
    }
    if (!journal_path.empty()) {
      if (compiled.journal().write_jsonl(journal_path))
        std::printf("journal: %s (%zu entries)\n", journal_path.c_str(),
                    compiled.journal().size());
      else
        std::fprintf(stderr, "failed to write journal %s\n",
                     journal_path.c_str());
    }

    if (!report_path.empty() && r.profile.enabled) {
      std::ofstream os(report_path);
      r.profile.write_chrome_trace(os);
      std::printf("trace:  %s\n", report_path.c_str());
    }

    if (r.checked && r.max_rel_err > opts.tolerance) {
      std::printf("FAILED: functional check exceeded tolerance\n");
      return 1;
    }
    std::printf("OK\n");
    return 0;
  } catch (const swatop::CheckError& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
