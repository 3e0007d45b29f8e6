// Schedule-cache warm-vs-cold tuning time on the VGG16 implicit CONV layer
// set: the cold pass compiles every layer from scratch (swatop::compile()
// appends each winner to the on-disk cache as it goes); the warm pass
// re-compiles the same layers and must serve every one from the banked
// entries, rebuilding only the strategy's IR. The warm pick must be the
// identical Strategy, and the warm pass is expected to be >= 10x faster.
#include <chrono>
#include <cstdio>
#include <filesystem>

#include "bench_util.hpp"
#include "graph/compile.hpp"
#include "nets/nets.hpp"
#include "ops/implicit_conv.hpp"

using namespace swatop;

namespace {

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

int main() {
  bench::print_title("schedule cache -- warm vs cold tuning time (VGG16)");

  const std::string cache_path =
      (std::filesystem::temp_directory_path() / "swatop_bench_tune.cache")
          .string();
  std::filesystem::remove(cache_path);

  SwatopConfig cfg;
  cfg.cache.enabled = true;
  cfg.cache.path = cache_path;

  const std::int64_t batch = 32;
  const std::size_t max_layers = bench::full_scale() ? 64 : 4;
  std::vector<ops::ImplicitConvOp> ops;
  for (const auto& l : nets::distinct(nets::vgg16())) {
    if (ops.size() >= max_layers) break;
    // The quick sweep sticks to the deeper layers, like bench_tab3.
    if (!bench::full_scale() && l.out_hw > 28) continue;
    // The paper's implicit-CONV layer set excludes the first layer (Ni = 3
    // cannot fill K; its Fig. 5 footnote).
    if (l.ni < 32) continue;
    ops.emplace_back(nets::to_shape(l, batch));
  }

  bench::print_row({"pass", "layers", "hits", "seconds"});

  std::vector<dsl::Strategy> cold_picks;
  double cold_seconds = 0.0;
  {
    const double t0 = now_seconds();
    for (const auto& op : ops) {
      cold_picks.push_back(compile(op, cfg).candidate.strategy);
    }
    cold_seconds = now_seconds() - t0;
  }
  bench::print_row({"cold", std::to_string(ops.size()), "0",
                    bench::fmt(cold_seconds, 2)});

  double warm_seconds = 0.0;
  std::size_t hits = 0, mismatches = 0;
  {
    const double t0 = now_seconds();
    for (std::size_t i = 0; i < ops.size(); ++i) {
      // Fresh compile(): every banked strategy must come off the disk.
      const CompiledOp compiled = compile(ops[i], cfg);
      if (compiled.from_cache) ++hits;
      if (!(compiled.candidate.strategy == cold_picks[i]))
        ++mismatches;
    }
    warm_seconds = now_seconds() - t0;
  }
  bench::print_row({"warm", std::to_string(ops.size()), std::to_string(hits),
                    bench::fmt(warm_seconds, 2)});

  const double speedup = cold_seconds / warm_seconds;
  std::printf("\nwarm served %zu/%zu layers from cache, %zu strategy "
              "mismatches, speedup %sx (target >= 10x: %s)\n",
              hits, ops.size(), mismatches, bench::fmt(speedup, 1).c_str(),
              speedup >= 10.0 ? "PASS" : "FAIL");
  bench::BenchJson bj("tune_cache");
  bj.add("cold", {{"pass", "cold"}, {"layers", std::to_string(ops.size())}},
         {{"seconds", cold_seconds}, {"hits", 0.0}}, 0.0);
  bj.add("warm", {{"pass", "warm"}, {"layers", std::to_string(ops.size())}},
         {{"seconds", warm_seconds},
          {"hits", static_cast<double>(hits)},
          {"speedup", speedup}},
         0.0);
  std::filesystem::remove(cache_path);
  return (hits == ops.size() && mismatches == 0 && speedup >= 10.0) ? 0 : 1;
}
