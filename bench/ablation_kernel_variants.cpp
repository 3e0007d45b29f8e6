// Ablation: the eight GEMM micro-kernel variants (layouts x vectorization
// dimension) across tile shapes -- the cost surface the scheduler's layout
// and vectorization transformations explore. Also uses google-benchmark to
// measure the real wall-clock cost of the pipeline simulation itself.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench_util.hpp"
#include "isa/kernel_cache.hpp"

using namespace swatop;

namespace {

const sim::SimConfig cfg;

void print_variant_table() {
  bench::print_title("Ablation -- the 8 GEMM micro-kernel variants");
  bench::BenchJson bj("ablation_kernel_variants");
  const auto& db = isa::kernel_cost_db(cfg);
  bench::print_row({"variant", "128^3 GF", "256x64x128 GF", "per-iter"},
                   20);
  for (const auto& v : isa::all_kernel_variants()) {
    const double c1 = db.spm_gemm_cycles(v, 128, 128, 128);
    const double gf1 =
        2.0 * 128 * 128 * 128 / c1 * cfg.clock_ghz;
    const double c2 = db.spm_gemm_cycles(v, 256, 64, 128);
    const double gf2 = 2.0 * 256 * 64 * 128 / c2 * cfg.clock_ghz;
    bench::print_row({v.name(), bench::fmt(gf1, 1), bench::fmt(gf2, 1),
                      bench::fmt(db.per_iter_cycles(v, {4, 4}), 2)},
                     20);
    bj.add(v.name(), {{"variant", v.name()}},
           {{"gflops_128c", gf1},
            {"gflops_256x64x128", gf2},
            {"per_iter_cycles", db.per_iter_cycles(v, {4, 4})}},
           c1);
  }
  std::printf("favourable layouts sustain 16 vmad / ~16 cycles; row-major "
              "vector operands pay scalar lane assembly on P1\n\n");
}

void BM_PipelineSteadyState(benchmark::State& state) {
  const isa::PipelineSim sim(cfg);
  const auto body = isa::emit_kernel_pair(
      isa::KernelVariant::from_index(static_cast<int>(state.range(0))),
      {4, 4}, cfg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.steady_state_cycles(body));
  }
}
BENCHMARK(BM_PipelineSteadyState)->DenseRange(0, 7);

}  // namespace

int main(int argc, char** argv) {
  print_variant_table();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
