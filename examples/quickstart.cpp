// Quickstart: tune one matrix multiplication, run the generated schedule
// functionally on the simulated SW26010 core group, and validate it -- the
// whole pipeline is compile() + run() + check().
//
//   $ ./quickstart [M N K]
#include <cstdio>
#include <cstdlib>

#include "graph/compile.hpp"
#include "ops/matmul.hpp"

int main(int argc, char** argv) {
  using namespace swatop;
  const std::int64_t M = argc > 1 ? std::atoll(argv[1]) : 300;
  const std::int64_t N = argc > 2 ? std::atoll(argv[2]) : 200;
  const std::int64_t K = argc > 3 ? std::atoll(argv[3]) : 150;

  // 1. Describe the operator. MatmulOp carries both the computation (the
  //    schedule seed) and the schedule space (split factors, loop orders,
  //    kernel variants, boundary strategies).
  ops::MatmulOp op(M, N, K);

  // 2. Compile: the performance-model-based autotuner scores every valid
  //    schedule strategy and picks the predicted best; the handle owns the
  //    generated code, the core group and the tuning journal.
  const SwatopConfig cfg;
  CompiledOp compiled = compile(op, cfg);

  std::printf("operator:        %s\n", op.name().c_str());
  std::printf("schedule space:  %lld strategies, %lld valid after pruning\n",
              static_cast<long long>(compiled.stats.space_size),
              static_cast<long long>(compiled.stats.valid_candidates));
  std::printf("picked strategy: %s\n",
              compiled.candidate.strategy.to_string().c_str());
  std::printf("tuning took:     %.3f s\n", compiled.stats.seconds);

  // 3. Run functionally and validate against the naive reference.
  const rt::RunResult r = compiled.run();
  const double err = compiled.check();

  std::printf("\nsimulated execution:\n");
  std::printf("  cycles:        %.0f\n", r.cycles);
  std::printf("  achieved:      %.1f GFLOPS (%.1f%% of peak)\n",
              r.gflops(op.flops(), cfg.machine),
              r.gflops(op.flops(), cfg.machine) /
                  cfg.machine.peak_gflops() * 100.0);
  std::printf("  DMA traffic:   %lld bytes requested, %lld wasted in "
              "transactions\n",
              static_cast<long long>(r.stats.dma_bytes_requested),
              static_cast<long long>(r.stats.dma_bytes_wasted));
  std::printf("  max |err| vs naive reference: %.2e %s\n", err,
              err < 2e-3 ? "(OK)" : "(FAILED)");
  return err < 2e-3 ? 0 : 1;
}
