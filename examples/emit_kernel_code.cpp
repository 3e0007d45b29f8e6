// Show swATOP as an offline compiler: tune an operator and print the
// generated SW26010 C source (athread-style SPMD kernel with DMA and
// spm_gemm primitive calls) that would be handed to the sw5 toolchain.
//
//   $ ./emit_kernel_code [M N K]
#include <cstdio>
#include <cstdlib>

#include "graph/compile.hpp"
#include "ops/matmul.hpp"

int main(int argc, char** argv) {
  using namespace swatop;
  const std::int64_t M = argc > 1 ? std::atoll(argv[1]) : 200;
  const std::int64_t N = argc > 2 ? std::atoll(argv[2]) : 200;
  const std::int64_t K = argc > 3 ? std::atoll(argv[3]) : 200;

  ops::MatmulOp op(M, N, K);
  SwatopConfig cfg;  // default machine; the single configuration surface
  const CompiledOp compiled = compile(op, cfg);

  std::printf("// strategy: %s\n",
              compiled.candidate.strategy.to_string().c_str());
  std::printf("// predicted cycles: %.0f\n\n", compiled.predicted_cycles);
  std::fputs(compiled.c_source.c_str(), stdout);
  return 0;
}
