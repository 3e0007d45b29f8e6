// Tune a real CNN convolution layer (VGG16 conv4_2 by default) with the
// implicit-GEMM design, compare against the swDNN-like manual baseline, and
// show what the autotuner chose.
//
//   $ ./tune_conv_layer [batch]
#include <cstdio>
#include <cstdlib>

#include "baseline/swdnn_conv.hpp"
#include "graph/compile.hpp"
#include "ir/printer.hpp"
#include "nets/nets.hpp"
#include "ops/implicit_conv.hpp"

int main(int argc, char** argv) {
  using namespace swatop;
  const std::int64_t batch = argc > 1 ? std::atoll(argv[1]) : 32;

  const auto layers = nets::vgg16();
  const ops::ConvShape shape = nets::to_shape(layers[8], batch);  // conv4_2
  std::printf("layer: VGG16 %s  (%s)\n", layers[8].name.c_str(),
              shape.to_string().c_str());

  ops::ImplicitConvOp op(shape);
  SwatopConfig cfg;
  cfg.tune_top_k = 1;  // also run the winner through the interpreter
  const CompiledOp compiled = compile(op, cfg);
  const double swatop_cycles = compiled.measured_cycles;
  std::printf("\nswATOP: %lld-strategy space tuned in %.2f s\n",
              static_cast<long long>(compiled.stats.space_size),
              compiled.stats.seconds);
  std::printf("picked: %s\n", compiled.candidate.strategy.to_string().c_str());
  std::printf("measured: %.0f cycles = %.1f GFLOPS\n", swatop_cycles,
              static_cast<double>(shape.flops()) / swatop_cycles *
                  compiled.machine().clock_ghz);

  if (baseline::SwDnnConv::applicable(shape)) {
    const double manual =
        baseline::SwDnnConv(compiled.machine()).cycles(shape);
    std::printf("swDNN manual schedule: %.0f cycles -> swATOP speedup "
                "%.2fx\n",
                manual, manual / swatop_cycles);
  } else {
    std::printf("swDNN has no manual implementation for this shape "
                "(batch %lld); swATOP covers it anyway\n",
                static_cast<long long>(batch));
  }

  std::printf("\ntuned schedule IR:\n%s",
              ir::print(compiled.candidate.program).c_str());
  return 0;
}
