// Fig. 5: swATOP vs swDNN (the hand-optimized manual implicit convolution)
// on the conv layers of VGG16, ResNet and YOLO at batch 1 / 32 / 128.
// First layers (Ni = 3) are excluded, as in the paper; at batch 1 no manual
// implementation exists, so only swATOP's achieved throughput is shown.
#include <cstdio>

#include "bench_util.hpp"
#include "nets/nets.hpp"

using namespace swatop;

int main() {
  const sim::SimConfig cfg;
  bench::print_title("Fig. 5 -- Implicit CONV: swATOP vs swDNN");
  bench::BenchJson bj("fig5_implicit_conv");

  const std::vector<std::pair<std::string, std::vector<nets::LayerDef>>>
      networks = {{"VGG16", nets::vgg16()},
                  {"ResNet", nets::resnet()},
                  {"YOLO", nets::yolo()}};
  const std::vector<std::int64_t> batches =
      bench::full_scale() ? std::vector<std::int64_t>{1, 32, 128}
                          : std::vector<std::int64_t>{1, 32};

  for (const auto& [net, all_layers] : networks) {
    const auto layers =
        bench::full_scale() ? all_layers : nets::distinct(all_layers);
    for (const std::int64_t b : batches) {
      std::printf("\n-- %s, batch %lld --\n", net.c_str(),
                  static_cast<long long>(b));
      bench::print_row({"layer", "swATOP(GF)", "swDNN(GF)", "speedup"});
      std::vector<double> speedups;
      for (const auto& l : layers) {
        // The paper excludes each network's first layer (Ni = 3 cannot
        // fill K; its Fig. 5 footnote), though the library runs it.
        if (l.ni < 32) continue;
        const ops::ConvShape s = nets::to_shape(l, b);
        const bench::MethodResult r = bench::run_implicit(s, cfg);
        const double manual_gf =
            r.manual_cycles > 0.0
                ? static_cast<double>(s.flops()) / r.manual_cycles *
                      cfg.clock_ghz
                : 0.0;
        bench::print_row(
            {l.name, bench::fmt(r.gflops, 1),
             r.manual_cycles > 0 ? bench::fmt(manual_gf, 1) : "n/a",
             r.manual_cycles > 0 ? bench::fmt(r.speedup()) + "x"
                                 : std::string("n/a")});
        if (r.manual_cycles > 0) speedups.push_back(r.speedup());
        bench::add_conv_case(bj, net, b, l.name, s, r);
      }
      if (!speedups.empty())
        std::printf("average speedup over swDNN: %.2fx (paper: 1.44/1.32 "
                    "at batch 32/128)\n",
                    bench::geomean(speedups));
      else
        std::printf("no manual implementation at this batch size "
                    "(the gap swATOP bridges)\n");
    }
  }
  return 0;
}
