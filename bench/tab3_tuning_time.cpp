// Table 3: tuning time of the implicit CONV layers of the three CNNs --
// black-box autotuning (run every candidate through the timing interpreter,
// this reproduction's stand-in for executing on hardware) vs swATOP's
// performance-model-based autotuner.
#include <cstdio>

#include "bench_util.hpp"
#include "nets/nets.hpp"
#include "ops/implicit_conv.hpp"

using namespace swatop;

int main() {
  const sim::SimConfig cfg;
  bench::print_title("Table 3 -- tuning time: black-box vs swATOP");
  bench::BenchJson bj("tab3_tuning_time");

  const std::vector<std::pair<std::string, std::vector<nets::LayerDef>>>
      networks = {{"VGG16", nets::vgg16()},
                  {"ResNet", nets::resnet()},
                  {"YOLO", nets::yolo()}};
  const std::int64_t batch = 32;
  const std::size_t max_layers = bench::full_scale() ? 64 : 3;

  bench::print_row({"network", "layers", "space", "blackbox(s)",
                    "swATOP(s)", "speedup"});
  for (const auto& [net, all_layers] : networks) {
    const auto distinct = nets::distinct(all_layers);
    std::int64_t total_space = 0;
    double bb_seconds = 0.0, model_seconds = 0.0;
    std::size_t used = 0;
    for (const auto& l : distinct) {
      if (used >= max_layers) break;
      // Brute-forcing the very large spatial layers takes hours even on
      // the simulator (that is Table 3's point); the quick sweep sticks to
      // the deeper layers.
      if (!bench::full_scale() && l.out_hw > 28) continue;
      // The paper's implicit-CONV layer set excludes each network's first
      // layer (Ni = 3 cannot fill K; its Fig. 5 footnote).
      if (l.ni < 32) continue;
      const ops::ConvShape s = nets::to_shape(l, batch);
      const ops::ImplicitConvOp op(s);
      const tune::BlackBoxTuner bb(cfg);
      const auto bb_res = bb.tune(op);
      const tune::ModelTuner mt(cfg);
      const auto mt_res = mt.tune(op);
      total_space += bb_res.best.stats.space_size;
      bb_seconds += bb_res.best.stats.seconds;
      model_seconds += mt_res.stats.seconds;
      ++used;
    }
    bench::print_row({net, std::to_string(used), std::to_string(total_space),
                      bench::fmt(bb_seconds, 1),
                      bench::fmt(model_seconds, 1),
                      bench::fmt(bb_seconds / model_seconds, 0) + "x"});
    bj.add(net, {{"net", net}, {"layers", std::to_string(used)}},
           {{"space", static_cast<double>(total_space)},
            {"blackbox_seconds", bb_seconds},
            {"model_seconds", model_seconds},
            {"speedup",
             model_seconds > 0.0 ? bb_seconds / model_seconds : 0.0}},
           0.0);
  }
  std::printf("\npaper: 47h50m -> 6m21s (454x), 83h -> 14m (353x), "
              "60h -> 10m (365x); our black-box runs a simulator, not "
              "silicon, so absolute times differ while the ratio holds\n");
  return 0;
}
