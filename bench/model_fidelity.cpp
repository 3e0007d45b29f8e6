// Model fidelity: how the static cost model (Sec. 4.6, Eq. (1)+(2)) ranks
// and prices every candidate of two Fig. 9 shapes against the timing
// interpreter. Per shape:
//   retained      measured brute-force best / measured model pick (1 when
//                 the model picks the fastest candidate);
//   mean_rel_err  mean |estimate - measured| / measured over every
//                 candidate.
// CI gates `retained` exactly against bench/baselines/.
#include <cmath>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "common/check.hpp"
#include "ops/implicit_conv.hpp"
#include "sched/scheduler.hpp"

using namespace swatop;

int main() {
  const sim::SimConfig cfg;
  bench::print_title("Model fidelity -- cost model vs timing interpreter");
  bench::BenchJson bj("model_fidelity");
  bench::print_row({"Ni", "No", "Ro", "candidates", "retained",
                    "mean_rel_err"});
  const tune::CostModel model(cfg, tune::gemm_cost_model(cfg));
  for (const auto& [ni, no] : std::vector<std::pair<std::int64_t,
                                                    std::int64_t>>{
           {64, 64}, {256, 64}}) {
    ops::ConvShape s;
    s.batch = 32;
    s.ni = ni;
    s.no = no;
    s.ri = 34;  // Ro = 32 with the 3x3 kernel
    s.ci = 34;
    const ops::ImplicitConvOp op(s);

    // Brute force measures the candidates in scheduler order.
    const auto bb = tune::BlackBoxTuner(cfg).tune(op);
    const std::vector<sched::Candidate> cands =
        sched::Scheduler(cfg).candidates(op);
    SWATOP_CHECK(cands.size() == bb.all_measured.size());
    double err = 0.0;
    for (std::size_t i = 0; i < cands.size(); ++i) {
      const double measured = bb.all_measured[i];
      err += std::fabs(model.estimate(cands[i].program).total() - measured) /
             measured;
    }
    const double mean_rel_err = err / static_cast<double>(cands.size());

    const auto pick = tune::ModelTuner(cfg).tune(op);
    const double pick_measured =
        tune::measure_candidate(op, pick.candidate, cfg);
    const double retained = bb.best.cycles / pick_measured;

    bench::print_row({std::to_string(ni), std::to_string(no),
                      std::to_string(s.ro()), std::to_string(cands.size()),
                      bench::fmt(retained, 3), bench::fmt(mean_rel_err, 3)});
    bj.add("ni" + std::to_string(ni) + "/no" + std::to_string(no) + "/ro" +
               std::to_string(s.ro()),
           {{"ni", std::to_string(ni)},
            {"no", std::to_string(no)},
            {"ro", std::to_string(s.ro())}},
           {{"retained", retained},
            {"mean_rel_err", mean_rel_err},
            {"candidates", static_cast<double>(cands.size())}},
           pick_measured);
  }
  return 0;
}
