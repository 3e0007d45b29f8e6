// Tuning-speed ablation: measurement-memo hits vs the loop-by-loop timing
// interpreter on the Table 3 workload (implicit CONV layers of the three
// CNNs). Pass 1 measures a deterministic candidate subsample through the
// interpreter; pass 2 measures it again through a warmed memo
// (tune/replay.hpp). The bench asserts the memo's cycles are bit-identical
// per candidate and the argmin over the subsample unchanged, then reports
// the wall-clock ratio.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "nets/nets.hpp"
#include "ops/implicit_conv.hpp"
#include "sched/scheduler.hpp"
#include "tune/replay.hpp"
#include "tune/tuner.hpp"

using namespace swatop;

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Every candidate set is subsampled with a fixed stride so the bench stays
/// minutes, not hours (one interpreter measurement of a deep layer costs
/// ~0.1-1s and a full set is thousands of candidates). The subsample is
/// deterministic, so the gated JSON metrics are too.
std::vector<sched::Candidate> subsample(std::vector<sched::Candidate> cands,
                                        std::size_t cap) {
  if (cands.size() <= cap) return cands;
  std::vector<sched::Candidate> out;
  out.reserve(cap);
  const std::size_t stride = cands.size() / cap;
  for (std::size_t i = 0; i < cands.size() && out.size() < cap; i += stride)
    out.push_back(std::move(cands[i]));
  return out;
}

}  // namespace

int main() {
  const sim::SimConfig cfg;
  bench::print_title(
      "Tuning speedup -- measurement memo vs timing interpreter (Tab. 3 "
      "layers)");
  bench::BenchJson bj("tuning_speedup");

  const std::vector<std::pair<std::string, std::vector<nets::LayerDef>>>
      networks = {{"VGG16", nets::vgg16()},
                  {"ResNet", nets::resnet()},
                  {"YOLO", nets::yolo()}};
  // Quick mode keeps the interpreter pass under a minute: small sub-batch,
  // deep layers only, 12 candidates per layer. SWATOP_FULL=1 widens
  // everything.
  const bool full = bench::full_scale();
  const std::int64_t batch = full ? 32 : 4;
  const std::size_t max_layers = full ? 8 : 2;
  const std::size_t cand_cap = full ? 64 : 12;
  const std::int64_t max_cost_proxy =
      full ? std::int64_t{1} << 62 : 20'000'000;
  std::printf("(candidate subsample cap %zu per layer, batch %lld)\n",
              cand_cap, static_cast<long long>(batch));

  const sched::Scheduler sched(cfg);
  bool all_identical = true;
  double total_interp = 0.0, total_memo = 0.0;

  bench::print_row({"network", "layer", "cands", "interp(s)", "memo(s)",
                    "speedup", "identical"});
  for (const auto& [net, all_layers] : networks) {
    const auto distinct = nets::distinct(all_layers);
    std::size_t used = 0;
    for (const auto& l : distinct) {
      if (used >= max_layers) break;
      if (l.out_hw > 14) continue;
      // Skip the layers whose interpreter measurements cost the most (the
      // interpreter's work per candidate scales with this product; VGG's
      // 512x512 @ 14x14 layers book >1M events per candidate).
      if (l.ni * l.no * l.out_hw * l.out_hw > max_cost_proxy) continue;
      const ops::ConvShape s = nets::to_shape(l, batch);
      if (!ops::ImplicitConvOp::applicable(s)) continue;
      const ops::ImplicitConvOp op(s);
      const std::vector<sched::Candidate> cands =
          subsample(sched.candidates(op), cand_cap);
      if (cands.empty()) continue;
      ++used;

      // Pass 1: every (subsampled) candidate through the interpreter.
      std::vector<double> interp_cycles;
      interp_cycles.reserve(cands.size());
      const auto t0 = std::chrono::steady_clock::now();
      for (const sched::Candidate& c : cands)
        interp_cycles.push_back(tune::measure_candidate(op, c, cfg));
      const double interp_s = seconds_since(t0);

      // Warm the memo (every candidate is interpreted once, off the clock),
      // then pass 2: the same measurements served by memo hits.
      tune::ReplayOptions ro;
      ro.enabled = true;
      tune::ReplayExecutor rx(ro);
      for (const sched::Candidate& c : cands) (void)rx.measure(op, c, cfg);
      std::vector<double> memo_cycles;
      memo_cycles.reserve(cands.size());
      const auto t1 = std::chrono::steady_clock::now();
      for (const sched::Candidate& c : cands)
        memo_cycles.push_back(rx.measure(op, c, cfg));
      const double memo_s = seconds_since(t1);
      const tune::ReplayStats rs = rx.stats();

      // The contract: bit-identical cycles, candidate by candidate, and
      // therefore the identical argmin.
      const bool identical = interp_cycles == memo_cycles;
      const std::size_t argmin_i = static_cast<std::size_t>(
          std::min_element(interp_cycles.begin(), interp_cycles.end()) -
          interp_cycles.begin());
      const std::size_t argmin_m = static_cast<std::size_t>(
          std::min_element(memo_cycles.begin(), memo_cycles.end()) -
          memo_cycles.begin());
      const bool argmin_match = argmin_i == argmin_m;
      all_identical = all_identical && identical && argmin_match;

      const double speedup = memo_s > 0.0 ? interp_s / memo_s : 0.0;
      total_interp += interp_s;
      total_memo += memo_s;

      bench::print_row({net, l.name, std::to_string(cands.size()),
                        bench::fmt(interp_s, 2), bench::fmt(memo_s, 3),
                        bench::fmt(speedup, 0) + "x",
                        identical && argmin_match ? "yes" : "NO"});
      // Deterministic metrics are gated by tools/bench_compare; wall-clock
      // metrics carry "seconds" in the name so the gate skips them.
      bj.add(net + "/" + l.name, {{"net", net}, {"layer", l.name}},
             {{"candidates", static_cast<double>(cands.size())},
              {"replay_hits", static_cast<double>(rs.hits)},
              {"bit_identical", identical ? 1.0 : 0.0},
              {"argmin_match", argmin_match ? 1.0 : 0.0},
              {"interp_seconds", interp_s},
              {"replay_seconds", memo_s},
              {"speedup_seconds_ratio", speedup}},
             interp_cycles[argmin_i]);
    }
  }

  const double total_speedup =
      total_memo > 0.0 ? total_interp / total_memo : 0.0;
  std::printf("\ntotal: interpreter %.2fs, memo %.3fs -> %.0fx; "
              "memo cycles %s\n",
              total_interp, total_memo, total_speedup,
              all_identical ? "bit-identical, argmin unchanged"
                            : "DIVERGED (bug)");
  return all_identical ? 0 : 1;
}
