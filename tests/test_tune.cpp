#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <numeric>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "ops/explicit_conv.hpp"
#include "ops/implicit_conv.hpp"
#include "ops/matmul.hpp"
#include "prim/gemm_primitive.hpp"
#include "tune/cost_model.hpp"
#include "tune/gemm_model.hpp"
#include "tune/tuner.hpp"

namespace swatop::tune {
namespace {

sim::SimConfig cfg;

TEST(GemmModel, EqualsTheCyclesSpmGemmBooks) {
  // Eq. (2) is priced from the kernel cost table, so the model charges
  // exactly what the primitive books, for every variant over the tile
  // sizes the scheduler deploys.
  const GemmCostModel& m = gemm_cost_model(cfg);
  const isa::KernelCostDb& db = isa::kernel_cost_db(cfg);
  sim::CoreGroup cg(cfg);
  for (int v = 0; v < 8; ++v) {
    for (std::int64_t M : {32, 64, 128, 256}) {
      for (std::int64_t N : {32, 64, 128, 256}) {
        for (std::int64_t K : {8, 16, 32, 64, 128, 256}) {
          prim::SpmGemmArgs a;
          a.M = M;
          a.N = N;
          a.K = K;
          a.variant = isa::KernelVariant::from_index(v);
          cg.reset_execution();
          prim::spm_gemm(cg, a, sim::ExecMode::TimingOnly, db);
          EXPECT_EQ(m.cycles(v, M, N, K), cg.now())
              << "variant " << v << " " << M << "x" << N << "x" << K;
        }
      }
    }
  }
}

TEST(CostModel, TracksInterpreterWithinTolerance) {
  // The static estimate should land on the measured run for an aligned
  // shape (no boundary approximation error): the gemm calls are priced
  // from the table the interpreter charges, and each double-buffered
  // iteration as the longer of its transfers and its compute.
  ops::MatmulOp op(128, 128, 64);
  dsl::Strategy s;
  s.set_factor("Tm", 64);
  s.set_factor("Tn", 64);
  s.set_factor("Tk", 32);
  s.set_choice("order", "mnk");
  s.set_choice("variant", "0");
  s.set_choice("boundary", "pad");
  const auto cand = build_candidate(op, s, cfg);
  const double measured = measure_candidate(op, cand, cfg);
  const CostModel model(cfg, gemm_cost_model(cfg));
  const double predicted = model.estimate(cand.program).total();
  EXPECT_NEAR(predicted, measured, 0.01 * measured);
}

TEST(CostModel, OverlapUsesMax) {
  // Double buffering hides each prefetch behind its iteration's compute,
  // so the prefetched program prices below the synchronous one; and any
  // composition of per-iteration maxima lies between max(DMA, compute)
  // and their sum. One m and one n tile: no operand is cached, so both
  // gets sit in the k loop.
  ops::MatmulOp op(64, 64, 128);
  dsl::Strategy s;
  s.set_factor("Tm", 64);
  s.set_factor("Tn", 64);
  s.set_factor("Tk", 32);
  s.set_choice("order", "mnk");
  s.set_choice("variant", "0");
  s.set_choice("boundary", "pad");
  const CostModel model(cfg, gemm_cost_model(cfg));
  const auto with = build_candidate(op, s, cfg, true);
  const auto without = build_candidate(op, s, cfg, false);
  const StaticCost cw = model.estimate(with.program);
  const StaticCost co = model.estimate(without.program);
  EXPECT_LT(cw.total(), co.total());
  // (The sums run in another order than the composition; 1e-12 absorbs
  // the rounding.)
  for (const StaticCost& c : {cw, co}) {
    const double sum = c.dma_cycles() + c.compute_cycles;
    EXPECT_GE(c.total(),
              (1 - 1e-12) * std::max(c.dma_cycles(), c.compute_cycles));
    EXPECT_LE(c.total(), (1 + 1e-12) * sum);
  }
  // Without double buffering every transfer is waited on at once.
  EXPECT_NEAR(co.total(), co.dma_cycles() + co.compute_cycles,
              1e-12 * co.total());
}

TEST(ModelTuner, FindsACandidateAndReportsStats) {
  ops::MatmulOp op(96, 64, 40);
  const ModelTuner tuner(cfg);
  const Tuned t = tuner.tune(op);
  EXPECT_GT(t.cycles, 0.0);
  EXPECT_GT(t.stats.space_size, 0);
  EXPECT_GT(t.stats.valid_candidates, 0);
  EXPECT_LE(t.stats.valid_candidates, t.stats.space_size);
  EXPECT_GE(t.stats.seconds, 0.0);
}

TEST(BlackBoxTuner, MeasuresEveryCandidate) {
  ops::MatmulOp op(64, 64, 32);
  const BlackBoxTuner tuner(cfg);
  const auto res = tuner.tune(op);
  EXPECT_EQ(static_cast<std::int64_t>(res.all_measured.size()),
            res.best.stats.valid_candidates);
  for (double t : res.all_measured) EXPECT_GE(t, res.best.cycles);
}

TEST(Tuners, ModelLossIsBounded) {
  // The paper's Fig. 9 claim at small scale: the model-picked candidate is
  // within a modest factor of the brute-force best.
  for (std::int64_t m : {64, 96}) {
    ops::MatmulOp op(m, 64, 40);
    const ModelTuner mt(cfg);
    const BlackBoxTuner bb(cfg);
    const Tuned picked = mt.tune(op);
    const auto best = bb.tune(op);
    const double measured_pick =
        measure_candidate(op, picked.candidate, cfg);
    EXPECT_LE(measured_pick, 1.25 * best.best.cycles)
        << "model pick leaves too much on the table for M=" << m;
  }
}

TEST(Tuners, ModelTunerIsMuchFaster) {
  // Tab. 3's gap as work done rather than wall-clock time (which a
  // parallel test run makes flaky): both tuners sweep the same space; the
  // black-box tuner builds and measures every candidate, the model tuner
  // lowers and bounds every strategy but builds and prices only the few
  // its bound cannot rule out, and measures none.
  ops::MatmulOp op(256, 256, 128);
  const ModelTuner mt(cfg);
  const BlackBoxTuner bb(cfg);
  const Tuned fast = mt.tune(op);
  const auto slow = bb.tune(op);
  const std::int64_t n = slow.best.stats.valid_candidates;
  ASSERT_GT(n, 1);
  // Every strategy that lowers builds here, so both count the same ones.
  EXPECT_EQ(slow.best.stats.lowered, n);
  EXPECT_EQ(fast.stats.valid_candidates, n);
  EXPECT_GE(fast.stats.ranked, 1);
  EXPECT_LT(10 * fast.stats.ranked, n);
  EXPECT_EQ(fast.stats.measured, 0);
  EXPECT_EQ(slow.best.stats.ranked, 0);
  EXPECT_EQ(slow.best.stats.measured, n);
  EXPECT_EQ(fast.stats.enumerated, fast.stats.space_size);
  EXPECT_EQ(slow.best.stats.enumerated, fast.stats.enumerated);
  // The model tuner lowers every strategy to bound it, again for each
  // candidate it prices, and once more to rebuild its pick.
  EXPECT_EQ(fast.stats.lowered, n + fast.stats.ranked + 1);
  // Bounding a lowered nest allocates far less than building programs.
  EXPECT_LT(fast.stats.ir_nodes, slow.best.stats.ir_nodes);
}

TEST(Tuners, IrNodeCountIsThreadCountInvariant) {
  // Every worker counts the nodes of the programs it builds, so the total
  // does not depend on how the sweep was split across threads.
  ops::ConvShape cs;
  cs.batch = 8;
  cs.ni = 64;
  cs.no = 64;
  cs.ri = 10;
  cs.ci = 10;
  ops::ImplicitConvOp conv(cs);
  ops::MatmulOp odd(72, 56, 40);
  const ModelTuner mt(cfg);
  const dsl::OperatorDef* ops_[] = {&conv, &odd};
  for (const dsl::OperatorDef* op : ops_) {
    std::int64_t tuned[2] = {0, 0}, top_k[2] = {0, 0}, swept[2] = {0, 0};
    for (const int t : {0, 1}) {
      sched::SchedulerOptions opts;
      opts.num_threads = t == 0 ? 1 : 4;
      tuned[t] = mt.tune(*op, opts).stats.ir_nodes;
      top_k[t] = mt.tune_top_k(*op, 3, opts).stats.ir_nodes;
      sched::SweepStats st;
      sched::Scheduler(cfg).candidates(*op, opts, &st);
      swept[t] = st.ir_nodes;
    }
    EXPECT_GT(swept[0], 0) << op->name();
    EXPECT_EQ(tuned[0], tuned[1]) << op->name();
    EXPECT_EQ(top_k[0], top_k[1]) << op->name();
    EXPECT_EQ(swept[0], swept[1]) << op->name();
    // The model tuner only lowers most strategies (to bound them), so it
    // allocates less than the sweep that builds them all; the top-k search
    // builds more candidates than the top-1 search.
    EXPECT_LT(tuned[0], swept[0]) << op->name();
    EXPECT_GT(top_k[0], tuned[0]) << op->name();
  }
}

/// The four operators ParallelPicksSameWinnerAsSerial tunes.
struct PickOps {
  ops::ConvShape cs = [] {
    ops::ConvShape s;
    s.batch = 4;
    s.ni = 32;
    s.no = 32;
    s.ri = 8;
    s.ci = 8;
    return s;
  }();
  ops::ImplicitConvOp conv{cs};
  ops::ImplicitConvOp fused{cs, [] {
                              dsl::EpilogueSpec epi;
                              epi.bias = true;
                              epi.residual = true;
                              epi.relu = true;
                              return epi;
                            }()};
  ops::MatmulOp small{64, 64, 32};
  ops::MatmulOp odd{72, 56, 40};
  std::vector<const dsl::OperatorDef*> all() const {
    return {&small, &odd, &conv, &fused};
  }
};

TEST(ModelTuner, ParallelPicksSameWinnerAsSerial) {
  // The branch-and-bound search must be bit-deterministic and exact: at
  // any thread count the pick, its cycles and the top-k shortlist equal a
  // brute-force argmin over every candidate's cost-model estimate (ties to
  // the first index), and the journal lists every lowered strategy once.
  const PickOps pick_ops;
  const ModelTuner tuner(cfg);
  const CostModel model(cfg, gemm_cost_model(cfg));
  constexpr int kTopK = 4;
  for (const dsl::OperatorDef* op : pick_ops.all()) {
    // Brute force: every candidate built and kept, then priced serially.
    sched::SchedulerOptions serial;
    serial.num_threads = 1;
    sched::SweepStats swept;
    const std::vector<sched::Candidate> all =
        sched::Scheduler(cfg).candidates(*op, serial, &swept);
    ASSERT_GT(all.size(), static_cast<std::size_t>(kTopK)) << op->name();
    // Every strategy that lowers builds, so each has a journal row.
    ASSERT_EQ(swept.kept, swept.lowered) << op->name();
    std::vector<double> est;
    std::map<std::string, std::size_t> by_name;
    for (const sched::Candidate& c : all) {
      by_name[c.strategy.to_string()] = est.size();
      est.push_back(model.estimate(c.program).total());
    }
    std::vector<std::size_t> order(all.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return est[a] < est[b];
                     });
    const std::size_t best = order[0];
    // The top-k winner: the shortlist measured in rank order, first
    // strict minimum kept.
    std::size_t best_k = order[0];
    double best_k_cycles = std::numeric_limits<double>::infinity();
    for (int r = 0; r < kTopK; ++r) {
      const double t = measure_candidate(*op, all[order[r]], cfg);
      if (t < best_k_cycles) {
        best_k_cycles = t;
        best_k = order[r];
      }
    }
    std::vector<std::size_t> shortlist_expected(order.begin(),
                                                order.begin() + kTopK);
    std::sort(shortlist_expected.begin(), shortlist_expected.end());

    // One row per candidate in space-index order, naming its strategy.
    // Priced rows carry the estimate and rank by it; "bound" rows carry a
    // bound that is at most the estimate and above the `cut`-th best one.
    const dsl::ScheduleSpace space = op->space();
    const auto check_rows = [&](const Journal& j, const char* phase,
                                std::size_t cut) {
      ASSERT_EQ(j.size(), all.size());
      std::int64_t last_index = -1;
      std::vector<std::size_t> priced;
      for (const JournalEntry& e : j.entries()) {
        EXPECT_GT(e.index, last_index);
        last_index = e.index;
        EXPECT_EQ(e.strategy, space.at(e.index).to_string());
        ASSERT_EQ(by_name.count(e.strategy), 1u) << e.strategy;
        const std::size_t i = by_name.at(e.strategy);
        if (e.phase == "bound") {
          EXPECT_LE(e.predicted, est[i]) << e.strategy;
          EXPECT_GT(e.predicted, est[order[cut - 1]]) << e.strategy;
          EXPECT_FALSE(e.chosen);
        } else {
          EXPECT_EQ(e.phase, phase);
          EXPECT_EQ(e.predicted, est[i]) << e.strategy;
          priced.push_back(i);
        }
      }
      // Priced rows rank by estimate (ties to the first index), so the
      // best of them are the brute-force order's head.
      std::sort(priced.begin(), priced.end(), [&](std::size_t a,
                                                  std::size_t b) {
        return est[a] < est[b] || (est[a] == est[b] && a < b);
      });
      ASSERT_GE(priced.size(), cut);
      for (std::size_t r = 0; r < cut; ++r) EXPECT_EQ(priced[r], order[r]);
      for (const JournalEntry& e : j.entries()) {
        if (e.phase == "bound") continue;
        const std::size_t i = by_name.at(e.strategy);
        const auto it = std::find(priced.begin(), priced.end(), i);
        EXPECT_EQ(e.rank, it - priced.begin()) << e.strategy;
      }
    };

    std::string first_model_log, first_topk_log;
    for (const int threads : {1, 4}) {
      SCOPED_TRACE(op->name() + " at " + std::to_string(threads) +
                   " threads");
      sched::SchedulerOptions opts;
      opts.num_threads = threads;
      Journal j;
      const Tuned t = tuner.tune(*op, opts, nullptr, &j);
      EXPECT_EQ(t.candidate.strategy, all[best].strategy);
      EXPECT_EQ(t.cycles, est[best]);
      EXPECT_EQ(t.stats.valid_candidates, swept.lowered);
      EXPECT_LT(t.stats.ranked, t.stats.valid_candidates);
      check_rows(j, "model", 1);
      for (const JournalEntry& e : j.entries()) {
        EXPECT_LT(e.measured, 0.0);
        EXPECT_EQ(e.chosen, by_name.at(e.strategy) == best);
      }

      Journal jk;
      const Tuned tk = tuner.tune_top_k(*op, kTopK, opts, nullptr, &jk);
      EXPECT_EQ(tk.candidate.strategy, all[best_k].strategy);
      EXPECT_EQ(tk.cycles, best_k_cycles);
      EXPECT_EQ(tk.stats.measured, kTopK);
      check_rows(jk, "top-k", kTopK);
      std::vector<std::size_t> shortlist;
      for (const JournalEntry& e : jk.entries()) {
        const std::size_t i = by_name.at(e.strategy);
        if (e.measured >= 0.0) shortlist.push_back(i);
        EXPECT_EQ(e.chosen, i == best_k);
      }
      std::sort(shortlist.begin(), shortlist.end());
      EXPECT_EQ(shortlist, shortlist_expected);

      // Byte-identical logs at every thread count.
      if (threads == 1) {
        first_model_log = j.to_jsonl();
        first_topk_log = jk.to_jsonl();
      } else {
        EXPECT_EQ(j.to_jsonl(), first_model_log);
        EXPECT_EQ(jk.to_jsonl(), first_topk_log);
      }
    }
  }
}

/// Every candidate of `op`, checked against the lower bound of its
/// lowered nest; returns how many there were, and adds those whose C
/// write-back is double-buffered to `write_backs`.
std::size_t check_lower_bounds(const dsl::OperatorDef& op, bool prefetch,
                               std::size_t& write_backs) {
  const CostModel model(cfg, gemm_cost_model(cfg));
  sched::SchedulerOptions serial;
  serial.num_threads = 1;
  serial.opt.prefetch = prefetch;
  const std::vector<sched::Candidate> cands =
      sched::Scheduler(cfg).candidates(op, serial);
  for (const sched::Candidate& c : cands) {
    opt::OptOptions o = serial.opt;
    o.prefetch = c.prefetch;
    const CostBound b = model.lower_bound(op.lower(c.strategy), o);
    const StaticCost e = model.estimate(c.program);
    const std::string what = op.name() + " " + c.strategy.to_string();
    EXPECT_GT(b.sync_dma_cycles, 0.0) << what;
    EXPECT_GT(b.compute_cycles, 0.0) << what;
    EXPECT_LE(b.total(), e.total()) << what;
    EXPECT_LE(b.dma_cycles(), e.dma_cycles()) << what;
    EXPECT_LE(b.compute_cycles, e.compute_cycles) << what;
    if (b.async_put_cycles > 0.0) ++write_backs;
  }
  return cands.size();
}

ops::ConvShape golden_conv(std::int64_t batch, std::int64_t ni,
                           std::int64_t no, std::int64_t out_hw,
                           std::int64_t k, std::int64_t stride = 1) {
  ops::ConvShape s;
  s.batch = batch;
  s.ni = ni;
  s.no = no;
  s.ri = (out_hw - 1) * stride + k;
  s.ci = s.ri;
  s.kr = k;
  s.kc = k;
  s.stride = stride;
  return s;
}

TEST(CostModel, LowerBoundNeverExceedsEitherEstimateTerm) {
  // The model tuner prunes on CostModel::lower_bound, so it must hold on
  // every candidate: priced on the lowered nest, its total is at most the
  // built program's estimate, its transfers (sync + async) at most the
  // estimate's, and its compute at most the estimate's. Checked on
  // test_sweep_golden's five operators and the four the pick test tunes,
  // with double buffering on and off (off, every transfer stays where DMA
  // inference put it and every one is synchronous).
  dsl::EpilogueSpec pad;
  pad.bias = true;
  pad.relu = true;
  pad.out_pad = 1;
  const ops::ImplicitConvOp pointwise(golden_conv(8, 64, 64, 8, 1), pad);
  const ops::ImplicitConvOp ragged(golden_conv(8, 96, 96, 7, 3));
  const ops::ImplicitConvOp strided(golden_conv(8, 32, 32, 8, 3, 2));
  const ops::MatmulOp matmul(72, 56, 40);
  const ops::ExplicitConvOp explicit_conv(golden_conv(2, 16, 32, 10, 3));
  const PickOps pick_ops;
  std::vector<const dsl::OperatorDef*> all = {&pointwise, &ragged, &strided,
                                              &matmul, &explicit_conv};
  for (const dsl::OperatorDef* op : pick_ops.all()) all.push_back(op);
  for (const bool prefetch : {true, false}) {
    std::size_t checked = 0, write_backs = 0;
    for (const dsl::OperatorDef* op : all)
      checked += check_lower_bounds(*op, prefetch, write_backs);
    EXPECT_GT(checked, 3000u);
    // With double buffering, some write-backs are double-buffered too.
    if (prefetch)
      EXPECT_GT(write_backs, 100u);
    else
      EXPECT_EQ(write_backs, 0u);
  }
}

TEST(BlackBoxTuner, RecordsTuningTrace) {
  // Black-box tuning is observable like ModelTuner (Tab. 3 both sides):
  // phases are spans on the tuner track, per-candidate results become tune
  // samples, all emitted after the measurement pool joins.
  ops::MatmulOp op(64, 64, 32);
  const BlackBoxTuner tuner(cfg);
  obs::Options oo;
  oo.enabled = true;
  obs::Recorder rec(oo);
  const auto res = tuner.tune(op, {}, &rec);
  EXPECT_EQ(rec.tune().candidates_measured,
            res.best.stats.valid_candidates);
  EXPECT_EQ(rec.tune().space_size, res.best.stats.space_size);
  EXPECT_GT(rec.tune().seconds, 0.0);
  EXPECT_EQ(static_cast<std::int64_t>(rec.tune_samples().size()),
            res.best.stats.valid_candidates);
  for (const obs::TuneSample& s : rec.tune_samples()) {
    EXPECT_LT(s.predicted_cycles, 0.0);  // no model estimate in black-box
    EXPECT_GT(s.measured_cycles, 0.0);
  }
  bool saw_enum = false, saw_measure = false;
  for (const obs::TraceEvent& ev : rec.buffer().snapshot()) {
    if (ev.name == "enumerate+lower") saw_enum = true;
    if (ev.name == "measure (parallel)") saw_measure = true;
  }
  EXPECT_TRUE(saw_enum);
  EXPECT_TRUE(saw_measure);
}

TEST(MeasureStrategy, ThrowsOnInvalidStrategy) {
  ops::MatmulOp op(64, 64, 32);
  dsl::Strategy s;
  s.set_factor("Tm", 64);
  s.set_factor("Tn", 64);
  s.set_factor("Tk", 32);
  s.set_choice("order", "mnk");
  s.set_choice("variant", "0");
  s.set_choice("boundary", "switch");  // aligned: switch is a no-op, invalid
  EXPECT_THROW(measure_strategy(op, s, cfg), CheckError);
}

}  // namespace
}  // namespace swatop::tune

namespace swatop::tune {
namespace {

TEST(ModelTuner, TopKNeverWorseThanTopOne) {
  ops::MatmulOp op(96, 64, 40);
  const ModelTuner tuner(cfg);
  const Tuned one = tuner.tune(op);
  const Tuned topk = tuner.tune_top_k(op, 8);
  const double measured_one = measure_candidate(op, one.candidate, cfg);
  // top-k returns a *measured* winner among the model's shortlist, which
  // includes the model's single pick.
  EXPECT_LE(topk.cycles, measured_one + 1e-6);
}

TEST(ModelTuner, TopKHandlesOversizedK) {
  ops::MatmulOp op(64, 64, 32);
  const ModelTuner tuner(cfg);
  const Tuned t = tuner.tune_top_k(op, 1 << 20);
  EXPECT_GT(t.cycles, 0.0);
  EXPECT_THROW(tuner.tune_top_k(op, 0), CheckError);
}

TEST(ModelTuner, TopKApproachesBruteForce) {
  ops::MatmulOp op(72, 56, 40);
  const ModelTuner tuner(cfg);
  const BlackBoxTuner bb(cfg);
  const auto best = bb.tune(op);
  const Tuned topk = tuner.tune_top_k(op, 16);
  EXPECT_LE(topk.cycles, 1.1 * best.best.cycles);
}

}  // namespace
}  // namespace swatop::tune

#include "ops/implicit_conv.hpp"

namespace swatop::tune {
namespace {

TEST(CostModel, PenalizesSynchronousAccumulatorTraffic) {
  // Regression for the Fig. 9 worst case: a schedule that places reduction
  // loops outside the output tile's scope re-fetches C synchronously every
  // pass; the model must price that above the overlap-friendly order.
  ops::ConvShape s;
  s.batch = 32;
  s.ni = 128;
  s.no = 128;
  s.ri = 18;
  s.ci = 18;
  ops::ImplicitConvOp op(s);
  auto strat = [](const char* order) {
    dsl::Strategy st;
    st.set_factor("Tno", 64);
    st.set_factor("Tni", 64);
    st.set_factor("Tco", 8);
    st.set_choice("wlayout", "ni_major");
    st.set_choice("order", order);
    st.set_choice("variant", "7");
    st.set_choice("boundary", "pad");
    return st;
  };
  const CostModel model(cfg, gemm_cost_model(cfg));
  const auto good = build_candidate(op, strat("rcouvi"), cfg);
  const auto bad = build_candidate(op, strat("rcuvio"), cfg);
  const StaticCost cg_ = model.estimate(good.program);
  const StaticCost cb = model.estimate(bad.program);
  // The reduction-outside order re-fetches C on every pass...
  EXPECT_GT(cb.dma_cycles(), 1.5 * cg_.dma_cycles());
  // ...on a constant reply slot, so the cluster waits on it: most of the
  // extra traffic shows in the total instead of hiding behind compute.
  EXPECT_GT(cb.total() - cg_.total(),
            0.5 * (cb.dma_cycles() - cg_.dma_cycles()));
  // ...and the model and the interpreter agree on the ordering.
  EXPECT_GT(cb.total(), cg_.total());
  EXPECT_GT(measure_candidate(op, bad, cfg),
            measure_candidate(op, good, cfg));
}

TEST(CostModel, OrdersFig9LoopOrderTwinsLikeTheInterpreter) {
  // Regression for Fig. 9's worst shape (Ni 256, No 64): two loop orders
  // that differ only in which loop is innermost -- so how many prologue
  // gets the first iterations wait on, and whether the last iteration's
  // compute has a prefetch to hide behind. A program-wide max(DMA,
  // compute) priced them identically and the index tie-break picked the
  // slower one.
  ops::ConvShape s;
  s.batch = 32;
  s.ni = 256;
  s.no = 64;
  s.ri = 34;
  s.ci = 34;
  ops::ImplicitConvOp op(s);
  auto strat = [](const char* order) {
    dsl::Strategy st;
    st.set_factor("Tco", 32);
    st.set_factor("Tni", 128);
    st.set_factor("Tno", 64);
    st.set_choice("boundary", "pad");
    st.set_choice("order", order);
    st.set_choice("variant", "7");
    st.set_choice("wlayout", "ni_major");
    return st;
  };
  const CostModel model(cfg, gemm_cost_model(cfg));
  const auto a = build_candidate(op, strat("rcouvi"), cfg);
  const auto b = build_candidate(op, strat("rcoiuv"), cfg);
  const double ma = measure_candidate(op, a, cfg);
  const double mb = measure_candidate(op, b, cfg);
  const double ea = model.estimate(a.program).total();
  const double eb = model.estimate(b.program).total();
  if (ma < mb)
    EXPECT_LT(ea, eb);
  else
    EXPECT_GT(ea, eb);
}

}  // namespace
}  // namespace swatop::tune
