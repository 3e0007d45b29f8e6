// Property-style parameterized sweeps over shapes, variants and strategies:
// every tensorized schedule must equal the naive reference, and the cost
// machinery must obey basic monotonicity/consistency invariants.
#include <gtest/gtest.h>

#include <tuple>

#include "ops/matmul.hpp"
#include "ops/reference.hpp"
#include "ops/tensor.hpp"
#include "rt/bind.hpp"
#include "rt/interpreter.hpp"
#include "sim/dma.hpp"
#include "tune/cost_model.hpp"
#include "tune/tuner.hpp"

namespace swatop {
namespace {

sim::SimConfig cfg;

// ---------------------------------------------------------------------------
// Functional equivalence across a shape grid.

class MatmulShapeSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(MatmulShapeSweep, TunedEqualsReference) {
  const auto [M, N, K] = GetParam();
  ops::MatmulOp op(M, N, K);
  const tune::ModelTuner tuner(cfg);
  const auto tuned = tuner.tune(op);
  sim::CoreGroup cg(cfg);
  const auto bt = rt::bind_tensors(cg, op);
  op.fill_inputs(cg, bt, tuned.candidate.strategy);
  rt::Interpreter interp(cg, sim::ExecMode::Functional);
  interp.run(tuned.candidate.program, bt);
  EXPECT_LE(op.check_output(cg, bt, tuned.candidate.strategy), 2e-3)
      << "M=" << M << " N=" << N << " K=" << K;
}

INSTANTIATE_TEST_SUITE_P(
    ShapeGrid, MatmulShapeSweep,
    ::testing::Values(std::tuple<int, int, int>{32, 32, 8},
                      std::tuple<int, int, int>{33, 32, 8},
                      std::tuple<int, int, int>{32, 33, 9},
                      std::tuple<int, int, int>{40, 56, 24},
                      std::tuple<int, int, int>{64, 32, 50},
                      std::tuple<int, int, int>{100, 100, 100},
                      std::tuple<int, int, int>{128, 96, 72},
                      std::tuple<int, int, int>{17, 65, 31}));

// ---------------------------------------------------------------------------
// Strategy sweep on one ragged shape: every valid candidate is correct.

TEST(StrategySweep, EveryValidCandidateIsCorrect) {
  ops::MatmulOp op(72, 40, 24);
  const sched::Scheduler sched(cfg);
  sched::SchedulerOptions opts;
  opts.max_candidates = 60;  // a broad slice of the space
  const auto cands = sched.candidates(op, opts);
  ASSERT_FALSE(cands.empty());
  sim::CoreGroup cg(cfg);
  const auto bt = rt::bind_tensors(cg, op);
  for (const auto& cand : cands) {
    op.fill_inputs(cg, bt, cand.strategy);
    rt::Interpreter interp(cg, sim::ExecMode::Functional);
    interp.run(cand.program, bt);
    EXPECT_LE(op.check_output(cg, bt, cand.strategy), 2e-3)
        << cand.strategy.to_string();
  }
}

// ---------------------------------------------------------------------------
// DMA cost properties.

TEST(DmaCostProperty, WasteIsBoundedByTransactions) {
  sim::DmaEngine e(cfg);
  for (std::int64_t block : {1, 3, 8, 17, 32, 100}) {
    for (std::int64_t stride : {0, 1, 13, 96}) {
      sim::DmaCpeDesc d;
      d.block = block;
      d.stride = stride;
      d.total = block * 7;
      const auto c = e.cost(d);
      EXPECT_GE(c.bytes_wasted, 0);
      EXPECT_EQ(c.bytes_wasted + c.bytes_requested,
                c.transactions *
                    static_cast<std::int64_t>(cfg.dram_transaction_bytes));
    }
  }
}

TEST(DmaCostProperty, MonotonicInSize) {
  sim::DmaEngine e(cfg);
  double prev = 0.0;
  for (std::int64_t total : {32, 64, 128, 256, 512}) {
    sim::DmaCpeDesc d;
    d.block = 32;
    d.stride = 32;
    d.total = total;
    const double t = e.cost(d).transfer_cycles;
    EXPECT_GE(t, prev);
    prev = t;
  }
}

TEST(DmaCostProperty, BiggerBlocksNeverWorse) {
  sim::DmaEngine e(cfg);
  for (std::int64_t total : {64, 256, 1024}) {
    double prev = 1e18;
    for (std::int64_t block : {1, 4, 16, 64}) {
      sim::DmaCpeDesc d;
      d.block = block;
      d.stride = 64;
      d.total = total;
      const double t = e.cost(d).transfer_cycles;
      EXPECT_LE(t, prev * 1.0001);
      prev = t;
    }
  }
}

// ---------------------------------------------------------------------------
// Cost-model consistency: predictions rank candidates roughly like the
// interpreter does.

TEST(CostModelProperty, RankCorrelatesWithMeasurement) {
  ops::MatmulOp op(128, 128, 64);
  const sched::Scheduler sched(cfg);
  sched::SchedulerOptions opts;
  opts.max_candidates = 24;
  const auto cands = sched.candidates(op, opts);
  ASSERT_GE(cands.size(), 8u);
  const tune::CostModel model(cfg, tune::gemm_cost_model(cfg));
  std::vector<double> pred, meas;
  for (const auto& c : cands) {
    pred.push_back(model.estimate(c.program).total());
    meas.push_back(tune::measure_candidate(op, c, cfg));
  }
  // Spearman-lite: count concordant pairs.
  int concordant = 0, total = 0;
  for (std::size_t i = 0; i < pred.size(); ++i) {
    for (std::size_t j = i + 1; j < pred.size(); ++j) {
      if (pred[i] == pred[j] || meas[i] == meas[j]) continue;
      ++total;
      if ((pred[i] < pred[j]) == (meas[i] < meas[j])) ++concordant;
    }
  }
  ASSERT_GT(total, 0);
  EXPECT_GT(static_cast<double>(concordant) / total, 0.7);
}

// ---------------------------------------------------------------------------
// Timing invariants.

TEST(TimingProperty, MoreWorkMoreCycles) {
  const tune::ModelTuner tuner(cfg);
  double prev = 0.0;
  for (std::int64_t n : {64, 128, 256}) {
    ops::MatmulOp op(n, n, n);
    const auto t = tuner.tune(op);
    const double measured = tune::measure_candidate(op, t.candidate, cfg);
    EXPECT_GT(measured, prev);
    prev = measured;
  }
}

TEST(TimingProperty, TunedNeverBeatsArithmeticPeak) {
  for (std::int64_t n : {64, 128, 256}) {
    ops::MatmulOp op(n, n, n);
    const tune::ModelTuner tuner(cfg);
    const auto t = tuner.tune(op);
    const double measured = tune::measure_candidate(op, t.candidate, cfg);
    const double min_cycles =
        2.0 * static_cast<double>(n) * static_cast<double>(n) *
        static_cast<double>(n) / cfg.peak_flops_per_cycle();
    EXPECT_GE(measured, min_cycles);
  }
}

}  // namespace
}  // namespace swatop

#include "ops/implicit_conv.hpp"

namespace swatop {
namespace {

TEST(StrategySweep, ImplicitConvCandidatesAllCorrect) {
  ops::ConvShape shape;
  shape.batch = 8;
  shape.ni = 32;
  shape.no = 32;
  shape.ri = 8;
  shape.ci = 8;
  ops::ImplicitConvOp op(shape);
  const sched::Scheduler sched(cfg);
  sched::SchedulerOptions opts;
  opts.max_candidates = 40;
  const auto cands = sched.candidates(op, opts);
  ASSERT_FALSE(cands.empty());
  sim::CoreGroup cg(cfg);
  const auto bt = rt::bind_tensors(cg, op);
  for (const auto& cand : cands) {
    op.fill_inputs(cg, bt, cand.strategy);
    rt::Interpreter interp(cg, sim::ExecMode::Functional);
    interp.run(cand.program, bt);
    EXPECT_LE(op.check_output(cg, bt, cand.strategy), 2e-3)
        << cand.strategy.to_string();
  }
}

TEST(TimingProperty, SyncDmaNeverHiddenByModel) {
  // Any estimate's total must be at least its DMA share and at least its
  // compute share, across a slice of real candidates.
  ops::ConvShape shape;
  shape.batch = 32;
  shape.ni = 64;
  shape.no = 64;
  shape.ri = 16;
  shape.ci = 16;
  ops::ImplicitConvOp op(shape);
  const sched::Scheduler sched(cfg);
  sched::SchedulerOptions opts;
  opts.max_candidates = 32;
  const tune::CostModel model(cfg, tune::gemm_cost_model(cfg));
  for (const auto& cand : sched.candidates(op, opts)) {
    const tune::StaticCost c = model.estimate(cand.program);
    EXPECT_GE(c.total(), c.dma_cycles());
    EXPECT_GE(c.total(), c.compute_cycles);
    EXPECT_LE(c.total(), c.dma_cycles() + c.compute_cycles + 1e-6);
  }
}

}  // namespace
}  // namespace swatop
