#include <gtest/gtest.h>

#include <vector>

#include "common/check.hpp"
#include "ir/analysis.hpp"
#include "ops/matmul.hpp"
#include "sched/lower.hpp"
#include "sched/parallel.hpp"
#include "sched/scheduler.hpp"

namespace swatop::sched {
namespace {

sim::SimConfig cfg;

TEST(Lower, BuildNestOrdersLoops) {
  std::vector<LoopSpec> loops = {{"a", ir::cst(2), false},
                                 {"b", ir::cst(3), true}};
  auto prog = build_nest(loops, ir::make_seq());
  ASSERT_EQ(prog->kind, ir::StmtKind::Seq);
  const auto& outer = prog->as<ir::Seq>().body[0]->as<ir::For>();
  EXPECT_EQ(outer.var, "a");
  EXPECT_FALSE(outer.reduction);
  const auto& inner = outer.body->as<ir::Seq>().body[0]->as<ir::For>();
  EXPECT_EQ(inner.var, "b");
  EXPECT_TRUE(inner.reduction);
}

TEST(Lower, OrderLoopsPermutes) {
  const std::vector<std::pair<char, LoopSpec>> dims = {
      {'m', {"m", ir::cst(1), false}},
      {'n', {"n", ir::cst(1), false}},
      {'k', {"k", ir::cst(1), true}},
  };
  const auto out = order_loops("knm", dims);
  EXPECT_EQ(out[0].var, "k");
  EXPECT_EQ(out[1].var, "n");
  EXPECT_EQ(out[2].var, "m");
}

TEST(Lower, OrderLoopsRejectsBadStrings) {
  const std::vector<std::pair<char, LoopSpec>> dims = {
      {'m', {"m", ir::cst(1), false}},
      {'n', {"n", ir::cst(1), false}},
  };
  EXPECT_THROW(order_loops("mx", dims), CheckError);
  EXPECT_THROW(order_loops("m", dims), CheckError);
}

TEST(Scheduler, ProducesValidOptimizedCandidates) {
  ops::MatmulOp op(64, 64, 32);
  Scheduler sched(cfg);
  const auto cands = sched.candidates(op);
  ASSERT_FALSE(cands.empty());
  EXPECT_LT(static_cast<std::int64_t>(cands.size()), sched.space_size(op));
  for (const auto& c : cands) {
    // Every candidate went through DMA inference and fits the SPM.
    EXPECT_TRUE(ir::contains_kind(c.program, ir::StmtKind::DmaGet));
    EXPECT_LE(ir::spm_footprint(c.program), cfg.spm_floats());
  }
}

TEST(Scheduler, SpaceSizeMatchesDsl) {
  ops::MatmulOp op(64, 64, 32);
  Scheduler sched(cfg);
  EXPECT_EQ(sched.space_size(op), op.space().size());
}

TEST(Scheduler, MaxCandidatesCaps) {
  ops::MatmulOp op(64, 64, 32);
  Scheduler sched(cfg);
  SchedulerOptions opts;
  opts.max_candidates = 5;
  EXPECT_EQ(sched.candidates(op, opts).size(), 5u);
}

TEST(Scheduler, AlignedShapeDropsSwitchCandidates) {
  // With no ragged dims, boundary="switch" lowers to nullptr and only the
  // pad variants remain -- the space halves.
  ops::MatmulOp op(64, 64, 32);
  Scheduler sched(cfg);
  const auto cands = sched.candidates(op);
  for (const auto& c : cands)
    EXPECT_EQ(c.strategy.choice("boundary"), "pad");
}

TEST(Scheduler, UnalignedShapeKeepsLegalSwitch) {
  // 192 % 128 = 64: switch-legal remainder, both strategies survive.
  ops::MatmulOp op(192, 64, 32);
  Scheduler sched(cfg);
  const auto cands = sched.candidates(op);
  bool has_switch = false, has_pad = false;
  for (const auto& c : cands) {
    has_switch = has_switch || c.strategy.choice("boundary") == "switch";
    has_pad = has_pad || c.strategy.choice("boundary") == "pad";
  }
  EXPECT_TRUE(has_switch);
  EXPECT_TRUE(has_pad);
}

TEST(Scheduler, SweepCountsItsWork) {
  ops::MatmulOp op(72, 56, 40);
  Scheduler sched(cfg);
  for (const int threads : {1, 4}) {
    SchedulerOptions opts;
    opts.num_threads = threads;
    SweepStats st;
    const auto cands = sched.candidates(op, opts, &st);
    EXPECT_EQ(st.enumerated, sched.space_size(op)) << threads;
    EXPECT_EQ(st.kept, static_cast<std::int64_t>(cands.size())) << threads;
    EXPECT_GE(st.lowered, st.kept) << threads;
    EXPECT_LT(st.lowered, st.enumerated) << threads;  // switch on aligned dims
  }
}

TEST(Scheduler, MaxCandidatesBoundsTheSweep) {
  ops::MatmulOp op(64, 64, 32);
  Scheduler sched(cfg);
  SchedulerOptions opts;
  opts.max_candidates = 5;
  opts.num_threads = 4;  // the cap forces the serial early-exit path
  SweepStats st;
  const auto capped = sched.candidates(op, opts, &st);
  ASSERT_EQ(capped.size(), 5u);
  EXPECT_EQ(st.lowered, 5);  // the cap counts strategies that lower
  EXPECT_EQ(st.kept, 5);
  EXPECT_LT(st.enumerated, sched.space_size(op));
  // The first five survivors in enumeration order.
  const auto all = sched.candidates(op);
  for (std::size_t i = 0; i < capped.size(); ++i)
    EXPECT_EQ(capped[i].strategy, all[i].strategy);
}

TEST(ParallelFor, RethrowsAWorkerExceptionAfterJoining) {
  EXPECT_THROW(parallel_for(1000, 4,
                            [] {
                              return [](std::size_t i) {
                                if (i == 10) throw CheckError("boom");
                              };
                            }),
               CheckError);
}

TEST(ParallelFor, SerialPathRunsEveryIndexInOrder) {
  std::vector<std::size_t> got;
  parallel_for(5, 1, [&] {
    return [&](std::size_t i) { got.push_back(i); };
  });
  EXPECT_EQ(got, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
  EXPECT_EQ(resolve_threads(8, 3), 3u);
  EXPECT_EQ(resolve_threads(8, 1), 1u);
  EXPECT_GE(resolve_threads(0, 100), 1u);
}

}  // namespace
}  // namespace swatop::sched
