// End-to-end tests: DSL -> scheduler -> IR optimizer -> runtime, checked
// functionally against naive references for every operator design.
#include <gtest/gtest.h>

#include "common/check.hpp"
#include "graph/compile.hpp"
#include "graph/net_report.hpp"
#include "ir/analysis.hpp"
#include "ops/explicit_conv.hpp"
#include "ops/implicit_conv.hpp"
#include "ops/matmul.hpp"
#include "ops/winograd.hpp"
#include "rt/bind.hpp"

namespace swatop {
namespace {

constexpr double kTol = 2e-3;  // fp32 accumulation over O(10^2..10^3) terms

/// Tune, run functionally, and compare against the reference -- through
/// compile() (the handle owns core group, binding and input fill).
double optimize_and_check(const dsl::OperatorDef& op) {
  CompiledOp compiled = compile(op);
  compiled.run();
  return compiled.check();
}

TEST(Integration, MatmulAlignedSmall) {
  ops::MatmulOp op(64, 64, 32);
  EXPECT_LE(optimize_and_check(op), kTol);
}

TEST(Integration, MatmulUnaligned) {
  ops::MatmulOp op(72, 56, 40);
  EXPECT_LE(optimize_and_check(op), kTol);
}

TEST(Integration, MatmulVeryUnaligned) {
  ops::MatmulOp op(50, 46, 25);
  EXPECT_LE(optimize_and_check(op), kTol);
}

TEST(Integration, MatmulTall) {
  ops::MatmulOp op(200, 40, 24);
  EXPECT_LE(optimize_and_check(op), kTol);
}

TEST(Integration, ImplicitConvBatch8) {
  ops::ConvShape s;
  s.batch = 8;
  s.ni = 32;
  s.no = 32;
  s.ri = 8;
  s.ci = 8;
  s.kr = 3;
  s.kc = 3;
  ops::ImplicitConvOp op(s);
  EXPECT_LE(optimize_and_check(op), kTol);
}

TEST(Integration, ImplicitConvBatch1) {
  // Inference case: no manual implementation exists, swATOP still covers it.
  ops::ConvShape s;
  s.batch = 1;
  s.ni = 32;
  s.no = 64;
  s.ri = 12;
  s.ci = 12;
  ops::ImplicitConvOp op(s);
  EXPECT_LE(optimize_and_check(op), kTol);
}

TEST(Integration, ImplicitConv1x1Kernel) {
  ops::ConvShape s;
  s.batch = 4;
  s.ni = 64;
  s.no = 32;
  s.ri = 6;
  s.ci = 6;
  s.kr = 1;
  s.kc = 1;
  ops::ImplicitConvOp op(s);
  EXPECT_LE(optimize_and_check(op), kTol);
}

TEST(Integration, ExplicitConvSmall) {
  ops::ConvShape s;
  s.batch = 2;
  s.ni = 16;
  s.no = 32;
  s.ri = 8;
  s.ci = 8;
  ops::ExplicitConvOp op(s);
  EXPECT_LE(optimize_and_check(op), kTol);
}

TEST(Integration, WinogradConvSmall) {
  ops::ConvShape s;
  s.batch = 2;
  s.ni = 16;
  s.no = 32;
  s.ri = 10;
  s.ci = 10;
  ops::WinogradGemmOp op(s);
  EXPECT_LE(optimize_and_check(op), 5e-3);
}

TEST(Integration, WinogradConvOddOutput) {
  ops::ConvShape s;
  s.batch = 1;
  s.ni = 8;
  s.no = 16;
  s.ri = 9;  // Ro = 7, odd: ragged Winograd tiles
  s.ci = 9;
  ops::WinogradGemmOp op(s);
  EXPECT_LE(optimize_and_check(op), 5e-3);
}

TEST(Integration, RepeatedExecuteDoesNotAccumulate) {
  // Regression: the handle reuses its core group between runs with memory
  // contents preserved, and the generated schedules *accumulate* into
  // their outputs (C += A*B). A re-run must not double the result --
  // run() re-zeroes output tensors before each re-run rather than relying
  // on every schedule's first-pass SPM zero guard.
  ops::MatmulOp op(64, 64, 32);
  CompiledOp compiled = compile(op);
  compiled.run();
  EXPECT_LE(compiled.check(), kTol);
  compiled.run();
  EXPECT_LE(compiled.check(), kTol);
  compiled.run();
  EXPECT_LE(compiled.check(), kTol);
}

TEST(Integration, RepeatedExecuteConvDoesNotAccumulate) {
  ops::ConvShape s;
  s.batch = 2;
  s.ni = 16;
  s.no = 16;
  s.ri = 6;
  s.ci = 6;
  ops::ImplicitConvOp op(s);
  CompiledOp compiled = compile(op);
  compiled.run();
  EXPECT_LE(compiled.check(), kTol);
  compiled.run();
  EXPECT_LE(compiled.check(), kTol);
}

TEST(Integration, OuterReductionReRunDoesNotAccumulate) {
  // The riskiest re-run shape: order kmn with Tk < K places the reduction
  // loop outside the C tile's scope, so the program re-fetches C from main
  // memory and accumulates partial sums into it. Even through the
  // low-level path (no run()-level re-zero), a re-run must be
  // idempotent: the first pass zeroes the SPM accumulator and the final
  // DmaPut overwrites the tile.
  ops::MatmulOp op(64, 64, 64);
  dsl::Strategy s;
  s.set_factor("Tm", 32);
  s.set_factor("Tn", 32);
  s.set_factor("Tk", 16);  // K = 64: four outer reduction passes
  s.set_choice("order", "kmn");
  s.set_choice("variant", "0");
  s.set_choice("boundary", "pad");
  const sim::SimConfig cfg;
  const sched::Candidate cand = tune::build_candidate(op, s, cfg);
  sim::CoreGroup cg(cfg);
  const dsl::BoundTensors bt = rt::bind_tensors(cg, op);
  op.fill_inputs(cg, bt, s);
  rt::Interpreter(cg, sim::ExecMode::Functional).run(cand.program, bt);
  EXPECT_LE(op.check_output(cg, bt, s), kTol);
  rt::Interpreter(cg, sim::ExecMode::Functional).run(cand.program, bt);
  EXPECT_LE(op.check_output(cg, bt, s), kTol);
}

TEST(Integration, GeneratedCodeIsNonTrivial) {
  ops::MatmulOp op(64, 64, 32);
  const CompiledOp compiled = compile(op);
  EXPECT_NE(compiled.c_source.find("spm_gemm"), std::string::npos);
  EXPECT_NE(compiled.c_source.find("swDMA"), std::string::npos);
  EXPECT_GT(compiled.stats.valid_candidates, 10);
}

}  // namespace
}  // namespace swatop

namespace swatop {
namespace {

/// Chip-level data parallelism runs through the graph engine: a graph of
/// one convolution, its batch split over core groups.
graph::NetRunResult run_conv_on_groups(const ops::ConvShape& s, int groups) {
  graph::Graph g("conv");
  g.add_input("in", {s.ri, s.ni});
  graph::Node conv;
  conv.kind = graph::NodeKind::Conv;
  conv.name = "conv";
  conv.inputs = {"in"};
  conv.output = "out";
  conv.kernel = s.kr;
  conv.channels_out = s.no;
  g.add(conv);
  graph::NetOptions opts;
  opts.groups = groups;
  opts.mode = sim::ExecMode::TimingOnly;
  opts.check = false;
  return compile(g).run(s.batch, opts);
}

TEST(Integration, ChipDataParallelScales) {
  // A training batch large enough that the per-group sub-batch (32) keeps
  // its GEMM efficiency; smaller batches genuinely scale sub-linearly.
  ops::ConvShape s;
  s.batch = 128;
  s.ni = 64;
  s.no = 64;
  s.ri = 16;
  s.ci = 16;
  const auto one = run_conv_on_groups(s, 1);
  const auto four = run_conv_on_groups(s, 4);
  EXPECT_EQ(four.groups_used, 4);
  // Near-linear: four groups at least 2.5x faster than one.
  EXPECT_LT(four.cycles, one.cycles / 2.5);
  EXPECT_GT(four.gflops, one.gflops * 2.5);
}

TEST(Integration, ChipBatchOneCannotSplit) {
  ops::ConvShape s;
  s.batch = 1;
  s.ni = 64;
  s.no = 64;
  s.ri = 16;
  s.ci = 16;
  const auto r = run_conv_on_groups(s, 4);
  EXPECT_EQ(r.groups_used, 1);
}

TEST(Integration, ChipUnevenSplit) {
  // Batch 5 over 3 groups: 2 + 2 + 1; the odd group finishes early, the
  // slowest one bounds the elapsed time, and the attribution books the
  // idle group's wait as imbalance.
  ops::ConvShape s;
  s.batch = 5;
  s.ni = 32;
  s.no = 32;
  s.ri = 10;
  s.ci = 10;
  const auto r = run_conv_on_groups(s, 3);
  EXPECT_EQ(r.groups_used, 3);
  const obs::Attribution a = graph::net_attribution(r);
  EXPECT_TRUE(a.balanced());
  EXPECT_GT(a.at(obs::AttrCat::Imbalance), 0.0);
}

}  // namespace
}  // namespace swatop

namespace swatop {
namespace {

TEST(Integration, PortsToSw26010Pro) {
  // Re-tuning the same operator against the successor machine: the 4x SPM
  // admits larger tiles, and the result must still be functionally correct
  // and strictly faster in wall-clock terms (higher clock + bandwidth).
  ops::MatmulOp op(512, 512, 256);
  const sim::SimConfig base = sim::SimConfig::sw26010();
  const sim::SimConfig pro = sim::SimConfig::sw26010pro();

  const tune::ModelTuner base_tuner(base);
  const tune::ModelTuner pro_tuner(pro);
  const auto base_pick = base_tuner.tune(op);
  const auto pro_pick = pro_tuner.tune(op);

  // The 4x SPM admits tile footprints the base machine must prune: a
  // 512x512x512 blocking fits the Pro's scratchpad only.
  {
    dsl::Strategy huge;
    huge.set_factor("Tm", 512);
    huge.set_factor("Tn", 512);
    huge.set_factor("Tk", 512);
    huge.set_choice("order", "mnk");
    huge.set_choice("variant", "0");
    huge.set_choice("boundary", "pad");
    ops::MatmulOp big(1024, 1024, 1024);
    EXPECT_THROW(tune::build_candidate(big, huge, base), CheckError);
    EXPECT_GT(tune::measure_strategy(big, huge, pro), 0.0);
  }
  (void)pro_pick;

  const double base_cycles =
      tune::measure_candidate(op, base_pick.candidate, base);
  const double pro_cycles =
      tune::measure_candidate(op, pro_pick.candidate, pro);
  const double base_s = base_cycles / base.clock_ghz;
  const double pro_s = pro_cycles / pro.clock_ghz;
  EXPECT_LT(pro_s, base_s);
}

TEST(Integration, ProTunedStillCorrect) {
  ops::MatmulOp op(72, 56, 40);
  SwatopConfig cfg;
  cfg.machine = sim::SimConfig::sw26010pro();
  CompiledOp compiled = compile(op, cfg);
  EXPECT_GT(compiled.run().cycles, 0.0);
  EXPECT_LE(compiled.check(), 2e-3);
}

TEST(Integration, LowLevelEntryPointsStillWork) {
  // Callers that manage the core group themselves keep working.
  ops::MatmulOp op(64, 64, 32);
  const CompiledOp compiled = compile(op);
  sim::CoreGroup cg(compiled.machine());
  const dsl::BoundTensors bt = rt::bind_tensors(cg, op);
  op.fill_inputs(cg, bt, compiled.candidate.strategy);
  compiled.run(cg, bt, sim::ExecMode::Functional);
  EXPECT_LE(op.check_output(cg, bt, compiled.candidate.strategy), kTol);
}

}  // namespace
}  // namespace swatop
