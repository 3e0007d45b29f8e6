// Tests for swatop::compile(), the front door: the CompiledOp and
// CompiledNet handles, journal ownership and report/check gating.
#include <gtest/gtest.h>

#include "common/check.hpp"
#include "graph/compile.hpp"
#include "ops/implicit_conv.hpp"
#include "ops/matmul.hpp"
#include "tune/journal.hpp"

namespace swatop {
namespace {

SwatopConfig fast_cfg() {
  SwatopConfig cfg;
  cfg.max_candidates = 24;
  return cfg;
}

TEST(CompiledOp, RunCheckAndReport) {
  ops::MatmulOp op(48, 48, 48);
  CompiledOp compiled = compile(op, fast_cfg());

  // Tuned at compile() time: the schedule and its estimate are there.
  EXPECT_GT(compiled.predicted_cycles, 0.0);

  const rt::RunResult r = compiled.run();
  EXPECT_GT(r.cycles, 0.0);
  EXPECT_LT(compiled.check(), 1e-4);

  const std::string rep = compiled.report();
  EXPECT_NE(rep.find(op.name()), std::string::npos);
  EXPECT_NE(rep.find("strategy"), std::string::npos);
  EXPECT_NE(rep.find("last run"), std::string::npos);
}

TEST(CompiledOp, CheckBeforeRunThrows) {
  ops::MatmulOp op(32, 32, 32);
  CompiledOp compiled = compile(op, fast_cfg());
  EXPECT_THROW(compiled.check(), CheckError);
}

TEST(CompiledOp, CheckAfterTimingOnlyRunThrows) {
  // A timing-only run writes no output, so there is nothing to check --
  // also after an earlier functional run, whose outputs the re-run zeroed.
  ops::MatmulOp op(64, 64, 32);
  CompiledOp compiled = compile(op, fast_cfg());
  compiled.run(sim::ExecMode::TimingOnly);
  EXPECT_THROW(compiled.check(), CheckError);
  compiled.run();
  EXPECT_LT(compiled.check(), 1e-4);
  compiled.run(sim::ExecMode::TimingOnly);
  EXPECT_THROW(compiled.check(), CheckError);
}

TEST(CompiledOp, OwnsJournalWhenCallerDidNotProvideOne) {
  ops::MatmulOp op(32, 32, 32);
  CompiledOp compiled = compile(op, fast_cfg());
  // Tuning happened at compile() time, so the owned journal is already
  // populated without the caller wiring anything up.
  EXPECT_GT(compiled.journal().size(), 0u);
}

TEST(CompiledOp, UsesCallerJournalWhenProvided) {
  tune::Journal mine;
  SwatopConfig cfg = fast_cfg();
  cfg.journal = &mine;
  ops::MatmulOp op(32, 32, 32);
  CompiledOp compiled = compile(op, cfg);
  EXPECT_EQ(&compiled.journal(), &mine);
  EXPECT_GT(mine.size(), 0u);
}

TEST(CompiledOp, FusedEpilogueFlowsThroughTheHandle) {
  ops::ConvShape s;
  s.ri = s.ci = 8;
  s.ni = 32;
  s.no = 16;
  s.kr = s.kc = 3;
  s.batch = 1;
  dsl::EpilogueSpec epi;
  epi.bias = true;
  epi.relu = true;
  ops::ImplicitConvOp op(s, epi);

  CompiledOp compiled = compile(op, fast_cfg());
  compiled.run();
  // The fused store path is validated against the op's own (fused) host
  // reference.
  EXPECT_LT(compiled.check(), 1e-4);
}

graph::Graph tiny_graph() {
  graph::Graph g("tiny");
  // 32 input channels: the engine only fuses epilogues into convs that
  // resolve to the implicit-GEMM method.
  g.add_input("in", graph::TensorShape{8, 32});
  graph::Node conv;
  conv.kind = graph::NodeKind::Conv;
  conv.name = "conv";
  conv.inputs = {"in"};
  conv.output = "t:conv";
  conv.kernel = 3;
  conv.channels_out = 16;
  g.add(conv);
  graph::Node bias;
  bias.kind = graph::NodeKind::Bias;
  bias.name = "conv.bias";
  bias.inputs = {"t:conv"};
  bias.output = "t:bias";
  g.add(bias);
  graph::Node relu;
  relu.kind = graph::NodeKind::Relu;
  relu.name = "conv.relu";
  relu.inputs = {"t:bias"};
  relu.output = "t:relu";
  g.add(relu);
  return g;
}

TEST(CompiledNet, ReportBeforeRunThrows) {
  CompiledNet compiled = compile(tiny_graph(), fast_cfg());
  EXPECT_THROW(compiled.report(), CheckError);
  EXPECT_THROW(compiled.report_json(), CheckError);
  EXPECT_THROW(compiled.result(), CheckError);
}

TEST(CompiledNet, RunReportAndJournal) {
  CompiledNet compiled = compile(tiny_graph(), fast_cfg());
  EXPECT_EQ(compiled.graph().name(), "tiny");

  const graph::NetRunResult r = compiled.run(2);
  EXPECT_TRUE(r.checked);
  EXPECT_LT(r.max_rel_err, 1e-4);
  // The Conv/Bias/Relu chain fuses by default through compile().
  EXPECT_EQ(r.fusion.convs_fused, 1);

  EXPECT_GT(compiled.journal().size(), 0u);
  const std::string rep = compiled.report();
  EXPECT_NE(rep.find("network"), std::string::npos);
  EXPECT_NE(rep.find("fusion"), std::string::npos);
  EXPECT_EQ(&compiled.result(), &compiled.result());
}

TEST(CompiledNet, FusionCanBeForcedOffPerRun) {
  CompiledNet compiled = compile(tiny_graph(), fast_cfg());
  graph::NetOptions opts;
  opts.fusion = false;
  opts.residency = false;
  const graph::NetRunResult r = compiled.run(2, opts);
  EXPECT_TRUE(r.checked);
  EXPECT_LT(r.max_rel_err, 1e-4);
  EXPECT_EQ(r.fusion.convs_fused, 0);
  EXPECT_EQ(r.dma_bytes_elided, 0);
}

TEST(CompiledNet, UsesCallerJournalWhenProvided) {
  tune::Journal mine;
  SwatopConfig cfg = fast_cfg();
  cfg.journal = &mine;
  CompiledNet compiled = compile(tiny_graph(), cfg);
  EXPECT_EQ(&compiled.journal(), &mine);
  compiled.run(1);
  EXPECT_GT(mine.size(), 0u);
}

}  // namespace
}  // namespace swatop
