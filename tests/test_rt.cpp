#include <gtest/gtest.h>

#include "common/check.hpp"
#include "obs/recorder.hpp"
#include "ops/matmul.hpp"
#include "rt/bind.hpp"
#include "rt/dma_expand.hpp"
#include "rt/interpreter.hpp"
#include "tune/tuner.hpp"

namespace swatop::rt {
namespace {

sim::SimConfig cfg;

dsl::Strategy strat(std::int64_t tm, std::int64_t tn, std::int64_t tk,
                    const std::string& order = "mnk",
                    const std::string& variant = "0") {
  dsl::Strategy s;
  s.set_factor("Tm", tm);
  s.set_factor("Tn", tn);
  s.set_factor("Tk", tk);
  s.set_choice("order", order);
  s.set_choice("variant", variant);
  s.set_choice("boundary", "pad");
  return s;
}

TEST(DmaExpand, GeometryEvaluation) {
  ir::DmaAttrs d;
  d.view = {"A", ir::var("i"), 1, 100, ir::cst(40), ir::cst(16)};
  d.rows_p = ir::cst(64);
  d.cols_p = ir::cst(16);
  const DmaGeometry g = evaluate_dma(d, {{"i", 7}}, 1000, cfg);
  EXPECT_EQ(g.base, 1007);
  EXPECT_EQ(g.rows, 40);
  EXPECT_EQ(g.tr, 8);
  EXPECT_EQ(g.tc, 2);
}

TEST(DmaExpand, RejectsOversizedRegion) {
  ir::DmaAttrs d;
  d.view = {"A", ir::cst(0), 1, 100, ir::cst(80), ir::cst(16)};
  d.rows_p = ir::cst(64);
  d.cols_p = ir::cst(16);
  EXPECT_THROW(evaluate_dma(d, {}, 0, cfg), CheckError);
}

TEST(DmaExpand, RejectsMeshIndivisibleGrid) {
  // A tile grid the 8x8 mesh cannot split evenly, along either dimension.
  ir::DmaAttrs d;
  d.view = {"A", ir::cst(0), 1, 100, ir::cst(60), ir::cst(16)};
  d.rows_p = ir::cst(60);
  d.cols_p = ir::cst(16);
  EXPECT_THROW(evaluate_dma(d, {}, 0, cfg), CheckError);
  d.view.rows = ir::cst(64);
  d.rows_p = ir::cst(64);
  d.view.cols = ir::cst(12);
  d.cols_p = ir::cst(12);
  EXPECT_THROW(evaluate_dma(d, {}, 0, cfg), CheckError);
}

TEST(DmaExpand, ColumnMajorViewMatchesPaperExample) {
  // Paper Sec. 4.5.1: col-major A(M, N), each CPE reads tile (rid, cid):
  // block = M/8, stride = M - M/8, offset = (cid*N/8)*M + rid*M/8.
  const std::int64_t M = 64, N = 128;
  ir::DmaAttrs d;
  d.view = {"A", ir::cst(0), 1, M, ir::cst(M), ir::cst(N)};
  d.rows_p = ir::cst(M);
  d.cols_p = ir::cst(N);
  const auto descs = expand_dma(d, evaluate_dma(d, {}, 0, cfg), cfg);
  ASSERT_EQ(descs.size(), 64u);
  for (int rid = 0; rid < 8; ++rid) {
    for (int cid = 0; cid < 8; ++cid) {
      const auto& desc = descs[static_cast<std::size_t>(rid * 8 + cid)];
      EXPECT_EQ(desc.block, M / 8);
      EXPECT_EQ(desc.stride, M - M / 8);
      EXPECT_EQ(desc.mem_base, (cid * (N / 8)) * M + rid * (M / 8));
      EXPECT_EQ(desc.total, (M / 8) * (N / 8));
    }
  }
}

TEST(DmaExpand, PartialTilesClampPerCpe) {
  ir::DmaAttrs d;
  d.view = {"A", ir::cst(0), 1, 100, ir::cst(40), ir::cst(16)};
  d.rows_p = ir::cst(64);
  d.cols_p = ir::cst(16);
  const DmaGeometry g = evaluate_dma(d, {}, 0, cfg);
  const auto descs = expand_dma(d, g, cfg);
  ASSERT_EQ(descs.size(), 64u);
  // Mesh row 0 holds rows [0, 8): full. Mesh row 5 holds rows [40, 48):
  // empty (only 40 valid rows).
  EXPECT_EQ(descs[0].total, 8 * 2);
  EXPECT_EQ(descs[5 * 8].total, 0);
}

TEST(DmaExpand, TransposedDistributionSwapsBlocks) {
  ir::DmaAttrs d;
  d.view = {"A", ir::cst(0), 1, 64, ir::cst(32), ir::cst(64)};
  d.rows_p = ir::cst(32);
  d.cols_p = ir::cst(64);
  d.rows_to_rid = false;
  const DmaGeometry g = evaluate_dma(d, {}, 1000, cfg);
  const CpeBlock b = cpe_block(d, g, 2, 5);
  EXPECT_EQ(b.br, 5);  // view rows follow the column id
  EXPECT_EQ(b.bc, 2);
  EXPECT_EQ(b.rows, 4);
  EXPECT_EQ(b.cols, 8);
  EXPECT_EQ(b.mem_base, 1000 + 5 * 4 + 2 * 8 * 64);
  // The descriptor the engine prices starts at the same block.
  const auto descs = expand_dma(d, g, cfg);
  EXPECT_EQ(descs[2 * 8 + 5].mem_base, b.mem_base);
  EXPECT_EQ(descs[2 * 8 + 5].total, b.rows * b.cols);
}

TEST(Interpreter, RaggedTransposedGetAndPutRoundTrip) {
  // A 37x13 region of a 64x16 tile grid, transposed onto the mesh (view
  // rows follow the column id): some CPEs get whole blocks, some partial
  // ones and some none. Get it from A into SPM and put it back into B.
  const std::int64_t ld = 40;
  ir::DmaAttrs get;
  get.view = {"A", ir::cst(0), 1, ld, ir::cst(37), ir::cst(13)};
  get.rows_p = ir::cst(64);
  get.cols_p = ir::cst(16);
  get.spm_buf = "buf";
  get.spm_off = ir::cst(0);
  get.reply = ir::cst(0);
  get.rows_to_rid = false;
  ir::DmaAttrs put = get;
  put.view.tensor = "B";
  put.reply = ir::cst(1);
  auto prog = ir::make_seq({ir::make_spm_alloc("buf", 8 * 2),
                            ir::make_dma(ir::StmtKind::DmaGet, get),
                            ir::make_dma_wait(ir::cst(0)),
                            ir::make_dma(ir::StmtKind::DmaPut, put),
                            ir::make_dma_wait(ir::cst(1))});

  sim::CoreGroup cg(cfg);
  const auto a = cg.mem().alloc(ld * 16, "A");
  const auto b = cg.mem().alloc(ld * 16, "B");
  for (std::int64_t i = 0; i < ld * 16; ++i)
    cg.mem().write(a + i, static_cast<float>(i + 1));
  obs::Options oo;
  oo.enabled = true;
  obs::Recorder rec(oo);
  cg.attach_observer(&rec);
  Interpreter interp(cg, sim::ExecMode::Functional);
  const dsl::BoundTensors bt{{"A", a}, {"B", b}};
  interp.run(prog, bt);

  for (std::int64_t j = 0; j < 16; ++j) {
    for (std::int64_t i = 0; i < ld; ++i) {
      const bool in_view = i < 37 && j < 13;
      EXPECT_EQ(cg.mem().read(b + i + j * ld),
                in_view ? cg.mem().read(a + i + j * ld) : 0.0f)
          << "(" << i << ", " << j << ")";
    }
  }

  // Per-CPE attribution follows the descriptors the engine priced.
  const auto gd = expand_dma(get, evaluate_dma(get, {}, a, cfg), cfg);
  const auto pd = expand_dma(put, evaluate_dma(put, {}, b, cfg), cfg);
  // The registry grows only to the last CPE that moved any data.
  const auto& per_cpe = rec.counters().per_cpe;
  ASSERT_LE(per_cpe.size(), 64u);
  int empty = 0, partial = 0;
  for (std::size_t i = 0; i < 64; ++i) {
    const std::int64_t bytes =
        i < per_cpe.size() ? per_cpe[i].dma_bytes : 0;
    EXPECT_EQ(bytes, 4 * (gd[i].total + pd[i].total)) << "CPE " << i;
    if (gd[i].total == 0) ++empty;
    if (gd[i].total > 0 && gd[i].total < 8 * 2) ++partial;
  }
  EXPECT_GT(empty, 0);
  EXPECT_GT(partial, 0);
}

TEST(Interpreter, FunctionalAndTimingAgreeOnCycles) {
  ops::MatmulOp op(64, 64, 32);
  const auto cand = tune::build_candidate(op, strat(32, 32, 16), cfg);

  sim::CoreGroup cg(cfg);
  const auto bt = bind_tensors(cg, op);
  op.fill_inputs(cg, bt, cand.strategy);
  Interpreter functional(cg, sim::ExecMode::Functional);
  const auto rf = functional.run(cand.program, bt);

  sim::CoreGroup cg2(cfg);
  cg2.mem().set_materialize(false);
  const auto bt2 = bind_tensors(cg2, op);
  Interpreter timing(cg2, sim::ExecMode::TimingOnly);
  const auto rt = timing.run(cand.program, bt2);

  EXPECT_NEAR(rf.cycles, rt.cycles, 1e-6);
  EXPECT_EQ(rf.stats.gemm_calls, rt.stats.gemm_calls);
  EXPECT_EQ(rf.stats.dma_transfers, rt.stats.dma_transfers);
}

TEST(Interpreter, DeterministicAcrossRuns) {
  ops::MatmulOp op(96, 64, 40);
  const auto cand = tune::build_candidate(op, strat(32, 32, 16), cfg);
  sim::CoreGroup cg(cfg);
  cg.mem().set_materialize(false);
  const auto bt = bind_tensors(cg, op);
  Interpreter interp(cg, sim::ExecMode::TimingOnly);
  const double t1 = interp.run(cand.program, bt).cycles;
  const double t2 = interp.run(cand.program, bt).cycles;
  EXPECT_DOUBLE_EQ(t1, t2);
}

TEST(Interpreter, PrefetchReducesCycles) {
  // One m and one n tile: no operand is cached, so both gets sit in the k
  // loop for double buffering to hide.
  ops::MatmulOp op(32, 32, 128);
  const auto with = tune::build_candidate(op, strat(32, 32, 32), cfg, true);
  const auto without =
      tune::build_candidate(op, strat(32, 32, 32), cfg, false);
  const double t_with = tune::measure_candidate(op, with, cfg);
  const double t_without = tune::measure_candidate(op, without, cfg);
  EXPECT_LT(t_with, t_without);
}

TEST(Interpreter, StatsTrackDmaAndFlops) {
  ops::MatmulOp op(64, 64, 32);
  const auto cand = tune::build_candidate(op, strat(64, 64, 32), cfg);
  sim::CoreGroup cg(cfg);
  cg.mem().set_materialize(false);
  const auto bt = bind_tensors(cg, op);
  Interpreter interp(cg, sim::ExecMode::TimingOnly);
  const auto r = interp.run(cand.program, bt);
  EXPECT_EQ(r.stats.flops, 2 * 64 * 64 * 32);
  // A + B + C traffic at least once each.
  EXPECT_GE(r.stats.dma_transfers, 3);
  EXPECT_GE(r.stats.dma_bytes_requested, (64 * 32 + 32 * 64 + 64 * 64) * 4);
}

TEST(Interpreter, UnboundTensorThrows) {
  ops::MatmulOp op(64, 64, 32);
  const auto cand = tune::build_candidate(op, strat(64, 64, 32), cfg);
  sim::CoreGroup cg(cfg);
  Interpreter interp(cg, sim::ExecMode::TimingOnly);
  dsl::BoundTensors empty;
  EXPECT_THROW(interp.run(cand.program, empty), CheckError);
}

TEST(Interpreter, GflopsReporting) {
  RunResult r;
  r.cycles = 1000.0;
  // 1000 cycles at 1.45 GHz for 512000 flops = 742.4 GFLOPS.
  EXPECT_NEAR(r.gflops(512000, cfg), 742.4, 0.1);
}

TEST(BindTensors, AllocatesEveryTensor) {
  ops::MatmulOp op(64, 48, 32);
  sim::CoreGroup cg(cfg);
  const auto bt = bind_tensors(cg, op);
  EXPECT_EQ(bt.size(), 3u);
  EXPECT_TRUE(bt.count("A"));
  EXPECT_TRUE(bt.count("B"));
  EXPECT_TRUE(bt.count("C"));
  EXPECT_GE(cg.mem().size(), 64 * 32 + 32 * 48 + 64 * 48);
}

TEST(InterpreterGuards, GetColumnPastArenaThrows) {
  // A 16x16 get from a 255-float arena: only the last float of its last
  // column lies past the end, on the last CPE's tile. Pricing never touches
  // memory, so only the functional copy can catch it, and it must throw
  // even though it checks a column at a time.
  ir::DmaAttrs d;
  d.view = {"A", ir::cst(0), 1, 16, ir::cst(16), ir::cst(16)};
  d.rows_p = ir::cst(16);
  d.cols_p = ir::cst(16);
  d.spm_buf = "buf";
  d.spm_off = ir::cst(0);
  d.reply = ir::cst(0);
  auto prog = ir::make_seq({ir::make_spm_alloc("buf", 4),
                            ir::make_dma(ir::StmtKind::DmaGet, d),
                            ir::make_dma_wait(ir::cst(0))});
  for (const sim::ExecMode mode :
       {sim::ExecMode::TimingOnly, sim::ExecMode::Functional}) {
    sim::CoreGroup cg(cfg);
    cg.mem().alloc(16 * 16 - 1, "A");
    const dsl::BoundTensors bt{{"A", 0}};
    Interpreter interp(cg, mode);
    if (mode == sim::ExecMode::TimingOnly)
      EXPECT_NO_THROW(interp.run(prog, bt));
    else
      EXPECT_THROW(interp.run(prog, bt), CheckError);
  }
}

}  // namespace
}  // namespace swatop::rt

#include "ops/tensor.hpp"
#include "rt/expr_eval.hpp"

namespace swatop::rt {
namespace {

/// Random expression fuzz: the compiled evaluator must agree with the tree
/// walker on every expression shape it can encounter.
ir::Expr random_expr(ops::Prng& rng, int depth) {
  const auto pick = [&](int n) {
    return static_cast<int>((rng.next() + 1.0f) * 0.5f * n) % n;
  };
  if (depth == 0 || pick(4) == 0) {
    if (pick(2) == 0) return ir::cst(pick(100) - 50);
    return ir::var(std::string(1, static_cast<char>('a' + pick(4))));
  }
  const ir::Expr a = random_expr(rng, depth - 1);
  const ir::Expr b = random_expr(rng, depth - 1);
  switch (pick(9)) {
    case 0: return ir::add(a, b);
    case 1: return ir::sub(a, b);
    case 2: return ir::mul(a, b);
    case 3: return ir::min2(a, b);
    case 4: return ir::max2(a, b);
    case 5: return ir::lt(a, b);
    case 6: return ir::ge(a, b);
    case 7: return ir::select(a, b, random_expr(rng, depth - 1));
    default:
      // Keep divisors non-zero.
      return ir::floordiv(a, ir::add(ir::mul(b, b), ir::cst(1)));
  }
}

TEST(ExprEvaluator, FuzzAgainstTreeWalker) {
  ops::Prng rng(2024);
  ExprEvaluator ev;
  const int sa = ev.slot_of("a"), sb = ev.slot_of("b"),
            sc = ev.slot_of("c"), sd = ev.slot_of("d");
  for (int trial = 0; trial < 200; ++trial) {
    const ir::Expr e = random_expr(rng, 4);
    for (int vals = 0; vals < 5; ++vals) {
      const std::int64_t a = static_cast<std::int64_t>(rng.next() * 100);
      const std::int64_t b = static_cast<std::int64_t>(rng.next() * 100);
      const std::int64_t c = static_cast<std::int64_t>(rng.next() * 100);
      const std::int64_t d = static_cast<std::int64_t>(rng.next() * 100);
      ev.set(sa, a);
      ev.set(sb, b);
      ev.set(sc, c);
      ev.set(sd, d);
      const ir::Env env{{"a", a}, {"b", b}, {"c", c}, {"d", d}};
      EXPECT_EQ(ev.eval(e), ir::eval(e, env)) << ir::to_string(e);
    }
  }
}

TEST(ExprEvaluator, ReusesSlotsAcrossNames) {
  ExprEvaluator ev;
  EXPECT_EQ(ev.slot_of("x"), ev.slot_of("x"));
  EXPECT_NE(ev.slot_of("x"), ev.slot_of("y"));
}

TEST(ExprEvaluator, DeepExpressionGetsALargeEnoughStack) {
  // x + (x + (... + x)): postfix code pushes all 41 operands before the
  // first add, so the stack must follow the compiled depth, not a fixed
  // 32 slots.
  const ir::VarId x("x");
  ir::Expr e = ir::var(x);
  for (int i = 1; i < 41; ++i) e = ir::add(ir::var(x), e);
  ExprEvaluator ev;
  ev.set(ev.slot_of(x), 3);
  EXPECT_EQ(ev.eval(e), ir::eval(e, {{x, 3}}));
  EXPECT_EQ(ev.eval(e), 123);
}

}  // namespace
}  // namespace swatop::rt

namespace swatop::rt {
namespace {

TEST(InterpreterGuards, GemmWithoutInferenceThrows) {
  ops::MatmulOp op(64, 64, 32);
  dsl::Strategy s = strat(64, 64, 32);
  ir::StmtPtr raw = op.lower(s);  // no DMA inference: gemm unbound
  sim::CoreGroup cg(cfg);
  const auto bt = bind_tensors(cg, op);
  Interpreter interp(cg, sim::ExecMode::TimingOnly);
  EXPECT_THROW(interp.run(raw, bt), CheckError);
}

TEST(InterpreterGuards, DoubleWaitThrows) {
  auto prog = ir::make_seq({ir::make_dma_wait(ir::cst(0))});
  sim::CoreGroup cg(cfg);
  Interpreter interp(cg, sim::ExecMode::TimingOnly);
  dsl::BoundTensors bt;
  EXPECT_THROW(interp.run(prog, bt), CheckError);
}

TEST(InterpreterGuards, DanglingTransferDetected) {
  // A get with no wait must be flagged at program end.
  ir::DmaAttrs d;
  d.view = {"A", ir::cst(0), 1, 8, ir::cst(8), ir::cst(8)};
  d.rows_p = ir::cst(8);
  d.cols_p = ir::cst(8);
  d.spm_buf = "buf";
  d.spm_off = ir::cst(0);
  d.reply = ir::cst(0);
  auto prog = ir::make_seq(
      {ir::make_spm_alloc("buf", 16), ir::make_dma(ir::StmtKind::DmaGet, d)});
  sim::CoreGroup cg(cfg);
  cg.mem().alloc(64, "A");
  dsl::BoundTensors bt{{"A", 0}};
  Interpreter interp(cg, sim::ExecMode::TimingOnly);
  EXPECT_THROW(interp.run(prog, bt), CheckError);
}

}  // namespace
}  // namespace swatop::rt
