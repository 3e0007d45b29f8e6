#include <gtest/gtest.h>

#include "common/check.hpp"
#include "common/math_util.hpp"
#include "ir/analysis.hpp"
#include "ir/mutator.hpp"
#include "ir/printer.hpp"
#include "opt/boundary.hpp"
#include "opt/dma_inference.hpp"
#include "opt/double_buffer.hpp"
#include "opt/pass_manager.hpp"
#include "ops/implicit_conv.hpp"
#include "ops/matmul.hpp"
#include "rt/bind.hpp"
#include "rt/interpreter.hpp"

namespace swatop::opt {
namespace {

sim::SimConfig cfg;
const OptOptions kOpts;
const std::int64_t kReserve = kOpts.spm_reserve_floats;

dsl::Strategy matmul_strategy(std::int64_t tm, std::int64_t tn,
                              std::int64_t tk, const std::string& order,
                              const std::string& variant = "0",
                              const std::string& boundary = "pad") {
  dsl::Strategy s;
  s.set_factor("Tm", tm);
  s.set_factor("Tn", tn);
  s.set_factor("Tk", tk);
  s.set_choice("order", order);
  s.set_choice("variant", variant);
  s.set_choice("boundary", boundary);
  return s;
}

TEST(TiledDim, EvenSplit) {
  const TiledDim d = make_tiled("i", 128, 32);
  EXPECT_EQ(d.count, 4);
  EXPECT_FALSE(d.ragged);
  EXPECT_TRUE(ir::is_const(d.valid()));
  EXPECT_EQ(ir::as_cst(d.valid()), 32);
  EXPECT_EQ(ir::eval(d.base(), {{"i", 3}}), 96);
}

TEST(TiledDim, RaggedSplit) {
  const TiledDim d = make_tiled("i", 100, 32);
  EXPECT_EQ(d.count, 4);
  EXPECT_TRUE(d.ragged);
  EXPECT_EQ(d.remainder(), 4);
  EXPECT_EQ(ir::eval(d.valid(), {{"i", 0}}), 32);
  EXPECT_EQ(ir::eval(d.valid(), {{"i", 3}}), 4);
}

TEST(TiledDim, SwitchLegality) {
  // Remainder 64: divisible by 8, 64/8 = 8 divisible by 4 -> legal.
  EXPECT_TRUE(switch_legal(make_tiled("i", 192, 128), 8, 4));
  // Remainder 4: not divisible by mesh 8.
  EXPECT_FALSE(switch_legal(make_tiled("i", 100, 32), 8, 1));
  // Remainder 8: 8/8 = 1, not a multiple of 4 when vectorized.
  EXPECT_FALSE(switch_legal(make_tiled("i", 40, 32), 8, 4));
  EXPECT_TRUE(switch_legal(make_tiled("i", 40, 32), 8, 1));
  // Even splits are always legal.
  EXPECT_TRUE(switch_legal(make_tiled("i", 64, 32), 8, 4));
}

TEST(DmaInference, InjectsAllocsGetsAndPuts) {
  ops::MatmulOp op(128, 128, 64);
  auto prog = op.lower(matmul_strategy(64, 64, 32, "mnk"));
  ASSERT_NE(prog, nullptr);
  ASSERT_TRUE(infer_dma(prog, cfg, kOpts));
  const auto dmas = ir::find_dmas(prog);
  // A get, B get, C put.
  int gets = 0, puts = 0;
  for (const auto* d : dmas) {
    if (d->kind == ir::StmtKind::DmaGet) ++gets;
    if (d->kind == ir::StmtKind::DmaPut) ++puts;
  }
  EXPECT_EQ(gets, 2);
  EXPECT_EQ(puts, 1);
  EXPECT_TRUE(ir::contains_kind(prog, ir::StmtKind::SpmAlloc));
  EXPECT_TRUE(ir::contains_kind(prog, ir::StmtKind::DmaWait));
  // Gemm is now bound to SPM buffers.
  const ir::GemmAttrs& g = ir::find_gemms(prog)[0]->attrs;
  EXPECT_EQ(g.a_buf, "spm_A");
  EXPECT_EQ(g.c_buf, "spm_C");
}

TEST(DmaInference, HoistsInvariantTransfers) {
  // Order mnk: A depends on (m_o, k_o), B on (k_o, n_o), C on (m_o, n_o).
  // C's put must sit outside the k loop; A and B gets inside it. One m and
  // one n tile: no loop re-fetches an operand, so neither is cached.
  ops::MatmulOp op(64, 64, 128);
  auto prog = op.lower(matmul_strategy(64, 64, 32, "mnk"));
  ASSERT_TRUE(infer_dma(prog, cfg, kOpts));
  const std::string text = ir::print(prog);
  // C put appears after the k loop closes: find positions.
  const auto kpos = text.find("for k_o");
  const auto cput = text.find("dma_put C");
  ASSERT_NE(kpos, std::string::npos);
  ASSERT_NE(cput, std::string::npos);
  EXPECT_GT(cput, kpos);
  // The C accumulator zero precedes the k loop.
  EXPECT_LT(text.find("spm_zero spm_C"), kpos);
}

TEST(DmaInference, OuterReductionRefetchesC) {
  // Order kmn: the reduction loop is outermost; C must be re-fetched and
  // accumulated on every pass after the first.
  ops::MatmulOp op(128, 128, 64);
  auto prog = op.lower(matmul_strategy(64, 64, 32, "kmn"));
  ASSERT_TRUE(infer_dma(prog, cfg, kOpts));
  const std::string text = ir::print(prog);
  EXPECT_NE(text.find("dma_get C"), std::string::npos);
  EXPECT_NE(text.find("if ((k_o < 1))"), std::string::npos);
}

TEST(DmaInference, BoundaryZeroGuardsOnlyWhenRagged) {
  ops::MatmulOp aligned(128, 128, 64);
  auto p1 = aligned.lower(matmul_strategy(64, 64, 32, "mnk"));
  ASSERT_TRUE(infer_dma(p1, cfg, kOpts));
  EXPECT_FALSE(ir::contains_kind(p1, ir::StmtKind::If));

  ops::MatmulOp ragged(100, 128, 64);
  auto p2 = ragged.lower(matmul_strategy(64, 64, 32, "mnk"));
  ASSERT_TRUE(infer_dma(p2, cfg, kOpts));
  EXPECT_TRUE(ir::contains_kind(p2, ir::StmtKind::If));
}

TEST(DmaInference, RejectsInvalidPaddedDims) {
  // Tile N = 16 with a vec-N variant: 16/8 = 2, not a multiple of 4.
  ops::MatmulOp op(64, 16, 32);
  auto prog = op.lower(matmul_strategy(64, 16, 32, "mnk", "4"));
  ASSERT_NE(prog, nullptr);
  EXPECT_FALSE(infer_dma(prog, cfg, kOpts));
}

TEST(DmaInference, RowMajorOperandSwapsDistribution) {
  // Variant 1: A row-major -- its DMA view is transposed and distributed
  // with view rows mapped to column ids.
  ops::MatmulOp op(64, 64, 32);
  auto prog = op.lower(matmul_strategy(64, 64, 32, "mnk", "1"));
  ASSERT_TRUE(infer_dma(prog, cfg, kOpts));
  bool saw_swapped = false;
  for (const ir::Dma* d : ir::find_dmas(prog))
    if (d->kind == ir::StmtKind::DmaGet && d->attrs.spm_buf == "spm_A")
      saw_swapped = !d->attrs.rows_to_rid;
  EXPECT_TRUE(saw_swapped);
}

/// The statements of a Seq.
const std::vector<ir::StmtPtr>& stmts(const ir::StmtPtr& seq) {
  return seq->as<ir::Seq>().body;
}

/// The body of a For.
const ir::StmtPtr& loop_body(const ir::StmtPtr& loop) {
  return loop->as<ir::For>().body;
}

/// The loop variables of a Seq's For children, in order.
std::vector<std::string> loops_in(const ir::StmtPtr& seq) {
  std::vector<std::string> out;
  for (const ir::StmtPtr& s : stmts(seq))
    if (s->is<ir::For>()) out.push_back(s->as<ir::For>().var.name());
  return out;
}

/// The SPM buffers of the cache-fill gets in a subtree.
std::vector<std::string> fill_bufs(const ir::StmtPtr& s) {
  std::vector<std::string> out;
  for (const ir::Dma* d : ir::find_dmas(s))
    if (d->attrs.cache_fill) out.push_back(d->attrs.spm_buf);
  return out;
}

TEST(DmaInference, CachesMatmulOperandsAheadOfTheirReuseLoops) {
  // Order mnk, two m and two n tiles: the n loop would re-fetch A's row
  // panel and the m loop all of B. Each is fetched once, ahead of the
  // loop that reuses it, one tile per fill iteration.
  ops::MatmulOp op(128, 128, 128);
  auto prog = op.lower(matmul_strategy(64, 64, 32, "mnk"));
  const std::optional<DmaPlan> plan = plan_dma(prog, cfg, kOpts);
  ASSERT_TRUE(plan.has_value());
  // A reads (m_o, k_o): R = n_o, filled over k_o (4 tiles of 64x32).
  EXPECT_EQ(plan->a.cache_at, 1u);
  EXPECT_EQ(plan->a.fill, std::vector<std::size_t>{2});
  EXPECT_EQ(plan->a.slab_tiles, 4);
  // B reads (k_o, n_o): R = m_o, filled over n_o and k_o (8 tiles).
  EXPECT_EQ(plan->b.cache_at, 0u);
  EXPECT_EQ(plan->b.fill, (std::vector<std::size_t>{1, 2}));
  EXPECT_EQ(plan->b.slab_tiles, 8);
  EXPECT_FALSE(plan->c.cached());

  ASSERT_TRUE(infer_dma(prog, cfg, kOpts));
  // Root: B's fill nest, then the m loop; in m: A's, then the n loop.
  EXPECT_EQ(loops_in(prog), (std::vector<std::string>{"n_o", "m_o"}));
  const std::vector<ir::StmtPtr>& root = stmts(prog);
  const ir::StmtPtr& m = root.back();
  EXPECT_EQ(loops_in(loop_body(m)), (std::vector<std::string>{"k_o", "n_o"}));
  EXPECT_EQ(fill_bufs(root[root.size() - 2]),
            std::vector<std::string>{"spm_B"});
  EXPECT_EQ(fill_bufs(stmts(loop_body(m))[0]),
            std::vector<std::string>{"spm_A"});
  // Slabs of 4 and 8 tiles of 32 floats per CPE; the gemm reads its tile.
  const ir::GemmAttrs& g = ir::find_gemms(prog)[0]->attrs;
  EXPECT_EQ(ir::eval(g.a_off, {{"k_o", 3}}), 3 * 32);
  EXPECT_EQ(ir::eval(g.b_off, {{"n_o", 1}, {"k_o", 2}}), 6 * 32);
  // C, written back from two halves over its four tiles, takes 2 x 64.
  EXPECT_TRUE(plan->c.overlapped());
  EXPECT_EQ(ir::spm_footprint(prog), 4 * 32 + 8 * 32 + 2 * 64);

  // One get per tile: B's 8 once, A's 4 once per m tile, plus 4 C puts.
  auto built = op.lower(matmul_strategy(64, 64, 32, "mnk"));
  ASSERT_TRUE(optimize(built, cfg));
  sim::CoreGroup cg(cfg);
  cg.mem().set_materialize(false);
  const dsl::BoundTensors bt = rt::bind_tensors(cg, op);
  const rt::RunResult r =
      rt::Interpreter(cg, sim::ExecMode::TimingOnly).run(built, bt);
  EXPECT_EQ(r.stats.dma_transfers, 8 + 2 * 4 + 4);
}

TEST(DmaInference, CachesImplicitConvWeightsAndInput) {
  // Order rcouvi: the weights (o, u, v, i) are re-read on every output
  // row and column tile, the input on every output-channel tile.
  ops::ConvShape s;
  s.batch = 8;
  s.ni = 64;
  s.no = 64;
  s.ri = 10;
  s.ci = 10;
  ops::ImplicitConvOp op(s);
  dsl::Strategy st;
  st.set_factor("Tno", 32);
  st.set_factor("Tni", 32);
  st.set_factor("Tco", 4);
  st.set_choice("wlayout", "no_major");
  st.set_choice("order", "rcouvi");
  st.set_choice("variant", "6");
  st.set_choice("boundary", "pad");
  auto prog = op.lower(st);
  const std::optional<DmaPlan> plan = plan_dma(prog, cfg, kOpts);
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->a.cache_at, 0u);
  EXPECT_EQ(plan->a.fill, (std::vector<std::size_t>{2, 3, 4, 5}));
  EXPECT_EQ(plan->a.slab_tiles, 2 * 3 * 3 * 2);
  EXPECT_EQ(plan->b.cache_at, 2u);
  EXPECT_EQ(plan->b.fill, (std::vector<std::size_t>{3, 4, 5}));
  EXPECT_EQ(plan->b.slab_tiles, 3 * 3 * 2);

  ASSERT_TRUE(infer_dma(prog, cfg, kOpts));
  // Root: the weights' fill nest, then the r loop; in c_o: the input's,
  // then the o_o loop.
  EXPECT_EQ(loops_in(prog), (std::vector<std::string>{"o_o", "r"}));
  const std::vector<ir::StmtPtr>& root = stmts(prog);
  EXPECT_EQ(fill_bufs(root[root.size() - 2]),
            std::vector<std::string>{"spm_A"});
  const ir::StmtPtr& c = stmts(loop_body(root.back()))[0];
  ASSERT_EQ(c->as<ir::For>().var.name(), "c_o");
  EXPECT_EQ(loops_in(loop_body(c)), (std::vector<std::string>{"u", "o_o"}));
  EXPECT_EQ(fill_bufs(stmts(loop_body(c))[0]),
            std::vector<std::string>{"spm_B"});
  // 16 floats per CPE per tile; the tile index runs over (o, u, v, i) and
  // (u, v, i).
  const ir::GemmAttrs& g = ir::find_gemms(prog)[0]->attrs;
  const ir::Env at = {{"o_o", 1}, {"u", 2}, {"v", 1}, {"i_o", 1}};
  EXPECT_EQ(ir::eval(g.a_off, at), (((1 * 3 + 2) * 3 + 1) * 2 + 1) * 16);
  EXPECT_EQ(ir::eval(g.b_off, at), ((2 * 3 + 1) * 2 + 1) * 16);
}

TEST(DmaInference, NoCacheWhenNoLoopRefetches) {
  // One m and one n tile: the loops A and B do not read run once.
  ops::MatmulOp op(64, 64, 128);
  auto prog = op.lower(matmul_strategy(64, 64, 32, "mnk"));
  const std::optional<DmaPlan> plan = plan_dma(prog, cfg, kOpts);
  ASSERT_TRUE(plan.has_value());
  EXPECT_FALSE(plan->a.cached());
  EXPECT_FALSE(plan->b.cached());
  ASSERT_TRUE(infer_dma(prog, cfg, kOpts));
  EXPECT_TRUE(fill_bufs(prog).empty());
}

TEST(DmaInference, NoCacheWhenTheSlabExceedsTheKernelShare) {
  // Two n tiles re-read A's row panel: K/64 tiles of 64 floats per CPE.
  // At K = 1024 the slab fits the kernel share; at K = 8192 it alone
  // exceeds it, so A is fetched per n tile as before.
  ops::MatmulOp fits(64, 128, 1024);
  auto p1 = fits.lower(matmul_strategy(64, 64, 64, "mnk"));
  const std::optional<DmaPlan> plan1 = plan_dma(p1, cfg, kOpts);
  ASSERT_TRUE(plan1.has_value());
  EXPECT_TRUE(plan1->a.cached());
  EXPECT_EQ(plan1->a.alloc_floats(), 1024);

  ops::MatmulOp big(64, 128, 8192);
  auto p2 = big.lower(matmul_strategy(64, 64, 64, "mnk"));
  const std::optional<DmaPlan> plan2 = plan_dma(p2, cfg, kOpts);
  ASSERT_TRUE(plan2.has_value());
  EXPECT_GT(8192, cfg.kernel_spm_floats() - kReserve);
  EXPECT_FALSE(plan2->a.cached());
  ASSERT_TRUE(infer_dma(p2, cfg, kOpts));
  EXPECT_TRUE(fill_bufs(p2).empty());
}

TEST(DoubleBuffer, TransformsInnermostGetLoop) {
  // One m and one n tile, so DMA inference caches neither operand and both
  // gets stay in the k loop.
  ops::MatmulOp op(64, 64, 128);
  auto prog = op.lower(matmul_strategy(64, 64, 32, "mnk"));
  ASSERT_TRUE(infer_dma(prog, cfg, kOpts));
  ASSERT_TRUE(apply_double_buffer(prog));
  const std::string text = ir::print(prog);
  EXPECT_NE(text.find("// prefetched"), std::string::npos);
  // A and B allocations doubled; C not.
  int doubled = 0;
  ir::visit(prog, [&](const ir::StmtPtr& n) {
    if (n->is<ir::SpmAlloc>() && n->as<ir::SpmAlloc>().double_buffered)
      ++doubled;
  });
  EXPECT_EQ(doubled, 2);
  // Prefetch guard on the next iteration.
  EXPECT_NE(text.find("((k_o + 1) < 4)"), std::string::npos);
  // Gemm reads the current parity.
  EXPECT_NE(text.find("A=spm_A+((k_o%2)*"), std::string::npos);
}

/// The Seq holding the program's C put and the put's index there.
std::pair<const ir::Seq*, std::size_t> put_site(const ir::StmtPtr& s) {
  if (s->is<ir::For>()) return put_site(s->as<ir::For>().body);
  if (!s->is<ir::Seq>()) return {nullptr, 0};
  const ir::Seq& seq = s->as<ir::Seq>();
  for (std::size_t i = 0; i < seq.body.size(); ++i) {
    if (seq.body[i]->kind == ir::StmtKind::DmaPut) return {&seq, i};
    const auto r = put_site(seq.body[i]);
    if (r.first != nullptr) return r;
  }
  return {nullptr, 0};
}

/// The C buffer's allocation.
const ir::SpmAlloc& c_alloc(const ir::StmtPtr& prog) {
  for (const ir::StmtPtr& n : stmts(prog))
    if (n->is<ir::SpmAlloc>() && n->as<ir::SpmAlloc>().buf_name == "spm_C")
      return n->as<ir::SpmAlloc>();
  throw CheckError("no spm_C allocation");
}

/// True when the C put is followed by a wait on its own constant slot and
/// spm_C has one half: today's synchronous write-back.
bool put_then_wait(const ir::StmtPtr& prog) {
  const auto [seq, i] = put_site(prog);
  if (seq == nullptr || i + 1 >= seq->body.size()) return false;
  const ir::Expr& reply = seq->body[i]->as<ir::Dma>().attrs.reply;
  const ir::StmtPtr& next = seq->body[i + 1];
  return !c_alloc(prog).double_buffered && ir::is_const(reply) &&
         next->kind == ir::StmtKind::DmaWait &&
         ir::as_cst(next->as<ir::DmaWait>().reply) == ir::as_cst(reply);
}

TEST(DoubleBuffer, WritesBackSeveralCTilesFromTwoHalves) {
  // Two m and two n tiles: four C tiles, numbered t = 2 m_o + n_o across
  // both loops. Both inputs are cached ahead of the n loop, so no
  // synchronous transfer runs between two tiles.
  ops::MatmulOp op(128, 128, 64);
  auto prog = op.lower(matmul_strategy(64, 64, 32, "mnk"));
  ASSERT_TRUE(optimize(prog, cfg));
  EXPECT_TRUE(c_alloc(prog).double_buffered);
  const std::int64_t half = align_up(c_alloc(prog).buf_floats, 8);
  const std::int64_t slot0 = ir::kPrefetchReplyBase + 2 * 2;

  // Tile t puts half t % 2 on that half's slot and does not wait.
  const auto [seq, put_idx] = put_site(prog);
  ASSERT_NE(seq, nullptr);
  EXPECT_EQ(put_idx + 1, seq->body.size());
  const ir::DmaAttrs& put = seq->body[put_idx]->as<ir::Dma>().attrs;
  // Just before zeroing its half, tile t waits for tile t - 2's put.
  std::size_t zero = 0;
  while (!seq->body[zero]->is<ir::SpmZero>()) ++zero;
  ASSERT_GT(zero, 0u);
  const ir::If& guard = seq->body[zero - 1]->as<ir::If>();
  const ir::Expr& waited =
      stmts(guard.then_s)[0]->as<ir::DmaWait>().reply;
  const ir::GemmAttrs& g = ir::find_gemms(prog)[0]->attrs;
  for (std::int64_t t = 0; t < 4; ++t) {
    const ir::Env at = {{"m_o", t / 2}, {"n_o", t % 2}, {"k_o", 0}};
    EXPECT_EQ(ir::eval(put.reply, at), slot0 + t % 2) << t;
    EXPECT_EQ(ir::eval(put.spm_off, at), t % 2 * half) << t;
    EXPECT_EQ(ir::eval(g.c_off, at), t % 2 * half) << t;
    EXPECT_EQ(
        ir::eval(seq->body[zero]->as<ir::SpmZero>().off, at), t % 2 * half)
        << t;
    EXPECT_EQ(ir::eval(guard.cond, at) != 0, t >= 2) << t;
    EXPECT_EQ(ir::eval(waited, at), slot0 + t % 2) << t;
  }

  // One drain of both halves after the outermost loop.
  const std::vector<ir::StmtPtr>& root = stmts(prog);
  std::size_t m = 0;
  while (!root[m]->is<ir::For>() ||
         root[m]->as<ir::For>().var.name() != "m_o")
    ++m;
  ASSERT_EQ(m + 3, root.size());
  EXPECT_EQ(ir::as_cst(root[m + 1]->as<ir::DmaWait>().reply), slot0);
  EXPECT_EQ(ir::as_cst(root[m + 2]->as<ir::DmaWait>().reply), slot0 + 1);
  // The loop around the put is priced as a double-buffered loop.
  EXPECT_TRUE(stmts(loop_body(root[m]))
                  .back()
                  ->as<ir::For>()
                  .prefetched);
}

TEST(DoubleBuffer, KeepsPutWaitForOneTileARefetchOrNoPrefetch) {
  // One C tile: nothing to overlap the put with.
  ops::MatmulOp one(64, 64, 128);
  auto p1 = one.lower(matmul_strategy(64, 64, 32, "mnk"));
  ASSERT_TRUE(optimize(p1, cfg));
  EXPECT_TRUE(put_then_wait(p1));
  // Order kmn: the k loop encloses C's scope, which re-fetches the tile.
  ops::MatmulOp op(128, 128, 64);
  auto p2 = op.lower(matmul_strategy(64, 64, 32, "kmn"));
  ASSERT_TRUE(optimize(p2, cfg));
  EXPECT_TRUE(put_then_wait(p2));
  // Prefetch off: today's program.
  auto p3 = op.lower(matmul_strategy(64, 64, 32, "mnk"));
  OptOptions o;
  o.prefetch = false;
  ASSERT_TRUE(optimize(p3, cfg, o));
  EXPECT_TRUE(put_then_wait(p3));
}

TEST(DoubleBuffer, NoGetsNoTransform) {
  auto prog =
      ir::make_seq({ir::make_for("i", ir::cst(4), ir::make_seq())});
  EXPECT_FALSE(apply_double_buffer(prog));
}

TEST(Coalesce, FitsSpmBudget) {
  auto small = ir::make_seq({ir::make_spm_alloc("b", 1000)});
  EXPECT_TRUE(fits_spm(small, cfg));
  auto big = ir::make_seq({ir::make_spm_alloc("b", cfg.spm_floats())});
  EXPECT_FALSE(fits_spm(big, cfg));
}

TEST(PassManager, PrunesOverBudgetCandidates) {
  // 512x512 A/B/C tiles + double buffering cannot fit in 64 KB.
  ops::MatmulOp op(1024, 1024, 1024);
  auto prog = op.lower(matmul_strategy(512, 512, 512, "mnk"));
  ASSERT_NE(prog, nullptr);
  EXPECT_FALSE(optimize(prog, cfg));
}

TEST(PassManager, PrefetchCanBeDisabled) {
  ops::MatmulOp op(128, 128, 128);
  auto prog = op.lower(matmul_strategy(64, 64, 32, "mnk"));
  OptOptions o;
  o.prefetch = false;
  ASSERT_TRUE(optimize(prog, cfg, o));
  bool prefetched = false;
  ir::visit(prog, [&](const ir::StmtPtr& n) {
    prefetched =
        prefetched || (n->is<ir::For>() && n->as<ir::For>().prefetched);
  });
  EXPECT_FALSE(prefetched);
}

}  // namespace
}  // namespace swatop::opt

#include "opt/simplify.hpp"

namespace swatop::opt {
namespace {

TEST(Simplify, RemovesUnitLoopsAndSubstitutes) {
  // for i in [0,1): for j in [0,4): zero(buf + i*100 + j)
  auto inner = ir::make_seq({ir::make_spm_zero(
      "b", ir::add(ir::mul(ir::var("i"), ir::cst(100)), ir::var("j")),
      ir::cst(8))});
  auto j = ir::make_for("j", ir::cst(4), inner);
  auto i = ir::make_for("i", ir::cst(1), ir::make_seq({j}));
  auto root = ir::make_seq({ir::make_spm_alloc("b", 64), i});
  eliminate_unit_loops(root);
  // The i loop is gone; j remains; the offset folded i = 0.
  const auto vars = ir::loop_vars(root);
  ASSERT_EQ(vars.size(), 1u);
  EXPECT_EQ(vars[0], "j");
  bool found = false;
  ir::visit(root, [&](const ir::StmtPtr& n) {
    if (n->is<ir::SpmZero>()) {
      found = true;
      const ir::Expr& off = n->as<ir::SpmZero>().off;
      EXPECT_FALSE(ir::uses_var(off, "i"));
      EXPECT_EQ(ir::eval(off, {{"j", 3}}), 3);
    }
  });
  EXPECT_TRUE(found);
}

/// A leaf statement: zero 8 floats of `buf`.
ir::StmtPtr zero_leaf(const char* buf) {
  return ir::make_spm_zero(buf, ir::cst(0), ir::cst(8));
}

TEST(Simplify, FlattensNestedSeqs) {
  auto root = ir::make_seq(
      {ir::make_for("u", ir::cst(1),
                    ir::make_seq({zero_leaf("a"), zero_leaf("b")})),
       zero_leaf("c")});
  eliminate_unit_loops(root);
  ASSERT_EQ(root->kind, ir::StmtKind::Seq);
  std::string bufs;
  for (const auto& c : root->as<ir::Seq>().body)
    bufs += c->as<ir::SpmZero>().buf_name;
  EXPECT_EQ(bufs, "abc");
}

TEST(Simplify, KeepsMultiIterationLoops) {
  auto root = ir::make_seq({ir::make_for(
      "i", ir::cst(2), ir::make_seq({zero_leaf("x")}))});
  eliminate_unit_loops(root);
  EXPECT_EQ(ir::loop_vars(root).size(), 1u);
}

TEST(DoubleBuffer, MultiLevelPrefetch) {
  // Order kmn puts the k reduction outermost: A's get lands in the m loop,
  // B's in the n loop -- both levels must be double-buffered. With one m
  // tile the m loop goes (A's get moves up to the k loop) and no loop
  // re-fetches B, so neither operand is cached.
  ops::MatmulOp op(64, 256, 128);
  dsl::Strategy s;
  s.set_factor("Tm", 64);
  s.set_factor("Tn", 64);
  s.set_factor("Tk", 32);
  s.set_choice("order", "kmn");
  s.set_choice("variant", "0");
  s.set_choice("boundary", "pad");
  auto prog = op.lower(s);
  ASSERT_TRUE(infer_dma(prog, cfg, kOpts));
  eliminate_unit_loops(prog);
  ASSERT_TRUE(apply_double_buffer(prog));
  int prefetched_loops = 0;
  ir::visit(prog, [&](const ir::StmtPtr& n) {
    if (n->is<ir::For>() && n->as<ir::For>().prefetched) ++prefetched_loops;
  });
  EXPECT_GE(prefetched_loops, 2);
}

}  // namespace
}  // namespace swatop::opt
