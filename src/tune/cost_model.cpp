#include "tune/cost_model.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/check.hpp"
#include "common/math_util.hpp"
#include "opt/dma_inference.hpp"
#include "rt/dma_expand.hpp"

namespace swatop::tune {

namespace ir = swatop::ir;

namespace {

/// The visits the walk makes to a statement inside loops[0, depth) of a
/// chain, each with its weight: iteration 0 of an n-iteration loop n-1
/// times and iteration n-1 once -- or, for the loop `prefetch_at` that
/// double-buffers the statement (a get), iteration 0 once (the prologue)
/// and iteration 1 n-1 times. A loop whose variable neither the leaf nor a
/// deeper loop's extent reads only multiplies by its trip count.
class LoopWeights {
 public:
  static constexpr std::size_t kNone = SIZE_MAX;

  LoopWeights(const std::vector<const ir::Stmt*>& loops, std::size_t depth,
              std::size_t prefetch_at, std::initializer_list<ir::Expr> reads,
              const std::vector<ir::VarId>& read_vars = {})
      : loops_(loops), depth_(depth), prefetch_at_(prefetch_at) {
    std::vector<ir::VarId> vars;
    for (std::size_t i = 0; i < depth; ++i) vars.push_back(loops[i]->var);
    for (const ir::Expr& e : reads) read_ |= ir::uses_vars(e, vars);
    for (std::size_t k = 1; k < depth; ++k)
      read_ |= ir::uses_vars(loops[k]->extent, vars);
    for (std::size_t i = 0; i < depth; ++i)
      for (const ir::VarId r : read_vars)
        if (r == vars[i]) read_ |= std::uint64_t{1} << i;
  }

  /// Sum of leaf(env) over the visits, times their weights.
  template <typename Leaf>
  double sum(const Leaf& leaf) const {
    ir::Env env;
    return sum_from(0, env, leaf);
  }

 private:
  template <typename Leaf>
  double sum_from(std::size_t i, ir::Env& env, const Leaf& leaf) const {
    if (i == depth_) return leaf(env);
    const ir::Stmt& loop = *loops_[i];
    const std::int64_t n = ir::eval(loop.extent, env);
    if (n <= 0) return 0.0;
    if ((read_ >> i & 1) == 0)
      return static_cast<double>(n) * sum_from(i + 1, env, leaf);
    const bool pf = i == prefetch_at_;
    const std::int64_t visits[2][2] = {{0, pf ? 1 : n - 1},
                                       {pf ? 1 : n - 1, pf ? n - 1 : 1}};
    double s = 0.0;
    for (const auto& [iter, weight] : visits) {
      if (weight == 0) continue;
      env[loop.var] = iter;
      s += static_cast<double>(weight) * sum_from(i + 1, env, leaf);
    }
    env.erase(loop.var);
    return s;
  }

  const std::vector<const ir::Stmt*>& loops_;
  std::size_t depth_;
  std::size_t prefetch_at_;
  std::uint64_t read_ = 0;  ///< bit i: loop i's variable is read
};

/// The fewest DMA cycles a transfer of `d` at `env` can cost: Eq. (1)'s
/// latency plus whole transactions at peak bandwidth, per CPE block
/// (rt::expand_dma) ceil(bytes / transaction) for each contiguous column,
/// or one transaction per element when the row stride is not 1.
double min_transfer_cycles(const ir::DmaAttrs& d, const ir::Env& env,
                           const sim::SimConfig& cfg) {
  const std::int64_t rows = ir::eval(d.view.rows, env);
  const std::int64_t cols = ir::eval(d.view.cols, env);
  const std::int64_t tr = ir::eval(d.rows_p, env) / cfg.mesh_rows;
  const std::int64_t tc = ir::eval(d.cols_p, env) / cfg.mesh_cols;
  const auto txn = static_cast<std::int64_t>(cfg.dram_transaction_bytes);
  // Transactions of block-row br's valid rows, per valid column.
  auto col_txns = [&](std::int64_t br) {
    const std::int64_t vr = std::clamp<std::int64_t>(rows - br * tr, 0, tr);
    return d.view.stride_r == 1
               ? ceil_div(vr * static_cast<std::int64_t>(sizeof(float)), txn)
               : vr;
  };
  auto valid_cols = [&](std::int64_t bc) {
    return std::clamp<std::int64_t>(cols - bc * tc, 0, tc);
  };
  // Each (block-row, block-col) pair of the mesh goes to one CPE.
  const int nbr = d.rows_to_rid ? cfg.mesh_rows : cfg.mesh_cols;
  const int nbc = d.rows_to_rid ? cfg.mesh_cols : cfg.mesh_rows;
  std::int64_t per_col = 0, ncols = 0;
  for (int br = 0; br < nbr; ++br) per_col += col_txns(br);
  for (int bc = 0; bc < nbc; ++bc) ncols += valid_cols(bc);
  const std::int64_t txns = per_col * ncols;
  return cfg.dma_latency_cycles +
         static_cast<double>(txns * txn) / cfg.dma_bytes_per_cycle();
}

}  // namespace

StaticCost CostModel::estimate(const ir::StmtPtr& root) const {
  ir::Env env;
  return walk(root, env);
}

CostBound CostModel::lower_bound(const ir::StmtPtr& lowered,
                                 bool prefetch) const {
  const std::optional<opt::DmaPlan> plan = opt::plan_dma(lowered, cfg_);
  if (!plan) return {};
  const std::vector<const ir::Stmt*>& loops = plan->loops;

  const ir::GemmAttrs& g = plan->gemm->gemm;
  const double compute =
      LoopWeights(loops, loops.size(), LoopWeights::kNone, {g.M, g.N, g.K})
          .sum([&](const ir::Env& env) {
            const std::int64_t M = ir::eval(g.M, env);
            const std::int64_t N = ir::eval(g.N, env);
            const std::int64_t K = ir::eval(g.K, env);
            return M > 0 && N > 0 && K > 0 ? gm_.cycles(g.variant, M, N, K)
                                           : 0.0;
          });

  double dma = 0.0;
  for (const opt::OperandPlan* p : {&plan->a, &plan->b}) {
    // Double buffering moves a get to its innermost enclosing loop that
    // unit-loop elimination keeps.
    std::size_t at = LoopWeights::kNone;
    for (std::size_t i = 0; prefetch && i < p->level; ++i) {
      const ir::Expr& n = loops[i]->extent;
      if (!(ir::is_const(n) && ir::as_cst(n) == 1)) at = i;
    }
    const ir::DmaAttrs& d = p->dma;
    dma += LoopWeights(loops, p->level, at,
                       {d.view.rows, d.view.cols, d.rows_p, d.cols_p})
               .sum([&](const ir::Env& env) {
                 return min_transfer_cycles(d, env, cfg_);
               });
  }
  // The C put, plus its re-fetch on every pass but the first when a
  // reduction loop encloses it.
  const ir::DmaAttrs& c = plan->c.dma;
  const std::vector<ir::VarId>& outer = plan->outer_reductions;
  dma += LoopWeights(loops, plan->c.level, LoopWeights::kNone,
                     {c.view.rows, c.view.cols, c.rows_p, c.cols_p}, outer)
             .sum([&](const ir::Env& env) {
               const double t = min_transfer_cycles(c, env, cfg_);
               const bool refetch =
                   std::any_of(outer.begin(), outer.end(),
                               [&](ir::VarId v) { return *env.find(v) > 0; });
               return refetch ? 2.0 * t : t;
             });

  // The bound sums the walk's terms in another order.
  constexpr double kRounding = 1.0 - 1e-9;
  return {kRounding * dma, kRounding * compute};
}

StaticCost CostModel::walk(const ir::StmtPtr& s, ir::Env& env) const {
  StaticCost c;
  if (s == nullptr) return c;
  switch (s->kind) {
    case ir::StmtKind::Seq:
      for (const ir::StmtPtr& b : s->body) c += walk(b, env);
      return c;
    case ir::StmtKind::For: {
      const std::int64_t n = ir::eval(s->extent, env);
      if (n <= 0) return c;
      // An iteration of a double-buffered loop lasts as long as the longer
      // of its cluster time and its transfers, which the DMA engine
      // serializes while the cluster works.
      auto iteration = [&](std::int64_t i) {
        env[s->var] = i;
        StaticCost it = walk(s->for_body, env);
        if (s->prefetched)
          it.elapsed_cycles = std::max(it.elapsed_cycles, it.transfer_cycles);
        return it;
      };
      // (n-1) first-shape iterations plus the last iteration evaluated
      // separately: this prices ragged boundary tiles and the final
      // iteration's skipped prefetch exactly, while staying static.
      c = iteration(0);
      if (n > 1) {
        const double w = static_cast<double>(n - 1);
        c.compute_cycles *= w;
        c.transfer_cycles *= w;
        c.elapsed_cycles *= w;
        c += iteration(n - 1);
      }
      env.erase(s->var);
      return c;
    }
    case ir::StmtKind::If:
      // Static approximation: follow the branch taken at the current
      // (first-iteration) environment.
      return walk(ir::eval(s->cond, env) != 0 ? s->then_s : s->else_s, env);
    case ir::StmtKind::SpmZero:
      c.compute_cycles = static_cast<double>(ir::eval(s->zero_floats, env)) /
                         cfg_.vector_width;
      c.elapsed_cycles = c.compute_cycles;
      return c;
    case ir::StmtKind::DmaGet:
    case ir::StmtKind::DmaPut: {
      // Tensor bases are transaction-aligned; 0 is representative.
      const rt::DmaGeometry g = rt::evaluate_dma(s->dma, env, 0, cfg_);
      c.transfer_cycles =
          dma_cost_cache_.get(s->dma, g, engine_, cfg_).total_cycles();
      // The cluster waits on a transfer on a constant reply slot before it
      // goes on: a get;wait / put;wait pair, or a prologue get the first
      // iteration waits on at once. Double buffering gives its in-loop
      // prefetches parity slots; their enclosing loop prices them.
      if (ir::is_const(s->dma.reply)) c.elapsed_cycles = c.transfer_cycles;
      if (s->kind == ir::StmtKind::DmaPut && s->dma.epi.any()) {
        // Mirror the runtime's epilogue pricing: a synchronous residual
        // re-read of the same tile, plus the vector ops on the tile. The
        // once-per-run bias fetch is noise at this granularity and skipped.
        const ir::EpilogueAttrs& e = s->dma.epi;
        if (e.residual) {
          ir::DmaAttrs rd;
          rd.view = e.res;
          rd.dir = ir::Direction::MemToSpm;
          rd.rows_to_rid = s->dma.rows_to_rid;
          rt::DmaGeometry rg = g;
          rg.base = ir::eval(e.res.base, env);
          const double t =
              dma_cost_cache_.get(rd, rg, engine_, cfg_).total_cycles();
          c.transfer_cycles += t;
          c.elapsed_cycles += t;
        }
        const int nops =
            (e.bias ? 1 : 0) + (e.residual ? 1 : 0) + (e.relu ? 1 : 0);
        c.compute_cycles = static_cast<double>(nops) *
                           static_cast<double>(g.tr) *
                           static_cast<double>(g.tc) / cfg_.vector_width;
        c.elapsed_cycles += c.compute_cycles;
      }
      return c;
    }
    case ir::StmtKind::Gemm: {
      const ir::GemmAttrs& gm = s->gemm;
      const std::int64_t M = ir::eval(gm.M, env);
      const std::int64_t N = ir::eval(gm.N, env);
      const std::int64_t K = ir::eval(gm.K, env);
      if (M > 0 && N > 0 && K > 0) {
        c.compute_cycles = gm_.cycles(gm.variant, M, N, K);
        c.elapsed_cycles = c.compute_cycles;
      }
      return c;
    }
    case ir::StmtKind::SpmAlloc:
    case ir::StmtKind::DmaWait:
    case ir::StmtKind::Comment:
      return c;
  }
  SWATOP_UNREACHABLE("bad stmt kind in cost model");
}

}  // namespace swatop::tune
