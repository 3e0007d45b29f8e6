#include "tune/cost_model.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/check.hpp"
#include "common/math_util.hpp"
#include "opt/dma_inference.hpp"
#include "rt/dma_expand.hpp"

namespace swatop::tune {

namespace ir = swatop::ir;

namespace {

/// A bound term in two parts (LoopWeights::Split says which visits go
/// where).
struct Parts {
  double first = 0.0;
  double second = 0.0;

  double total() const { return first + second; }
  Parts& operator+=(const Parts& o) {
    first += o.first;
    second += o.second;
    return *this;
  }
};

Parts scaled(double w, const Parts& p) { return {w * p.first, w * p.second}; }

/// The loops [0, n) of a chain, as a member mask.
std::uint64_t first_loops(std::size_t n) {
  return n >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << n) - 1;
}

/// The visits the walk makes to a statement inside the loops of `loops`
/// that `members` selects (bit i: loops[i]; the others do not enclose it),
/// each with its weight: iteration 0 of an n-iteration loop n-1 times and
/// iteration n-1 once. A loop whose variable neither the leaf nor a deeper
/// loop's extent reads only multiplies by its trip count. Every visit lands
/// in the first part, except at the loop `split_at`:
///  - Prefetch (the loop double-buffers the statement, a get): iteration 0
///    once, the prologue, in the first part; iteration 1 n-1 times, the
///    prefetches the walk prices at the first iteration, in the second;
///  - Last: the usual visits, iteration n-1's in the second part.
class LoopWeights {
 public:
  static constexpr std::size_t kNone = opt::OperandPlan::kSync;
  enum class Split { Prefetch, Last };

  /// `vars` holds the variables of `loops`.
  LoopWeights(const std::vector<const ir::For*>& loops,
              std::span<const ir::VarId> vars, std::uint64_t members,
              std::size_t split_at, Split how,
              std::initializer_list<ir::Expr> reads,
              const std::vector<ir::VarId>& read_vars = {})
      : loops_(loops), members_(members), split_at_(split_at), how_(how) {
    for (const ir::Expr& e : reads) read_ |= ir::uses_vars(e, vars);
    for (std::size_t k = 0; k < loops_.size(); ++k)
      if ((members_ >> k & 1) != 0)
        read_ |= ir::uses_vars(loops_[k]->extent, vars);
    for (std::size_t i = 0; i < vars.size(); ++i)
      for (const ir::VarId r : read_vars)
        if (r == vars[i]) read_ |= std::uint64_t{1} << i;
  }

  /// Sum of leaf(env) over the visits, times their weights.
  template <typename Leaf>
  Parts sum(const Leaf& leaf) const {
    ir::Env env;
    return sum_from(0, env, leaf);
  }

 private:
  template <typename Leaf>
  Parts sum_from(std::size_t i, ir::Env& env, const Leaf& leaf) const {
    while (i < loops_.size() && (members_ >> i & 1) == 0) ++i;
    if (i == loops_.size()) return {leaf(env), 0.0};
    const ir::For& loop = *loops_[i];
    const std::int64_t n = ir::eval(loop.extent, env);
    if (n <= 0) return {};
    const bool split = i == split_at_;
    if (!split && (read_ >> i & 1) == 0)
      return scaled(static_cast<double>(n), sum_from(i + 1, env, leaf));
    const bool pf = split && how_ == Split::Prefetch;
    const std::int64_t visits[2][2] = {{0, pf ? 1 : n - 1},
                                       {pf ? 1 : n - 1, pf ? n - 1 : 1}};
    Parts p;
    for (int v = 0; v < 2; ++v) {
      const auto [iter, weight] = visits[v];
      if (weight == 0) continue;
      env[loop.var] = iter;
      const Parts inner =
          scaled(static_cast<double>(weight), sum_from(i + 1, env, leaf));
      if (split)
        (v == 0 ? p.first : p.second) += inner.total();
      else
        p += inner;
    }
    env.erase(loop.var);
    return p;
  }

  const std::vector<const ir::For*>& loops_;
  std::uint64_t members_;
  std::size_t split_at_;
  Split how_;
  std::uint64_t read_ = 0;  ///< bit i: loop i's variable is read
};

/// The fewest DMA cycles a transfer of view `v` on the tile grid and mesh
/// distribution of `d` can cost at `env`: Eq. (1)'s latency plus whole
/// transactions at peak bandwidth, per CPE block (rt::cpe_block)
/// ceil(bytes / transaction) for each contiguous column, or one
/// transaction per element when the row stride is not 1. A block's valid
/// rows depend only on its block row and its valid columns only on its
/// block column, so the sum over blocks factors into the two.
double min_transfer_cycles(const ir::ViewAttrs& v, const ir::DmaAttrs& d,
                           const ir::Env& env, const sim::SimConfig& cfg) {
  const std::int64_t rows = ir::eval(v.rows, env);
  const std::int64_t cols = ir::eval(v.cols, env);
  const std::int64_t tr = ir::eval(d.rows_p, env) / cfg.mesh_rows;
  const std::int64_t tc = ir::eval(d.cols_p, env) / cfg.mesh_cols;
  const auto txn = static_cast<std::int64_t>(cfg.dram_transaction_bytes);
  // Transactions of block-row br's valid rows, per valid column.
  auto col_txns = [&](std::int64_t br) {
    const std::int64_t vr = rt::block_extent(rows, br, tr);
    return v.stride_r == 1
               ? ceil_div(vr * static_cast<std::int64_t>(sizeof(float)), txn)
               : vr;
  };
  // Each (block-row, block-col) pair of the mesh goes to one CPE.
  const rt::ViewBlock n = rt::view_block(d, cfg.mesh_rows, cfg.mesh_cols);
  std::int64_t per_col = 0, ncols = 0;
  for (std::int64_t br = 0; br < n.r; ++br) per_col += col_txns(br);
  for (std::int64_t bc = 0; bc < n.c; ++bc)
    ncols += rt::block_extent(cols, bc, tc);
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
                                 const opt::OptOptions& o) const {
  const std::optional<opt::DmaPlan> plan = opt::plan_dma(lowered, cfg_, o);
  if (!plan) return {};
  const std::vector<const ir::For*>& loops = plan->loops;
  std::vector<ir::VarId> vars;
  for (const ir::For* l : loops) vars.push_back(l->var);
  using Split = LoopWeights::Split;

  // The gets: a cached operand's fills at its fill loops (sync); any other
  // at its hoist level, where double buffering moves it to its innermost
  // enclosing loop that unit-loop elimination keeps (its prologue sync,
  // its prefetches async).
  Parts dma;
  for (const opt::OperandPlan* p : {&plan->a, &plan->b}) {
    const ir::DmaAttrs& d = p->dma;
    std::uint64_t members = first_loops(p->level);
    if (p->cached()) {
      members = first_loops(p->cache_at);
      for (const std::size_t i : p->fill) members |= std::uint64_t{1} << i;
    }
    dma += LoopWeights(loops, vars, members, p->overlap_loop, Split::Prefetch,
                       {d.view.rows, d.view.cols, d.rows_p, d.cols_p})
               .sum([&](const ir::Env& env) {
                 return min_transfer_cycles(d.view, d, env, cfg_);
               });
  }
  // The C put with its fused residual re-read, plus its re-fetch on every
  // pass but the first when a reduction loop encloses it (sync). A
  // double-buffered write-back's puts are async; the re-read stays sync.
  const ir::DmaAttrs& c = plan->c.dma;
  const ir::ViewAttrs& res = c.epi.res;
  const std::vector<ir::VarId>& outer = plan->outer_reductions;
  const LoopWeights c_weights(loops, vars, first_loops(plan->c.level),
                              LoopWeights::kNone, Split::Last,
                              {c.view.rows, c.view.cols, c.rows_p, c.cols_p,
                               res.rows, res.cols},
                              outer);
  auto reread = [&](const ir::Env& env) {
    return c.epi.residual ? min_transfer_cycles(res, c, env, cfg_) : 0.0;
  };
  double async_puts = 0.0;
  if (plan->c.overlapped()) {
    async_puts = c_weights
                     .sum([&](const ir::Env& env) {
                       return min_transfer_cycles(c.view, c, env, cfg_);
                     })
                     .total();
    if (c.epi.residual) dma.first += c_weights.sum(reread).total();
  } else {
    dma.first += c_weights
                     .sum([&](const ir::Env& env) {
                       const double t =
                           min_transfer_cycles(c.view, c, env, cfg_);
                       const bool refetch = std::any_of(
                           outer.begin(), outer.end(),
                           [&](ir::VarId v) { return *env.find(v) > 0; });
                       return (refetch ? 2.0 * t : t) + reread(env);
                     })
                     .total();
  }

  // The gemm calls. When one loop double-buffers every moved get, the
  // compute of its last iteration has no prefetch to hide behind.
  const std::size_t pa = plan->a.overlap_loop, pb = plan->b.overlap_loop;
  const std::size_t last_at =
      pa == LoopWeights::kNone || pb == LoopWeights::kNone || pa == pb
          ? std::min(pa, pb)
          : LoopWeights::kNone;
  const ir::GemmAttrs& g = plan->gemm->attrs;
  const Parts compute =
      LoopWeights(loops, vars, first_loops(loops.size()), last_at,
                  Split::Last, {g.M, g.N, g.K})
          .sum([&](const ir::Env& env) {
            const std::int64_t M = ir::eval(g.M, env);
            const std::int64_t N = ir::eval(g.N, env);
            const std::int64_t K = ir::eval(g.K, env);
            return M > 0 && N > 0 && K > 0 ? gm_.cycles(g.variant, M, N, K)
                                           : 0.0;
          });

  // The bound sums the walk's terms in another order.
  constexpr double kRounding = 1.0 - 1e-9;
  return {kRounding * dma.first, kRounding * dma.second,
          kRounding * async_puts, kRounding * compute.total(),
          kRounding * compute.second};
}

StaticCost CostModel::walk(const ir::StmtPtr& s, ir::Env& env) const {
  StaticCost c;
  if (s == nullptr) return c;
  switch (s->kind) {
    case ir::StmtKind::Seq:
      for (const ir::StmtPtr& b : s->as<ir::Seq>().body) {
        // A put in flight here is the program's last (the write-back's
        // drain): nothing is left to overlap it with.
        if (b->kind == ir::StmtKind::DmaWait && c.drain_cycles > 0.0) {
          c.elapsed_cycles += c.drain_cycles;
          c.drain_cycles = 0.0;
        }
        c += walk(b, env);
      }
      return c;
    case ir::StmtKind::For: {
      const ir::For& f = s->as<ir::For>();
      const std::int64_t n = ir::eval(f.extent, env);
      if (n <= 0) return c;
      // An iteration of a double-buffered loop (prefetched gets, or the C
      // puts of a double-buffered write-back) lasts as long as the longer
      // of its cluster time and its transfers, which the DMA engine
      // serializes while the cluster works.
      auto iteration = [&](std::int64_t i) {
        env[f.var] = i;
        StaticCost it = walk(f.body, env);
        if (f.prefetched)
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
      env.erase(f.var);
      return c;
    }
    case ir::StmtKind::If: {
      // Static approximation: follow the branch taken at the current
      // (first-iteration) environment.
      const ir::If& i = s->as<ir::If>();
      return walk(ir::eval(i.cond, env) != 0 ? i.then_s : i.else_s, env);
    }
    case ir::StmtKind::SpmZero:
      c.compute_cycles =
          static_cast<double>(ir::eval(s->as<ir::SpmZero>().floats, env)) /
          cfg_.vector_width;
      c.elapsed_cycles = c.compute_cycles;
      return c;
    case ir::StmtKind::DmaGet:
    case ir::StmtKind::DmaPut: {
      const ir::DmaAttrs& d = s->as<ir::Dma>().attrs;
      // Tensor bases are transaction-aligned; 0 is representative.
      const rt::DmaGeometry g = rt::evaluate_dma(d, env, 0, cfg_);
      c.transfer_cycles =
          dma_cost_cache_.get(d, g, engine_, cfg_).total_cycles();
      // The cluster waits on a transfer on a constant reply slot before it
      // goes on: a get;wait / put;wait pair, or a prologue get the first
      // iteration waits on at once. Double buffering gives its in-loop
      // prefetches and write-back puts parity slots; their enclosing loop
      // prices them, and the last put is drained.
      if (ir::is_const(d.reply))
        c.elapsed_cycles = c.transfer_cycles;
      else if (s->kind == ir::StmtKind::DmaPut)
        c.drain_cycles = c.transfer_cycles;
      if (s->kind == ir::StmtKind::DmaPut && d.epi.any()) {
        // The runtime's epilogue pricing: the synchronous residual re-read
        // it books, plus the vector ops on the tile. The once-per-run bias
        // fetch is noise at this granularity and skipped.
        const ir::EpilogueAttrs& e = d.epi;
        if (e.residual) {
          const rt::ResidualRead r =
              rt::residual_read(d, g, ir::eval(e.res.base, env));
          const double t = dma_cost_cache_.get(r.attrs, r.geo, engine_, cfg_)
                               .total_cycles();
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
      const ir::GemmAttrs& gm = s->as<ir::Gemm>().attrs;
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
      return c;
  }
  SWATOP_UNREACHABLE("bad stmt kind in cost model");
}

}  // namespace swatop::tune
