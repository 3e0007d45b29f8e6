#include "opt/dma_inference.hpp"

#include <bit>
#include <string>

#include "common/check.hpp"
#include "common/math_util.hpp"
#include "ir/analysis.hpp"
#include "isa/kernel_gen.hpp"

namespace swatop::opt {

namespace ir = swatop::ir;

namespace {

/// One level of the loop chain from the root to the gemm: the Seq, the index
/// of the child leading deeper, and the loop whose body this Seq is (null at
/// the root).
struct PathEntry {
  ir::Seq* seq;
  std::size_t child_idx;
  const ir::For* loop;
};

bool contains_gemm(const ir::StmtPtr& s) {
  return ir::contains_kind(s, ir::StmtKind::Gemm);
}

/// Build the Seq/For chain leading to the unique gemm node. The lowering
/// emits a strict chain (Seq of [..., For [Seq ... ]] ... [gemm]).
bool build_path(const ir::StmtPtr& root, std::vector<PathEntry>& path,
                ir::Gemm** gemm_out) {
  ir::StmtPtr cur = root;
  const ir::For* scope = nullptr;
  while (true) {
    if (!cur->is<ir::Seq>()) return false;
    ir::Seq& seq = cur->as<ir::Seq>();
    std::optional<std::size_t> hit;
    for (std::size_t i = 0; i < seq.body.size(); ++i) {
      if (contains_gemm(seq.body[i])) {
        if (hit.has_value()) return false;  // more than one gemm path
        hit = i;
      }
    }
    if (!hit.has_value()) return false;
    path.push_back({&seq, *hit, scope});
    const ir::StmtPtr child = seq.body[*hit];
    if (child->is<ir::Gemm>()) {
      *gemm_out = &child->as<ir::Gemm>();
      return true;
    }
    if (!child->is<ir::For>()) return false;
    ir::For& loop = child->as<ir::For>();
    scope = &loop;
    // Normalize: For bodies are always Seq after lowering.
    if (!loop.body->is<ir::Seq>()) loop.body = ir::make_seq({loop.body});
    cur = loop.body;
  }
}

/// The loops a transfer reads: bit i is set when its address or tile grid
/// mentions vars[i], the variable of path[i + 1]'s loop.
std::uint64_t read_mask(const ir::DmaAttrs& d,
                        const std::vector<ir::VarId>& vars) {
  std::uint64_t used = 0;
  for (const ir::Expr& e :
       {d.view.base, d.view.rows, d.view.cols, d.rows_p, d.cols_p})
    used |= ir::uses_vars(e, vars);
  return used;
}

/// Padded (tile) value of a gemm dim: its value with every loop variable at
/// zero, where boundary min() expressions take their full-tile value.
std::int64_t padded_dim(const ir::Expr& e,
                        const std::vector<PathEntry>& path) {
  ir::Env env;
  for (std::size_t i = 1; i < path.size(); ++i) env[path[i].loop->var] = 0;
  return ir::eval(e, env);
}

/// Build the DMA plan of one operand. `natural` is the view in gemm-dim
/// orientation (rows = first gemm dim of the operand); `tile_rows/cols` are
/// the corresponding gemm dim expressions (the tile grid); `col_major` says
/// whether the kernel variant wants that orientation in SPM; swapping the
/// view feeds the row-major kernels and flips the mesh distribution.
OperandPlan plan_operand(const ir::ViewAttrs& natural, bool col_major,
                         ir::Expr tile_rows, ir::Expr tile_cols,
                         std::int64_t rows_pad, std::int64_t cols_pad,
                         const char* buf, const std::vector<ir::VarId>& vars,
                         const sim::SimConfig& cfg) {
  OperandPlan p;
  ir::ViewAttrs v = natural;
  ir::Expr rp = std::move(tile_rows), cp = std::move(tile_cols);
  bool rows_to_rid = true;
  if (!col_major) {
    std::swap(v.rows, v.cols);
    std::swap(v.stride_r, v.stride_c);
    std::swap(rp, cp);
    std::swap(rows_pad, cols_pad);
    rows_to_rid = false;
  }
  p.dma.view = v;
  p.dma.rows_p = rp;
  p.dma.cols_p = cp;
  p.dma.spm_buf = buf;
  p.dma.spm_off = ir::cst(0);
  p.dma.rows_to_rid = rows_to_rid;
  p.buf_floats =
      (rows_pad / cfg.mesh_rows) * (cols_pad / cfg.mesh_cols);
  // Hoisted to just inside the innermost loop the transfer reads.
  p.reads = read_mask(p.dma, vars);
  p.level = static_cast<std::size_t>(std::bit_width(p.reads));
  return p;
}

/// Cache input operand `p` (see OperandPlan) when the loops it does not
/// read multiply its fetches, every extent from R down to its get is
/// constant, and the slab fits `room` per-CPE floats.
void plan_cache(OperandPlan& p, const std::vector<const ir::For*>& loops,
                std::int64_t room) {
  auto read = [&](std::size_t i) { return (p.reads >> i & 1) != 0; };
  std::size_t r = 0;
  while (r < p.level && read(r)) ++r;
  std::int64_t reuse = 1, tiles = 1;
  for (std::size_t i = r; i < p.level; ++i) {
    const ir::Expr& n = loops[i]->extent;
    if (!ir::is_const(n) || ir::as_cst(n) < 1) return;
    (read(i) ? tiles : reuse) *= ir::as_cst(n);
  }
  if (reuse <= 1 || tiles * p.tile_stride() > room) return;
  for (std::size_t i = r; i < p.level; ++i)
    if (read(i)) p.fill.push_back(i);
  p.cache_at = r;
  p.slab_tiles = tiles;
}

/// The slab offset of a cached operand's tile: its index over the fill
/// loops (row-major, outermost first) times the tile stride.
ir::Expr slab_offset(const OperandPlan& p,
                     const std::vector<const ir::For*>& loops) {
  ir::Expr tile = ir::cst(0);
  for (const std::size_t i : p.fill)
    tile = ir::add(ir::mul(tile, loops[i]->extent), ir::var(loops[i]->var));
  return ir::mul(tile, ir::cst(p.tile_stride()));
}

/// The innermost of loops[0, level) that unit-loop elimination keeps (its
/// extent is not the constant 1), or kSync when there is none.
std::size_t innermost_kept(const std::vector<const ir::For*>& loops,
                           std::size_t level) {
  std::size_t at = OperandPlan::kSync;
  for (std::size_t i = 0; i < level; ++i) {
    const ir::Expr& n = loops[i]->extent;
    if (!(ir::is_const(n) && ir::as_cst(n) == 1)) at = i;
  }
  return at;
}

/// True when every loop enclosing the C tile has a constant extent of at
/// least 1 and one of them more than 1: the program writes several tiles,
/// and their count is known when the write-back is rewritten.
bool several_c_tiles(const DmaPlan& plan) {
  bool several = false;
  for (std::size_t i = 0; i < plan.c.level; ++i) {
    const ir::Expr& n = plan.loops[i]->extent;
    if (!ir::is_const(n) || ir::as_cst(n) < 1) return false;
    several = several || ir::as_cst(n) > 1;
  }
  return several;
}

/// Plan the operand transfers of the gemm at the end of `path`.
std::optional<DmaPlan> plan_path(const std::vector<PathEntry>& path,
                                 const ir::Gemm& gemm,
                                 const sim::SimConfig& cfg,
                                 const OptOptions& o) {
  const ir::GemmAttrs& g = gemm.attrs;
  SWATOP_CHECK(g.a_buf.empty()) << "DMA inference ran twice";

  const auto variant = isa::KernelVariant::from_index(g.variant);
  const std::int64_t Mp = padded_dim(g.M, path);
  const std::int64_t Np = padded_dim(g.N, path);
  const std::int64_t Kp = padded_dim(g.K, path);

  // Primitive validity of the padded tile.
  if (Mp % cfg.mesh_rows != 0 || Np % cfg.mesh_cols != 0 ||
      Kp % cfg.mesh_rows != 0)
    return std::nullopt;
  const std::int64_t vec_local = variant.vec == isa::VecDim::M
                                     ? Mp / cfg.mesh_rows
                                     : Np / cfg.mesh_cols;
  if (vec_local % cfg.vector_width != 0) return std::nullopt;

  DmaPlan plan;
  std::vector<ir::VarId> vars;
  for (std::size_t i = 1; i < path.size(); ++i) {
    plan.loops.push_back(path[i].loop);
    vars.push_back(path[i].loop->var);
  }
  plan.gemm = &gemm;
  plan.a = plan_operand(g.a, variant.a_col_major, g.M, g.K, Mp, Kp, "spm_A",
                        vars, cfg);
  plan.b = plan_operand(g.b, variant.b_col_major, g.K, g.N, Kp, Np, "spm_B",
                        vars, cfg);
  plan.c = plan_operand(g.c, variant.vec == isa::VecDim::M, g.M, g.N, Mp, Np,
                        "spm_C", vars, cfg);

  // Reply slots: one per operand stream.
  plan.a.dma.reply = ir::cst(0);
  plan.b.dma.reply = ir::cst(1);
  plan.c.dma.reply = ir::cst(2);

  // Usually every reduction loop sits inside the C tile's scope. When the
  // schedule places one *outside* it, the tile is revisited once per outer
  // reduction iteration and must be re-fetched on every pass but the first.
  for (std::size_t i = 1; i <= plan.c.level && i < path.size(); ++i)
    if (path[i].loop->reduction)
      plan.outer_reductions.push_back(path[i].loop->var);

  // Fused epilogue: apply it on the C store. Legal only when every put
  // writes finished sums -- a reduction loop outside C's scope puts the
  // tile once per pass, and the epilogue would bias/clamp partial sums.
  if (g.epi.any()) {
    if (!plan.outer_reductions.empty()) return std::nullopt;
    ir::EpilogueAttrs& e = plan.c.dma.epi;
    e = g.epi;
    if (variant.vec != isa::VecDim::M) {
      // plan_operand transposed the C view for a row-major kernel; keep the
      // residual view and the bias index in the same orientation as the put.
      std::swap(e.res.rows, e.res.cols);
      std::swap(e.res.stride_r, e.res.stride_c);
      e.channels_on_rows = !e.channels_on_rows;
    }
  }

  // Cache the inputs, A first, each within the kernel share left by the C
  // tile and the other input: its slab when cached, else both halves of
  // its tile (double buffering may split it).
  auto input_floats = [](const OperandPlan& p) {
    return p.cached() ? p.alloc_floats() : 2 * p.tile_stride();
  };
  const std::int64_t room = cfg.kernel_spm_floats() - o.spm_reserve_floats;
  const std::int64_t share = room - plan.c.tile_stride();
  plan_cache(plan.a, plan.loops, share - input_floats(plan.b));
  plan_cache(plan.b, plan.loops, share - input_floats(plan.a));

  // Where double buffering overlaps each transfer: an uncached input's get
  // in its innermost kept loop; the C write-back in the innermost kept loop
  // around the put, when the program writes several tiles, never re-fetches
  // one and still fits with both halves -- the SPM, and the kernel share
  // too when an input is cached (the caches come first).
  if (!o.prefetch) return plan;
  std::int64_t footprint = 2 * plan.c.tile_stride();
  for (OperandPlan* p : {&plan.a, &plan.b}) {
    if (!p->cached()) p->overlap_loop = innermost_kept(plan.loops, p->level);
    footprint += p->cached()       ? p->alloc_floats()
                 : p->overlapped() ? 2 * p->tile_stride()
                                   : p->tile_stride();
  }
  if (!plan.outer_reductions.empty() || !several_c_tiles(plan) ||
      footprint > cfg.spm_floats() - o.spm_reserve_floats)
    return plan;
  const bool cached = plan.a.cached() || plan.b.cached();
  if (cached && input_floats(plan.a) + input_floats(plan.b) +
                        2 * plan.c.tile_stride() >
                    room)
    return plan;
  // A put overlaps the next tile only up to that tile's first synchronous
  // transfer, which the engine serves after it: so no get's prologue or
  // cache fill may run inside the loop around the put.
  const std::size_t at = innermost_kept(plan.loops, plan.c.level);
  for (const OperandPlan* p : {&plan.a, &plan.b}) {
    const std::size_t sync_at = p->cached()       ? p->cache_at
                                : p->overlapped() ? p->overlap_loop
                                                  : 0;
    if (sync_at > at) return plan;
  }
  plan.c.overlap_loop = at;
  return plan;
}

/// True when the view may move fewer elements than the tile grid at some
/// iteration (lightweight-padding boundary), requiring a zero-fill before
/// the get. Under parameter switching the grid shrinks with the valid
/// region (the grid dims are non-constant), so no zeroing is needed.
bool needs_zero(const ir::DmaAttrs& d) {
  if (!ir::is_const(d.rows_p) || !ir::is_const(d.cols_p)) return false;
  const bool rows_full =
      ir::is_const(d.view.rows) &&
      ir::as_cst(d.view.rows) == ir::as_cst(d.rows_p);
  const bool cols_full =
      ir::is_const(d.view.cols) &&
      ir::as_cst(d.view.cols) == ir::as_cst(d.cols_p);
  return !(rows_full && cols_full);
}

/// Guard condition: this iteration's tile is partial.
ir::Expr partial_cond(const ir::DmaAttrs& d) {
  return ir::add(ir::lt(d.view.rows, d.rows_p),
                 ir::lt(d.view.cols, d.cols_p));
}

}  // namespace

std::int64_t OperandPlan::tile_stride() const {
  return align_up(buf_floats, 8);
}

std::optional<DmaPlan> plan_dma(const ir::StmtPtr& root,
                                const sim::SimConfig& cfg,
                                const OptOptions& o) {
  std::vector<PathEntry> path;
  ir::Gemm* gemm = nullptr;
  SWATOP_CHECK(build_path(root, path, &gemm))
      << "DMA inference expects a single-gemm loop chain";
  return plan_path(path, *gemm, cfg, o);
}

bool infer_dma(ir::StmtPtr& root, const sim::SimConfig& cfg,
               const OptOptions& o) {
  std::vector<PathEntry> path;
  ir::Gemm* gemm = nullptr;
  SWATOP_CHECK(build_path(root, path, &gemm))
      << "DMA inference expects a single-gemm loop chain";
  std::optional<DmaPlan> plan = plan_path(path, *gemm, cfg, o);
  if (!plan) return false;
  OperandPlan& pa = plan->a;
  OperandPlan& pb = plan->b;
  OperandPlan& pc = plan->c;
  for (OperandPlan* p : {&pa, &pb}) {
    if (!p->cached()) continue;
    p->dma.spm_off = slab_offset(*p, plan->loops);
    p->dma.cache_fill = true;
  }

  // Bind the gemm to the SPM buffers (a cached operand's tile sits at its
  // slab offset); the epilogue moves to the C put.
  ir::GemmAttrs& g = gemm->attrs;
  g.a_buf = pa.dma.spm_buf;
  g.b_buf = pb.dma.spm_buf;
  g.c_buf = pc.dma.spm_buf;
  g.a_off = pa.dma.spm_off;
  g.b_off = pb.dma.spm_off;
  g.c_off = ir::cst(0);
  if (g.epi.any()) g.epi = ir::EpilogueAttrs{};

  // Inject; each insert touches one level's Seq, and inserts before
  // child_idx shift it, so the recorded indices stay valid in any order.
  auto insert_before = [&](std::size_t level, std::vector<ir::StmtPtr> ns) {
    ir::Seq* seq = path[level].seq;
    seq->body.insert(
        seq->body.begin() + static_cast<std::ptrdiff_t>(path[level].child_idx),
        ns.begin(), ns.end());
    path[level].child_idx += ns.size();
  };
  auto insert_after = [&](std::size_t level, std::vector<ir::StmtPtr> ns) {
    ir::Seq* seq = path[level].seq;
    seq->body.insert(seq->body.begin() + static_cast<std::ptrdiff_t>(
                                             path[level].child_idx + 1),
                     ns.begin(), ns.end());
  };

  // Input operands: optional zero-fill guard, then get + wait -- at the
  // hoist level, or, for a cached operand, as the fill nest before R.
  for (OperandPlan* p : {&pa, &pb}) {
    std::vector<ir::StmtPtr> ns;
    if (needs_zero(p->dma)) {
      ns.push_back(ir::make_if(
          partial_cond(p->dma),
          ir::make_seq({ir::make_spm_zero(p->dma.spm_buf, p->dma.spm_off,
                                          ir::cst(p->buf_floats))})));
    }
    ns.push_back(ir::make_dma(ir::StmtKind::DmaGet, p->dma));
    ns.push_back(ir::make_dma_wait(p->dma.reply));
    if (!p->cached()) {
      insert_before(p->level, std::move(ns));
      continue;
    }
    ir::StmtPtr nest = ir::make_seq(std::move(ns));
    for (auto it = p->fill.rbegin(); it != p->fill.rend(); ++it) {
      const ir::For& loop = *plan->loops[*it];
      nest = ir::make_seq({ir::make_for(loop.var, loop.extent, nest)});
    }
    insert_before(p->cache_at, std::move(nest->as<ir::Seq>().body));
  }

  // Output operand: zero the accumulator before its scope and write it back
  // after -- or, under outer reductions, zero it on the first pass and
  // re-fetch the partial sums from memory on every other.
  const std::string& cbuf = pc.dma.spm_buf;
  if (plan->outer_reductions.empty()) {
    insert_before(pc.level, {ir::make_spm_zero(cbuf, ir::cst(0),
                                               ir::cst(pc.buf_floats))});
  } else {
    ir::Expr pass_sum = ir::cst(0);
    for (const ir::VarId v : plan->outer_reductions)
      pass_sum = ir::add(pass_sum, ir::var(v));
    ir::DmaAttrs cget = pc.dma;
    cget.reply = ir::cst(3);
    insert_before(
        pc.level,
        {ir::make_if(
            ir::lt(pass_sum, ir::cst(1)),
            ir::make_seq({ir::make_spm_zero(cbuf, ir::cst(0),
                                            ir::cst(pc.buf_floats))}),
            ir::make_seq({ir::make_dma(ir::StmtKind::DmaGet, cget),
                          ir::make_dma_wait(cget.reply)}))});
  }
  insert_after(pc.level, {ir::make_dma(ir::StmtKind::DmaPut, pc.dma),
                          ir::make_dma_wait(pc.dma.reply)});

  // Allocations at the root, ahead of everything else; a C tile written
  // back double-buffered gets its two halves here.
  std::vector<ir::StmtPtr> allocs = {
      ir::make_spm_alloc(pa.dma.spm_buf, pa.alloc_floats()),
      ir::make_spm_alloc(pb.dma.spm_buf, pb.alloc_floats()),
      ir::make_spm_alloc(cbuf, pc.buf_floats, pc.overlapped()),
  };
  path[0].seq->body.insert(path[0].seq->body.begin(), allocs.begin(),
                           allocs.end());
  return true;
}

}  // namespace swatop::opt
