#include "rt/dma_expand.hpp"

#include "common/check.hpp"

namespace swatop::rt {

namespace ir = swatop::ir;

namespace {

DmaGeometry finish_geometry(DmaGeometry g, const sim::SimConfig& cfg) {
  SWATOP_CHECK(g.rows >= 0 && g.cols >= 0 && g.rows <= g.rows_p &&
               g.cols <= g.cols_p)
      << "DMA valid region " << g.rows << "x" << g.cols << " exceeds tile "
      << g.rows_p << "x" << g.cols_p;
  SWATOP_CHECK(g.rows_p % cfg.mesh_rows == 0 &&
               g.cols_p % cfg.mesh_cols == 0)
      << "DMA tile grid " << g.rows_p << "x" << g.cols_p
      << " not divisible by the mesh";
  g.tr = g.rows_p / cfg.mesh_rows;
  g.tc = g.cols_p / cfg.mesh_cols;
  return g;
}

}  // namespace

DmaGeometry evaluate_dma(const ir::DmaAttrs& d, const ir::Env& env,
                         sim::MainMemory::Addr tensor_base,
                         const sim::SimConfig& cfg) {
  DmaGeometry g;
  g.base = tensor_base + ir::eval(d.view.base, env);
  g.rows = ir::eval(d.view.rows, env);
  g.cols = ir::eval(d.view.cols, env);
  g.rows_p = ir::eval(d.rows_p, env);
  g.cols_p = ir::eval(d.cols_p, env);
  return finish_geometry(g, cfg);
}

DmaGeometry evaluate_dma(const ir::DmaAttrs& d, ExprEvaluator& ev,
                         sim::MainMemory::Addr tensor_base,
                         const sim::SimConfig& cfg) {
  DmaGeometry g;
  g.base = tensor_base + ev.eval(d.view.base);
  g.rows = ev.eval(d.view.rows);
  g.cols = ev.eval(d.view.cols);
  g.rows_p = ev.eval(d.rows_p);
  g.cols_p = ev.eval(d.cols_p);
  return finish_geometry(g, cfg);
}

CpeBlock cpe_block(const ir::DmaAttrs& d, const DmaGeometry& g, int rid,
                   int cid) {
  CpeBlock b;
  const ViewBlock vb = view_block(d, rid, cid);
  b.br = vb.r;
  b.bc = vb.c;
  b.rows = block_extent(g.rows, b.br, g.tr);
  b.cols = block_extent(g.cols, b.bc, g.tc);
  b.mem_base = g.base + b.br * g.tr * d.view.stride_r +
               b.bc * g.tc * d.view.stride_c;
  return b;
}

ResidualRead residual_read(const ir::DmaAttrs& put, const DmaGeometry& g,
                           sim::MainMemory::Addr res_base) {
  ResidualRead r;
  r.attrs.view = put.epi.res;
  r.attrs.rows_to_rid = put.rows_to_rid;
  r.geo = g;
  r.geo.base = res_base;
  return r;
}

const sim::DmaCost& DmaCostCache::get(const ir::DmaAttrs& d,
                                      const DmaGeometry& g,
                                      const sim::DmaEngine& engine,
                                      const sim::SimConfig& cfg) {
  const std::int64_t align_floats =
      static_cast<std::int64_t>(cfg.dram_transaction_bytes / sizeof(float));
  const std::array<std::int64_t, 8> key = {
      g.base % align_floats,
      g.rows,
      g.cols,
      g.rows_p,
      g.cols_p,
      d.view.stride_r,
      d.view.stride_c,
      d.rows_to_rid ? 1 : 0};
  auto it = memo_.find(key);
  if (it != memo_.end()) return it->second;
  const auto descs = expand_dma(d, g, cfg);
  return memo_.emplace(key, engine.cost(descs)).first->second;
}

std::vector<sim::DmaCpeDesc> expand_dma(const ir::DmaAttrs& d,
                                        const DmaGeometry& g,
                                        const sim::SimConfig& cfg) {
  std::vector<sim::DmaCpeDesc> descs;
  descs.reserve(static_cast<std::size_t>(cfg.num_cpes()));
  for (int rid = 0; rid < cfg.mesh_rows; ++rid) {
    for (int cid = 0; cid < cfg.mesh_cols; ++cid) {
      const CpeBlock b = cpe_block(d, g, rid, cid);
      sim::DmaCpeDesc desc;
      if (!b.empty()) {
        desc.mem_base = b.mem_base;
        if (d.view.stride_r == 1) {
          desc.block = b.rows;
          desc.stride = d.view.stride_c - b.rows;
        } else {
          // Element-granular gather/scatter: every element opens its own
          // transaction window.
          desc.block = 1;
          desc.stride = d.view.stride_r - 1;
        }
        desc.total = b.rows * b.cols;
      }
      descs.push_back(desc);
    }
  }
  return descs;
}

}  // namespace swatop::rt
