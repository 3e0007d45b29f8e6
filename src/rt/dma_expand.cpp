#include "rt/dma_expand.hpp"

#include <algorithm>

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

void block_of(const ir::DmaAttrs& d, int rid, int cid, std::int64_t* br,
              std::int64_t* bc) {
  *br = d.rows_to_rid ? rid : cid;
  *bc = d.rows_to_rid ? cid : rid;
}

const sim::DmaCost& DmaCostCache::get(const ir::DmaAttrs& d,
                                      const DmaGeometry& g,
                                      const sim::DmaEngine& engine,
                                      const sim::SimConfig& cfg) {
  const std::int64_t align_floats =
      static_cast<std::int64_t>(cfg.dram_transaction_bytes / sizeof(float));
  const std::array<std::int64_t, 9> key = {
      g.base % align_floats,
      g.rows,
      g.cols,
      g.rows_p,
      g.cols_p,
      d.view.stride_r,
      d.view.stride_c,
      d.rows_to_rid ? 1 : 0,
      d.dir == ir::Direction::MemToSpm ? 0 : 1};
  auto it = memo_.find(key);
  if (it != memo_.end()) return it->second;
  const auto descs = expand_dma(d, g, 0, cfg);
  return memo_.emplace(key, engine.cost(descs)).first->second;
}

std::vector<sim::DmaCpeDesc> expand_dma(const ir::DmaAttrs& d,
                                        const DmaGeometry& g,
                                        std::int64_t spm_at,
                                        const sim::SimConfig& cfg) {
  std::vector<sim::DmaCpeDesc> descs;
  descs.reserve(static_cast<std::size_t>(cfg.num_cpes()));
  const sim::DmaDir dir = d.dir == ir::Direction::MemToSpm
                              ? sim::DmaDir::MemToSpm
                              : sim::DmaDir::SpmToMem;
  for (int rid = 0; rid < cfg.mesh_rows; ++rid) {
    for (int cid = 0; cid < cfg.mesh_cols; ++cid) {
      std::int64_t br, bc;
      block_of(d, rid, cid, &br, &bc);
      const std::int64_t vr =
          std::clamp<std::int64_t>(g.rows - br * g.tr, 0, g.tr);
      const std::int64_t vc =
          std::clamp<std::int64_t>(g.cols - bc * g.tc, 0, g.tc);
      sim::DmaCpeDesc desc;
      desc.dir = dir;
      desc.spm_addr = spm_at;
      if (vr > 0 && vc > 0) {
        desc.mem_base =
            g.base + br * g.tr * d.view.stride_r + bc * g.tc * d.view.stride_c;
        if (d.view.stride_r == 1) {
          desc.block = vr;
          desc.stride = d.view.stride_c - vr;
        } else {
          // Element-granular gather/scatter: every element opens its own
          // transaction window.
          desc.block = 1;
          desc.stride = d.view.stride_r - 1;
        }
        desc.total = vr * vc;
      }
      descs.push_back(desc);
    }
  }
  return descs;
}

}  // namespace swatop::rt
