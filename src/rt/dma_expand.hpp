// Expansion of an IR DMA node into per-CPE work (the DMA_CG -> DMA_CPE
// derivation of Sec. 4.5.1), shared by the runtime (pricing, per-CPE
// attribution and the functional copy) and the static cost model (pricing
// only). One rule, cpe_block, says which block of the tile grid each CPE
// holds and where it starts in memory; the descriptors the DMA engine
// prices are built from it, and so is the interpreter's copy. The direction
// is the node's kind and never changes a price, so nothing here reads it.
#pragma once

#include <algorithm>
#include <array>
#include <unordered_map>
#include <vector>

#include "ir/node.hpp"
#include "rt/expr_eval.hpp"
#include "sim/core_group.hpp"

namespace swatop::rt {

/// The evaluated geometry of one DMA node under a loop environment.
struct DmaGeometry {
  sim::MainMemory::Addr base = 0;  ///< tensor address + evaluated view base
  std::int64_t rows = 0, cols = 0;      ///< valid region
  std::int64_t rows_p = 0, cols_p = 0;  ///< tile grid
  std::int64_t tr = 0, tc = 0;          ///< per-CPE tile dims
};

/// Evaluate the node's expressions; checks validity (region within grid,
/// grid divisible by the mesh).
DmaGeometry evaluate_dma(const ir::DmaAttrs& d, const ir::Env& env,
                         sim::MainMemory::Addr tensor_base,
                         const sim::SimConfig& cfg);

/// Same, using the runtime's compiled-expression evaluator.
DmaGeometry evaluate_dma(const ir::DmaAttrs& d, ExprEvaluator& ev,
                         sim::MainMemory::Addr tensor_base,
                         const sim::SimConfig& cfg);

/// A transfer's tile-grid block in view orientation: view-row blocks follow
/// the mesh row id, or the column id when the view was transposed to feed a
/// row-major kernel operand (DmaAttrs::rows_to_rid). Given mesh coordinates
/// (rid, cid) it is the block CPE (rid, cid) holds; given the mesh's dims it
/// is the number of view-row and view-column blocks.
struct ViewBlock {
  std::int64_t r = 0, c = 0;
};
inline ViewBlock view_block(const ir::DmaAttrs& d, std::int64_t rid,
                            std::int64_t cid) {
  return d.rows_to_rid ? ViewBlock{rid, cid} : ViewBlock{cid, rid};
}

/// Valid elements of block `b` of a dimension of `valid` elements cut into
/// blocks of `tile`: `tile` before the view's end, the remainder in the
/// block it ends in, none after.
inline std::int64_t block_extent(std::int64_t valid, std::int64_t b,
                                 std::int64_t tile) {
  return std::clamp<std::int64_t>(valid - b * tile, 0, tile);
}

/// CPE (rid, cid)'s share of a transfer: the block of the tile grid it
/// holds (view_block), that block's valid rows and columns (block_extent;
/// none when the view ends before it) and the memory address of its first
/// element.
struct CpeBlock {
  std::int64_t br = 0, bc = 0;      ///< block indices in the tile grid
  std::int64_t rows = 0, cols = 0;  ///< valid region of the block
  sim::MainMemory::Addr mem_base = 0;

  bool empty() const { return rows <= 0 || cols <= 0; }
};
CpeBlock cpe_block(const ir::DmaAttrs& d, const DmaGeometry& g, int rid,
                   int cid);

/// Build the per-CPE descriptor list used for pricing, in mesh order.
std::vector<sim::DmaCpeDesc> expand_dma(const ir::DmaAttrs& d,
                                        const DmaGeometry& g,
                                        const sim::SimConfig& cfg);

/// The re-read of a fused residual operand that a C put with a residual
/// epilogue makes: a get of the residual view over the put's tile grid and
/// distribution, at `res_base` (the residual tensor's address plus its
/// evaluated view base). The cost model prices it; the interpreter books it
/// and reads the residual through its blocks.
struct ResidualRead {
  ir::DmaAttrs attrs;
  DmaGeometry geo;
};
ResidualRead residual_read(const ir::DmaAttrs& put, const DmaGeometry& g,
                           sim::MainMemory::Addr res_base);

/// Memoized DMA pricing: the cost of a transfer only depends on its
/// geometry, its distribution and the base address's alignment within a
/// DRAM transaction, so hot loops (the timing interpreter, the static cost
/// model) reuse it.
class DmaCostCache {
 public:
  const sim::DmaCost& get(const ir::DmaAttrs& d, const DmaGeometry& g,
                          const sim::DmaEngine& engine,
                          const sim::SimConfig& cfg);

 private:
  struct KeyHash {
    std::size_t operator()(const std::array<std::int64_t, 8>& k) const {
      std::uint64_t h = 1469598103934665603ull;  // FNV-1a
      for (std::int64_t v : k) {
        h ^= static_cast<std::uint64_t>(v);
        h *= 1099511628211ull;
      }
      return static_cast<std::size_t>(h);
    }
  };
  std::unordered_map<std::array<std::int64_t, 8>, sim::DmaCost, KeyHash>
      memo_;
};

}  // namespace swatop::rt
