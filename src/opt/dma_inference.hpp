// DMA inference (Sec. 4.5.1): the DSL never mentions DMA; this pass finds
// the GEMM node's memory views, decides each operand's SPM tile orientation
// from the kernel variant, sizes and allocates the SPM buffers, and injects
// DmaGet/DmaPut/DmaWait (plus boundary zero-fill guards) as far from the
// gemm_op as legality allows -- i.e. hoisted to the outermost loop level
// whose variables the operand's address does not use.
#pragma once

#include <optional>
#include <vector>

#include "ir/node.hpp"
#include "sim/config.hpp"

namespace swatop::opt {

/// DMA inference's decision for one GEMM operand.
struct OperandPlan {
  /// The transfer: the view in SPM orientation, the tile grid, the mesh
  /// distribution, the SPM buffer and the reply slot.
  ir::DmaAttrs dma;
  std::int64_t buf_floats = 0;  ///< per-CPE floats of the SPM tile
  /// Hoist level: the transfer runs inside loops[0, level) of the plan's
  /// chain (0 = once, ahead of every loop).
  std::size_t level = 0;
};

/// What DMA inference will do to a lowered single-gemm loop chain.
struct DmaPlan {
  std::vector<const ir::Stmt*> loops;  ///< the chain's For nodes, outermost first
  const ir::Stmt* gemm = nullptr;
  OperandPlan a, b, c;  ///< c.dma is the put; its re-fetch is a get
  /// Reduction loops enclosing the C transfer: the output tile is
  /// re-fetched from memory on every pass but the first (all zero).
  std::vector<ir::VarId> outer_reductions;
};

/// Plan the operand transfers of a lowered program without injecting them.
/// Returns nullopt when infer_dma() would reject the program (the padded
/// tile breaks the primitive's divisibility rules, or a fused epilogue sits
/// under an outer reduction); throws CheckError when it is not a single-gemm
/// loop chain. Loop bodies that are not Seqs are wrapped into one.
std::optional<DmaPlan> plan_dma(const ir::StmtPtr& root,
                                const sim::SimConfig& cfg);

/// Run DMA inference in place. Returns false (leaving the IR unusable) when
/// the gemm's padded tile dims violate the primitive's divisibility
/// constraints -- the scheduler drops such candidates.
bool infer_dma(ir::StmtPtr& root, const sim::SimConfig& cfg);

}  // namespace swatop::opt
