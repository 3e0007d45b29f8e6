// DMA inference (Sec. 4.5.1): the DSL never mentions DMA; this pass finds
// the GEMM node's memory views, decides each operand's SPM tile orientation
// from the kernel variant, sizes and allocates the SPM buffers, and injects
// DmaGet/DmaPut/DmaWait (plus boundary zero-fill guards) as far from the
// gemm_op as legality allows -- i.e. hoisted to the outermost loop level
// whose variables the operand's address does not use.
//
// Hoisting stops at the innermost loop the address reads, so a loop that
// encloses it without reading it would fetch the same tiles once per
// iteration. Such an input operand is cached instead: every tile it reads
// inside the outermost loop R it does not read is fetched once, just
// before R, into one SPM slab, and the gemm reads its tile from the slab.
// The cache is admitted when the fill loops have constant extents and the
// kernel, with the slabs, stays within SimConfig::kernel_spm_floats()
// minus the SPM reserve -- the share the graph engine's residency planner
// leaves to kernels. The decision is plan_dma's alone: infer_dma emits it
// and tune::CostModel::lower_bound prices it.
//
// The plan also says where double buffering (opt/double_buffer.hpp, run
// when OptOptions::prefetch is set) will overlap each transfer with
// compute. An input's get moves to its innermost enclosing loop of more
// than one trip. The C tile is written back from alternating halves when
// the program writes more than one tile, never re-fetches it (no outer
// reductions), still fits the SPM with both halves -- and, next to a
// cached operand, the kernel share above, counting both halves -- and runs
// no get prologue or cache fill inside the loop around the put (the engine
// would serve that transfer after the previous put, so the cluster would
// wait for the put anyway). infer_dma then allocates spm_C with two halves
// for the pass to use.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "ir/node.hpp"
#include "opt/pass_manager.hpp"
#include "sim/config.hpp"

namespace swatop::opt {

/// DMA inference's decision for one GEMM operand.
struct OperandPlan {
  /// The transfer: the view in SPM orientation, the tile grid, the mesh
  /// distribution, the SPM buffer and the reply slot.
  ir::DmaAttrs dma;
  std::int64_t buf_floats = 0;  ///< per-CPE floats of one SPM tile
  /// Bit i: the transfer's address or tile grid reads the variable of
  /// loops[i] of the plan's chain.
  std::uint64_t reads = 0;
  /// Hoist level, the bit width of `reads`: the transfer runs inside
  /// loops[0, level) (0 = once, ahead of every loop).
  std::size_t level = 0;

  /// Cache (input operands only; empty `fill` = not cached). The fill
  /// nest runs just before loops[cache_at] (R, the outermost loop the
  /// address does not read), inside loops[0, cache_at): its loops are
  /// `fill`, the loops of [cache_at, level) the address reads, outermost
  /// first, and each of its iterations fetches one tile into the slab, at
  /// the tile's index over the fill loops times tile_stride(). The gemm
  /// reads its tile at the same offset.
  std::vector<std::size_t> fill;
  std::size_t cache_at = 0;
  std::int64_t slab_tiles = 1;  ///< product of the fill extents

  /// Double buffering: the index in the plan's loops of the loop that
  /// overlaps this operand's transfers with compute -- an input's get is
  /// prefetched one iteration ahead there, and the C put is waited on two
  /// tiles later -- or kSync when the transfers stay synchronous.
  static constexpr std::size_t kSync = SIZE_MAX;
  std::size_t overlap_loop = kSync;

  bool cached() const { return !fill.empty(); }
  bool overlapped() const { return overlap_loop != kSync; }
  /// Floats between consecutive tiles of a slab (the runtime's alignment).
  std::int64_t tile_stride() const;
  /// Per-CPE floats of the operand's SPM allocation: the slab when cached,
  /// else one tile.
  std::int64_t alloc_floats() const {
    return cached() ? slab_tiles * tile_stride() : buf_floats;
  }
};

/// What DMA inference will do to a lowered single-gemm loop chain.
struct DmaPlan {
  std::vector<const ir::For*> loops;  ///< the chain's loops, outermost first
  const ir::Gemm* gemm = nullptr;
  OperandPlan a, b, c;  ///< c.dma is the put; its re-fetch is a get
  /// Reduction loops enclosing the C transfer: the output tile is
  /// re-fetched from memory on every pass but the first (all zero).
  std::vector<ir::VarId> outer_reductions;
};

/// Plan the operand transfers of a lowered program without injecting them.
/// `o.spm_reserve_floats` is held back from the kernel share when admitting
/// a cache and from the SPM when doubling the C tile; `o.prefetch` says
/// whether double buffering will run. Returns nullopt when
/// infer_dma() would reject the program (the padded tile breaks the
/// primitive's divisibility rules, or a fused epilogue sits under an outer
/// reduction); throws CheckError when it is not a single-gemm loop chain.
/// Loop bodies that are not Seqs are wrapped into one. Keeps no state, so
/// it is safe to call from several threads on different programs.
std::optional<DmaPlan> plan_dma(const ir::StmtPtr& root,
                                const sim::SimConfig& cfg,
                                const OptOptions& o);

/// Run DMA inference in place, following plan_dma. Returns false (leaving
/// the IR unusable) when the gemm's padded tile dims violate the
/// primitive's divisibility constraints -- the scheduler drops such
/// candidates.
bool infer_dma(ir::StmtPtr& root, const sim::SimConfig& cfg,
               const OptOptions& o);

}  // namespace swatop::opt
