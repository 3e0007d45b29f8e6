// Automatic memory-latency hiding (Sec. 4.5.2): software prefetching via
// double buffering. The pass finds the innermost loop that issues DMA gets,
// allocates a second half for each fetched SPM buffer, hoists iteration-0
// gets in front of the loop, and rewrites the loop so iteration i issues the
// gets of iteration i+1 (guarded by i+1 < extent, the paper's generated
// if-then-else address inference) before waiting on the data of iteration i.
// Addresses are inferred by substituting var -> var+1 into the DMA address
// expressions, which are functions of the enclosing loop variables. The
// fills of a cached operand (DmaAttrs::cache_fill, see dma_inference.hpp)
// stay synchronous: each tile is fetched once, so there is no next
// iteration's copy to overlap.
//
// The output tile is double-buffered too, where DMA inference allocated
// spm_C with two halves (OperandPlan::overlap_loop). Numbering the C tiles
// t across every loop around the put, tile t zeroes, accumulates into and
// puts half t % 2 on that half's reply slot, and goes on without waiting:
// the put drains while tile t+1 computes. Tile t waits for tile t-2's put
// just before zeroing the same half, the last two puts are waited for once
// after the outermost loop, and the loop around the put is marked
// prefetched so the cost model prices its iterations as overlapped. Every
// other program keeps its put; wait.
#pragma once

#include "ir/node.hpp"

namespace swatop::opt {

/// Apply double buffering in place. Returns true if a loop was transformed
/// (false when the IR has no DMA get inside any loop and no C write-back
/// to double-buffer).
bool apply_double_buffer(ir::StmtPtr& root);

}  // namespace swatop::opt
