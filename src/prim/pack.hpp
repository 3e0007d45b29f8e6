// Packing primitives: layout copies and traditional zero-padding of
// main-memory matrices, staged through the CPE cluster's SPM and priced as
// synchronous DMA traffic (the xMath GEMM baseline packs its operands with
// them). The pipeline's own lightweight padding is not here: DMA inference
// zero-fills a partial tile's SPM buffer before its get (Sec. 4.5.3).
#pragma once

#include <cstdint>

#include "sim/core_group.hpp"

namespace swatop::prim {

/// Copy a (rows x cols) column-major block from src (leading dim src_ld) to
/// dst (leading dim dst_ld), staging through SPM. Functional copy plus DMA
/// pricing for one read and one write of the block.
void copy_block(sim::CoreGroup& cg, sim::MainMemory::Addr src,
                std::int64_t src_ld, sim::MainMemory::Addr dst,
                std::int64_t dst_ld, std::int64_t rows, std::int64_t cols,
                sim::ExecMode mode);

/// Traditional zero-padding: allocate a (new_rows x new_cols) column-major
/// matrix, copy the whole (rows x cols) source into it, zero elsewhere.
/// Returns the new allocation's base address.
sim::MainMemory::Addr pad_full(sim::CoreGroup& cg, sim::MainMemory::Addr src,
                               std::int64_t rows, std::int64_t cols,
                               std::int64_t src_ld, std::int64_t new_rows,
                               std::int64_t new_cols, sim::ExecMode mode);

}  // namespace swatop::prim
