// The IR optimizer pipeline (Sec. 4.5): DMA inference, unit-loop
// elimination, memory-latency hiding (double buffering) and the SPM budget
// check, applied to each schedule strategy the scheduler lowers. DMA
// inference puts every SPM allocation at the front of the root Seq, so the
// runtime's bump allocator and the C emitter lay the buffers out in one
// coalesced region (the code generator's memory optimization, Sec. 4.7)
// without a pass of their own.
#pragma once

#include "ir/node.hpp"
#include "sim/config.hpp"

namespace swatop::opt {

struct OptOptions {
  bool prefetch = true;  ///< run the double-buffering pass
  std::int64_t spm_reserve_floats = 512;
};

/// True if the program's SPM footprint fits the per-CPE capacity minus a
/// reserve (stack/runtime slack).
bool fits_spm(const ir::StmtPtr& root, const sim::SimConfig& cfg,
              std::int64_t reserve_floats = 512);

/// Run the optimizer pipeline in place. Returns false when the candidate is
/// invalid (primitive constraints violated or SPM over budget); the IR is
/// then unspecified and the scheduler must drop the candidate.
bool optimize(ir::StmtPtr& root, const sim::SimConfig& cfg,
              const OptOptions& opts = {});

}  // namespace swatop::opt
