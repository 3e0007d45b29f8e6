// Static analyses over the statement IR used by the optimizer passes, the
// scheduler's validity pruning, and the cost model.
#pragma once

#include <cstdint>
#include <vector>

#include "ir/node.hpp"

namespace swatop::ir {

/// Per-CPE SPM floats the program allocates (double-buffered allocations
/// count twice), including the 32-byte alignment the runtime applies.
std::int64_t spm_footprint(const StmtPtr& s);

/// All loop variables, outermost first along each path.
std::vector<VarId> loop_vars(const StmtPtr& s);

/// Pointers to every Gemm node (pre- or post-inference).
std::vector<Gemm*> find_gemms(const StmtPtr& s);

/// Pointers to every DMA get/put node.
std::vector<Dma*> find_dmas(const StmtPtr& s);

/// Number of Gemm executions when all loop extents evaluate under `env`
/// extended with each loop var bound over its range; loop extents that
/// depend on outer vars are evaluated at iteration 0 of those vars (this is
/// the static approximation the model-based tuner relies on).
std::int64_t static_gemm_count(const StmtPtr& s, Env env = {});

/// True if the statement subtree contains a node of the given kind.
bool contains_kind(const StmtPtr& s, StmtKind k);

}  // namespace swatop::ir
