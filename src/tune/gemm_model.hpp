// Eq. (2) of the paper: the compute cost of one spm_gemm primitive call.
//
// The paper fits a linear function of the dims per kernel variant to
// measured primitive runs. This reproduction measures those runs through
// the pipeline simulator (isa::KernelCostDb), and the measured cost is
// stepped, not linear: each CPE's local GEMM splits into 4/2/1 register
// blocks, each priced as a fixed overhead plus K steady-state iterations.
// A five-term fit missed that table by 9-15% per variant, so the model
// prices every call from the table itself -- the same cycles prim::spm_gemm
// and the timing interpreter charge.
#pragma once

#include <cstdint>

#include "isa/kernel_cache.hpp"

namespace swatop::tune {

class GemmCostModel {
 public:
  explicit GemmCostModel(const isa::KernelCostDb& db) : db_(db) {}

  /// Cycles of spm_gemm(variant, M, N, K) (global dims): exactly
  /// isa::KernelCostDb::spm_gemm_cycles. Throws CheckError on dims the
  /// primitive rejects.
  double cycles(int variant, std::int64_t M, std::int64_t N,
                std::int64_t K) const;

 private:
  const isa::KernelCostDb& db_;
};

/// Process-wide model over isa::kernel_cost_db(cfg).
const GemmCostModel& gemm_cost_model(const sim::SimConfig& cfg);

}  // namespace swatop::tune
