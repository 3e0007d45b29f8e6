#include "tune/gemm_model.hpp"

#include <map>
#include <mutex>

#include "common/check.hpp"

namespace swatop::tune {

double GemmCostModel::cycles(int variant, std::int64_t M, std::int64_t N,
                             std::int64_t K) const {
  SWATOP_CHECK(variant >= 0 && variant < 8);
  return db_.spm_gemm_cycles(isa::KernelVariant::from_index(variant), M, N,
                             K);
}

const GemmCostModel& gemm_cost_model(const sim::SimConfig& cfg) {
  // One model per kernel cost database; the database registry owns the
  // expensive construction and keeps each database's address stable.
  const isa::KernelCostDb& db = isa::kernel_cost_db(cfg);
  static std::mutex mu;
  static std::map<const isa::KernelCostDb*, GemmCostModel> registry;
  const std::lock_guard<std::mutex> lock(mu);
  return registry.try_emplace(&db, db).first->second;
}

}  // namespace swatop::tune
