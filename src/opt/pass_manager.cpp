#include "opt/pass_manager.hpp"

#include "ir/analysis.hpp"
#include "opt/dma_inference.hpp"
#include "opt/double_buffer.hpp"
#include "opt/simplify.hpp"

namespace swatop::opt {

bool fits_spm(const ir::StmtPtr& root, const sim::SimConfig& cfg,
              std::int64_t reserve_floats) {
  return ir::spm_footprint(root) <= cfg.spm_floats() - reserve_floats;
}

bool optimize(ir::StmtPtr& root, const sim::SimConfig& cfg,
              const OptOptions& opts) {
  if (!infer_dma(root, cfg, opts)) return false;
  eliminate_unit_loops(root);
  if (opts.prefetch) apply_double_buffer(root);
  return fits_spm(root, cfg, opts.spm_reserve_floats);
}

}  // namespace swatop::opt
