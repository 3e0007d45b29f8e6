#include "opt/pass_manager.hpp"

#include "opt/coalesce.hpp"
#include "opt/dma_inference.hpp"
#include "opt/double_buffer.hpp"
#include "opt/simplify.hpp"

namespace swatop::opt {

bool optimize(ir::StmtPtr& root, const sim::SimConfig& cfg,
              const OptOptions& opts) {
  if (!infer_dma(root, cfg, opts.spm_reserve_floats)) return false;
  eliminate_unit_loops(root);
  if (opts.prefetch) apply_double_buffer(root);
  coalesce_spm(root);
  return fits_spm(root, cfg, opts.spm_reserve_floats);
}

}  // namespace swatop::opt
