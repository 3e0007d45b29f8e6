#include "opt/coalesce.hpp"

#include <unordered_set>
#include <vector>

#include "common/check.hpp"
#include "ir/analysis.hpp"
#include "ir/mutator.hpp"

namespace swatop::opt {

namespace ir = swatop::ir;

std::int64_t coalesce_spm(ir::StmtPtr& root) {
  SWATOP_CHECK(root != nullptr && root->is<ir::Seq>())
      << "coalesce_spm expects a Seq root";
  std::vector<ir::StmtPtr> allocs;
  std::unordered_set<std::string> names;
  root = ir::transform(root, [&](ir::StmtPtr s) -> ir::StmtPtr {
    if (s->is<ir::SpmAlloc>()) {
      const std::string& name = s->as<ir::SpmAlloc>().buf_name;
      SWATOP_CHECK(names.insert(name).second)
          << "duplicate SPM buffer '" << name << "'";
      allocs.push_back(s);
      return nullptr;  // removed; re-inserted at the top below
    }
    return s;
  });
  std::vector<ir::StmtPtr>& body = root->as<ir::Seq>().body;
  body.insert(body.begin(), allocs.begin(), allocs.end());
  return ir::spm_footprint(root);
}

bool fits_spm(const ir::StmtPtr& root, const sim::SimConfig& cfg,
              std::int64_t reserve_floats) {
  return ir::spm_footprint(root) <= cfg.spm_floats() - reserve_floats;
}

}  // namespace swatop::opt
