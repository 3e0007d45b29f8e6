#include "sim/cluster.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/math_util.hpp"

namespace swatop::sim {

CpeCluster::CpeCluster(const SimConfig& cfg) : cfg_(cfg), bus_(cfg_) {
  cpes_.reserve(static_cast<std::size_t>(cfg_.num_cpes()));
  for (int r = 0; r < cfg_.mesh_rows; ++r)
    for (int c = 0; c < cfg_.mesh_cols; ++c) cpes_.emplace_back(cfg_, r, c);
}

Cpe& CpeCluster::at(int rid, int cid) {
  SWATOP_CHECK(rid >= 0 && rid < cfg_.mesh_rows && cid >= 0 &&
               cid < cfg_.mesh_cols)
      << "CPE (" << rid << "," << cid << ") out of mesh";
  return cpes_[static_cast<std::size_t>(rid * cfg_.mesh_cols + cid)];
}

const Cpe& CpeCluster::at(int rid, int cid) const {
  return const_cast<CpeCluster*>(this)->at(rid, cid);
}

std::int64_t CpeCluster::spm_alloc(std::int64_t nfloats,
                                   std::string_view name) {
  SWATOP_CHECK(nfloats > 0) << "SPM alloc of " << nfloats;
  // Keep buffers 32-byte aligned so vector loads are aligned.
  const std::int64_t offset = align_up(spm_top_, 8);
  SWATOP_CHECK(offset + nfloats <= spm_capacity())
      << "SPM overflow: need " << offset + nfloats << " floats, capacity "
      << spm_capacity() << " (allocating '" << name << "')";
  spm_top_ = offset + nfloats;
  spm_high_water_ = std::max(spm_high_water_, spm_top_);
  return offset;
}

void CpeCluster::spm_reset() { spm_top_ = 0; }

}  // namespace swatop::sim
