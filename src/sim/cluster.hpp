// The 8x8 CPE cluster of one core group: the CPEs, the register
// communication bus, and the SPMD scratch-pad allocator.
//
// swATOP executes SPMD code: all 64 CPEs run the same schedule, so SPM
// layout is identical everywhere and a single bump allocator (with
// watermarking so the scheduler can reject over-budget strategies) is
// maintained at cluster level.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "sim/config.hpp"
#include "sim/cpe.hpp"
#include "sim/reg_comm.hpp"

namespace swatop::sim {

class CpeCluster {
 public:
  explicit CpeCluster(const SimConfig& cfg);

  const SimConfig& config() const { return cfg_; }

  Cpe& at(int rid, int cid);
  const Cpe& at(int rid, int cid) const;
  int num_cpes() const { return cfg_.num_cpes(); }

  RegCommBus& bus() { return bus_; }
  const RegCommBus& bus() const { return bus_; }

  /// Allocate `nfloats` floats of SPM on every CPE (same offset everywhere).
  /// Throws CheckError if the cluster SPM budget is exceeded.
  std::int64_t spm_alloc(std::int64_t nfloats, std::string_view name = {});

  /// Release all SPM allocations (the storage itself is zeroed lazily by the
  /// runtime between operator executions).
  void spm_reset();

  std::int64_t spm_used() const { return spm_top_; }
  std::int64_t spm_capacity() const { return cfg_.spm_floats(); }
  std::int64_t spm_high_water() const { return spm_high_water_; }

 private:
  SimConfig cfg_;
  std::vector<Cpe> cpes_;
  RegCommBus bus_;
  std::int64_t spm_top_ = 0;
  std::int64_t spm_high_water_ = 0;
};

}  // namespace swatop::sim
