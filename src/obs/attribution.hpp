// Cycle attribution: decompose an observed execution's elapsed cycles into
// non-overlapping causes -- where did the time go, in the terms the paper's
// evaluation uses (Eq. (1) DMA accounting, the Eq. (2) kernel pipeline, the
// NoC barrier of multi-CG runs).
//
// The invariant is exactness: the categories always sum to the accounted
// basis (elapsed cycles times the core groups that elapsed them). The
// decomposition is built only from counters the booking sites themselves
// increment; anything the counters cannot explain lands in `residual`, so a
// non-zero residual *is* the drift detector for counter wiring (see
// tests/test_obs).
#pragma once

#include <array>
#include <string>

#include "obs/counters.hpp"

namespace swatop::obs {

/// Attribution categories, in report order. Each elapsed cycle belongs to
/// exactly one.
enum class AttrCat : int {
  KernelIssue = 0,   ///< GEMM kernels issuing on P0/P1 (useful work)
  KernelRawStall,    ///< GEMM kernels stalled on RAW dependences
  RegComm,           ///< inter-panel register-communication switches
  OtherCompute,      ///< zero-fills, packing, transforms, MPE passes
  DmaQueueWait,      ///< blocking attributable to a busy DMA engine queue
  DmaWait,           ///< blocking in DmaWait on in-flight DMA transfers
  Barrier,           ///< NoC synchronization between core groups
  Imbalance,         ///< core groups idle while the slowest finishes a step
  Residual,          ///< elapsed cycles no counter explains (should be ~0)
  kCount,
};

constexpr int kAttrCats = static_cast<int>(AttrCat::kCount);

const char* attr_cat_name(AttrCat c);

/// Everything the decomposition needs. Cycle quantities are *summed over
/// core groups*; `elapsed` is the wall (chip) cycle count of the span. For
/// a single-CG run, groups = 1 and group_cycles == elapsed.
struct AttributionInput {
  double elapsed = 0.0;       ///< chip-level elapsed cycles of the span
  int groups = 1;             ///< core groups that elapsed them
  double group_cycles = 0.0;  ///< sum over groups of busy (clocked) cycles
  double compute_cycles = 0.0;
  double dma_stall_cycles = 0.0;
  double dma_queue_wait_cycles = 0.0;
  double gemm_cycles = 0.0;       ///< of compute: GEMM kernel share
  double gemm_comm_cycles = 0.0;  ///< of gemm: reg-comm pattern switches
  double raw_stall_cycles = 0.0;  ///< of gemm: pipeline RAW stalls
  double barrier_cycles = 0.0;    ///< NoC sync, summed over groups
};

/// The decomposition. `basis` = elapsed * groups: every core group is
/// accountable for the whole span, so idle groups show up as Imbalance
/// instead of silently shrinking the denominator.
struct Attribution {
  std::array<double, kAttrCats> cycles{};
  double basis = 0.0;
  double elapsed = 0.0;
  int groups = 1;

  double at(AttrCat c) const { return cycles[static_cast<int>(c)]; }
  double sum() const;
  double share(AttrCat c) const { return basis > 0.0 ? at(c) / basis : 0.0; }

  /// True when the categories sum to the basis within `rel_tol` and no
  /// category is meaningfully negative -- the exactness contract.
  bool balanced(double rel_tol = 1e-9) const;
};

/// Decompose a span. All categories are clamped non-negative; the exact
/// remainder (basis minus everything attributed) is Residual.
Attribution attribute(const AttributionInput& in);

/// Convenience: attribute one observed single-core-group execution from its
/// counter registry (elapsed = total_cycles, groups = 1).
Attribution attribute(const Counters& c);

/// Assemble the attribution input from a counter registry (single CG).
AttributionInput attribution_input(const Counters& c);

/// Human-readable table: one line per category with cycles and share.
std::string attribution_report(const Attribution& a);

/// JSON object ({"elapsed": ..., "groups": ..., "categories": {...}}).
std::string attribution_json(const Attribution& a);

}  // namespace swatop::obs
