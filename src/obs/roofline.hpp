// Roofline placement: arithmetic intensity from the already-wired byte
// counters against the simulated machine's two roofs -- the CPE cluster's
// peak issue rate and the DMA engine's DRAM bandwidth -- giving every
// operator or layer its roof and the share of it achieved. What actually
// bound a span is attribution's answer (obs/attribution.hpp), not the
// intensity's: a schedule whose DMA overlaps its kernels runs at the
// compute roof's pace below the ridge.
//
// The byte basis is *transaction* bytes (requested + wasted): that is what
// the DMA engine actually moves, so a padding-wasteful schedule is honestly
// charged with a lower arithmetic intensity (the Fig. 11 effect).
//
// obs/ cannot depend on sim/, so the roofs arrive as plain rates; callers
// with a sim::SimConfig pass cfg.peak_flops_per_cycle() and
// cfg.dma_bytes_per_cycle().
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/counters.hpp"

namespace swatop::obs {

/// The two roofs of one machine, in per-cycle units.
struct RooflineMachine {
  double peak_flops_per_cycle = 0.0;  ///< compute roof
  double dma_bytes_per_cycle = 0.0;   ///< memory roof (DMA bandwidth)

  /// Ridge point: the arithmetic intensity (flops / DRAM byte) above which
  /// the compute roof binds.
  double ridge() const {
    return dma_bytes_per_cycle > 0.0
               ? peak_flops_per_cycle / dma_bytes_per_cycle
               : 0.0;
  }
};

/// One placed point.
struct RooflinePoint {
  std::string name;
  std::int64_t flops = 0;
  std::int64_t dram_bytes = 0;  ///< transaction bytes (requested + wasted)
  double cycles = 0.0;          ///< core-group cycles accounted to the span

  double intensity = 0.0;  ///< flops per DRAM byte
  double achieved = 0.0;   ///< achieved flops per cycle
  double roof = 0.0;       ///< min(compute roof, intensity * memory roof)
  double utilization = 0.0;  ///< achieved / roof
};

/// Place one span. `cycles` is the per-group cycle basis (for multi-group
/// spans pass elapsed * groups so the roofs, which are per core group,
/// stay comparable).
RooflinePoint roofline_place(std::string name, std::int64_t flops,
                             std::int64_t dram_bytes, double cycles,
                             const RooflineMachine& m);

/// Place a whole observed execution from its counter registry.
RooflinePoint roofline_place(std::string name, const Counters& c,
                             const RooflineMachine& m);

/// Text table: AI, achieved vs roof, utilization.
std::string roofline_report(const std::vector<RooflinePoint>& pts,
                            const RooflineMachine& m);

/// JSON array of placed points (plus the machine roofs).
std::string roofline_json(const std::vector<RooflinePoint>& pts,
                          const RooflineMachine& m);

}  // namespace swatop::obs
