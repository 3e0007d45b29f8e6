#include "obs/roofline.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>

namespace swatop::obs {

RooflinePoint roofline_place(std::string name, std::int64_t flops,
                             std::int64_t dram_bytes, double cycles,
                             const RooflineMachine& m) {
  RooflinePoint p;
  p.name = std::move(name);
  p.flops = flops;
  p.dram_bytes = dram_bytes;
  p.cycles = cycles;
  p.intensity = dram_bytes > 0
                    ? static_cast<double>(flops) /
                          static_cast<double>(dram_bytes)
                    : 0.0;
  p.achieved =
      cycles > 0.0 ? static_cast<double>(flops) / cycles : 0.0;
  // No DRAM traffic: only the compute roof applies.
  p.roof = dram_bytes > 0 ? std::min(m.peak_flops_per_cycle,
                                     p.intensity * m.dma_bytes_per_cycle)
                          : m.peak_flops_per_cycle;
  p.utilization = p.roof > 0.0 ? p.achieved / p.roof : 0.0;
  return p;
}

RooflinePoint roofline_place(std::string name, const Counters& c,
                             const RooflineMachine& m) {
  return roofline_place(std::move(name), c.flops,
                        c.dma.bytes_requested + c.dma.bytes_wasted,
                        c.total_cycles, m);
}

std::string roofline_report(const std::vector<RooflinePoint>& pts,
                            const RooflineMachine& m) {
  std::ostringstream os;
  char buf[192];
  std::snprintf(buf, sizeof buf,
                "roofline (per CG: compute roof %.0f flop/cy, dma roof "
                "%.2f B/cy, ridge %.1f flop/B)\n",
                m.peak_flops_per_cycle, m.dma_bytes_per_cycle, m.ridge());
  os << buf;
  std::snprintf(buf, sizeof buf, "  %-16s %10s %10s %10s %6s\n", "span",
                "flop/B", "flop/cy", "roof", "util%");
  os << buf;
  for (const RooflinePoint& p : pts) {
    std::snprintf(buf, sizeof buf, "  %-16s %10.2f %10.1f %10.1f %6.1f\n",
                  p.name.c_str(), p.intensity, p.achieved, p.roof,
                  100.0 * p.utilization);
    os << buf;
  }
  return os.str();
}

std::string roofline_json(const std::vector<RooflinePoint>& pts,
                          const RooflineMachine& m) {
  std::ostringstream os;
  os << "{\"peak_flops_per_cycle\": " << m.peak_flops_per_cycle
     << ", \"dma_bytes_per_cycle\": " << m.dma_bytes_per_cycle
     << ", \"ridge\": " << m.ridge() << ", \"points\": [";
  bool first = true;
  for (const RooflinePoint& p : pts) {
    if (!first) os << ", ";
    first = false;
    os << "{\"name\": \"" << p.name << "\", \"flops\": " << p.flops
       << ", \"dram_bytes\": " << p.dram_bytes << ", \"cycles\": " << p.cycles
       << ", \"intensity\": " << p.intensity
       << ", \"achieved\": " << p.achieved << ", \"roof\": " << p.roof
       << ", \"utilization\": " << p.utilization << "}";
  }
  os << "]}";
  return os.str();
}

}  // namespace swatop::obs
