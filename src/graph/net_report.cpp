#include "graph/net_report.hpp"

#include <cstdio>
#include <sstream>

namespace swatop::graph {

namespace {

obs::AttributionInput input_from(double elapsed, int groups,
                                 double group_cycles, double sync,
                                 const sim::CgStats& st) {
  obs::AttributionInput in;
  in.elapsed = elapsed;
  in.groups = groups;
  in.group_cycles = group_cycles;
  in.barrier_cycles = sync * static_cast<double>(groups);
  in.compute_cycles = st.compute_cycles;
  in.dma_stall_cycles = st.dma_stall_cycles;
  in.dma_queue_wait_cycles = st.dma_queue_wait_cycles;
  in.gemm_cycles = st.gemm_cycles;
  in.gemm_comm_cycles = st.gemm_comm_cycles;
  in.raw_stall_cycles = st.pipe.raw_stall_cycles;
  return in;
}

}  // namespace

obs::AttributionInput layer_attribution_input(const LayerReport& lr) {
  return input_from(lr.cycles, lr.groups, lr.group_cycles, lr.sync_cycles,
                    lr.stats);
}

obs::Attribution layer_attribution(const LayerReport& lr) {
  return obs::attribute(layer_attribution_input(lr));
}

obs::AttributionInput net_attribution_input(const NetRunResult& r) {
  double group_cycles = 0.0;
  for (const LayerReport& lr : r.layers) group_cycles += lr.group_cycles;
  return input_from(r.cycles, r.groups_used, group_cycles, r.sync_cycles,
                    r.chip_stats);
}

obs::Attribution net_attribution(const NetRunResult& r) {
  return obs::attribute(net_attribution_input(r));
}

obs::RooflineMachine roofline_machine(const sim::SimConfig& machine) {
  return {machine.peak_flops_per_cycle(), machine.dma_bytes_per_cycle()};
}

std::vector<obs::RooflinePoint> net_roofline(const NetRunResult& r,
                                             const sim::SimConfig& machine) {
  const obs::RooflineMachine m = roofline_machine(machine);
  std::vector<obs::RooflinePoint> pts;
  for (const LayerReport& lr : r.layers) {
    if (!lr.conv) continue;
    pts.push_back(obs::roofline_place(
        lr.name, lr.flops,
        lr.stats.dma_bytes_requested + lr.stats.dma_bytes_wasted,
        lr.cycles * static_cast<double>(lr.groups), m));
  }
  pts.push_back(obs::roofline_place(
      "network", r.flops,
      r.chip_stats.dma_bytes_requested + r.chip_stats.dma_bytes_wasted,
      r.cycles * static_cast<double>(r.groups_used), m));
  // With SPM residency active, also place the network at the traffic it
  // would have paid without the elided transfers: the gap between the two
  // points is the arithmetic-intensity gain residency bought.
  if (r.dma_bytes_elided > 0)
    pts.push_back(obs::roofline_place(
        "network+elided", r.flops,
        r.chip_stats.dma_bytes_requested + r.chip_stats.dma_bytes_wasted +
            r.dma_bytes_elided,
        r.cycles * static_cast<double>(r.groups_used), m));
  return pts;
}

std::string net_report(const NetRunResult& r, const sim::SimConfig& machine,
                       const NetReportOptions& o) {
  std::ostringstream os;
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "network: %.3e cycles on %d group(s), %.1f GFLOPS (%.1f%% "
                "of peak), %.2f ms/batch\n",
                r.cycles, r.groups_used, r.gflops, 100.0 * r.efficiency,
                r.ms_per_batch);
  os << buf;
  if (r.fusion.convs_fused > 0) {
    std::snprintf(buf, sizeof buf,
                  "fusion:  %d conv(s) fused (bias %d, add %d, relu %d, pad "
                  "%d), %d node(s) removed\n",
                  r.fusion.convs_fused, r.fusion.bias_folded,
                  r.fusion.add_folded, r.fusion.relu_folded,
                  r.fusion.pad_folded, r.fusion.nodes_removed());
    os << buf;
  }
  if (r.resident_tensors > 0 || r.dma_bytes_elided > 0) {
    std::snprintf(buf, sizeof buf,
                  "residency: %lld tensor(s) pinned on-chip, %.1f MB DMA "
                  "elided\n",
                  static_cast<long long>(r.resident_tensors),
                  static_cast<double>(r.dma_bytes_elided) / (1024.0 * 1024.0));
    os << buf;
  }

  if (o.layers) {
    std::snprintf(buf, sizeof buf,
                  "\n  %-14s %-9s %12s %12s %12s %6s %7s %6s %6s %6s  %-20s "
                  "%s\n",
                  "layer", "kind", "cycles", "predicted", "measured", "%net",
                  "GFLOPS", "kern%", "dma%", "idle%", "bound by", "pick");
    os << buf;
    // A conv row's model estimate and top-k measurement of its program
    // (group 0's sub-batch), next to the simulated step; "-" when absent.
    auto program_cycles = [](double c) {
      char b[32];
      if (c > 0.0)
        std::snprintf(b, sizeof b, "%12.0f", c);
      else
        std::snprintf(b, sizeof b, "%12s", "-");
      return std::string(b);
    };
    for (const LayerReport& lr : r.layers) {
      const obs::Attribution a = layer_attribution(lr);
      const double kern = a.share(obs::AttrCat::KernelIssue) +
                          a.share(obs::AttrCat::KernelRawStall) +
                          a.share(obs::AttrCat::RegComm) +
                          a.share(obs::AttrCat::OtherCompute);
      const double dma = a.share(obs::AttrCat::DmaQueueWait) +
                         a.share(obs::AttrCat::DmaWait);
      const double idle = a.share(obs::AttrCat::Barrier) +
                          a.share(obs::AttrCat::Imbalance);
      // What bound the step: its largest attribution group.
      const char* bound = kern >= dma && kern >= idle ? "kernel"
                          : dma >= idle               ? "dma"
                                                      : "idle";
      const std::string bound_by = std::string(bound) +
                                   (lr.fused ? " (fused)" : "") +
                                   (lr.from_cache ? " (cached)" : "");
      std::snprintf(buf, sizeof buf,
                    "  %-14s %-9s %12.0f %s %s %5.1f%% %7.1f %5.1f%% "
                    "%5.1f%% %5.1f%%  %-20s ",
                    lr.name.c_str(), lr.kind.c_str(), lr.cycles,
                    program_cycles(lr.predicted_cycles).c_str(),
                    program_cycles(lr.measured_cycles).c_str(),
                    r.cycles > 0.0 ? 100.0 * lr.cycles / r.cycles : 0.0,
                    lr.gflops, 100.0 * kern, 100.0 * dma, 100.0 * idle,
                    bound_by.c_str());
      os << buf << (lr.conv ? lr.pick : "-") << '\n';
    }
  }

  if (o.attribution) {
    os << '\n' << obs::attribution_report(net_attribution(r));
  }

  if (o.roofline) {
    os << '\n'
       << obs::roofline_report(net_roofline(r, machine),
                               roofline_machine(machine));
  }

  if (o.journal != nullptr) {
    os << '\n' << tune::journal_summary(*o.journal);
  }
  return os.str();
}

std::string net_report_json(const NetRunResult& r,
                            const sim::SimConfig& machine,
                            const NetReportOptions& o) {
  std::ostringstream os;
  os << "{\"cycles\": " << r.cycles << ", \"sync_cycles\": " << r.sync_cycles
     << ", \"groups\": " << r.groups_used << ", \"batch\": " << r.batch
     << ", \"flops\": " << r.flops << ", \"gflops\": " << r.gflops
     << ", \"efficiency\": " << r.efficiency
     << ", \"ms_per_batch\": " << r.ms_per_batch
     << ", \"fusion\": {\"convs_fused\": " << r.fusion.convs_fused
     << ", \"bias_folded\": " << r.fusion.bias_folded
     << ", \"add_folded\": " << r.fusion.add_folded
     << ", \"relu_folded\": " << r.fusion.relu_folded
     << ", \"pad_folded\": " << r.fusion.pad_folded
     << ", \"nodes_removed\": " << r.fusion.nodes_removed() << "}"
     << ", \"resident_tensors\": " << r.resident_tensors
     << ", \"dma_bytes_elided\": " << r.dma_bytes_elided;
  if (o.layers) {
    os << ", \"layers\": [";
    bool first = true;
    for (const LayerReport& lr : r.layers) {
      if (!first) os << ", ";
      first = false;
      os << "{\"name\": \"" << lr.name << "\", \"kind\": \"" << lr.kind
         << "\", \"conv\": " << (lr.conv ? "true" : "false")
         << ", \"fused\": " << (lr.fused ? "true" : "false")
         << ", \"from_cache\": " << (lr.from_cache ? "true" : "false")
         << ", \"dma_bytes_elided\": " << lr.dma_bytes_elided
         << ", \"cycles\": " << lr.cycles
         << ", \"predicted_cycles\": " << lr.predicted_cycles
         << ", \"measured_cycles\": " << lr.measured_cycles
         << ", \"pick\": \"" << lr.pick << "\""
         << ", \"flops\": " << lr.flops
         << ", \"gflops\": " << lr.gflops << ", \"attribution\": "
         << obs::attribution_json(layer_attribution(lr)) << "}";
    }
    os << "]";
  }
  if (o.attribution)
    os << ", \"attribution\": " << obs::attribution_json(net_attribution(r));
  if (o.roofline)
    os << ", \"roofline\": "
       << obs::roofline_json(net_roofline(r, machine),
                             roofline_machine(machine));
  if (o.journal != nullptr)
    os << ", \"journal\": " << tune::journal_summary_json(*o.journal);
  os << "}";
  return os.str();
}

}  // namespace swatop::graph
