#include "baseline/manual_winograd.hpp"

namespace swatop::baseline {

namespace {

/// Per-call marshalling: gather V_t out of the tile-interleaved transform
/// output (runs of `run` floats every 16 * run) into a dense matrix, and
/// scatter M_t back the same way.
double marshal_cycles(std::int64_t floats, std::int64_t run,
                      const sim::SimConfig& cfg) {
  const sim::DmaEngine engine(cfg);
  sim::DmaCpeDesc gather;
  gather.block = run;
  gather.stride = 15 * run;
  gather.total = floats;
  sim::DmaCpeDesc dense;
  dense.block = floats;
  dense.total = floats;
  return engine.cost(gather).total_cycles() +
         engine.cost(dense).total_cycles();
}

}  // namespace

double ManualWinogradConv::cycles(const ops::ConvShape& s) const {
  const ops::WinogradPlan plan(s);
  const double pre_post = ops::WinogradGemmOp(s).pass_cycles(cfg_);
  const XMathGemm gemm(cfg_);
  // 16 separate library calls: M = No, N = P, K = Ni each, plus the
  // marshalling each call boundary forces.
  const double one = gemm.cycles(s.no, plan.P, s.ni) +
                     marshal_cycles(s.ni * plan.P, s.ni, cfg_) +
                     marshal_cycles(s.no * plan.P, s.no, cfg_);
  return pre_post + 16.0 * one;
}

}  // namespace swatop::baseline
