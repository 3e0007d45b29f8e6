#include "baseline/manual_explicit.hpp"

namespace swatop::baseline {

double ManualExplicitConv::cycles(const ops::ConvShape& s) const {
  const double pre_post = ops::ExplicitConvOp(s).pass_cycles(cfg_);
  const XMathGemm gemm(cfg_);
  return pre_post +
         gemm.cycles(s.no, s.batch * s.ro() * s.co(), s.ni * s.kr * s.kc);
}

}  // namespace swatop::baseline
