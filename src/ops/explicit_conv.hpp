// Explicit-GEMM convolution (Fig. 2 left): im2col expands the input into a
// column matrix, the convolution becomes one large GEMM
//   outmat (No x B*Ro*Co) = wmat (No x Ni*Kr*Kc) x dcol (Ni*Kr*Kc x B*Ro*Co),
// and the result is re-laid out into the canonical output tensor. The GEMM
// core is a matmul (its schedule space and lowering); the ConvOp hooks are
// the layout around it: the parameter "wmat" (the canonical weights
// transposed), the scratch "dcol" and "outmat", the im2col pre pass and the
// re-layout post pass, priced separately (they are what caps this method's
// efficiency in Fig. 8).
#pragma once

#include "ops/conv_op.hpp"
#include "ops/matmul.hpp"

namespace swatop::ops {

class ExplicitConvOp : public ConvOp {
 public:
  explicit ExplicitConvOp(const ConvShape& shape);

  static bool applicable(const ConvShape&) { return true; }

  std::string name() const override;
  dsl::ScheduleSpace space() const override { return gemm_.space(); }
  ir::StmtPtr lower(const dsl::Strategy& s) const override {
    return gemm_.lower(s);
  }
  std::vector<dsl::TensorSpec> tensors() const override {
    return gemm_.tensors();
  }

  /// {"wmat"}: column-major No x K, K ordered (kr, kc, ni).
  std::vector<dsl::TensorSpec> params() const override;
  void load_weights(sim::CoreGroup& cg, const dsl::BoundTensors& bt,
                    const dsl::Strategy& s,
                    const std::vector<float>& w) const override;
  /// im2col of "in" into "dcol"; zero "outmat".
  void pre_pass(sim::CoreGroup& cg,
                const dsl::BoundTensors& bt) const override;
  /// Re-layout "outmat" (column j = output pixel (b, ro, co)) into "out".
  void post_pass(sim::CoreGroup& cg,
                 const dsl::BoundTensors& bt) const override;
  void charge_passes(sim::CoreGroup& cg) const override;

  /// Functional im2col: expand `in` ([ri][ni][ci][b]) into `dcol`
  /// (column-major Ni*Kr*Kc x B*Ro*Co), host-side loops on the arena.
  static void im2col(sim::CoreGroup& cg, sim::MainMemory::Addr in,
                     sim::MainMemory::Addr dcol, const ConvShape& s);

 private:
  MatmulOp gemm_;
};

}  // namespace swatop::ops
