// Winograd convolution F(2x2, 3x3) (Fig. 2 middle): 4x4 input tiles and the
// 3x3 filters are transformed, the 16 element-wise products become 16
// independent GEMMs
//   M_t (No x P) = U_t (No x Ni) x V_t (Ni x P),   t = 0..15,
// and the inverse transform produces the 2x2 output tiles. The batched GEMM
// is the tuned core (an extra non-reduction t loop around a matmul-style
// schedule space). On the ConvOp hooks the parameters are the canonical
// "w" and its transform "U", the scratch is "V" and "Mt", and the input /
// inverse transforms are the priced pre / post passes.
#pragma once

#include "ops/conv_op.hpp"

namespace swatop::ops {

/// Tiling geometry of F(2x2, 3x3) over a convolution shape: each 4x4 input
/// tile yields a 2x2 output tile through 16 multiplications.
struct WinogradPlan {
  static constexpr std::int64_t kM = 2;              ///< output tile edge
  static constexpr std::int64_t kTile = kM + 2;      ///< input tile edge
  static constexpr std::int64_t kT = kTile * kTile;  ///< GEMM batch count

  ConvShape shape;
  std::int64_t tiles_r = 0;  ///< output tile rows (ceil(Ro / kM))
  std::int64_t tiles_c = 0;
  std::int64_t P = 0;  ///< batch * tiles_r * tiles_c

  explicit WinogradPlan(const ConvShape& s);

  static bool applicable(const ConvShape& s) {
    return s.kr == 3 && s.kc == 3 && s.stride == 1 && s.ro() >= 2 &&
           s.co() >= 2;
  }

  /// GEMM flops of the kT multiplications (less than the direct-conv
  /// flops; that gap is Winograd's arithmetic saving).
  std::int64_t gemm_flops() const {
    return 2 * kT * shape.no * shape.ni * P;
  }
};

/// The tuned batched-GEMM core and its transforms.
class WinogradGemmOp : public ConvOp {
 public:
  explicit WinogradGemmOp(const ConvShape& shape);

  std::string name() const override;
  dsl::ScheduleSpace space() const override;
  ir::StmtPtr lower(const dsl::Strategy& s) const override;
  std::vector<dsl::TensorSpec> tensors() const override;

  /// {"w", "U"}: the canonical weights and their filter transform.
  std::vector<dsl::TensorSpec> params() const override;
  /// Write "w", then transform it into "U".
  void load_weights(sim::CoreGroup& cg, const dsl::BoundTensors& bt,
                    const dsl::Strategy& s,
                    const std::vector<float>& w) const override;
  /// Input transform of "in" into "V"; zero "Mt".
  void pre_pass(sim::CoreGroup& cg,
                const dsl::BoundTensors& bt) const override;
  /// Inverse transform of "Mt" into "out".
  void post_pass(sim::CoreGroup& cg,
                 const dsl::BoundTensors& bt) const override;
  /// The input and inverse transforms; the filter transform runs once, in
  /// load_weights, and is not charged per execution.
  void charge_passes(sim::CoreGroup& cg) const override;

  const WinogradPlan& plan() const { return plan_; }

  // Functional transforms (host loops over the arena), used by tests and
  // the hooks above. Layouts: in
  // [ri][ni][ci][b]; U [t][ni][no] (column-major No x Ni per t); V
  // [t][p][ni] (column-major Ni x P per t); Mt [t][p][no] (column-major
  // No x P per t); out [ro][no][co][b].
  static void transform_input(sim::CoreGroup& cg, sim::MainMemory::Addr in,
                              sim::MainMemory::Addr V, const WinogradPlan& p);
  static void transform_filter(sim::CoreGroup& cg, sim::MainMemory::Addr w,
                               sim::MainMemory::Addr U, const WinogradPlan& p);
  static void inverse_transform(sim::CoreGroup& cg, sim::MainMemory::Addr Mt,
                                sim::MainMemory::Addr out,
                                const WinogradPlan& p);

 private:
  WinogradPlan plan_;
};

}  // namespace swatop::ops
