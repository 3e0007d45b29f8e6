// Implicit-GEMM convolution (Alg. 2 / Fig. 2 right): the direct convolution
// loop nest with the innermost loops replaced by GEMM micro-kernels. Per
// output row and kernel offset, a (No x Ni) weight slice multiplies a
// (Ni x Tco*B) input slice -- the batch dimension and a tile of output
// columns fuse into the GEMM N dimension (the paper's loop fusion that
// enlarges a GEMM dim), which is what makes the channel-major interleaved
// layouts below affine and DMA-friendly.
//
// The core binds the canonical layer tensors themselves, so the design's
// passes are trivial: the pre pass zeroes "out", there is no post pass,
// and the only priced pass is a fused output border's zero fill.
//   in  [ri][ni][ci][b]                (ci and b adjacent => N fusion)
//   w   [kr][kc][ni][no]  ("no_major") or [kr][kc][no][ni] ("ni_major"),
//                                       a layout-transformation choice
//   out [ro][no][co][b]
//
// The space sizes its tiles to the layer: Tno runs over the powers of two
// from 32 to No (rounded up to 32, at most 2048), and at stride 1 Tco
// offers the whole output row next to its power-of-two menu. The loop
// orders keep the output row outermost, except that a 1x1 kernel -- whose
// u and v loops have one trip, so that rcoiuv is rcouvi -- offers orcuvi,
// the output-channel tile outermost, in that slot: operand caching then
// holds one output-channel tile's weights across every row.
//
// Two orders whose nests differ only in where their one-trip loops sit
// lower to one program (a loop-order twin); lower() gives the later order
// of the space no program, as it gives a switch boundary none on a tile
// that is not ragged, nor on a whole-row Tco that switches down to a row
// of Co columns when the menu offers Tco = Co itself.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "ops/conv_op.hpp"

namespace swatop::ops {

class ImplicitConvOp : public ConvOp {
 public:
  /// `epi` fuses an elementwise tail (bias / residual-add / relu, applied
  /// in that order) into the C store path and/or stores into a
  /// zero-padded output border (`out_pad`). Extra tensors: "bias" (No
  /// floats) when epi.bias, "res" (unpadded output size) when
  /// epi.residual; "out" grows to the padded extent when epi.out_pad > 0.
  /// The schedule writes only the interior; pre_pass zeroes the border.
  explicit ImplicitConvOp(const ConvShape& shape,
                          dsl::EpilogueSpec epi = {});

  /// The paper runs implicit CONV only where the input channels fill a
  /// 32-deep K tile, and so excludes each network's first layer (Ni = 3,
  /// Fig. 5). Here a layer with fewer channels takes one K tile of its
  /// channel count rounded up to 8, the primitive's smallest K step, so
  /// every stride-1 layer runs implicit and fuses its epilogue. A strided
  /// layer cannot fuse output columns (Tco = 1), so with few channels its
  /// GEMMs would be starved on both K and N: it stays explicit.
  static bool applicable(const ConvShape& s) {
    return s.stride == 1 || s.ni >= 32;
  }

  std::string name() const override;
  dsl::ScheduleSpace space() const override;
  ir::StmtPtr lower(const dsl::Strategy& s) const override;
  std::vector<dsl::TensorSpec> tensors() const override;

  /// {"w"}, in the strategy's "wlayout".
  std::vector<dsl::TensorSpec> params() const override;
  void load_weights(sim::CoreGroup& cg, const dsl::BoundTensors& bt,
                    const dsl::Strategy& s,
                    const std::vector<float>& w) const override;
  void pre_pass(sim::CoreGroup& cg,
                const dsl::BoundTensors& bt) const override;
  void charge_passes(sim::CoreGroup& cg) const override;

  /// The canonical fill plus a fused epilogue's seeded "bias" / "res".
  void fill_inputs(sim::CoreGroup& cg, const dsl::BoundTensors& bt,
                   const dsl::Strategy& s) const override;
  /// The reference with the epilogue applied, compared on the interior of
  /// a padded output.
  double check_output(sim::CoreGroup& cg, const dsl::BoundTensors& bt,
                      const dsl::Strategy& s) const override;

  const dsl::EpilogueSpec& epilogue() const { return epi_; }

 protected:
  /// lower() without the twin check: the program of any order, including
  /// one that lower() refuses as the twin of an earlier one.
  ir::StmtPtr lower_any_order(const dsl::Strategy& s) const;

 private:
  /// The loop orders space() offers, in space order.
  const std::vector<std::string>& orders() const;
  /// Per loop of "rcouvi": more than one trip, with these tile counts.
  std::array<bool, 6> multi_trip(std::int64_t co_tiles,
                                 std::int64_t no_tiles,
                                 std::int64_t ni_tiles) const;
  /// True when `order`, with these tile counts, lowers to the program of
  /// an order listed before it in orders() (see the file comment).
  bool is_twin(const std::string& order, std::int64_t co_tiles,
               std::int64_t no_tiles, std::int64_t ni_tiles) const;
  ir::StmtPtr build(const dsl::Strategy& s, bool refuse_twins) const;

  /// Padded output spatial dims (identical to the raw dims without pad).
  std::int64_t ro_p() const { return shape_.ro() + 2 * epi_.out_pad; }
  std::int64_t co_p() const { return shape_.co() + 2 * epi_.out_pad; }
  std::int64_t padded_out_floats() const {
    return ro_p() * shape_.no * co_p() * shape_.batch;
  }

  dsl::EpilogueSpec epi_;
  /// Bit m of twins_[k]: orders()[k] is a twin when the c, o and i loops
  /// have more than one trip as bits 0, 1 and 2 of m say.
  std::array<std::uint8_t, 4> twins_{};
};

}  // namespace swatop::ops
