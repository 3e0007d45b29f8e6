// The contract every convolution design implements: a tuned GEMM core (the
// dsl::OperatorDef part) plus the passes that map the layer's canonical
// tensors onto it and back (paper Fig. 2). The canonical layer tensors are
//   in  [ri][ni][ci][b]     w [kr][kc][ni][no]     out [ro][no][co][b]
// (the layouts ops::reference_conv and the graph engine's activations use),
// plus a fused epilogue's "bias" and "res" (implicit GEMM only).
//
// A design declares
//   - params():  the tensors the canonical weights become, in allocation
//                order (a network keeps them resident), and load_weights()
//                writes them in the layout the tuned strategy chose;
//   - scratch(): the core's other tensors, live for one execution;
//   - pre_pass() / post_pass(): the functional passes around the core
//                (im2col or the input transform, zeroing the core's
//                output; the output re-layout or the inverse transform);
//   - charge_passes(): their simulated cost.
// The graph engine runs every convolution layer through these hooks alone,
// and the op-level fill_inputs / check_output below are written on the same
// hooks, so a design's transforms have one home.
#pragma once

#include <cstdint>
#include <vector>

#include "dsl/dsl.hpp"
#include "ops/conv_common.hpp"
#include "sim/dma.hpp"

namespace swatop::ops {

/// The DMA cost of a bulk pass through main memory (im2col, the Winograd
/// transforms, re-layouts, the graph engine's MPE elementwise passes): it
/// reads `read_floats` and writes `write_floats` (Eq. (1) accounting). Each
/// side moves as one aligned contiguous stream when its run is 0, else in
/// runs of `run` contiguous floats at unknown alignment, half a transaction
/// wasted per run on average.
sim::DmaCost pass_cost(const sim::SimConfig& cfg, std::int64_t read_floats,
                       std::int64_t write_floats, std::int64_t read_run = 0,
                       std::int64_t write_run = 0);

/// The seeded test tensors every convolution design's fill_inputs /
/// check_output draw from: one Prng stream per tensor, seeded by its kind.
enum class TestTensor : std::uint64_t {
  In = 7,     ///< canonical input
  W = 13,     ///< canonical weights
  Bias = 17,  ///< a fused epilogue's bias
  Res = 19,   ///< a fused epilogue's residual
};
std::vector<float> test_tensor(TestTensor t, std::int64_t floats);

class ConvOp : public dsl::OperatorDef {
 public:
  explicit ConvOp(const ConvShape& shape);

  const ConvShape& shape() const { return shape_; }
  /// Direct-convolution flops, whatever the design computes (Winograd's
  /// > 100% efficiencies come from exactly this convention).
  std::int64_t flops() const override { return shape_.flops(); }

  /// The design's parameter tensors, in allocation order.
  virtual std::vector<dsl::TensorSpec> params() const = 0;
  /// Per-execution scratch: the core's tensors() that are neither
  /// parameters nor layer tensors (in, out, bias, res).
  std::vector<dsl::TensorSpec> scratch() const;

  /// Write canonical weights `w` into the parameter tensors bound in `bt`,
  /// in the layout strategy `s` chose.
  virtual void load_weights(sim::CoreGroup& cg, const dsl::BoundTensors& bt,
                            const dsl::Strategy& s,
                            const std::vector<float>& w) const = 0;
  /// Functional pre pass: zero the core's output and map canonical
  /// bt["in"] onto the core's input operand. `bt` binds the layer tensors,
  /// the parameters and the scratch.
  virtual void pre_pass(sim::CoreGroup& cg,
                        const dsl::BoundTensors& bt) const = 0;
  /// Functional post pass: the core's result into canonical bt["out"].
  virtual void post_pass(sim::CoreGroup&, const dsl::BoundTensors&) const {}
  /// Charge both passes' cost to `cg`'s clock (after the core ran).
  virtual void charge_passes(sim::CoreGroup& cg) const = 0;
  /// Both passes' cycles on a scratch clock.
  double pass_cycles(const sim::SimConfig& cfg) const;

  /// Seeded canonical tensors through load_weights and pre_pass; layer
  /// tensors the core does not bind get scratch allocations.
  void fill_inputs(sim::CoreGroup& cg, const dsl::BoundTensors& bt,
                   const dsl::Strategy& s) const override;
  /// post_pass, then max |out - reference_conv| on the seeded tensors. A
  /// core that binds no canonical "out" gets one allocation per core group,
  /// reused by every later check.
  double check_output(sim::CoreGroup& cg, const dsl::BoundTensors& bt,
                      const dsl::Strategy& s) const override;

 protected:
  /// reference_conv of the seeded canonical in and w.
  std::vector<float> reference_output() const;

  ConvShape shape_;
};

}  // namespace swatop::ops
