#include "ops/explicit_conv.hpp"

namespace swatop::ops {

ExplicitConvOp::ExplicitConvOp(const ConvShape& shape)
    : ConvOp(shape),
      gemm_(shape.no, shape.batch * shape.ro() * shape.co(),
            shape.ni * shape.kr * shape.kc, "wmat", "dcol", "outmat") {}

std::string ExplicitConvOp::name() const {
  return "explicit_conv[" + shape_.to_string() + "]";
}

std::vector<dsl::TensorSpec> ExplicitConvOp::params() const {
  return {tensors().front()};
}

void ExplicitConvOp::im2col(sim::CoreGroup& cg, sim::MainMemory::Addr in,
                            sim::MainMemory::Addr dcol, const ConvShape& s) {
  const std::int64_t B = s.batch, Ni = s.ni, Ci = s.ci;
  const std::int64_t Ro = s.ro(), Co = s.co();
  const std::int64_t K = Ni * s.kr * s.kc;
  for (std::int64_t b = 0; b < B; ++b) {
    for (std::int64_t ro = 0; ro < Ro; ++ro) {
      for (std::int64_t co = 0; co < Co; ++co) {
        const std::int64_t j = (b * Ro + ro) * Co + co;
        for (std::int64_t kr = 0; kr < s.kr; ++kr) {
          for (std::int64_t kc = 0; kc < s.kc; ++kc) {
            for (std::int64_t ni = 0; ni < Ni; ++ni) {
              const std::int64_t kk = (kr * s.kc + kc) * Ni + ni;
              const float v = cg.mem().read(
                  in + (((ro * s.stride + kr) * Ni + ni) * Ci +
                        (co * s.stride + kc)) *
                           B +
                       b);
              cg.mem().write(dcol + kk + j * K, v);
            }
          }
        }
      }
    }
  }
}

void ExplicitConvOp::load_weights(sim::CoreGroup& cg,
                                  const dsl::BoundTensors& bt,
                                  const dsl::Strategy&,
                                  const std::vector<float>& w) const {
  // wmat element (no, kk) is canonical w[kk][no], kk = (kr*Kc + kc)*Ni + ni.
  const std::int64_t No = shape_.no, K = gemm_.k();
  auto wmat = cg.mem().view(bt.at("wmat"), No * K);
  for (std::int64_t kk = 0; kk < K; ++kk)
    for (std::int64_t no = 0; no < No; ++no)
      wmat[static_cast<std::size_t>(no + kk * No)] =
          w[static_cast<std::size_t>(kk * No + no)];
}

void ExplicitConvOp::pre_pass(sim::CoreGroup& cg,
                              const dsl::BoundTensors& bt) const {
  im2col(cg, bt.at("in"), bt.at("dcol"), shape_);
  cg.mem().fill(bt.at("outmat"), gemm_.m() * gemm_.n(), 0.0f);
}

void ExplicitConvOp::post_pass(sim::CoreGroup& cg,
                               const dsl::BoundTensors& bt) const {
  const std::int64_t Ro = shape_.ro(), Co = shape_.co(), B = shape_.batch;
  const std::int64_t No = shape_.no;
  auto om = cg.mem().view(bt.at("outmat"), No * gemm_.n());
  auto out = cg.mem().view(bt.at("out"), shape_.out_floats());
  for (std::int64_t b = 0; b < B; ++b)
    for (std::int64_t ro = 0; ro < Ro; ++ro)
      for (std::int64_t co = 0; co < Co; ++co) {
        const std::int64_t j = (b * Ro + ro) * Co + co;
        for (std::int64_t no = 0; no < No; ++no)
          out[static_cast<std::size_t>(((ro * No + no) * Co + co) * B + b)] =
              om[static_cast<std::size_t>(no + j * No)];
      }
}

void ExplicitConvOp::charge_passes(sim::CoreGroup& cg) const {
  // im2col reads the input Kr*Kc times in runs of B contiguous floats and
  // writes the K x N column matrix contiguously; the re-layout reads
  // outmat contiguously and writes the output tensor in runs of B.
  const std::int64_t B = shape_.batch;
  const std::int64_t dcol = gemm_.k() * gemm_.n();
  const std::int64_t outmat = gemm_.m() * gemm_.n();
  cg.charge_dma_cost_sync(pass_cost(cg.config(), dcol, dcol, B, 0));
  cg.charge_dma_cost_sync(pass_cost(cg.config(), outmat, outmat, 0, B));
}

}  // namespace swatop::ops
