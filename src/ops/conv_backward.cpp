#include "ops/conv_backward.hpp"

#include "common/check.hpp"
#include "isa/kernel_gen.hpp"
#include "ops/conv_op.hpp"
#include "ops/matmul.hpp"
#include "common/math_util.hpp"
#include "ops/tensor.hpp"
#include "sched/lower.hpp"

namespace swatop::ops {

namespace ir = swatop::ir;

// ---------------------------------------------------------------------------
// References.

void reference_conv_bwd_data(const float* dout, const float* w, float* din,
                             const ConvShape& s) {
  const std::int64_t B = s.batch, Ni = s.ni, No = s.no, Ci = s.ci;
  const std::int64_t Ro = s.ro(), Co = s.co();
  for (std::int64_t i = 0; i < s.ri * Ni * Ci * B; ++i) din[i] = 0.0f;
  for (std::int64_t ro = 0; ro < Ro; ++ro) {
    for (std::int64_t co = 0; co < Co; ++co) {
      for (std::int64_t kr = 0; kr < s.kr; ++kr) {
        for (std::int64_t kc = 0; kc < s.kc; ++kc) {
          for (std::int64_t ni = 0; ni < Ni; ++ni) {
            for (std::int64_t no = 0; no < No; ++no) {
              const float wv =
                  w[((kr * s.kc + kc) * Ni + ni) * No + no];
              for (std::int64_t b = 0; b < B; ++b) {
                din[(((ro + kr) * Ni + ni) * Ci + (co + kc)) * B + b] +=
                    dout[((ro * No + no) * Co + co) * B + b] * wv;
              }
            }
          }
        }
      }
    }
  }
}

void reference_conv_bwd_filter(const float* in, const float* dout, float* dw,
                               const ConvShape& s) {
  const std::int64_t B = s.batch, Ni = s.ni, No = s.no, Ci = s.ci;
  const std::int64_t Ro = s.ro(), Co = s.co();
  for (std::int64_t i = 0; i < s.kr * s.kc * Ni * No; ++i) dw[i] = 0.0f;
  for (std::int64_t kr = 0; kr < s.kr; ++kr) {
    for (std::int64_t kc = 0; kc < s.kc; ++kc) {
      for (std::int64_t ni = 0; ni < Ni; ++ni) {
        for (std::int64_t no = 0; no < No; ++no) {
          float acc = 0.0f;
          for (std::int64_t ro = 0; ro < Ro; ++ro)
            for (std::int64_t co = 0; co < Co; ++co)
              for (std::int64_t b = 0; b < B; ++b)
                acc += in[(((ro + kr) * Ni + ni) * Ci + (co + kc)) * B + b] *
                       dout[((ro * No + no) * Co + co) * B + b];
          dw[((kr * s.kc + kc) * Ni + ni) * No + no] = acc;
        }
      }
    }
  }
}

namespace {

std::vector<std::int64_t> fused_tile_menu(std::int64_t extent,
                                          std::int64_t batch) {
  std::vector<std::int64_t> out;
  for (std::int64_t f : {1, 2, 4, 8, 16, 32}) {
    if (f > align_up(extent, 8)) continue;
    if ((f * batch) % 8 != 0) continue;
    out.push_back(f);
  }
  if (out.empty()) out.push_back(align_up(extent, 8));
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// Backward-data.

ConvBwdDataOp::ConvBwdDataOp(const ConvShape& shape) : shape_(shape) {
  SWATOP_CHECK(shape.ro() > 0 && shape.co() > 0)
      << "kernel larger than input: " << shape.to_string();
  SWATOP_CHECK(shape.stride == 1)
      << "backward kernels are implemented for stride 1";
}

std::string ConvBwdDataOp::name() const {
  return "conv_bwd_data[" + shape_.to_string() + "]";
}

dsl::ScheduleSpace ConvBwdDataOp::space() const {
  dsl::ScheduleSpace sp;
  sp.add(dsl::FactorVar{
      "Tm", MatmulOp::tile_candidates(shape_.ni, 32, {32, 64, 128})});
  sp.add(dsl::FactorVar{
      "Tk", MatmulOp::tile_candidates(shape_.no, 8, {16, 32, 64, 128})});
  sp.add(dsl::FactorVar{"Tc", fused_tile_menu(shape_.ci, shape_.batch)});
  sp.add(dsl::ChoiceVar{"order",
                        {"rcmuvk", "rcuvkm", "rcmkuv", "rmcuvk"}});
  sp.add(dsl::ChoiceVar{"variant",
                        {"0", "1", "2", "3", "4", "5", "6", "7"}});
  sp.add(dsl::ChoiceVar{"boundary", {"pad", "switch"}});
  return sp;
}

ir::StmtPtr ConvBwdDataOp::lower(const dsl::Strategy& s) const {
  const std::int64_t B = shape_.batch, Ni = shape_.ni, No = shape_.no;
  const std::int64_t Ci = shape_.ci, Ri = shape_.ri;
  const std::int64_t Kr = shape_.kr, Kc = shape_.kc;
  const std::int64_t Cp = cp();

  const std::int64_t Tm = s.factor("Tm");
  const std::int64_t Tk = s.factor("Tk");
  const std::int64_t Tc = s.factor("Tc");
  const int variant = std::stoi(s.choice("variant"));
  const bool vec_m = isa::KernelVariant::from_index(variant).vec ==
                     isa::VecDim::M;
  const bool switch_mode = s.choice("boundary") == "switch";

  const std::int64_t Npad = Tc * B;
  if (Npad % 8 != 0) return nullptr;
  if (!vec_m && (Npad / 8) % 4 != 0) return nullptr;

  const opt::TiledDim dm = opt::make_tiled("m_o", Ni, Tm);
  const opt::TiledDim dk = opt::make_tiled("k_o", No, Tk);
  const opt::TiledDim dc = opt::make_tiled("c_o", Ci, Tc);
  if (switch_mode) {
    if (!dm.ragged && !dk.ragged && !dc.ragged) return nullptr;
    if (!opt::switch_legal(dm, 8, vec_m ? 4 : 1)) return nullptr;
    if (!opt::switch_legal(dk, 8, 1)) return nullptr;
    if (dc.ragged) {
      const std::int64_t nr = dc.remainder() * B;
      if (nr % 8 != 0) return nullptr;
      if (!vec_m && (nr / 8) % 4 != 0) return nullptr;
    }
  }

  // Strides.
  const std::int64_t dp_no = Cp * B, dp_p = No * Cp * B;  // dout_pad
  const std::int64_t w_ni = No, w_kc = Ni * No, w_kr = Kc * Ni * No;
  const std::int64_t di_ni = Ci * B, di_ri = Ni * Ci * B;  // din

  ir::GemmAttrs g;
  g.variant = variant;
  g.M = switch_mode ? dm.valid() : ir::cst(Tm);
  g.K = switch_mode ? dk.valid() : ir::cst(Tk);
  g.N = switch_mode ? ir::mul(dc.valid(), ir::cst(B)) : ir::cst(Npad);

  const ir::Expr r = ir::var("r"), u = ir::var("u"), v = ir::var("v");
  const ir::Expr uf = ir::sub(ir::cst(Kr - 1), u);  // flipped filter row
  const ir::Expr vf = ir::sub(ir::cst(Kc - 1), v);

  // A: transposed filter slice, rows = ni (M), cols = no (K).
  g.a = {"w",
         ir::add(ir::add(ir::mul(uf, ir::cst(w_kr)), ir::mul(vf, ir::cst(w_kc))),
                 ir::add(ir::mul(dm.base(), ir::cst(w_ni)), dk.base())),
         w_ni, 1, dm.valid(), dk.valid()};
  // B: padded gradient slice, rows = no (K), cols = fused (ci, b).
  g.b = {"dout_pad",
         ir::add(ir::add(ir::mul(ir::add(r, u), ir::cst(dp_p)),
                         ir::mul(dk.base(), ir::cst(dp_no))),
                 ir::mul(ir::add(dc.base(), v), ir::cst(B))),
         dp_no, 1, dk.valid(), ir::mul(dc.valid(), ir::cst(B))};
  // C: input-gradient slice, rows = ni (M), cols = fused (ci, b).
  g.c = {"din",
         ir::add(ir::add(ir::mul(r, ir::cst(di_ri)),
                         ir::mul(dm.base(), ir::cst(di_ni))),
                 ir::mul(dc.base(), ir::cst(B))),
         di_ni, 1, dm.valid(), ir::mul(dc.valid(), ir::cst(B))};

  const std::vector<std::pair<char, sched::LoopSpec>> dims = {
      {'r', {"r", ir::cst(Ri), false}},
      {'c', {"c_o", ir::cst(dc.count), false}},
      {'m', {"m_o", ir::cst(dm.count), false}},
      {'u', {"u", ir::cst(Kr), true}},
      {'v', {"v", ir::cst(Kc), true}},
      {'k', {"k_o", ir::cst(dk.count), true}},
  };
  return sched::build_nest(sched::order_loops(s.choice("order"), dims),
                           ir::make_gemm(g));
}

std::vector<dsl::TensorSpec> ConvBwdDataOp::tensors() const {
  return {{"dout_pad", rp() * shape_.no * cp() * shape_.batch, false},
          {"w", shape_.kr * shape_.kc * shape_.ni * shape_.no, false},
          {"din", shape_.ri * shape_.ni * shape_.ci * shape_.batch, true}};
}

void ConvBwdDataOp::fill_inputs(sim::CoreGroup& cg,
                                const dsl::BoundTensors& bt,
                                const dsl::Strategy&) const {
  const ConvShape& s = shape_;
  const std::int64_t B = s.batch, No = s.no;
  const std::int64_t Ro = s.ro(), Co = s.co(), Cp = cp();
  const std::vector<float> dout = test_tensor(TestTensor::Dout, s.out_floats());
  // Pad by (kr-1, kc-1) on each border.
  auto pad = cg.mem().view(bt.at("dout_pad"), rp() * No * Cp * B);
  std::fill(pad.begin(), pad.end(), 0.0f);
  for (std::int64_t ro = 0; ro < Ro; ++ro)
    for (std::int64_t no = 0; no < No; ++no)
      for (std::int64_t co = 0; co < Co; ++co)
        for (std::int64_t b = 0; b < B; ++b)
          pad[static_cast<std::size_t>(
              (((ro + s.kr - 1) * No + no) * Cp + (co + s.kc - 1)) * B + b)] =
              dout[static_cast<std::size_t>(((ro * No + no) * Co + co) * B +
                                            b)];
  const std::vector<float> w = test_tensor(TestTensor::W, s.w_floats());
  cg.mem().copy_in(bt.at("w"), w);
}

double ConvBwdDataOp::check_output(sim::CoreGroup& cg,
                                   const dsl::BoundTensors& bt,
                                   const dsl::Strategy&) const {
  const ConvShape& s = shape_;
  const std::vector<float> dout = test_tensor(TestTensor::Dout, s.out_floats());
  const std::vector<float> w = test_tensor(TestTensor::W, s.w_floats());
  std::vector<float> ref(static_cast<std::size_t>(s.ri * s.ni * s.ci *
                                                  s.batch));
  reference_conv_bwd_data(dout.data(), w.data(), ref.data(), s);
  auto got = cg.mem().view(bt.at("din"),
                           static_cast<std::int64_t>(ref.size()));
  return max_abs_diff(got.data(), ref.data(),
                      static_cast<std::int64_t>(ref.size()));
}

// ---------------------------------------------------------------------------
// Backward-filter.

ConvBwdFilterOp::ConvBwdFilterOp(const ConvShape& shape) : shape_(shape) {
  SWATOP_CHECK(shape.ro() > 0 && shape.co() > 0)
      << "kernel larger than input: " << shape.to_string();
  SWATOP_CHECK(shape.stride == 1)
      << "backward kernels are implemented for stride 1";
}

std::string ConvBwdFilterOp::name() const {
  return "conv_bwd_filter[" + shape_.to_string() + "]";
}

dsl::ScheduleSpace ConvBwdFilterOp::space() const {
  dsl::ScheduleSpace sp;
  sp.add(dsl::FactorVar{
      "Tni", MatmulOp::tile_candidates(shape_.ni, 32, {32, 64, 128})});
  sp.add(dsl::FactorVar{
      "Tno", MatmulOp::tile_candidates(shape_.no, 32, {32, 64, 128})});
  sp.add(dsl::FactorVar{"Tc", fused_tile_menu(shape_.co(), shape_.batch)});
  sp.add(dsl::ChoiceVar{"order",
                        {"uvmnrc", "uvrcmn", "muvnrc", "uvmrcn"}});
  sp.add(dsl::ChoiceVar{"variant",
                        {"0", "1", "2", "3", "4", "5", "6", "7"}});
  sp.add(dsl::ChoiceVar{"boundary", {"pad", "switch"}});
  return sp;
}

ir::StmtPtr ConvBwdFilterOp::lower(const dsl::Strategy& s) const {
  const std::int64_t B = shape_.batch, Ni = shape_.ni, No = shape_.no;
  const std::int64_t Ci = shape_.ci, Kr = shape_.kr, Kc = shape_.kc;
  const std::int64_t Ro = shape_.ro(), Co = shape_.co();

  const std::int64_t Tni = s.factor("Tni");
  const std::int64_t Tno = s.factor("Tno");
  const std::int64_t Tc = s.factor("Tc");
  const int variant = std::stoi(s.choice("variant"));
  const bool vec_m = isa::KernelVariant::from_index(variant).vec ==
                     isa::VecDim::M;
  const bool switch_mode = s.choice("boundary") == "switch";

  // The fused (co, b) range is the GEMM *reduction* (K) dimension.
  const std::int64_t Kpad = Tc * B;
  if (Kpad % 8 != 0) return nullptr;

  const opt::TiledDim dm = opt::make_tiled("m_o", Ni, Tni);
  const opt::TiledDim dn = opt::make_tiled("n_o", No, Tno);
  const opt::TiledDim dc = opt::make_tiled("c_o", Co, Tc);
  if (switch_mode) {
    if (!dm.ragged && !dn.ragged && !dc.ragged) return nullptr;
    if (!opt::switch_legal(dm, 8, vec_m ? 4 : 1)) return nullptr;
    if (!opt::switch_legal(dn, 8, vec_m ? 1 : 4)) return nullptr;
    if (dc.ragged && (dc.remainder() * B) % 8 != 0) return nullptr;
  }

  const std::int64_t in_ni = Ci * B, in_ri = Ni * Ci * B;
  const std::int64_t do_no = Co * B, do_ro = No * Co * B;
  const std::int64_t w_ni = No, w_kc = Ni * No, w_kr = Kc * Ni * No;

  ir::GemmAttrs g;
  g.variant = variant;
  g.M = switch_mode ? dm.valid() : ir::cst(Tni);
  g.N = switch_mode ? dn.valid() : ir::cst(Tno);
  g.K = switch_mode ? ir::mul(dc.valid(), ir::cst(B)) : ir::cst(Kpad);

  const ir::Expr r = ir::var("r"), u = ir::var("u"), v = ir::var("v");

  // A: activation slice, rows = ni (M), cols = fused (co, b) (K).
  g.a = {"in",
         ir::add(ir::add(ir::mul(ir::add(r, u), ir::cst(in_ri)),
                         ir::mul(dm.base(), ir::cst(in_ni))),
                 ir::mul(ir::add(dc.base(), v), ir::cst(B))),
         in_ni, 1, dm.valid(), ir::mul(dc.valid(), ir::cst(B))};
  // B: gradient slice, rows = fused (K), cols = no (N).
  g.b = {"dout",
         ir::add(ir::add(ir::mul(r, ir::cst(do_ro)),
                         ir::mul(dn.base(), ir::cst(do_no))),
                 ir::mul(dc.base(), ir::cst(B))),
         1, do_no, ir::mul(dc.valid(), ir::cst(B)), dn.valid()};
  // C: filter gradient, rows = ni (M), cols = no (N).
  g.c = {"dw",
         ir::add(ir::add(ir::mul(u, ir::cst(w_kr)), ir::mul(v, ir::cst(w_kc))),
                 ir::add(ir::mul(dm.base(), ir::cst(w_ni)), dn.base())),
         w_ni, 1, dm.valid(), dn.valid()};

  const std::vector<std::pair<char, sched::LoopSpec>> dims = {
      {'u', {"u", ir::cst(Kr), false}},
      {'v', {"v", ir::cst(Kc), false}},
      {'m', {"m_o", ir::cst(dm.count), false}},
      {'n', {"n_o", ir::cst(dn.count), false}},
      {'r', {"r", ir::cst(Ro), true}},
      {'c', {"c_o", ir::cst(dc.count), true}},
  };
  return sched::build_nest(sched::order_loops(s.choice("order"), dims),
                           ir::make_gemm(g));
}

std::vector<dsl::TensorSpec> ConvBwdFilterOp::tensors() const {
  return {{"in", shape_.ri * shape_.ni * shape_.ci * shape_.batch, false},
          {"dout", shape_.ro() * shape_.no * shape_.co() * shape_.batch,
           false},
          {"dw", shape_.kr * shape_.kc * shape_.ni * shape_.no, true}};
}

void ConvBwdFilterOp::fill_inputs(sim::CoreGroup& cg,
                                  const dsl::BoundTensors& bt,
                                  const dsl::Strategy&) const {
  cg.mem().copy_in(bt.at("in"),
                   test_tensor(TestTensor::In, shape_.in_floats()));
  cg.mem().copy_in(bt.at("dout"),
                   test_tensor(TestTensor::Dout, shape_.out_floats()));
}

double ConvBwdFilterOp::check_output(sim::CoreGroup& cg,
                                     const dsl::BoundTensors& bt,
                                     const dsl::Strategy&) const {
  const ConvShape& s = shape_;
  const std::vector<float> in = test_tensor(TestTensor::In, s.in_floats());
  const std::vector<float> dout = test_tensor(TestTensor::Dout, s.out_floats());
  std::vector<float> ref(static_cast<std::size_t>(s.kr * s.kc * s.ni *
                                                  s.no));
  reference_conv_bwd_filter(in.data(), dout.data(), ref.data(), s);
  auto got = cg.mem().view(bt.at("dw"),
                           static_cast<std::int64_t>(ref.size()));
  return max_abs_diff(got.data(), ref.data(),
                      static_cast<std::int64_t>(ref.size()));
}

}  // namespace swatop::ops
