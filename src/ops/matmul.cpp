#include "ops/matmul.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/math_util.hpp"
#include "isa/kernel_gen.hpp"
#include "ops/reference.hpp"
#include "ops/tensor.hpp"
#include "sched/lower.hpp"

namespace swatop::ops {

namespace ir = swatop::ir;

MatmulOp::MatmulOp(std::int64_t M, std::int64_t N, std::int64_t K,
                   std::string a, std::string b, std::string c)
    : M_(M),
      N_(N),
      K_(K),
      a_name_(std::move(a)),
      b_name_(std::move(b)),
      c_name_(std::move(c)) {
  SWATOP_CHECK(M > 0 && N > 0 && K > 0)
      << "matmul dims (" << M << "," << N << "," << K << ")";
}

std::string MatmulOp::name() const {
  return "matmul_" + std::to_string(M_) + "x" + std::to_string(N_) + "x" +
         std::to_string(K_);
}

std::vector<std::int64_t> MatmulOp::tile_candidates(
    std::int64_t extent, std::int64_t align,
    const std::vector<std::int64_t>& menu) {
  const std::int64_t cap = align_up(extent, align);
  std::vector<std::int64_t> out;
  for (std::int64_t f : menu)
    if (f <= cap) out.push_back(f);
  if (out.empty()) out.push_back(cap);
  return out;
}

dsl::ScheduleSpace MatmulOp::space() const {
  dsl::ScheduleSpace sp;
  sp.add(dsl::FactorVar{"Tm", tile_candidates(M_, 32, {32, 64, 128, 256})});
  sp.add(dsl::FactorVar{"Tn", tile_candidates(N_, 32, {32, 64, 128, 256})});
  sp.add(dsl::FactorVar{"Tk", tile_candidates(K_, 8, {8, 16, 32, 64, 128})});
  sp.add(dsl::ChoiceVar{"order", {"mnk", "nmk", "mkn", "kmn"}});
  sp.add(dsl::ChoiceVar{"variant",
                        {"0", "1", "2", "3", "4", "5", "6", "7"}});
  sp.add(dsl::ChoiceVar{"boundary", {"pad", "switch"}});
  return sp;
}

ir::StmtPtr MatmulOp::lower(const dsl::Strategy& s) const {
  const std::int64_t Tm = s.factor("Tm");
  const std::int64_t Tn = s.factor("Tn");
  const std::int64_t Tk = s.factor("Tk");
  const int variant = std::stoi(s.choice("variant"));
  const bool vec_m = isa::KernelVariant::from_index(variant).vec ==
                     isa::VecDim::M;
  const bool switch_mode = s.choice("boundary") == "switch";

  const opt::TiledDim dm = opt::make_tiled("m_o", M_, Tm);
  const opt::TiledDim dn = opt::make_tiled("n_o", N_, Tn);
  const opt::TiledDim dk = opt::make_tiled("k_o", K_, Tk);

  if (switch_mode) {
    // Parameter switching only differs from padding at ragged boundaries,
    // and is only legal when every remainder keeps the primitive valid.
    if (!dm.ragged && !dn.ragged && !dk.ragged) return nullptr;
    if (!opt::switch_legal(dm, 8, vec_m ? 4 : 1)) return nullptr;
    if (!opt::switch_legal(dn, 8, vec_m ? 1 : 4)) return nullptr;
    if (!opt::switch_legal(dk, 8, 1)) return nullptr;
  }

  ir::GemmAttrs g;
  g.variant = variant;
  g.M = switch_mode ? dm.valid() : ir::cst(Tm);
  g.N = switch_mode ? dn.valid() : ir::cst(Tn);
  g.K = switch_mode ? dk.valid() : ir::cst(Tk);

  g.a = {a_name_, ir::add(dm.base(), ir::mul(dk.base(), ir::cst(M_))), 1, M_,
         dm.valid(), dk.valid()};
  g.b = {b_name_, ir::add(dk.base(), ir::mul(dn.base(), ir::cst(K_))), 1, K_,
         dk.valid(), dn.valid()};
  g.c = {c_name_, ir::add(dm.base(), ir::mul(dn.base(), ir::cst(M_))), 1, M_,
         dm.valid(), dn.valid()};

  const std::vector<std::pair<char, sched::LoopSpec>> dims = {
      {'m', {"m_o", ir::cst(dm.count), false}},
      {'n', {"n_o", ir::cst(dn.count), false}},
      {'k', {"k_o", ir::cst(dk.count), true}},
  };
  return sched::build_nest(sched::order_loops(s.choice("order"), dims),
                           ir::make_gemm(g));
}

std::vector<dsl::TensorSpec> MatmulOp::tensors() const {
  return {{a_name_, M_ * K_, false},
          {b_name_, K_ * N_, false},
          {c_name_, M_ * N_, true}};
}

void MatmulOp::fill_inputs(sim::CoreGroup& cg, const dsl::BoundTensors& bt,
                           const dsl::Strategy&) const {
  Prng rng(42);
  auto a = cg.mem().view(bt.at(a_name_), M_ * K_);
  for (float& v : a) v = rng.next();
  auto b = cg.mem().view(bt.at(b_name_), K_ * N_);
  for (float& v : b) v = rng.next();
}

double MatmulOp::check_output(sim::CoreGroup& cg, const dsl::BoundTensors& bt,
                              const dsl::Strategy&) const {
  std::vector<float> A(static_cast<std::size_t>(M_ * K_));
  std::vector<float> B(static_cast<std::size_t>(K_ * N_));
  std::vector<float> C(static_cast<std::size_t>(M_ * N_));
  cg.mem().copy_out(bt.at(a_name_), A);
  cg.mem().copy_out(bt.at(b_name_), B);
  reference_gemm(A.data(), B.data(), C.data(), M_, N_, K_);
  auto got = cg.mem().view(bt.at(c_name_), M_ * N_);
  return max_abs_diff(got.data(), C.data(), M_ * N_);
}

}  // namespace swatop::ops
