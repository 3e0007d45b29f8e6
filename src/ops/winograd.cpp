#include "ops/winograd.hpp"

#include <cmath>
#include <vector>

#include "common/check.hpp"
#include "common/math_util.hpp"
#include "isa/kernel_gen.hpp"
#include "ops/matmul.hpp"
#include "sched/lower.hpp"

namespace swatop::ops {

namespace ir = swatop::ir;

namespace {

// F(2x2, 3x3) minimal-filtering matrices [Lavin & Gray, CVPR'16]: B^T
// (input), G (filter) and A^T (inverse), row-major.
constexpr double kBT[4][4] = {
    {1, 0, -1, 0}, {0, 1, 1, 0}, {0, -1, 1, 0}, {0, 1, 0, -1}};
constexpr double kG[4][3] = {
    {1, 0, 0}, {0.5, 0.5, 0.5}, {0.5, -0.5, 0.5}, {0, 0, 1}};
constexpr double kAT[2][4] = {{1, 1, 1, 0}, {0, 1, -1, -1}};

/// out(rows_a x cols_b) = A(rows_a x inner) * B(inner x cols_b), row-major.
void matmul_rm(const double* A, const double* B, double* out,
               std::int64_t rows_a, std::int64_t inner,
               std::int64_t cols_b) {
  for (std::int64_t i = 0; i < rows_a; ++i) {
    for (std::int64_t j = 0; j < cols_b; ++j) {
      double acc = 0.0;
      for (std::int64_t k = 0; k < inner; ++k)
        acc += A[i * inner + k] * B[k * cols_b + j];
      out[i * cols_b + j] = acc;
    }
  }
}

/// out = A * D * A^T for row-major A (rows x cols) and D (cols x cols).
void sandwich(const double* A, const double* D, double* out,
              std::int64_t rows, std::int64_t cols) {
  std::vector<double> tmp(static_cast<std::size_t>(rows * cols));
  matmul_rm(A, D, tmp.data(), rows, cols, cols);  // tmp = A * D
  // out = tmp * A^T: out[i][j] = sum_k tmp[i][k] * A[j][k].
  for (std::int64_t i = 0; i < rows; ++i) {
    for (std::int64_t j = 0; j < rows; ++j) {
      double acc = 0.0;
      for (std::int64_t k = 0; k < cols; ++k)
        acc += tmp[static_cast<std::size_t>(i * cols + k)] * A[j * cols + k];
      out[i * rows + j] = acc;
    }
  }
}

}  // namespace

WinogradPlan::WinogradPlan(const ConvShape& s) : shape(s) {
  SWATOP_CHECK(applicable(s))
      << "Winograd F(2x2,3x3) not applicable to " << s.to_string();
  tiles_r = ceil_div(s.ro(), kM);
  tiles_c = ceil_div(s.co(), kM);
  P = s.batch * tiles_r * tiles_c;
}

WinogradGemmOp::WinogradGemmOp(const ConvShape& shape)
    : ConvOp(shape), plan_(shape) {}

std::string WinogradGemmOp::name() const {
  return "winograd2_conv[" + plan_.shape.to_string() + "]";
}

dsl::ScheduleSpace WinogradGemmOp::space() const {
  dsl::ScheduleSpace sp;
  sp.add(dsl::FactorVar{"Tm", MatmulOp::tile_candidates(plan_.shape.no, 32,
                                                        {32, 64, 128})});
  sp.add(dsl::FactorVar{
      "Tn", MatmulOp::tile_candidates(plan_.P, 32, {32, 64, 128, 256})});
  sp.add(dsl::FactorVar{"Tk", MatmulOp::tile_candidates(plan_.shape.ni, 8,
                                                        {16, 32, 64, 128})});
  sp.add(dsl::ChoiceVar{"order", {"mnk", "nmk", "mkn"}});
  sp.add(dsl::ChoiceVar{"variant",
                        {"0", "1", "2", "3", "4", "5", "6", "7"}});
  sp.add(dsl::ChoiceVar{"boundary", {"pad", "switch"}});
  return sp;
}

ir::StmtPtr WinogradGemmOp::lower(const dsl::Strategy& s) const {
  const std::int64_t No = plan_.shape.no, Ni = plan_.shape.ni, P = plan_.P;
  const std::int64_t Tm = s.factor("Tm");
  const std::int64_t Tn = s.factor("Tn");
  const std::int64_t Tk = s.factor("Tk");
  const int variant = std::stoi(s.choice("variant"));
  const bool vec_m = isa::KernelVariant::from_index(variant).vec ==
                     isa::VecDim::M;
  const bool switch_mode = s.choice("boundary") == "switch";

  const opt::TiledDim dm = opt::make_tiled("m_o", No, Tm);
  const opt::TiledDim dn = opt::make_tiled("n_o", P, Tn);
  const opt::TiledDim dk = opt::make_tiled("k_o", Ni, Tk);
  if (switch_mode) {
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

  const ir::Expr t = ir::var("t");
  // U: (No x Ni) column-major per t.
  g.a = {"U",
         ir::add(ir::mul(t, ir::cst(No * Ni)),
                 ir::add(dm.base(), ir::mul(dk.base(), ir::cst(No)))),
         1, No, dm.valid(), dk.valid()};
  // V: (Ni x P) column-major per t.
  g.b = {"V",
         ir::add(ir::mul(t, ir::cst(Ni * P)),
                 ir::add(dk.base(), ir::mul(dn.base(), ir::cst(Ni)))),
         1, Ni, dk.valid(), dn.valid()};
  // Mt: (No x P) column-major per t.
  g.c = {"Mt",
         ir::add(ir::mul(t, ir::cst(No * P)),
                 ir::add(dm.base(), ir::mul(dn.base(), ir::cst(No)))),
         1, No, dm.valid(), dn.valid()};

  const std::vector<std::pair<char, sched::LoopSpec>> dims = {
      {'m', {"m_o", ir::cst(dm.count), false}},
      {'n', {"n_o", ir::cst(dn.count), false}},
      {'k', {"k_o", ir::cst(dk.count), true}},
  };
  std::vector<sched::LoopSpec> loops = {
      {"t", ir::cst(WinogradPlan::kT), false}};
  for (const auto& l : sched::order_loops(s.choice("order"), dims))
    loops.push_back(l);
  return sched::build_nest(loops, ir::make_gemm(g));
}

std::vector<dsl::TensorSpec> WinogradGemmOp::tensors() const {
  const std::int64_t No = plan_.shape.no, Ni = plan_.shape.ni, P = plan_.P;
  const std::int64_t T = WinogradPlan::kT;
  return {{"U", T * No * Ni, false},
          {"V", T * Ni * P, false},
          {"Mt", T * No * P, true}};
}

std::vector<dsl::TensorSpec> WinogradGemmOp::params() const {
  return {{"w", shape_.w_floats(), false}, tensors().front()};
}

void WinogradGemmOp::load_weights(sim::CoreGroup& cg,
                                  const dsl::BoundTensors& bt,
                                  const dsl::Strategy&,
                                  const std::vector<float>& w) const {
  cg.mem().copy_in(bt.at("w"), w);
  transform_filter(cg, bt.at("w"), bt.at("U"), plan_);
}

void WinogradGemmOp::pre_pass(sim::CoreGroup& cg,
                              const dsl::BoundTensors& bt) const {
  transform_input(cg, bt.at("in"), bt.at("V"), plan_);
  cg.mem().fill(bt.at("Mt"), WinogradPlan::kT * shape_.no * plan_.P, 0.0f);
}

void WinogradGemmOp::post_pass(sim::CoreGroup& cg,
                               const dsl::BoundTensors& bt) const {
  inverse_transform(cg, bt.at("Mt"), bt.at("out"), plan_);
}

void WinogradGemmOp::charge_passes(sim::CoreGroup& cg) const {
  // Each transform streams its operands through SPM in long contiguous runs
  // and spreads its arithmetic over the whole cluster. The filter
  // transform is not charged: load_weights computes U once, and it stays
  // resident like any parameter (as explicit GEMM's wmat re-layout does).
  const WinogradPlan& p = plan_;
  const ConvShape& s = shape_;
  constexpr std::int64_t T = WinogradPlan::kT;
  auto charge = [&](std::int64_t read, std::int64_t write, double flops) {
    cg.charge_dma_cost_sync(pass_cost(cg.config(), read, write));
    cg.advance_compute(flops / cg.config().peak_flops_per_cycle());
  };
  // Input transform: the overlapping tiles read ~T/(m^2)x the input volume,
  // write T * Ni * P; two tile x tile sandwiches per channel tile.
  charge(T * s.ni * p.P, T * s.ni * p.P,
         static_cast<double>(p.P) * static_cast<double>(s.ni) * 8.0 * T);
  // Inverse transform: read T * No * P, write the output tensor.
  charge(T * s.no * p.P, s.out_floats(),
         static_cast<double>(p.P) * static_cast<double>(s.no) * 3.0 * T);
}

void WinogradGemmOp::transform_input(sim::CoreGroup& cg,
                                     sim::MainMemory::Addr in,
                                     sim::MainMemory::Addr V,
                                     const WinogradPlan& p) {
  const ConvShape& s = p.shape;
  const std::int64_t B = s.batch, Ni = s.ni, Ci = s.ci, Ri = s.ri;
  constexpr std::int64_t tile = WinogradPlan::kTile, T = WinogradPlan::kT;
  std::vector<double> d(static_cast<std::size_t>(T));
  std::vector<double> v(static_cast<std::size_t>(T));
  for (std::int64_t b = 0; b < B; ++b) {
    for (std::int64_t tr = 0; tr < p.tiles_r; ++tr) {
      for (std::int64_t tc = 0; tc < p.tiles_c; ++tc) {
        const std::int64_t pid = (b * p.tiles_r + tr) * p.tiles_c + tc;
        for (std::int64_t ni = 0; ni < Ni; ++ni) {
          for (std::int64_t i = 0; i < tile; ++i) {
            for (std::int64_t j = 0; j < tile; ++j) {
              const std::int64_t ri = WinogradPlan::kM * tr + i;
              const std::int64_t ci = WinogradPlan::kM * tc + j;
              d[static_cast<std::size_t>(i * tile + j)] =
                  (ri < Ri && ci < Ci)
                      ? cg.mem().read(in + ((ri * Ni + ni) * Ci + ci) * B + b)
                      : 0.0;
            }
          }
          sandwich(&kBT[0][0], d.data(), v.data(), tile, tile);
          for (std::int64_t t = 0; t < T; ++t)
            cg.mem().write(V + t * Ni * p.P + ni + pid * Ni,
                           static_cast<float>(
                               v[static_cast<std::size_t>(t)]));
        }
      }
    }
  }
}

void WinogradGemmOp::transform_filter(sim::CoreGroup& cg,
                                      sim::MainMemory::Addr w,
                                      sim::MainMemory::Addr U,
                                      const WinogradPlan& p) {
  const ConvShape& s = p.shape;
  const std::int64_t Ni = s.ni, No = s.no;
  constexpr std::int64_t tile = WinogradPlan::kTile, T = WinogradPlan::kT;
  std::vector<double> g(9), tmp(static_cast<std::size_t>(tile * 3)),
      u(static_cast<std::size_t>(T));
  for (std::int64_t no = 0; no < No; ++no) {
    for (std::int64_t ni = 0; ni < Ni; ++ni) {
      for (int kr = 0; kr < 3; ++kr)
        for (int kc = 0; kc < 3; ++kc)
          g[static_cast<std::size_t>(kr * 3 + kc)] =
              cg.mem().read(w + ((kr * 3 + kc) * Ni + ni) * No + no);
      matmul_rm(&kG[0][0], g.data(), tmp.data(), tile, 3, 3);  // G * g
      // u = tmp * G^T.
      for (std::int64_t i = 0; i < tile; ++i) {
        for (std::int64_t j = 0; j < tile; ++j) {
          double acc = 0.0;
          for (int k = 0; k < 3; ++k)
            acc += tmp[static_cast<std::size_t>(i * 3 + k)] * kG[j][k];
          u[static_cast<std::size_t>(i * tile + j)] = acc;
        }
      }
      for (std::int64_t t = 0; t < T; ++t)
        cg.mem().write(U + t * No * Ni + no + ni * No,
                       static_cast<float>(u[static_cast<std::size_t>(t)]));
    }
  }
}

void WinogradGemmOp::inverse_transform(sim::CoreGroup& cg,
                                       sim::MainMemory::Addr Mt,
                                       sim::MainMemory::Addr out,
                                       const WinogradPlan& p) {
  const ConvShape& s = p.shape;
  const std::int64_t B = s.batch, No = s.no;
  const std::int64_t Ro = s.ro(), Co = s.co();
  constexpr std::int64_t tile = WinogradPlan::kTile, T = WinogradPlan::kT,
                         m = WinogradPlan::kM;
  std::vector<double> mm(static_cast<std::size_t>(T));
  std::vector<double> tmp(static_cast<std::size_t>(m * tile));
  std::vector<double> y(static_cast<std::size_t>(m * m));
  for (std::int64_t b = 0; b < B; ++b) {
    for (std::int64_t tr = 0; tr < p.tiles_r; ++tr) {
      for (std::int64_t tc = 0; tc < p.tiles_c; ++tc) {
        const std::int64_t pid = (b * p.tiles_r + tr) * p.tiles_c + tc;
        for (std::int64_t no = 0; no < No; ++no) {
          for (std::int64_t t = 0; t < T; ++t)
            mm[static_cast<std::size_t>(t)] =
                cg.mem().read(Mt + t * No * p.P + no + pid * No);
          matmul_rm(&kAT[0][0], mm.data(), tmp.data(), m, tile, tile);
          // y = tmp * AT^T.
          for (std::int64_t i = 0; i < m; ++i) {
            for (std::int64_t j = 0; j < m; ++j) {
              double acc = 0.0;
              for (std::int64_t k = 0; k < tile; ++k)
                acc += tmp[static_cast<std::size_t>(i * tile + k)] * kAT[j][k];
              y[static_cast<std::size_t>(i * m + j)] = acc;
            }
          }
          for (std::int64_t i = 0; i < m; ++i) {
            for (std::int64_t j = 0; j < m; ++j) {
              const std::int64_t ro = m * tr + i, co = m * tc + j;
              if (ro >= Ro || co >= Co) continue;
              cg.mem().write(
                  out + ((ro * No + no) * Co + co) * B + b,
                  static_cast<float>(y[static_cast<std::size_t>(i * m + j)]));
            }
          }
        }
      }
    }
  }
}

}  // namespace swatop::ops
