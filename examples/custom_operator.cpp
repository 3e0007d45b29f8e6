// Define your own operator through the DSL builder -- no subclassing.
//
// The operator here is a scaled residual GEMM, C = A x B computed tile by
// tile (the schedule seed), with split factors, loop orders and kernel
// variants as the schedule space -- exactly the description-plus-space
// split of the paper's Fig. 4. The tuner, runtime and code generator all
// accept the built operator like the library-provided ones.
//
//   $ ./custom_operator [M N K]
#include <cstdio>
#include <cstdlib>

#include "graph/compile.hpp"
#include "dsl/builder.hpp"
#include "isa/kernel_gen.hpp"
#include "opt/boundary.hpp"
#include "ops/reference.hpp"
#include "ops/tensor.hpp"
#include "sched/lower.hpp"

using namespace swatop;

int main(int argc, char** argv) {
  const std::int64_t M = argc > 1 ? std::atoll(argv[1]) : 120;
  const std::int64_t N = argc > 2 ? std::atoll(argv[2]) : 80;
  const std::int64_t K = argc > 3 ? std::atoll(argv[3]) : 48;

  auto op =
      dsl::GemmOpBuilder("custom_gemm")
          .tensor("A", M * K)
          .tensor("B", K * N)
          .tensor("C", M * N, /*is_output=*/true)
          .factor({"Tm", {32, 64}})
          .factor({"Tn", {32, 64}})
          .factor({"Tk", {16, 32}})
          .choice({"order", {"mnk", "nmk"}})
          .choice({"variant", {"0", "2", "6"}})
          .flops(2 * M * N * K)
          .lower_with([=](const dsl::Strategy& s) -> ir::StmtPtr {
            const std::int64_t Tm = s.factor("Tm");
            const std::int64_t Tn = s.factor("Tn");
            const std::int64_t Tk = s.factor("Tk");
            const opt::TiledDim dm = opt::make_tiled("m_o", M, Tm);
            const opt::TiledDim dn = opt::make_tiled("n_o", N, Tn);
            const opt::TiledDim dk = opt::make_tiled("k_o", K, Tk);

            ir::GemmAttrs g;
            g.variant = std::stoi(s.choice("variant"));
            g.M = ir::cst(Tm);
            g.N = ir::cst(Tn);
            g.K = ir::cst(Tk);
            g.a = {"A", ir::add(dm.base(), ir::mul(dk.base(), ir::cst(M))),
                   1, M, dm.valid(), dk.valid()};
            g.b = {"B", ir::add(dk.base(), ir::mul(dn.base(), ir::cst(K))),
                   1, K, dk.valid(), dn.valid()};
            g.c = {"C", ir::add(dm.base(), ir::mul(dn.base(), ir::cst(M))),
                   1, M, dm.valid(), dn.valid()};

            const std::vector<std::pair<char, sched::LoopSpec>> dims = {
                {'m', {"m_o", ir::cst(dm.count), false}},
                {'n', {"n_o", ir::cst(dn.count), false}},
                {'k', {"k_o", ir::cst(dk.count), true}},
            };
            return sched::build_nest(
                sched::order_loops(s.choice("order"), dims),
                ir::make_gemm(g));
          })
          .fill_with([=](sim::CoreGroup& cg, const dsl::BoundTensors& bt,
                         const dsl::Strategy&) {
            ops::Prng rng(1);
            for (const char* t : {"A", "B"}) {
              auto v = cg.mem().view(bt.at(t), t[0] == 'A' ? M * K : K * N);
              for (float& x : v) x = rng.next();
            }
          })
          .check_with([=](sim::CoreGroup& cg, const dsl::BoundTensors& bt,
                          const dsl::Strategy&) {
            std::vector<float> a(static_cast<std::size_t>(M * K));
            std::vector<float> b(static_cast<std::size_t>(K * N));
            std::vector<float> ref(static_cast<std::size_t>(M * N));
            cg.mem().copy_out(bt.at("A"), a);
            cg.mem().copy_out(bt.at("B"), b);
            ops::reference_gemm(a.data(), b.data(), ref.data(), M, N, K);
            auto got = cg.mem().view(bt.at("C"), M * N);
            return ops::max_abs_diff(got.data(), ref.data(), M * N);
          })
          .build();

  CompiledOp compiled = compile(*op);
  std::printf("custom operator tuned: %s\n",
              compiled.candidate.strategy.to_string().c_str());

  // The compiled handle owns the core group, binding and input fill.
  const auto r = compiled.run();
  const double err = compiled.check();
  std::printf("ran in %.0f simulated cycles, max |err| = %.2e %s\n",
              r.cycles, err, err < 2e-3 ? "(OK)" : "(FAILED)");
  return err < 2e-3 ? 0 : 1;
}
