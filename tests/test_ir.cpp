#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/check.hpp"
#include "ir/analysis.hpp"
#include "ir/mutator.hpp"
#include "ir/printer.hpp"
#include "ops/implicit_conv.hpp"
#include "rt/bind.hpp"
#include "sched/scheduler.hpp"
#include "tune/replay.hpp"

namespace swatop::ir {
namespace {

TEST(Expr, ConstantFolding) {
  EXPECT_EQ(as_cst(add(cst(2), cst(3))), 5);
  EXPECT_EQ(as_cst(mul(cst(4), cst(5))), 20);
  EXPECT_EQ(as_cst(min2(cst(7), cst(3))), 3);
  EXPECT_EQ(as_cst(max2(cst(7), cst(3))), 7);
  EXPECT_EQ(as_cst(floordiv(cst(7), cst(2))), 3);
  EXPECT_EQ(as_cst(mod(cst(7), cst(2))), 1);
  EXPECT_EQ(as_cst(lt(cst(1), cst(2))), 1);
  EXPECT_EQ(as_cst(ge(cst(1), cst(2))), 0);
}

TEST(Expr, IdentityFolding) {
  const Expr x = var("x");
  EXPECT_EQ(add(x, cst(0)).get(), x.get());
  EXPECT_EQ(mul(x, cst(1)).get(), x.get());
  EXPECT_TRUE(is_const(mul(x, cst(0))));
  EXPECT_EQ(as_cst(mul(x, cst(0))), 0);
}

TEST(Expr, EvalWithEnvironment) {
  const Expr e = add(mul(var("i"), cst(8)), var("j"));
  Env env{{"i", 3}, {"j", 2}};
  EXPECT_EQ(eval(e, env), 26);
  env.erase("j");
  EXPECT_THROW(eval(e, env), CheckError);
}

TEST(Expr, EnvRebindsAndUnbinds) {
  const Expr e = add(mul(var("i"), cst(8)), var("j"));
  Env env;
  env["i"] = 1;
  env["j"] = 2;
  env["i"] = 5;  // rebinding replaces, never shadows
  EXPECT_EQ(eval(e, env), 42);
  EXPECT_EQ(env.erase("i"), 1u);
  EXPECT_EQ(env.erase("i"), 0u);
  EXPECT_EQ(env.find("i"), nullptr);
  ASSERT_NE(env.find("j"), nullptr);
  EXPECT_EQ(*env.find("j"), 2);
  EXPECT_EQ(env["k"], 0);  // operator[] binds an unbound name to 0
}

TEST(Expr, SelectEval) {
  const Expr e = select(lt(var("i"), cst(4)), cst(10), cst(20));
  EXPECT_EQ(eval(e, {{"i", 2}}), 10);
  EXPECT_EQ(eval(e, {{"i", 5}}), 20);
}

TEST(Expr, UsesVar) {
  const Expr e = min2(cst(64), sub(cst(100), mul(var("m"), cst(64))));
  EXPECT_TRUE(uses_var(e, "m"));
  EXPECT_FALSE(uses_var(e, "n"));
}

TEST(Expr, Substitute) {
  const Expr e = add(mul(var("k"), cst(32)), cst(7));
  const Expr s = substitute(e, "k", add(var("k"), cst(1)));
  EXPECT_EQ(eval(s, {{"k", 0}}), 39);
  // Substituting with a constant folds completely.
  const Expr c = substitute(e, "k", cst(2));
  EXPECT_TRUE(is_const(c));
  EXPECT_EQ(as_cst(c), 71);
}

TEST(Expr, ToStringReadable) {
  const Expr e = min2(cst(64), sub(cst(100), mul(var("m"), cst(64))));
  EXPECT_EQ(to_string(e), "min(64, (100 - (m*64)))");
}

TEST(Expr, ToStringCoversEveryKind) {
  const Expr e =
      select(lt(var("i"), cst(-4)),
             max2(floordiv(var("j"), cst(3)), mod(var("i"), cst(2))),
             ge(add(var("j"), cst(123456789012)), cst(0)));
  EXPECT_EQ(to_string(e),
            "((i < -4) ? max((j/3), (i%2)) : ((j + 123456789012) >= 0))");
  EXPECT_EQ(to_string(nullptr), "<null>");
}

TEST(Expr, SubstituteKeepsUntouchedSubtrees) {
  const Expr e = add(mul(var("k"), cst(32)), min2(var("j"), cst(7)));
  // Absent variable: the very same node comes back, nothing is rebuilt.
  EXPECT_EQ(substitute(e, "m", cst(0)).get(), e.get());
  // Present variable: only the path to it is rebuilt.
  const Expr s = substitute(e, "j", cst(2));
  EXPECT_NE(s.get(), e.get());
  EXPECT_EQ(s->a.get(), e->a.get());
  EXPECT_EQ(to_string(s), "((k*32) + 2)");
  // Several variables in one visit.
  const VarId both[] = {"k", "j"};
  EXPECT_EQ(as_cst(substitute(e, both, cst(1))), 33);
}

TEST(VarId, EqualNamesGetEqualIds) {
  const VarId a("m_o");
  EXPECT_TRUE(a.valid());
  EXPECT_EQ(a, VarId(std::string("m_o")));
  EXPECT_EQ(a, VarId(std::string_view("m_o_x").substr(0, 3)));
  EXPECT_NE(a, VarId("k_o"));
  EXPECT_EQ(a.name(), "m_o");
  EXPECT_EQ(var("m_o")->var, a);
  EXPECT_FALSE(VarId().valid());
  EXPECT_THROW(VarId(""), CheckError);
}

TEST(VarId, ConcurrentInterningAgrees) {
  // Eight threads intern overlapping name sets in different orders and
  // look names up while others intern; the process-wide table must give
  // every thread the same id for a name. Enough names that the table's
  // storage grows while other threads read it.
  constexpr int kThreads = 8, kNames = 2048;
  auto name = [](int i) { return "concurrent_" + std::to_string(i); };
  std::vector<std::map<std::string, std::int32_t>> seen(kThreads);
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      for (int k = 0; k < kNames / 2; ++k) {
        const std::string n = name((t * 5 + k) % kNames);
        const VarId v(n);
        EXPECT_EQ(v.name(), n);
        seen[static_cast<std::size_t>(t)][n] = v.index();
      }
    });
  }
  for (std::thread& th : pool) th.join();
  std::map<std::int32_t, std::string> by_id;
  for (const auto& m : seen) {
    for (const auto& [n, id] : m) {
      EXPECT_EQ(id, VarId(n).index()) << n;
      EXPECT_EQ(VarId(n).name(), n);
      const auto [it, fresh] = by_id.emplace(id, n);
      EXPECT_EQ(it->second, n) << "id " << id << " shared by two names";
    }
  }
}

TEST(Stmt, BuildersValidate) {
  EXPECT_THROW(make_for("", cst(4), make_seq()), CheckError);
  EXPECT_THROW(make_spm_alloc("b", 0), CheckError);
  EXPECT_THROW(make_dma(StmtKind::Gemm, DmaAttrs{}), CheckError);
}

/// Checks `n` through the node type T: as<T>() reaches the node itself
/// when T holds its kind and throws CheckError otherwise, on both the
/// mutable and the const accessor. Returns 1 when T holds the kind.
template <class T>
int expect_as(const StmtPtr& n) {
  const Stmt& c = *n;
  EXPECT_EQ(n->is<T>(), T::holds(n->kind)) << T::kName;
  if (!T::holds(n->kind)) {
    EXPECT_THROW(n->as<T>(), CheckError) << T::kName;
    EXPECT_THROW(c.as<T>(), CheckError) << T::kName;
    return 0;
  }
  EXPECT_EQ(static_cast<Stmt*>(&n->as<T>()), n.get()) << T::kName;
  EXPECT_EQ(static_cast<const Stmt*>(&c.as<T>()), n.get()) << T::kName;
  return 1;
}

TEST(Stmt, CheckedAccessorRefusesEveryOtherKind) {
  // One node of each kind, in StmtKind order.
  const std::vector<StmtPtr> nodes = {
      make_seq(),
      make_for("i", cst(2), make_seq()),
      make_if(cst(1), make_seq()),
      make_spm_alloc("b", 8),
      make_spm_zero("b", cst(0), cst(8)),
      make_dma(StmtKind::DmaGet, DmaAttrs{}),
      make_dma(StmtKind::DmaPut, DmaAttrs{}),
      make_dma_wait(cst(0)),
      make_gemm(GemmAttrs{}),
  };
  for (std::size_t k = 0; k < nodes.size(); ++k) {
    const StmtPtr& n = nodes[k];
    SCOPED_TRACE(kind_name(n->kind));
    EXPECT_EQ(n->kind, static_cast<StmtKind>(k));
    // Exactly one node type holds each kind.
    EXPECT_EQ(expect_as<Seq>(n) + expect_as<For>(n) + expect_as<If>(n) +
                  expect_as<SpmAlloc>(n) + expect_as<SpmZero>(n) +
                  expect_as<Dma>(n) + expect_as<DmaWait>(n) +
                  expect_as<Gemm>(n),
              1);
  }
}

TEST(Stmt, LoopNestNodesAreSmall) {
  // Seqs and Fors are most of the nodes the tuner builds.
  EXPECT_LE(sizeof(Seq), 64u);
  EXPECT_LE(sizeof(For), 64u);
}

StmtPtr sample_program() {
  GemmAttrs g;
  g.M = cst(64);
  g.N = cst(64);
  g.K = cst(32);
  g.a = {"A", var("m_o"), 1, 64, cst(64), cst(32)};
  g.b = {"B", cst(0), 1, 32, cst(32), cst(64)};
  g.c = {"C", var("m_o"), 1, 64, cst(64), cst(64)};
  auto body = make_seq({make_gemm(g)});
  auto k = make_for("k_o", cst(4), body, /*reduction=*/true);
  auto root = make_seq({make_spm_alloc("spm_A", 256, true),
                        make_spm_alloc("spm_C", 512),
                        make_for("m_o", cst(2), make_seq({k}))});
  return root;
}

TEST(Analysis, SpmFootprintCountsDoubleBuffers) {
  const auto p = sample_program();
  // 256 doubled = 512, plus 512 = 1024.
  EXPECT_EQ(spm_footprint(p), 1024);
}

TEST(Analysis, LoopVarsOutermostFirst) {
  const auto p = sample_program();
  EXPECT_EQ(loop_vars(p), (std::vector<VarId>{"m_o", "k_o"}));
}

TEST(Analysis, FindGemmsAndStaticCount) {
  const auto p = sample_program();
  EXPECT_EQ(find_gemms(p).size(), 1u);
  EXPECT_EQ(static_gemm_count(p), 8);  // 2 * 4 iterations
}

TEST(Analysis, ContainsKind) {
  const auto p = sample_program();
  EXPECT_TRUE(contains_kind(p, StmtKind::Gemm));
  EXPECT_FALSE(contains_kind(p, StmtKind::DmaGet));
}

TEST(Mutator, DeepCopyIsIndependent) {
  const auto p = sample_program();
  const auto q = deep_copy(p);
  q->as<Seq>().body[0]->as<SpmAlloc>().buf_name = "renamed";
  EXPECT_EQ(p->as<Seq>().body[0]->as<SpmAlloc>().buf_name, "spm_A");
  EXPECT_EQ(print(p), print(deep_copy(p)));
}

TEST(Mutator, DeepCopyOfOptimizedConvsSharesNoNode) {
  // Fused bias + relu + output pad on ragged channel tiles: the kept
  // candidates hold every kind of node between them (zero-fill guards,
  // cache fills, prefetch guards).
  ops::ConvShape shape;
  shape.batch = 2;
  shape.ni = 48;
  shape.no = 40;
  shape.ri = shape.ci = 7;
  shape.kr = shape.kc = 3;
  dsl::EpilogueSpec epi;
  epi.bias = true;
  epi.relu = true;
  epi.out_pad = 1;
  const ops::ImplicitConvOp op(shape, epi);
  const sim::SimConfig cfg;
  sim::MainMemory mem;
  mem.set_materialize(false);
  const dsl::BoundTensors bt = rt::bind_tensors(mem, op);
  const std::vector<sched::Candidate> cands =
      sched::Scheduler(cfg).candidates(op);
  ASSERT_FALSE(cands.empty());
  std::set<StmtKind> kinds;
  for (const sched::Candidate& c : cands) {
    const StmtPtr copy = deep_copy(c.program);
    EXPECT_EQ(tune::replay_key(copy, bt, cfg),
              tune::replay_key(c.program, bt, cfg))
        << c.strategy.to_string();
    std::set<const Stmt*> source;
    visit(c.program, [&](const StmtPtr& n) {
      source.insert(n.get());
      kinds.insert(n->kind);
    });
    std::size_t copied = 0, shared = 0;
    visit(copy, [&](const StmtPtr& n) {
      ++copied;
      shared += source.count(n.get());
    });
    EXPECT_EQ(copied, source.size()) << c.strategy.to_string();
    EXPECT_EQ(shared, 0u) << c.strategy.to_string();
  }
  EXPECT_EQ(kinds.size(), 9u);
}

TEST(Mutator, TransformDeletesInSeq) {
  auto p = sample_program();
  p = transform(p, [](StmtPtr s) -> StmtPtr {
    if (s->kind == StmtKind::SpmAlloc) return nullptr;
    return s;
  });
  EXPECT_FALSE(contains_kind(p, StmtKind::SpmAlloc));
  EXPECT_TRUE(contains_kind(p, StmtKind::Gemm));
}

TEST(Mutator, VisitReachesAllNodes) {
  int count = 0;
  visit(sample_program(), [&](const StmtPtr&) { ++count; });
  // Seq + 2 allocs + for + seq + for + seq + gemm = 8.
  EXPECT_EQ(count, 8);
}

TEST(Printer, ShowsStructure) {
  const std::string s = print(sample_program());
  EXPECT_NE(s.find("for m_o in [0, 2)"), std::string::npos);
  EXPECT_NE(s.find("double buffered"), std::string::npos);
  EXPECT_NE(s.find("gemm_op M=64"), std::string::npos);
}

TEST(Printer, FullTextIsPinned) {
  EXPECT_EQ(print(sample_program()),
            "spm_alloc spm_A[256] x2 (double buffered)\n"
            "spm_alloc spm_C[512]\n"
            "for m_o in [0, 2) {\n"
            "  for k_o in [0, 4) {\n"
            "    gemm_op M=64 N=64 K=32 variant=0 A=A[base=m_o, 64x32, sr=1, "
            "sc=64] B=B[base=0, 32x64, sr=1, sc=32] C=C[base=m_o, 64x64, "
            "sr=1, sc=64]\n"
            "  }\n"
            "}\n");
}

}  // namespace
}  // namespace swatop::ir
