#include <gtest/gtest.h>

#include "common/check.hpp"
#include "ir/analysis.hpp"
#include "ir/mutator.hpp"
#include "ir/printer.hpp"

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

TEST(Stmt, BuildersValidate) {
  EXPECT_THROW(make_for("", cst(4), make_seq()), CheckError);
  EXPECT_THROW(make_spm_alloc("b", 0), CheckError);
  EXPECT_THROW(make_dma(StmtKind::Gemm, DmaAttrs{}), CheckError);
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
  EXPECT_EQ(loop_vars(p), (std::vector<std::string>{"m_o", "k_o"}));
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
  q->body[0]->buf_name = "renamed";
  EXPECT_EQ(p->body[0]->buf_name, "spm_A");
  EXPECT_EQ(print(p), print(deep_copy(p)));
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

}  // namespace
}  // namespace swatop::ir
