#include <gtest/gtest.h>

#include "baseline/manual_explicit.hpp"
#include "common/check.hpp"
#include "baseline/manual_winograd.hpp"
#include "baseline/swdnn_conv.hpp"
#include "baseline/xmath_gemm.hpp"
#include "ops/reference.hpp"
#include "ops/tensor.hpp"
#include "tune/tuner.hpp"

namespace swatop::baseline {
namespace {

sim::SimConfig cfg;

ops::ConvShape shape(std::int64_t batch, std::int64_t ni, std::int64_t no,
                     std::int64_t hw, std::int64_t k = 3) {
  ops::ConvShape s;
  s.batch = batch;
  s.ni = ni;
  s.no = no;
  s.ri = hw + k - 1;
  s.ci = hw + k - 1;
  s.kr = k;
  s.kc = k;
  return s;
}

TEST(XMath, FixedStrategyClampsIntoMenus) {
  ops::MatmulOp op(64, 64, 32);
  const auto s = XMathGemm::fixed_strategy(op);
  // Whatever the frozen square-DGEMM blocking is, it must be clamped into
  // this small operator's menus and stay a valid strategy.
  EXPECT_LE(s.factor("Tm"), 64);
  EXPECT_LE(s.factor("Tn"), 64);
  EXPECT_LE(s.factor("Tk"), 32);
  EXPECT_EQ(s.choice("boundary"), "pad");
  EXPECT_GT(tune::measure_strategy(op, s, cfg), 0.0);
}

TEST(XMath, FunctionalMatchesReferenceAligned) {
  const std::int64_t M = 64, N = 64, K = 32;
  XMathGemm gemm(cfg);
  sim::CoreGroup cg(cfg);
  const auto A = cg.mem().alloc(M * K);
  const auto B = cg.mem().alloc(K * N);
  const auto C = cg.mem().alloc(M * N);
  ops::Prng rng(11);
  for (std::int64_t i = 0; i < M * K; ++i) cg.mem().write(A + i, rng.next());
  for (std::int64_t i = 0; i < K * N; ++i) cg.mem().write(B + i, rng.next());
  gemm.run(cg, A, B, C, M, N, K);

  std::vector<float> a(static_cast<std::size_t>(M * K));
  std::vector<float> b(static_cast<std::size_t>(K * N));
  std::vector<float> ref(static_cast<std::size_t>(M * N));
  cg.mem().copy_out(A, a);
  cg.mem().copy_out(B, b);
  ops::reference_gemm(a.data(), b.data(), ref.data(), M, N, K);
  std::vector<float> got(ref.size());
  cg.mem().copy_out(C, got);
  EXPECT_LE(ops::max_abs_diff(got.data(), ref.data(), M * N), 2e-3);
}

TEST(XMath, FunctionalMatchesReferenceUnaligned) {
  const std::int64_t M = 50, N = 46, K = 25;
  XMathGemm gemm(cfg);
  sim::CoreGroup cg(cfg);
  const auto A = cg.mem().alloc(M * K);
  const auto B = cg.mem().alloc(K * N);
  const auto C = cg.mem().alloc(M * N);
  ops::Prng rng(12);
  for (std::int64_t i = 0; i < M * K; ++i) cg.mem().write(A + i, rng.next());
  for (std::int64_t i = 0; i < K * N; ++i) cg.mem().write(B + i, rng.next());
  gemm.run(cg, A, B, C, M, N, K);

  std::vector<float> a(static_cast<std::size_t>(M * K));
  std::vector<float> b(static_cast<std::size_t>(K * N));
  std::vector<float> ref(static_cast<std::size_t>(M * N));
  cg.mem().copy_out(A, a);
  cg.mem().copy_out(B, b);
  ops::reference_gemm(a.data(), b.data(), ref.data(), M, N, K);
  std::vector<float> got(ref.size());
  cg.mem().copy_out(C, got);
  EXPECT_LE(ops::max_abs_diff(got.data(), ref.data(), M * N), 2e-3);
}

TEST(XMath, AlignedPredicateAndPaddingCost) {
  XMathGemm gemm(cfg);
  EXPECT_TRUE(XMathGemm::aligned(256, 256, 256));
  EXPECT_FALSE(XMathGemm::aligned(200, 256, 256));
  EXPECT_DOUBLE_EQ(gemm.padding_cycles(256, 256, 256), 0.0);
  EXPECT_GT(gemm.padding_cycles(200, 200, 200), 0.0);
}

TEST(XMath, UnalignedPaysPaddingTax) {
  XMathGemm gemm(cfg);
  // Same padded problem, one starting unaligned: the unaligned one must
  // cost strictly more.
  const double aligned = gemm.cycles(512, 512, 512);
  const double unaligned = gemm.cycles(500, 500, 500);
  EXPECT_GT(unaligned, aligned * 0.999);
  EXPECT_GT(unaligned - aligned + gemm.padding_cycles(500, 500, 500),
            gemm.padding_cycles(500, 500, 500) * 0.5);
}

TEST(SwDnn, ApplicabilityEnvelope) {
  EXPECT_TRUE(SwDnnConv::applicable(shape(32, 64, 64, 14)));
  EXPECT_FALSE(SwDnnConv::applicable(shape(1, 64, 64, 14)));    // batch 1
  EXPECT_FALSE(SwDnnConv::applicable(shape(32, 48, 64, 14)));   // Ni % 32
  EXPECT_FALSE(SwDnnConv::applicable(shape(32, 32, 64, 14)));   // Ni < 64
}

TEST(SwDnn, FixedScheduleRunsAndCosts) {
  SwDnnConv conv(cfg);
  const double t = conv.cycles(shape(32, 64, 64, 14));
  EXPECT_GT(t, 0.0);
  EXPECT_THROW(conv.cycles(shape(1, 64, 64, 14)), CheckError);
}

TEST(SwDnn, FrozenOrderAlwaysHasAProgram) {
  // The frozen schedule runs on layers where its loop order is a twin of
  // an earlier one (one input-channel tile, a 1x1 kernel); it then runs
  // as the order the space keeps, the same program.
  for (const ops::ConvShape& s :
       {shape(32, 64, 64, 14), shape(32, 64, 64, 14, 1),
        shape(32, 512, 256, 7, 1)}) {
    const ops::ImplicitConvOp op(s);
    EXPECT_NE(op.lower(SwDnnConv::fixed_strategy(op)), nullptr)
        << s.to_string();
  }
}

TEST(SwDnn, CostGrowsWithWork) {
  SwDnnConv conv(cfg);
  EXPECT_GT(conv.cycles(shape(32, 128, 128, 14)),
            conv.cycles(shape(32, 64, 64, 14)));
}

TEST(ManualWinograd, SixteenCallsDominatePrePost) {
  ManualWinogradConv conv(cfg);
  const auto s = shape(32, 64, 64, 14);
  const double total = conv.cycles(s);
  const double pre_post = ops::WinogradGemmOp(s).pass_cycles(cfg);
  EXPECT_GT(total, pre_post);
}

TEST(ManualExplicit, CostsImToColPlusGemm) {
  ManualExplicitConv conv(cfg);
  const auto s = shape(8, 32, 32, 8);
  const double total = conv.cycles(s);
  EXPECT_GT(total, ops::ExplicitConvOp(s).pass_cycles(cfg));
}

}  // namespace
}  // namespace swatop::baseline
