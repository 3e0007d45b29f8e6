#include <gtest/gtest.h>

#include <algorithm>

#include "codegen/c_emitter.hpp"
#include "ops/implicit_conv.hpp"
#include "ops/matmul.hpp"
#include "tune/tuner.hpp"

namespace swatop::codegen {
namespace {

sim::SimConfig cfg;

std::string emit_matmul(std::int64_t M, std::int64_t N, std::int64_t K) {
  ops::MatmulOp op(M, N, K);
  dsl::Strategy s;
  s.set_factor("Tm", 64);
  s.set_factor("Tn", 64);
  s.set_factor("Tk", 32);
  s.set_choice("order", "mnk");
  s.set_choice("variant", "0");
  s.set_choice("boundary", "pad");
  const auto cand = tune::build_candidate(op, s, cfg);
  return emit_c(cand.program, {"test_kernel"});
}

TEST(CEmitter, BalancedBraces) {
  const std::string src = emit_matmul(128, 128, 64);
  EXPECT_EQ(std::count(src.begin(), src.end(), '{'),
            std::count(src.begin(), src.end(), '}'));
  EXPECT_EQ(std::count(src.begin(), src.end(), '('),
            std::count(src.begin(), src.end(), ')'));
}

TEST(CEmitter, DeclaresCoalescedSpmBuffers) {
  const std::string src = emit_matmul(128, 128, 64);
  EXPECT_NE(src.find("static __thread_local float spm_A["),
            std::string::npos);
  EXPECT_NE(src.find("static __thread_local float spm_B["),
            std::string::npos);
  EXPECT_NE(src.find("static __thread_local float spm_C["),
            std::string::npos);
  EXPECT_NE(src.find("coalesced SPM footprint"), std::string::npos);
}

TEST(CEmitter, EmitsPrimitiveCalls) {
  const std::string src = emit_matmul(128, 128, 64);
  EXPECT_NE(src.find("spm_gemm("), std::string::npos);
  EXPECT_NE(src.find("swDMA_get_2d("), std::string::npos);
  EXPECT_NE(src.find("swDMA_put_2d("), std::string::npos);
  EXPECT_NE(src.find("swDMAWait("), std::string::npos);
  EXPECT_NE(src.find("void test_kernel("), std::string::npos);
}

TEST(CEmitter, EmitsTensorArguments) {
  const std::string src = emit_matmul(128, 128, 64);
  EXPECT_NE(src.find("float *A = args->A;"), std::string::npos);
  EXPECT_NE(src.find("float *B = args->B;"), std::string::npos);
  EXPECT_NE(src.find("float *C = args->C;"), std::string::npos);
}

TEST(CEmitter, BoundaryMinMacros) {
  // Ragged shape: the emitted code must carry min() boundary expressions.
  const std::string src = emit_matmul(100, 128, 64);
  EXPECT_NE(src.find("SWATOP_MIN("), std::string::npos);
  EXPECT_NE(src.find("#define SWATOP_MIN"), std::string::npos);
}

TEST(CEmitter, DoubleBufferAnnotations) {
  // One m and one n tile: no operand is cached, so the k loop's gets are
  // double-buffered.
  const std::string src = emit_matmul(64, 64, 128);
  EXPECT_NE(src.find("/* double buffered */"), std::string::npos);
  EXPECT_NE(src.find("%"), std::string::npos);  // parity arithmetic
}

TEST(CEmitter, ConvKernelMentionsAllTensors) {
  ops::ConvShape shape;
  shape.batch = 32;  // Tco * batch feeds the vec-N constraint
  shape.ni = 32;
  shape.no = 32;
  shape.ri = 8;
  shape.ci = 8;
  ops::ImplicitConvOp op(shape);
  dsl::Strategy s;
  s.set_factor("Tno", 32);
  s.set_factor("Tni", 32);
  s.set_factor("Tco", 1);
  s.set_choice("wlayout", "no_major");
  s.set_choice("order", "rcouvi");
  s.set_choice("variant", "6");
  s.set_choice("boundary", "pad");
  const auto cand = tune::build_candidate(op, s, cfg);
  const std::string src = emit_c(cand.program);
  EXPECT_NE(src.find("args->in"), std::string::npos);
  EXPECT_NE(src.find("args->w"), std::string::npos);
  EXPECT_NE(src.find("args->out"), std::string::npos);
  EXPECT_NE(src.find("for (long r = 0;"), std::string::npos);
}

}  // namespace
}  // namespace swatop::codegen
