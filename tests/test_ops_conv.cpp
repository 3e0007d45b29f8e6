#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "ir/mutator.hpp"
#include "ops/explicit_conv.hpp"
#include "ir/analysis.hpp"
#include "ops/implicit_conv.hpp"
#include "ops/matmul.hpp"
#include "ops/reference.hpp"
#include "ops/tensor.hpp"
#include "ops/winograd.hpp"
#include "rt/bind.hpp"
#include "rt/interpreter.hpp"
#include "sched/scheduler.hpp"
#include "tune/replay.hpp"
#include "tune/tuner.hpp"

namespace swatop::ops {
namespace {

sim::SimConfig cfg;

ConvShape small_shape(std::int64_t batch = 4, std::int64_t ni = 32,
                      std::int64_t no = 32, std::int64_t hw = 8,
                      std::int64_t k = 3) {
  ConvShape s;
  s.batch = batch;
  s.ni = ni;
  s.no = no;
  s.ri = hw + k - 1;
  s.ci = hw + k - 1;
  s.kr = k;
  s.kc = k;
  return s;
}

double run_and_check(const dsl::OperatorDef& op, const dsl::Strategy& s,
                     const sim::SimConfig& c = cfg) {
  const auto cand = tune::build_candidate(op, s, c);
  sim::CoreGroup cg(c);
  const auto bt = rt::bind_tensors(cg, op);
  op.fill_inputs(cg, bt, s);
  rt::Interpreter interp(cg, sim::ExecMode::Functional);
  interp.run(cand.program, bt);
  return op.check_output(cg, bt, s);
}

dsl::Strategy implicit_strategy(std::int64_t tno, std::int64_t tni,
                                std::int64_t tco, const std::string& layout,
                                const std::string& order,
                                const std::string& variant) {
  dsl::Strategy s;
  s.set_factor("Tno", tno);
  s.set_factor("Tni", tni);
  s.set_factor("Tco", tco);
  s.set_choice("wlayout", layout);
  s.set_choice("order", order);
  s.set_choice("variant", variant);
  s.set_choice("boundary", "pad");
  return s;
}

TEST(ConvShape, Geometry) {
  const ConvShape s = small_shape(2, 16, 32, 10, 3);
  EXPECT_EQ(s.ro(), 10);
  EXPECT_EQ(s.co(), 10);
  EXPECT_EQ(s.flops(), 2 * 2 * 16 * 32 * 10 * 10 * 9);
  EXPECT_FALSE(s.to_string().empty());
}

// ---------------------------------------------------------------------------
// reference_conv is blocked for speed but must stay the independent oracle:
// byte for byte the direct definition, kept here as the plain 7-deep nest.

std::vector<float> direct_conv(const std::vector<float>& in,
                               const std::vector<float>& w,
                               const ConvShape& s) {
  const std::int64_t B = s.batch, Ni = s.ni, No = s.no, Ci = s.ci;
  const std::int64_t Ro = s.ro(), Co = s.co();
  auto in_at = [&](std::int64_t ri, std::int64_t ni, std::int64_t ci,
                   std::int64_t b) {
    return in[static_cast<std::size_t>(((ri * Ni + ni) * Ci + ci) * B + b)];
  };
  auto w_at = [&](std::int64_t kr, std::int64_t kc, std::int64_t ni,
                  std::int64_t no) {
    return w[static_cast<std::size_t>(((kr * s.kc + kc) * Ni + ni) * No + no)];
  };
  std::vector<float> out(static_cast<std::size_t>(Ro * No * Co * B));
  for (std::int64_t ro = 0; ro < Ro; ++ro)
    for (std::int64_t no = 0; no < No; ++no)
      for (std::int64_t co = 0; co < Co; ++co)
        for (std::int64_t b = 0; b < B; ++b) {
          float acc = 0.0f;
          for (std::int64_t kr = 0; kr < s.kr; ++kr)
            for (std::int64_t kc = 0; kc < s.kc; ++kc)
              for (std::int64_t ni = 0; ni < Ni; ++ni)
                acc += in_at(ro * s.stride + kr, ni, co * s.stride + kc, b) *
                       w_at(kr, kc, ni, no);
          out[static_cast<std::size_t>(((ro * No + no) * Co + co) * B + b)] =
              acc;
        }
  return out;
}

struct ConvCase {
  std::int64_t batch, ni, no, out_hw, kr, kc, stride;
};

class ReferenceConvBitExact : public ::testing::TestWithParam<ConvCase> {};

TEST_P(ReferenceConvBitExact, MatchesDirectNestByteForByte) {
  const ConvCase c = GetParam();
  ConvShape s;
  s.batch = c.batch;
  s.ni = c.ni;
  s.no = c.no;
  s.kr = c.kr;
  s.kc = c.kc;
  s.stride = c.stride;
  s.ri = c.kr + c.stride * (c.out_hw - 1);
  s.ci = c.kc + c.stride * (c.out_hw - 1);
  ASSERT_EQ(s.co(), c.out_hw);
  Prng rng(static_cast<std::uint64_t>(c.ni * 131 + c.no * 7 + c.stride));
  std::vector<float> in(
      static_cast<std::size_t>(s.ri * s.ni * s.ci * s.batch));
  std::vector<float> w(static_cast<std::size_t>(s.kr * s.kc * s.ni * s.no));
  for (float& v : in) v = rng.next();
  for (float& v : w) v = rng.next();

  const std::vector<float> want = direct_conv(in, w, s);
  std::vector<float> got(want.size(),
                         std::numeric_limits<float>::quiet_NaN());
  reference_conv(in.data(), w.data(), got.data(), s);
  for (std::size_t i = 0; i < want.size(); ++i) {
    if (std::memcmp(&got[i], &want[i], sizeof(float)) != 0) {
      FAIL() << s.to_string() << ": output " << i << " is " << got[i]
             << ", the direct nest gives " << want[i];
    }
  }
}

// 1x1 and 3x3, stride 1 and 2, batch 1 and 3, Ni = 3, No off the 8-channel
// block (12, 20) and Co * B off the 4-position block (5, 15, 21, 7).
INSTANTIATE_TEST_SUITE_P(
    Shapes, ReferenceConvBitExact,
    ::testing::Values(ConvCase{1, 3, 12, 5, 1, 1, 1},
                      ConvCase{3, 3, 12, 7, 3, 3, 1},
                      ConvCase{1, 3, 12, 5, 3, 3, 2},
                      ConvCase{3, 3, 12, 5, 3, 3, 2},
                      ConvCase{3, 3, 12, 5, 1, 1, 2},
                      ConvCase{1, 64, 16, 7, 3, 3, 1},
                      ConvCase{2, 32, 20, 6, 3, 3, 1},
                      ConvCase{3, 5, 8, 4, 3, 1, 1}));

TEST(ImplicitConv, Applicability) {
  // Every stride-1 layer, however few its input channels: the paper's
  // Ni = 3 first layers take one zero-padded K tile.
  EXPECT_TRUE(ImplicitConvOp::applicable(small_shape(1, 32, 32, 8)));
  EXPECT_TRUE(ImplicitConvOp::applicable(small_shape(1, 3, 64, 8)));
  // A strided layer (no output-column fusion) still needs ni >= 32.
  ConvShape strided = small_shape(1, 3, 64, 8);
  strided.stride = 2;
  EXPECT_FALSE(ImplicitConvOp::applicable(strided));
  strided.ni = 32;
  EXPECT_TRUE(ImplicitConvOp::applicable(strided));
}

TEST(ImplicitConv, SmallNiSearchesOneKTileOfItsChannels) {
  // Fewer than 32 input channels: one K tile, the channel count rounded up
  // to 8. From 32 channels on, the menu is the 32-aligned one.
  const std::pair<std::int64_t, std::vector<std::int64_t>> cases[] = {
      {3, {8}}, {8, {8}}, {20, {24}}, {32, {32}}, {48, {32, 64}}};
  for (const auto& [ni, menu] : cases) {
    const dsl::ScheduleSpace space =
        ImplicitConvOp(small_shape(1, ni, 32, 8)).space();
    for (const dsl::FactorVar& f : space.factors()) {
      if (f.name == "Tni") {
        EXPECT_EQ(f.candidates, menu) << "ni " << ni;
      }
    }
  }
}

class ImplicitConvOrders : public ::testing::TestWithParam<const char*> {};

TEST_P(ImplicitConvOrders, AllOrdersCorrect) {
  // Two input- and two output-channel tiles, so that no order is
  // another's twin.
  ImplicitConvOp op(small_shape(4, 64, 64));
  EXPECT_LE(run_and_check(op, implicit_strategy(32, 32, 8, "no_major",
                                                GetParam(), "6")),
            2e-3);
}

INSTANTIATE_TEST_SUITE_P(Orders, ImplicitConvOrders,
                         ::testing::Values("rcouvi", "rcoiuv", "rcuvio",
                                           "rouvci", "orcuvi"));

TEST(ImplicitConv, BothWeightLayoutsCorrect) {
  ImplicitConvOp op(small_shape());
  EXPECT_LE(run_and_check(op, implicit_strategy(32, 32, 8, "no_major",
                                                "rcouvi", "6")),
            2e-3);
  EXPECT_LE(run_and_check(op, implicit_strategy(32, 32, 8, "ni_major",
                                                "rcouvi", "6")),
            2e-3);
}

class ImplicitConvVariants : public ::testing::TestWithParam<int> {};

TEST_P(ImplicitConvVariants, SampleVariantsCorrect) {
  ImplicitConvOp op(small_shape(8, 32, 32, 8));
  EXPECT_LE(run_and_check(
                op, implicit_strategy(32, 32, 4, "no_major", "rcouvi",
                                      std::to_string(GetParam()))),
            2e-3);
}

INSTANTIATE_TEST_SUITE_P(Variants, ImplicitConvVariants,
                         ::testing::Values(0, 2, 4, 6, 7));

TEST(ImplicitConv, ColumnFusionEnlargesGemm) {
  // Tco = 4 fuses four output columns with the batch into one GEMM N dim.
  ImplicitConvOp op(small_shape(8, 32, 32, 8));
  EXPECT_LE(run_and_check(op, implicit_strategy(32, 32, 4, "no_major",
                                                "rcouvi", "6")),
            2e-3);
}

TEST(ImplicitConv, RaggedChannelsAndColumns) {
  ConvShape s = small_shape(8, 48, 48, 7);  // Ni/No not multiples of 32
  ImplicitConvOp op(s);
  EXPECT_LE(run_and_check(op, implicit_strategy(32, 32, 4, "no_major",
                                                "rcouvi", "6")),
            2e-3);
}

TEST(ImplicitConv, SpaceRespectsBatchConstraint) {
  // Batch 1: Tco * 1 must be a multiple of 8.
  ImplicitConvOp op(small_shape(1, 32, 32, 16));
  const dsl::ScheduleSpace sp = op.space();
  for (const auto& f : sp.factors()) {
    if (f.name != "Tco") continue;
    for (std::int64_t c : f.candidates) EXPECT_EQ(c % 8, 0);
  }
}

dsl::EpilogueSpec full_epilogue() {
  dsl::EpilogueSpec epi;
  epi.bias = true;
  epi.residual = true;
  epi.relu = true;
  return epi;
}

TEST(FusedImplicitConv, BiasReluMatchesReference) {
  dsl::EpilogueSpec epi;
  epi.bias = true;
  epi.relu = true;
  ImplicitConvOp op(small_shape(8, 32, 32, 8), epi);
  EXPECT_NE(op.name().find("+epi["), std::string::npos);
  EXPECT_LE(run_and_check(op, implicit_strategy(32, 32, 4, "no_major",
                                                "rcouvi", "6")),
            2e-3);
}

TEST(FusedImplicitConv, ResidualAddMatchesReference) {
  ImplicitConvOp op(small_shape(8, 32, 32, 8), full_epilogue());
  EXPECT_LE(run_and_check(op, implicit_strategy(32, 32, 4, "no_major",
                                                "rcouvi", "6")),
            2e-3);
}

TEST(FusedImplicitConv, VecMVariantSwapsTileOrientation) {
  // Variant 0 vectorizes M, so the C tile lands transposed in SPM; the
  // epilogue must follow the swapped orientation (channels on columns).
  ImplicitConvOp op(small_shape(8, 32, 32, 8), full_epilogue());
  EXPECT_LE(run_and_check(op, implicit_strategy(32, 32, 4, "no_major",
                                                "rcouvi", "0")),
            2e-3);
}

TEST(FusedImplicitConv, RaggedChannelsAndColumns) {
  // Ni/No not multiples of 32: bias channel0 and the residual view must
  // track the ragged tile bases.
  ImplicitConvOp op(small_shape(8, 48, 48, 7), full_epilogue());
  EXPECT_LE(run_and_check(op, implicit_strategy(32, 32, 4, "no_major",
                                                "rcouvi", "6")),
            2e-3);
}

TEST(FusedImplicitConv, OutPadInteriorMatchesReference) {
  dsl::EpilogueSpec epi;
  epi.bias = true;
  epi.relu = true;
  epi.out_pad = 1;  // absorbed downstream Pad: interior written at offset
  ImplicitConvOp op(small_shape(8, 32, 32, 8), epi);
  EXPECT_LE(run_and_check(op, implicit_strategy(32, 32, 4, "no_major",
                                                "rcouvi", "6")),
            2e-3);
}

TEST(FusedImplicitConv, OutPadWithResidualMatchesReference) {
  dsl::EpilogueSpec epi = full_epilogue();
  epi.out_pad = 1;
  ImplicitConvOp op(small_shape(8, 32, 32, 8), epi);
  EXPECT_LE(run_and_check(op, implicit_strategy(32, 32, 4, "no_major",
                                                "rcouvi", "6")),
            2e-3);
}

/// True when DMA inference caches the input operand in `buf` (spm_A or
/// spm_B) for this strategy.
bool caches(const dsl::OperatorDef& op, const dsl::Strategy& s,
            const std::string& buf) {
  const sched::Candidate cand = tune::build_candidate(op, s, cfg);
  for (const ir::Dma* d : ir::find_dmas(cand.program))
    if (d->attrs.cache_fill && d->attrs.spm_buf == buf) return true;
  return false;
}

/// The functional run with the simulator's sanitizers armed (undefined SPM
/// reads, out-of-tensor DMA, overlap with in-flight transfers).
double run_sanitized(const dsl::OperatorDef& op, const dsl::Strategy& s) {
  sim::SimConfig c = cfg;
  c.sanitize.enabled = true;
  return run_and_check(op, s, c);
}

/// True when the candidate writes its C tiles back from two halves.
bool doubles_c(const dsl::OperatorDef& op, const dsl::Strategy& s) {
  const sched::Candidate cand = tune::build_candidate(op, s, cfg);
  bool doubled = false;
  ir::visit(cand.program, [&](const ir::StmtPtr& n) {
    if (n->is<ir::SpmAlloc>() && n->as<ir::SpmAlloc>().buf_name == "spm_C")
      doubled = n->as<ir::SpmAlloc>().double_buffered;
  });
  return doubled;
}

TEST(DoubleBufferedWriteBack, FusedConvWithSeveralTilesPerRowMatches) {
  // Two column and two output-channel tiles per output row, ragged in
  // both, with bias + residual + relu applied on each put.
  ImplicitConvOp op(small_shape(8, 48, 48, 7), full_epilogue());
  const dsl::Strategy s =
      implicit_strategy(32, 32, 4, "no_major", "rcouvi", "6");
  EXPECT_TRUE(doubles_c(op, s));
  EXPECT_LE(run_sanitized(op, s), 2e-3);
}

TEST(DoubleBufferedWriteBack, RaggedMatmulMatchesReference) {
  // Two m and two n tiles, the second of each ragged (36 of 64).
  MatmulOp op(100, 100, 40);
  dsl::Strategy s;
  s.set_factor("Tm", 64);
  s.set_factor("Tn", 64);
  s.set_factor("Tk", 32);
  s.set_choice("order", "mnk");
  s.set_choice("variant", "0");
  s.set_choice("boundary", "pad");
  EXPECT_TRUE(doubles_c(op, s));
  EXPECT_LE(run_sanitized(op, s), 2e-3);
}

TEST(CachedOperand, PadBoundaryMatchesReference) {
  // Ragged channels and columns: the fill nests zero-fill partial tiles of
  // both slabs (weights over (o, u, v, i), input over (u, v, i)).
  ImplicitConvOp op(small_shape(8, 48, 48, 7));
  const dsl::Strategy s =
      implicit_strategy(32, 32, 4, "no_major", "rcouvi", "6");
  EXPECT_TRUE(caches(op, s, "spm_A"));
  EXPECT_TRUE(caches(op, s, "spm_B"));
  EXPECT_LE(run_sanitized(op, s), 2e-3);
}

TEST(CachedOperand, SwitchBoundaryMatchesReference) {
  // 96 channels in tiles of 64: the 32-wide tail tiles shrink their grid,
  // each slab slot keeping the full tile's stride.
  ImplicitConvOp op(small_shape(8, 96, 96, 8));
  dsl::Strategy s = implicit_strategy(64, 64, 4, "ni_major", "rcoiuv", "6");
  s.set_choice("boundary", "switch");
  EXPECT_TRUE(caches(op, s, "spm_A"));
  EXPECT_TRUE(caches(op, s, "spm_B"));
  EXPECT_LE(run_sanitized(op, s), 2e-3);
}

TEST(CachedOperand, FusedBarP1EpilogueMatchesReference) {
  dsl::EpilogueSpec epi = full_epilogue();
  epi.out_pad = 1;
  ImplicitConvOp op(small_shape(8, 48, 48, 7), epi);
  const dsl::Strategy s =
      implicit_strategy(32, 32, 4, "no_major", "rcouvi", "0");
  EXPECT_TRUE(caches(op, s, "spm_A"));
  EXPECT_TRUE(caches(op, s, "spm_B"));
  EXPECT_LE(run_sanitized(op, s), 2e-3);
}

TEST(CachedOperand, CachedBOperandMatchesReference) {
  // One n tile: A is read once per (m, k) and stays uncached; the m loop
  // re-reads B, which is cached over (n, k) -- in both SPM orientations.
  MatmulOp op(128, 64, 96);
  for (const char* variant : {"0", "2", "5", "7"}) {
    dsl::Strategy s;
    s.set_factor("Tm", 64);
    s.set_factor("Tn", 64);
    s.set_factor("Tk", 32);
    s.set_choice("order", "mnk");
    s.set_choice("variant", variant);
    s.set_choice("boundary", "pad");
    EXPECT_FALSE(caches(op, s, "spm_A")) << variant;
    EXPECT_TRUE(caches(op, s, "spm_B")) << variant;
    EXPECT_LE(run_sanitized(op, s), 2e-3) << variant;
  }
}

TEST(FusedImplicitConv, SmallNiBiasReluPadMatchesReference) {
  // A first layer's fused epilogue (bias, relu, the next layer's pad) on
  // first-layer channel counts: 3 channels zero-padded to an 8-deep K tile,
  // and 8 that fill it. No = 96 in tiles of 64 leaves a 32-channel tail,
  // which parameter switching runs on a vec-M kernel; a zero-padded K tile
  // has no legal switch.
  dsl::EpilogueSpec epi;
  epi.bias = true;
  epi.relu = true;
  epi.out_pad = 1;
  for (const std::int64_t ni : {3, 8}) {
    for (const std::int64_t batch : {1, 2}) {
      const ImplicitConvOp op(small_shape(batch, ni, 96, 8), epi);
      for (const char* boundary : {"pad", "switch"}) {
        SCOPED_TRACE("ni " + std::to_string(ni) + ", batch " +
                     std::to_string(batch) + ", " + boundary);
        dsl::Strategy s =
            implicit_strategy(64, 8, 8 / batch, "no_major", "rcouvi", "0");
        s.set_choice("boundary", boundary);
        if (ni == 3 && std::string(boundary) == "switch") {
          EXPECT_EQ(op.lower(s), nullptr);
          continue;
        }
        EXPECT_LE(run_sanitized(op, s), 2e-3);
      }
    }
  }
}

/// Every epilogue that computes on the stored tile, alone and combined.
std::vector<dsl::EpilogueSpec> computing_epilogues() {
  dsl::EpilogueSpec bias, relu, res;
  bias.bias = true;
  relu.relu = true;
  res.residual = true;
  return {bias, relu, res, full_epilogue()};
}

std::vector<std::string> offered_orders(const ImplicitConvOp& op) {
  const dsl::ScheduleSpace space = op.space();
  for (const dsl::ChoiceVar& c : space.choices())
    if (c.name == "order") return c.options;
  return {};
}

TEST(FusedImplicitConv, ReductionOutsideStoreScopePruned) {
  // rcuvio and rouvci keep reduction loops (u, v, i) outside an output loop
  // of the C tile's store scope (o and c respectively), so the put drains
  // partial sums -- a compute epilogue there would bias, add or clamp an
  // unfinished accumulator. The space no longer offers these orders, but
  // DMA inference stays the safety net for an explicit strategy.
  for (const dsl::EpilogueSpec& epi : computing_epilogues()) {
    ImplicitConvOp op(small_shape(8, 32, 32, 8), epi);
    for (const char* order : {"rcuvio", "rouvci"}) {
      EXPECT_THROW(tune::build_candidate(
                       op, implicit_strategy(32, 32, 8, "no_major", order, "6"),
                       cfg),
                   swatop::CheckError)
          << order << " with epilogue " << epi.tag();
    }
  }
}

TEST(FusedImplicitConv, ComputeEpilogueSpaceOffersOnlyInnerReductionOrders) {
  const std::vector<std::string> inner = {"rcouvi", "rcoiuv"};
  const std::vector<std::string> all = {"rcouvi", "rcoiuv", "rcuvio",
                                        "rouvci"};
  for (const dsl::EpilogueSpec& epi : computing_epilogues()) {
    const ImplicitConvOp op(small_shape(8, 32, 32, 8), epi);
    EXPECT_EQ(offered_orders(op), inner) << epi.tag();
  }
  // No epilogue, or a pad-only one (addressing, no compute): every order
  // stays legal and offered.
  dsl::EpilogueSpec pad;
  pad.out_pad = 1;
  for (const dsl::EpilogueSpec& epi : {dsl::EpilogueSpec{}, pad}) {
    const ImplicitConvOp op(small_shape(8, 32, 32, 8), epi);
    EXPECT_EQ(offered_orders(op), all) << epi.tag();
    for (const char* order : {"rcuvio", "rouvci"})
      EXPECT_NO_THROW(tune::build_candidate(
          op, implicit_strategy(32, 32, 8, "no_major", order, "6"), cfg))
          << order << " with epilogue '" << epi.tag() << "'";
  }
}

/// The candidates of factor `name` in `op`'s space.
std::vector<std::int64_t> factor_menu(const ImplicitConvOp& op,
                                      const std::string& name) {
  const dsl::ScheduleSpace space = op.space();
  for (const dsl::FactorVar& f : space.factors())
    if (f.name == name) return f.candidates;
  return {};
}

TEST(ImplicitConv, TcoMenuEndsWithTheWholeOutputRow) {
  // The power-of-two menu below the row (Tco * B a multiple of 8), then
  // the row itself rounded up to 8.
  struct Case {
    std::int64_t batch, co;
    std::vector<std::int64_t> menu;
  };
  const Case cases[] = {{8, 56, {1, 2, 4, 8, 16, 32, 56}},
                        {8, 224, {1, 2, 4, 8, 16, 32, 64, 224}},
                        {2, 20, {4, 8, 16, 24}}};
  for (const Case& c : cases)
    EXPECT_EQ(factor_menu(ImplicitConvOp(small_shape(c.batch, 32, 32, c.co)),
                          "Tco"),
              c.menu)
        << "co " << c.co;
  // A strided conv cannot fuse output columns.
  ConvShape strided = small_shape(8, 32, 32, 56);
  strided.stride = 2;
  EXPECT_EQ(factor_menu(ImplicitConvOp(strided), "Tco"),
            (std::vector<std::int64_t>{1}));
}

TEST(ImplicitConv, TnoMenuRunsToTheOutputChannels) {
  EXPECT_EQ(factor_menu(ImplicitConvOp(small_shape(1, 32, 2048, 4)), "Tno"),
            (std::vector<std::int64_t>{32, 64, 128, 256, 512, 1024, 2048}));
  EXPECT_EQ(factor_menu(ImplicitConvOp(small_shape(1, 32, 4096, 4)), "Tno"),
            (std::vector<std::int64_t>{32, 64, 128, 256, 512, 1024, 2048}));
  EXPECT_EQ(factor_menu(ImplicitConvOp(small_shape(1, 32, 48, 4)), "Tno"),
            (std::vector<std::int64_t>{32, 64}));
  EXPECT_EQ(factor_menu(ImplicitConvOp(small_shape(1, 32, 20, 4)), "Tno"),
            (std::vector<std::int64_t>{32}));
}

TEST(ImplicitConv, PointwiseOrderSlotOffersOutputChannelsOutermost) {
  // A 1x1 kernel's u and v loops have one trip each, so rcoiuv would be
  // rcouvi; the slot offers orcuvi instead. k x k kernels keep rcoiuv.
  dsl::EpilogueSpec bias;
  bias.bias = true;
  const ImplicitConvOp fused(small_shape(8, 64, 64, 8, 1), bias);
  const ImplicitConvOp plain(small_shape(8, 64, 64, 8, 1));
  EXPECT_EQ(offered_orders(fused),
            (std::vector<std::string>{"rcouvi", "orcuvi"}));
  EXPECT_EQ(offered_orders(plain),
            (std::vector<std::string>{"rcouvi", "orcuvi", "rcuvio", "rouvci"}));
  EXPECT_EQ(offered_orders(ImplicitConvOp(small_shape(8, 64, 64, 8), bias)),
            (std::vector<std::string>{"rcouvi", "rcoiuv"}));
}

TEST(ImplicitConv, LoopOrderTwinsGetNoProgram) {
  // One input-channel tile: rcoiuv is rcouvi, and the later order of the
  // space gets no program; with two tiles the orders differ.
  const ImplicitConvOp one_ni_tile(small_shape(8, 32, 64, 8));
  EXPECT_EQ(one_ni_tile.lower(
                implicit_strategy(32, 32, 8, "no_major", "rcoiuv", "6")),
            nullptr);
  EXPECT_NE(one_ni_tile.lower(
                implicit_strategy(32, 32, 8, "no_major", "rcouvi", "6")),
            nullptr);
  const ImplicitConvOp two_ni_tiles(small_shape(8, 64, 64, 8));
  EXPECT_NE(two_ni_tiles.lower(
                implicit_strategy(32, 32, 8, "no_major", "rcoiuv", "6")),
            nullptr);
  // 1x1 kernel: orcuvi with one output-channel tile is rcouvi, and rcoiuv
  // (not offered) is rcouvi whatever its tiles.
  const ImplicitConvOp pointwise(small_shape(8, 64, 64, 8, 1));
  EXPECT_EQ(pointwise.lower(
                implicit_strategy(64, 32, 8, "no_major", "orcuvi", "6")),
            nullptr);
  EXPECT_NE(pointwise.lower(
                implicit_strategy(32, 32, 8, "no_major", "orcuvi", "6")),
            nullptr);
  EXPECT_EQ(pointwise.lower(
                implicit_strategy(32, 32, 8, "no_major", "rcoiuv", "6")),
            nullptr);
  // A one-trip loop still places a transfer: with one output-channel tile
  // rcuvio puts the C tile inside u and v (re-fetched), rcouvi outside
  // them, so rcuvio keeps its program.
  EXPECT_NE(one_ni_tile.lower(
                implicit_strategy(64, 32, 8, "no_major", "rcuvio", "6")),
            nullptr);
}

/// lower() without the twin check: builds the programs lower() refuses.
class AnyOrderImplicitConv : public ImplicitConvOp {
 public:
  using ImplicitConvOp::ImplicitConvOp;
  ir::StmtPtr lower(const dsl::Strategy& s) const override {
    return lower_any_order(s);
  }
};

/// The replay key of `s`'s optimized program ("" when it is pruned).
std::string program_key(const dsl::OperatorDef& op, const dsl::Strategy& s) {
  const std::optional<sched::Candidate> c =
      sched::try_build_candidate(op, s, cfg, {});
  if (!c) return "";
  sim::MainMemory mem;
  mem.set_materialize(false);
  return tune::replay_key(c->program, rt::bind_tensors(mem, op), cfg);
}

/// Small spaces whose loops take one trip in the combinations the nets
/// meet: one input- or output-channel tile, a 1x1 or 1x3 kernel, a whole
/// output row, one output row, a stride; fused, pad-only and plain. The
/// 4-wide output row is also a power-of-two Tco entry, which its 8-wide
/// whole-row tile switched down to 4 columns would twin.
std::vector<ImplicitConvOp> twin_prone_convs() {
  dsl::EpilogueSpec bias_relu;
  bias_relu.bias = true;
  bias_relu.relu = true;
  dsl::EpilogueSpec bar_p1 = full_epilogue();
  bar_p1.out_pad = 1;
  dsl::EpilogueSpec pad;
  pad.out_pad = 1;
  ConvShape one_row = small_shape(2, 64, 32, 1, 1);
  one_row.ci = 8;
  ConvShape one_by_three = small_shape(2, 32, 32, 4);
  one_by_three.kr = 1;
  one_by_three.ri = 4;
  ConvShape strided = small_shape(8, 32, 32, 4);
  strided.stride = 2;
  strided.ri = strided.ci = 9;
  return {ImplicitConvOp(small_shape(2, 64, 64, 6, 1), bias_relu),
          ImplicitConvOp(small_shape(2, 64, 64, 4, 1), bias_relu),
          ImplicitConvOp(small_shape(2, 32, 64, 6, 1), bar_p1),
          ImplicitConvOp(small_shape(2, 32, 32, 6), bias_relu),
          ImplicitConvOp(small_shape(2, 32, 64, 4, 1), pad),
          ImplicitConvOp(one_row),
          ImplicitConvOp(one_by_three),
          ImplicitConvOp(strided)};
}

TEST(ImplicitConv, RefusedTwinsLowerToAnEarlierOrdersProgram) {
  for (const ImplicitConvOp& op : twin_prone_convs()) {
    SCOPED_TRACE(op.name());
    const AnyOrderImplicitConv any(op.shape(), op.epilogue());
    const dsl::ScheduleSpace space = op.space();
    const std::vector<std::string> orders = offered_orders(op);
    std::int64_t refused = 0;
    for (std::int64_t i = 0; i < space.size(); ++i) {
      const dsl::Strategy s = space.at(i);
      if (op.lower(s) != nullptr || any.lower(s) == nullptr) continue;
      ++refused;
      const std::string key = program_key(any, s);
      bool matched = false;
      for (const std::string& earlier : orders) {
        if (earlier == s.choice("order")) break;
        dsl::Strategy t = s;
        t.set_choice("order", earlier);
        matched = matched || program_key(any, t) == key;
      }
      EXPECT_TRUE(matched) << s.to_string();
    }
    EXPECT_GT(refused, 0);
  }
}

TEST(ImplicitConv, NoTwoCandidatesOfAFusedSpaceShareAProgram) {
  // The fused spaces are the ones the nets tune. (An unfused space can
  // keep a pair: with all loops but one at one trip, rcuvio and rouvci
  // differ only in the order of two transfers at one point, which the
  // optimizer may still turn into one program.)
  std::int64_t spaces = 0;
  for (const ImplicitConvOp& op : twin_prone_convs()) {
    if (!op.epilogue().compute()) continue;
    ++spaces;
    SCOPED_TRACE(op.name());
    sim::MainMemory mem;
    mem.set_materialize(false);
    const dsl::BoundTensors bt = rt::bind_tensors(mem, op);
    std::set<std::string> keys;
    const std::vector<sched::Candidate> cands =
        sched::Scheduler(cfg).candidates(op);
    ASSERT_FALSE(cands.empty());
    for (const sched::Candidate& c : cands)
      EXPECT_TRUE(keys.insert(tune::replay_key(c.program, bt, cfg)).second)
          << c.strategy.to_string();
  }
  EXPECT_EQ(spaces, 4);
}

TEST(ImplicitConv, WholeRowTcoThatIsNotAPowerOfTwoMatchesReference) {
  // Co 20 at batch 2: the row tile is 24 columns (N = 48), four of them
  // padding; switching shrinks the last (only) tile to the 20 real ones.
  const ImplicitConvOp op(small_shape(2, 32, 32, 20));
  for (const char* boundary : {"pad", "switch"}) {
    SCOPED_TRACE(boundary);
    dsl::Strategy s = implicit_strategy(32, 32, 24, "no_major", "rcouvi", "0");
    s.set_choice("boundary", boundary);
    EXPECT_LE(run_sanitized(op, s), 2e-3);
  }
}

TEST(ImplicitConv, TnoOfAllOutputChannelsMatchesReference) {
  const ImplicitConvOp op(small_shape(2, 64, 512, 4));
  EXPECT_LE(run_sanitized(
                op, implicit_strategy(512, 32, 8, "no_major", "rcouvi", "0")),
            2e-3);
}

TEST(CachedOperand, OutputChannelsOutermostBarP1MatchesReference) {
  // orcuvi on a 1x1 kernel: the weights of one output-channel tile are
  // fetched once and serve every row; bias, residual, relu and the next
  // layer's pad are applied on the store.
  dsl::EpilogueSpec epi = full_epilogue();
  epi.out_pad = 1;
  const ImplicitConvOp op(small_shape(8, 64, 64, 8, 1), epi);
  const dsl::Strategy s =
      implicit_strategy(32, 32, 4, "no_major", "orcuvi", "6");
  EXPECT_TRUE(caches(op, s, "spm_A"));
  EXPECT_LE(run_sanitized(op, s), 2e-3);
}

TEST(FusedImplicitConv, SpaceCarriesEpilogue) {
  ImplicitConvOp op(small_shape(8, 32, 32, 8), full_epilogue());
  const std::vector<dsl::Strategy> all = op.space().enumerate();
  ASSERT_FALSE(all.empty());
  for (const dsl::Strategy& s : all) EXPECT_EQ(s.epilogue(), op.epilogue());
}

TEST(ExplicitConv, Im2colMatchesDefinition) {
  const ConvShape s = small_shape(2, 4, 8, 4);
  sim::CoreGroup cg;
  const std::int64_t in_floats = s.ri * s.ni * s.ci * s.batch;
  const auto in = cg.mem().alloc(in_floats);
  Prng rng(3);
  for (std::int64_t i = 0; i < in_floats; ++i) cg.mem().write(in + i, rng.next());
  const std::int64_t K = s.ni * 9, N = s.batch * s.ro() * s.co();
  const auto dcol = cg.mem().alloc(K * N);
  ExplicitConvOp::im2col(cg, in, dcol, s);
  // Spot-check: element (kr=1, kc=2, ni=3) of pixel (b=1, ro=2, co=1).
  const std::int64_t j = (1 * s.ro() + 2) * s.co() + 1;
  const std::int64_t kk = (1 * 3 + 2) * s.ni + 3;
  const float expect =
      cg.mem().read(in + (((2 + 1) * s.ni + 3) * s.ci + (1 + 2)) * s.batch + 1);
  EXPECT_FLOAT_EQ(cg.mem().read(dcol + kk + j * K), expect);
}

TEST(ExplicitConv, PrePostCostGrowsWithKernelArea) {
  const double c3 = ExplicitConvOp(small_shape(4, 32, 32, 8, 3)).pass_cycles(cfg);
  ConvShape s1 = small_shape(4, 32, 32, 8, 1);
  const double c1 = ExplicitConvOp(s1).pass_cycles(cfg);
  EXPECT_GT(c3, 2.0 * c1);  // 9x the im2col volume
}

TEST(Winograd, PlanGeometry) {
  const WinogradPlan p(small_shape(2, 16, 16, 8));
  EXPECT_EQ(p.tiles_r, 4);
  EXPECT_EQ(p.tiles_c, 4);
  EXPECT_EQ(p.P, 2 * 16);
  EXPECT_LT(p.gemm_flops(), p.shape.flops());  // arithmetic saving
}

TEST(Winograd, NotApplicableToOtherKernels) {
  EXPECT_FALSE(WinogradPlan::applicable(small_shape(1, 8, 8, 8, 1)));
  EXPECT_TRUE(WinogradPlan::applicable(small_shape(1, 8, 8, 8, 3)));
}

TEST(Winograd, TransformsInvertOnSingleTile) {
  // A full Winograd pass (transform, elementwise multiply via reference
  // GEMM per t, inverse) must equal the direct convolution on one tile.
  const ConvShape s = small_shape(1, 2, 2, 2);  // one 4x4 tile
  const WinogradPlan p(s);
  sim::CoreGroup cg;
  const auto in = cg.mem().alloc(s.ri * s.ni * s.ci * s.batch);
  const auto w = cg.mem().alloc(9 * s.ni * s.no);
  Prng rng(5);
  for (std::int64_t i = 0; i < cg.mem().size(); ++i) {}
  for (std::int64_t i = 0; i < s.ri * s.ni * s.ci; ++i)
    cg.mem().write(in + i, rng.next());
  for (std::int64_t i = 0; i < 9 * s.ni * s.no; ++i)
    cg.mem().write(w + i, rng.next());

  const auto U = cg.mem().alloc(16 * s.no * s.ni);
  const auto V = cg.mem().alloc(16 * s.ni * p.P);
  const auto Mt = cg.mem().alloc(16 * s.no * p.P);
  const auto out = cg.mem().alloc(s.ro() * s.no * s.co() * s.batch);
  WinogradGemmOp::transform_input(cg, in, V, p);
  WinogradGemmOp::transform_filter(cg, w, U, p);
  for (int t = 0; t < 16; ++t) {
    std::vector<float> u(static_cast<std::size_t>(s.no * s.ni));
    std::vector<float> v(static_cast<std::size_t>(s.ni * p.P));
    std::vector<float> m(static_cast<std::size_t>(s.no * p.P));
    cg.mem().copy_out(U + t * s.no * s.ni, u);
    cg.mem().copy_out(V + t * s.ni * p.P, v);
    reference_gemm(u.data(), v.data(), m.data(), s.no, p.P, s.ni);
    cg.mem().copy_in(Mt + t * s.no * p.P, m);
  }
  WinogradGemmOp::inverse_transform(cg, Mt, out, p);

  std::vector<float> hin(static_cast<std::size_t>(s.ri * s.ni * s.ci));
  std::vector<float> hw(static_cast<std::size_t>(9 * s.ni * s.no));
  cg.mem().copy_out(in, hin);
  cg.mem().copy_out(w, hw);
  std::vector<float> ref(static_cast<std::size_t>(s.ro() * s.no * s.co()));
  reference_conv(hin.data(), hw.data(), ref.data(), s);
  std::vector<float> got(ref.size());
  cg.mem().copy_out(out, got);
  EXPECT_LE(max_abs_diff(got.data(), ref.data(),
                         static_cast<std::int64_t>(ref.size())),
            1e-4);
}

TEST(Winograd, GemmOpSpaceAndTensors) {
  WinogradGemmOp op(small_shape(2, 32, 32, 8));
  const auto ts = op.tensors();
  ASSERT_EQ(ts.size(), 3u);
  EXPECT_EQ(ts[0].name, "U");
  EXPECT_GT(op.space().size(), 50);
}

TEST(Winograd, PrePostCyclesPositiveAndScale) {
  const double c1 = WinogradGemmOp(small_shape(1, 16, 16, 8)).pass_cycles(cfg);
  const double c2 = WinogradGemmOp(small_shape(4, 16, 16, 8)).pass_cycles(cfg);
  EXPECT_GT(c1, 0.0);
  EXPECT_GT(c2, 2.0 * c1);
}

}  // namespace
}  // namespace swatop::ops

namespace swatop::ops {
namespace {

TEST(StridedConv, GeometryAndToString) {
  ConvShape s = small_shape(2, 16, 16, 13);
  s.stride = 2;
  s.ri = 15;
  s.ci = 15;
  EXPECT_EQ(s.ro(), 7);
  EXPECT_EQ(s.co(), 7);
  EXPECT_NE(s.to_string().find("s2"), std::string::npos);
}

TEST(StridedConv, ImplicitMatchesReference) {
  ConvShape s;
  s.batch = 8;
  s.ni = 32;
  s.no = 32;
  s.ri = 13;
  s.ci = 13;
  s.stride = 2;  // Ro = Co = 6
  ImplicitConvOp op(s);
  // Tco is locked to 1 when strided, so N = batch; use a vec-M variant.
  EXPECT_LE(run_and_check(op, implicit_strategy(32, 32, 1, "no_major",
                                                "rcouvi", "0")),
            2e-3);
}

TEST(StridedConv, SpaceRestrictsColumnFusion) {
  ConvShape s;
  s.batch = 8;
  s.ni = 32;
  s.no = 32;
  s.ri = 13;
  s.ci = 13;
  s.stride = 2;
  ImplicitConvOp op(s);
  const dsl::ScheduleSpace sp = op.space();
  for (const auto& f : sp.factors()) {
    if (f.name != "Tco") continue;
    EXPECT_EQ(f.candidates, (std::vector<std::int64_t>{1}));
  }
}

TEST(StridedConv, ExplicitIm2colMatchesReference) {
  ConvShape s;
  s.batch = 2;
  s.ni = 16;
  s.no = 32;
  s.ri = 9;
  s.ci = 9;
  s.stride = 2;
  ExplicitConvOp op(s);
  dsl::Strategy st;
  st.set_factor("Tm", 32);
  st.set_factor("Tn", 32);
  st.set_factor("Tk", 32);
  st.set_choice("order", "mnk");
  st.set_choice("variant", "0");
  st.set_choice("boundary", "pad");
  EXPECT_LE(run_and_check(op, st), 2e-3);
}

TEST(StridedConv, WinogradNotApplicable) {
  ConvShape s = small_shape(1, 8, 8, 8, 3);
  s.stride = 2;
  EXPECT_FALSE(WinogradPlan::applicable(s));
}

}  // namespace
}  // namespace swatop::ops

namespace swatop::ops {
namespace {

TEST(ConvOp, RepeatedChecksReuseTheCanonicalOutput) {
  // Explicit GEMM and Winograd bind no canonical "out": the first check of
  // a core group allocates it, and a second check must not grow the arena.
  const ConvShape s = small_shape(2, 16, 32, 8);
  const ExplicitConvOp explicit_op(s);
  const WinogradGemmOp winograd_op(s);
  dsl::Strategy st;
  st.set_factor("Tm", 32);
  st.set_factor("Tn", 32);
  st.set_factor("Tk", 16);
  st.set_choice("order", "mnk");
  st.set_choice("variant", "0");
  st.set_choice("boundary", "pad");
  for (const ConvOp* op : {static_cast<const ConvOp*>(&explicit_op),
                           static_cast<const ConvOp*>(&winograd_op)}) {
    SCOPED_TRACE(op->name());
    const auto cand = tune::build_candidate(*op, st, cfg);
    sim::CoreGroup cg(cfg);
    const auto bt = rt::bind_tensors(cg, *op);
    op->fill_inputs(cg, bt, st);
    rt::Interpreter(cg, sim::ExecMode::Functional).run(cand.program, bt);
    const double first = op->check_output(cg, bt, st);
    const std::int64_t size = cg.mem().size();
    EXPECT_EQ(op->check_output(cg, bt, st), first);
    EXPECT_EQ(cg.mem().size(), size);
    EXPECT_LE(first, 1e-2);
  }
}

}  // namespace
}  // namespace swatop::ops
