// Golden pins of every program the scheduler's sweep builds.
//
// For each operator below, every kept candidate's structural key
// (tune::replay_key: the whole lowered and optimized IR, the bound tensor
// addresses and the machine) is hashed in candidate-index order, and so,
// separately, are the bit pattern of its cost-model estimate and the C
// source codegen::emit_c writes for it. A change to lowering, to an
// optimizer pass or to expression folding that alters a single program
// changes the program hash (and usually the C hash); a change to the cost
// model that alters a single estimate changes the estimate hash; a change
// to the emitter alone changes only the C hash; a change that only makes
// building or pricing them cheaper changes none. (The first two were
// re-taken when DMA inference began caching re-fetched operands: the
// programs, and so their estimates, changed; the candidate counts did not.
// The two implicit-conv pins below with one-trip loops were last re-taken
// when the space began refusing loop-order twins: the pointwise space
// offers orcuvi in rcoiuv's slot and drops it with one output-channel
// tile, 384 -> 288 candidates; the stride-2 space drops rcoiuv with one
// input-channel tile, 32 -> 24. Each dropped program is one that an
// earlier order of the space still builds.)
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "codegen/c_emitter.hpp"
#include "ops/explicit_conv.hpp"
#include "ops/implicit_conv.hpp"
#include "ops/matmul.hpp"
#include "rt/bind.hpp"
#include "sched/scheduler.hpp"
#include "tune/cost_model.hpp"
#include "tune/gemm_model.hpp"
#include "tune/replay.hpp"

namespace swatop {
namespace {

const sim::SimConfig cfg;

struct SweepDigest {
  std::size_t candidates = 0;
  std::size_t switched = 0;  ///< candidates with a parameter-switch boundary
  std::uint64_t program_hash = 0;   ///< over every replay key
  std::uint64_t estimate_hash = 0;  ///< over every estimate's bits
  std::uint64_t c_hash = 0;         ///< over every emitted C source
};

/// FNV-1a, one running hash per pinned quantity.
class Fnv1a {
 public:
  void mix(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= p[i];
      h_ *= 1099511628211ull;
    }
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ull;
};

/// Every kept candidate's replay key, estimate and C source, hashed apart.
SweepDigest digest(const dsl::OperatorDef& op) {
  sched::SchedulerOptions opts;
  opts.num_threads = 1;
  const std::vector<sched::Candidate> cands =
      sched::Scheduler(cfg).candidates(op, opts);
  sim::MainMemory layout;
  layout.set_materialize(false);
  const dsl::BoundTensors bt = rt::bind_tensors(layout, op);
  const tune::CostModel model(cfg, tune::gemm_cost_model(cfg));
  Fnv1a programs, estimates, sources;
  SweepDigest d;
  d.candidates = cands.size();
  for (const sched::Candidate& c : cands) {
    if (c.strategy.to_string().find("boundary=switch") != std::string::npos)
      ++d.switched;
    const std::string key = tune::replay_key(c.program, bt, cfg);
    programs.mix(key.data(), key.size());
    const auto bits =
        std::bit_cast<std::uint64_t>(model.estimate(c.program).total());
    estimates.mix(&bits, sizeof bits);
    const std::string c_src = codegen::emit_c(c.program);
    sources.mix(c_src.data(), c_src.size());
  }
  d.program_hash = programs.value();
  d.estimate_hash = estimates.value();
  d.c_hash = sources.value();
  return d;
}

ops::ConvShape conv_shape(std::int64_t batch, std::int64_t ni,
                          std::int64_t no, std::int64_t out_hw,
                          std::int64_t k, std::int64_t stride = 1) {
  ops::ConvShape s;
  s.batch = batch;
  s.ni = ni;
  s.no = no;
  s.ri = (out_hw - 1) * stride + k;
  s.ci = s.ri;
  s.kr = k;
  s.kc = k;
  s.stride = stride;
  return s;
}

TEST(SweepGolden, FusedPointwiseConvWithOutputPad) {
  dsl::EpilogueSpec epi;
  epi.bias = true;
  epi.relu = true;
  epi.out_pad = 1;
  const SweepDigest d =
      digest(ops::ImplicitConvOp(conv_shape(8, 64, 64, 8, 1), epi));
  EXPECT_EQ(d.candidates, 288u);
  EXPECT_EQ(d.program_hash, 4823882635801539815ull);
  EXPECT_EQ(d.estimate_hash, 8738025039085160541ull);
  EXPECT_EQ(d.c_hash, 15892434145348612215ull);
}

TEST(SweepGolden, RaggedImplicitConvIncludesSwitchBoundaries) {
  // 96 channels split by 64 leave a 32-wide tail, legal for parameter
  // switching, so the space holds switch and padded boundary candidates.
  const SweepDigest d =
      digest(ops::ImplicitConvOp(conv_shape(8, 96, 96, 7, 3)));
  EXPECT_EQ(d.candidates, 1248u);
  EXPECT_GT(d.switched, 0u);
  EXPECT_EQ(d.program_hash, 2526904578703179811ull);
  EXPECT_EQ(d.estimate_hash, 10735883877121620866ull);
  EXPECT_EQ(d.c_hash, 7234392588256305131ull);
}

TEST(SweepGolden, StrideTwoConv) {
  const SweepDigest d =
      digest(ops::ImplicitConvOp(conv_shape(8, 32, 32, 8, 3, 2)));
  EXPECT_EQ(d.candidates, 24u);
  EXPECT_EQ(d.program_hash, 809414313711492011ull);
  EXPECT_EQ(d.estimate_hash, 14464033641947360617ull);
  EXPECT_EQ(d.c_hash, 2574111293286110087ull);
}

TEST(SweepGolden, RaggedMatmul) {
  const SweepDigest d = digest(ops::MatmulOp(72, 56, 40));
  EXPECT_EQ(d.candidates, 384u);
  EXPECT_EQ(d.program_hash, 6624973657457990139ull);
  EXPECT_EQ(d.estimate_hash, 8853928634143436387ull);
  EXPECT_EQ(d.c_hash, 8444866200676083239ull);
}

TEST(SweepGolden, ExplicitConv) {
  const SweepDigest d =
      digest(ops::ExplicitConvOp(conv_shape(2, 16, 32, 10, 3)));
  EXPECT_EQ(d.candidates, 720u);
  EXPECT_EQ(d.program_hash, 9002208137486987595ull);
  EXPECT_EQ(d.estimate_hash, 13789732220125987047ull);
  EXPECT_EQ(d.c_hash, 6210966492558329499ull);
}

}  // namespace
}  // namespace swatop
