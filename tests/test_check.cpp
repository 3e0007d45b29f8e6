// The correctness layer: IR validator rejections, simulator sanitizer
// self-tests (deliberately corrupted programs must be caught by the
// sanitizers, not by the output diff), DMA cost-model cross-checks and a
// fixed-seed fuzz smoke.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <random>
#include <string>
#include <vector>

#include "check/fuzz.hpp"
#include "check/validate_ir.hpp"
#include "common/check.hpp"
#include "ir/mutator.hpp"
#include "ops/matmul.hpp"
#include "rt/bind.hpp"
#include "rt/interpreter.hpp"
#include "sim/dma.hpp"
#include "tune/tuner.hpp"

namespace swatop {
namespace {

sim::SimConfig base_cfg;

sim::SimConfig sanitizing_cfg() {
  sim::SimConfig cfg;
  cfg.sanitize.enabled = true;
  return cfg;
}

// ---------------------------------------------------------------------------
// IR validator.

std::string joined(const std::vector<std::string>& errors) {
  std::string out;
  for (const std::string& e : errors) out += e + "\n";
  return out;
}

TEST(ValidateIr, NullProgramIsRejected) {
  EXPECT_FALSE(check::validate_ir(nullptr, base_cfg).empty());
}

TEST(ValidateIr, BufferUseWithoutAlloc) {
  auto prog = ir::make_seq();
  ir::seq_push(prog, ir::make_spm_zero("c", ir::cst(0), ir::cst(64)));
  const auto errors = check::validate_ir(prog, base_cfg);
  ASSERT_FALSE(errors.empty());
  EXPECT_NE(joined(errors).find("no preceding SpmAlloc"), std::string::npos)
      << joined(errors);
}

TEST(ValidateIr, DuplicateAndNonPositiveAlloc) {
  auto prog = ir::make_seq();
  // make_spm_alloc itself rejects non-positive sizes, so corrupt the node
  // after construction -- the validator must still catch hand-built IR.
  auto bad = ir::make_spm_alloc("a", 64);
  bad->as<ir::SpmAlloc>().buf_floats = 0;
  ir::seq_push(prog, bad);
  ir::seq_push(prog, ir::make_spm_alloc("a", 64));
  const auto errors = check::validate_ir(prog, base_cfg);
  const std::string all = joined(errors);
  EXPECT_NE(all.find("duplicate SpmAlloc"), std::string::npos) << all;
  EXPECT_NE(all.find("0 floats"), std::string::npos) << all;
}

TEST(ValidateIr, NonPositiveForExtent) {
  auto prog = ir::make_seq();
  ir::seq_push(prog, ir::make_for("i", ir::cst(0), ir::make_seq()));
  const auto errors = check::validate_ir(prog, base_cfg);
  ASSERT_FALSE(errors.empty());
  EXPECT_NE(joined(errors).find("<= 0"), std::string::npos) << joined(errors);
}

TEST(ValidateIr, WaitOnNeverIssuedSlot) {
  auto prog = ir::make_seq();
  ir::seq_push(prog, ir::make_dma_wait(ir::cst(3)));
  const auto errors = check::validate_ir(prog, base_cfg);
  ASSERT_FALSE(errors.empty());
  EXPECT_NE(joined(errors).find("no DMA in the program can issue"),
            std::string::npos)
      << joined(errors);
}

TEST(ValidateIr, WaitSlotOutsideReplyTable) {
  auto prog = ir::make_seq();
  ir::seq_push(prog, ir::make_dma_wait(ir::cst(ir::kMaxReplySlots)));
  const auto errors = check::validate_ir(prog, base_cfg);
  ASSERT_FALSE(errors.empty());
  EXPECT_NE(joined(errors).find("outside the"), std::string::npos)
      << joined(errors);
}

TEST(ValidateIr, GemmWithoutBindings) {
  auto prog = ir::make_seq();
  ir::GemmAttrs g;
  g.M = ir::cst(8);
  g.N = ir::cst(8);
  g.K = ir::cst(8);
  ir::seq_push(prog, ir::make_gemm(g));
  const auto errors = check::validate_ir(prog, base_cfg);
  ASSERT_FALSE(errors.empty());
  EXPECT_NE(joined(errors).find("DMA inference never ran"),
            std::string::npos)
      << joined(errors);
}

TEST(ValidateIr, TunedProgramsAreClean) {
  ops::MatmulOp op(72, 40, 24);
  const auto cand = tune::build_candidate(op, tune::ModelTuner(base_cfg)
                                                  .tune(op)
                                                  .candidate.strategy,
                                          base_cfg);
  EXPECT_TRUE(check::validate_ir(cand.program, base_cfg).empty());
}

// ---------------------------------------------------------------------------
// Sanitizer self-tests: corrupt a real lowered program and require the
// *sanitizers* to catch it (SanitizerError), not the output diff.

/// The slot (a Seq entry, a loop body or an If branch) holding the first
/// node of `kind` in pre-order, or null.
ir::StmtPtr* find_first(ir::StmtPtr& s, ir::StmtKind kind) {
  if (s == nullptr) return nullptr;
  if (s->kind == kind) return &s;
  switch (s->kind) {
    case ir::StmtKind::Seq:
      for (ir::StmtPtr& c : s->as<ir::Seq>().body)
        if (ir::StmtPtr* r = find_first(c, kind)) return r;
      return nullptr;
    case ir::StmtKind::For:
      return find_first(s->as<ir::For>().body, kind);
    case ir::StmtKind::If: {
      ir::If& i = s->as<ir::If>();
      if (ir::StmtPtr* r = find_first(i.then_s, kind)) return r;
      return find_first(i.else_s, kind);
    }
    default:
      return nullptr;
  }
}

struct CorruptionResult {
  bool sanitizer = false;
  bool mismatch = false;
  std::string what;
  obs::SanitizerCounters trips;
};

CorruptionResult run_corrupted(
    const std::function<void(ir::StmtPtr&)>& corrupt) {
  const sim::SimConfig cfg = sanitizing_cfg();
  ops::MatmulOp op(32, 32, 16);
  dsl::Strategy strat =
      tune::ModelTuner(cfg).tune(op).candidate.strategy;
  auto cand = tune::build_candidate(op, strat, cfg);
  ir::StmtPtr prog = ir::deep_copy(cand.program);
  corrupt(prog);
  sim::CoreGroup cg(cfg);
  const auto bt = rt::bind_tensors(cg, op);
  op.fill_inputs(cg, bt, strat);
  rt::Interpreter interp(cg, sim::ExecMode::Functional);
  CorruptionResult r;
  try {
    interp.run(prog, bt);
    r.mismatch = op.check_output(cg, bt, strat) > 2e-3;
  } catch (const SanitizerError& e) {
    r.sanitizer = true;
    r.what = e.what();
  }
  r.trips = cg.stats().sanitizer;
  return r;
}

TEST(SanitizerSelfTest, SkippedDmaWaitIsCaughtBySanitizer) {
  const CorruptionResult r = run_corrupted([](ir::StmtPtr& prog) {
    ir::StmtPtr* wait = find_first(prog, ir::StmtKind::DmaWait);
    ASSERT_NE(wait, nullptr);
    *wait = ir::make_seq();  // the wait removed
  });
  EXPECT_TRUE(r.sanitizer) << "skipped DmaWait escaped the sanitizers";
  EXPECT_FALSE(r.mismatch);
  EXPECT_GT(r.trips.total(), 0);
}

TEST(SanitizerSelfTest, OffByEightSpmOffsetIsCaughtBySanitizer) {
  // Shift the first DmaGet's SPM offset: the gemm then reads 8 floats that
  // the transfer no longer defines.
  const CorruptionResult r = run_corrupted([](ir::StmtPtr& prog) {
    ir::StmtPtr* get = find_first(prog, ir::StmtKind::DmaGet);
    ASSERT_NE(get, nullptr);
    ir::Expr& off = (*get)->as<ir::Dma>().attrs.spm_off;
    off = ir::add(off, ir::cst(8));
  });
  EXPECT_TRUE(r.sanitizer) << "corrupted SPM offset escaped the sanitizers";
  EXPECT_FALSE(r.mismatch);
  EXPECT_GT(r.trips.total(), 0);
}

TEST(SanitizerSelfTest, WaitOnEmptySlotNamesContext) {
  const sim::SimConfig cfg = sanitizing_cfg();
  auto prog = ir::make_seq();
  ir::seq_push(prog, ir::make_dma_wait(ir::cst(5)));
  sim::CoreGroup cg(cfg);
  rt::Interpreter interp(cg, sim::ExecMode::Functional);
  try {
    interp.run(prog, {});
    FAIL() << "wait on empty slot did not trip";
  } catch (const SanitizerError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("empty reply slot 5"), std::string::npos) << msg;
    EXPECT_NE(msg.find("never issued"), std::string::npos) << msg;
  }
  EXPECT_EQ(cg.stats().sanitizer.reply_slot_trips, 1);
}

TEST(SanitizerSelfTest, PutOfNeverWrittenSpmFloatTripsPoison) {
  // A get of 15 of 16 rows leaves row 15 of the tile -- the second float
  // of each column on the bottom mesh row's CPEs -- never written. A put of
  // all 16 rows must trip on it: the bulk copy marks defined exactly the
  // floats the get stored, no more.
  const sim::SimConfig cfg = sanitizing_cfg();
  ir::DmaAttrs get;
  get.view = {"A", ir::cst(0), 1, 16, ir::cst(15), ir::cst(16)};
  get.rows_p = ir::cst(16);
  get.cols_p = ir::cst(16);
  get.spm_buf = "buf";
  get.spm_off = ir::cst(0);
  get.reply = ir::cst(0);
  ir::DmaAttrs put = get;
  put.view.rows = ir::cst(16);
  auto prog = ir::make_seq({ir::make_spm_alloc("buf", 4),
                            ir::make_dma(ir::StmtKind::DmaGet, get),
                            ir::make_dma_wait(ir::cst(0)),
                            ir::make_dma(ir::StmtKind::DmaPut, put),
                            ir::make_dma_wait(ir::cst(0))});
  sim::CoreGroup cg(cfg);
  cg.mem().alloc(256, "A");
  rt::Interpreter interp(cg, sim::ExecMode::Functional);
  try {
    interp.run(prog, {{"A", 0}});
    FAIL() << "put of a never-written SPM float did not trip";
  } catch (const SanitizerError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("DMA put from buffer 'buf'"), std::string::npos)
        << msg;
    EXPECT_NE(msg.find("(offset 1 within the buffer) on CPE (7,0)"),
              std::string::npos)
        << msg;
  }
  EXPECT_EQ(cg.stats().sanitizer.spm_poison_trips, 1);
  EXPECT_EQ(cg.stats().sanitizer.total(), 1);
}

TEST(SanitizerSelfTest, ZeroingTheHalfStillBeingPutTripsOverlap) {
  // A double-buffered write-back over four C tiles; tile 1 zeroes half 0,
  // whose put (tile 0's) is still in flight.
  const sim::SimConfig cfg = sanitizing_cfg();
  ops::MatmulOp op(128, 128, 64);
  dsl::Strategy strat;
  strat.set_factor("Tm", 64);
  strat.set_factor("Tn", 64);
  strat.set_factor("Tk", 32);
  strat.set_choice("order", "mnk");
  strat.set_choice("variant", "0");
  strat.set_choice("boundary", "pad");
  ir::StmtPtr prog =
      ir::deep_copy(tune::build_candidate(op, strat, cfg).program);
  bool corrupted = false;
  ir::visit(prog, [&](const ir::StmtPtr& n) {
    if (!n->is<ir::SpmZero>() || n->as<ir::SpmZero>().buf_name != "spm_C")
      return;
    n->as<ir::SpmZero>().off = ir::cst(0);
    corrupted = true;
  });
  ASSERT_TRUE(corrupted);
  sim::CoreGroup cg(cfg);
  const auto bt = rt::bind_tensors(cg, op);
  op.fill_inputs(cg, bt, strat);
  rt::Interpreter interp(cg, sim::ExecMode::Functional);
  try {
    interp.run(prog, bt);
    FAIL() << "zeroing a half with its put in flight did not trip";
  } catch (const SanitizerError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("spm_zero of buffer 'spm_C'"), std::string::npos)
        << msg;
    EXPECT_NE(msg.find("put from buffer 'spm_C'"), std::string::npos) << msg;
  }
  EXPECT_EQ(cg.stats().sanitizer.dma_overlap_trips, 1);
}

TEST(SanitizerSelfTest, CleanRunTripsNothing) {
  const sim::SimConfig cfg = sanitizing_cfg();
  ops::MatmulOp op(40, 33, 17);
  const auto tuned = tune::ModelTuner(cfg).tune(op);
  sim::CoreGroup cg(cfg);
  const auto bt = rt::bind_tensors(cg, op);
  op.fill_inputs(cg, bt, tuned.candidate.strategy);
  rt::Interpreter interp(cg, sim::ExecMode::Functional);
  interp.run(tuned.candidate.program, bt);
  EXPECT_LE(op.check_output(cg, bt, tuned.candidate.strategy), 2e-3);
  EXPECT_EQ(cg.stats().sanitizer.total(), 0);
}

// ---------------------------------------------------------------------------
// DmaEngine::cost period-multiplication fast path vs a brute-force
// per-block walk over random descriptors (including unaligned tails).

std::int64_t brute_force_transactions(const sim::DmaCpeDesc& d,
                                      const sim::SimConfig& cfg) {
  const std::int64_t txn =
      static_cast<std::int64_t>(cfg.dram_transaction_bytes);
  auto block_txns = [&](std::int64_t base, std::int64_t floats) {
    const std::int64_t lo = base * 4;
    const std::int64_t hi = (base + floats) * 4;
    return (hi + txn - 1) / txn - lo / txn;
  };
  std::int64_t total = 0;
  std::int64_t base = d.mem_base;
  std::int64_t left = d.total;
  while (left > 0) {
    const std::int64_t n = std::min(left, d.block);
    total += block_txns(base, n);
    base += d.block + d.stride;
    left -= n;
  }
  return total;
}

TEST(DmaCostRandomized, FastPathMatchesBruteForce) {
  sim::DmaEngine engine(base_cfg);
  std::mt19937_64 rng(12345);
  auto draw = [&](std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(rng);
  };
  for (int i = 0; i < 2000; ++i) {
    sim::DmaCpeDesc d;
    d.mem_base = draw(0, 4096);
    d.block = draw(1, 96);
    d.stride = draw(0, 96);
    // Bias toward unaligned tails: ~half the draws are not block-multiples.
    d.total = draw(1, 12) * d.block + (i % 2 == 0 ? draw(0, d.block - 1) : 0);
    const sim::DmaCost c = engine.cost(d);
    EXPECT_EQ(c.transactions, brute_force_transactions(d, base_cfg))
        << "base=" << d.mem_base << " block=" << d.block
        << " stride=" << d.stride << " total=" << d.total;
    EXPECT_EQ(c.bytes_requested, d.total * 4);
    EXPECT_EQ(c.bytes_wasted,
              c.transactions *
                      static_cast<std::int64_t>(
                          base_cfg.dram_transaction_bytes) -
                  c.bytes_requested);
  }
}

// ---------------------------------------------------------------------------
// Fuzzer plumbing.

TEST(FuzzSpec, RoundTrips) {
  const auto spec = check::OpSpec::parse("matmul:72,40,24");
  ASSERT_TRUE(spec.has_value());
  EXPECT_EQ(spec->kind, "matmul");
  EXPECT_EQ(spec->to_string(), "matmul:72,40,24");
  EXPECT_NE(check::make_op(*spec), nullptr);
  EXPECT_FALSE(check::OpSpec::parse("matmul").has_value());
  EXPECT_FALSE(check::OpSpec::parse("matmul:1,x").has_value());
  // Applicability: implicit conv takes any stride-1 shape, and a strided
  // one needs ni >= 32.
  EXPECT_NE(check::make_op(
                *check::OpSpec::parse("implicit_conv:1,8,32,6,6,3,3,1")),
            nullptr);
  EXPECT_EQ(check::make_op(
                *check::OpSpec::parse("implicit_conv:1,8,32,7,7,3,3,2")),
            nullptr);
  // Winograd is F(2x2, 3x3): eight fields, like the other convolutions.
  const auto wino = check::OpSpec::parse("winograd:1,16,32,6,6,3,3,1");
  ASSERT_TRUE(wino.has_value());
  EXPECT_EQ(wino->to_string(), "winograd:1,16,32,6,6,3,3,1");
  EXPECT_NE(check::make_op(*wino), nullptr);
  EXPECT_EQ(check::make_op(
                *check::OpSpec::parse("winograd:1,16,32,6,6,3,3,1,2")),
            nullptr);
  // Unknown kinds parse but build no operator.
  EXPECT_EQ(check::make_op(
                *check::OpSpec::parse("bwd_data:1,16,32,6,6,3,3,1")),
            nullptr);
}

TEST(FuzzSpec, FusedEpilogueTagRoundTrips) {
  const auto spec =
      check::OpSpec::parse("implicit_conv+bar,p1:1,32,32,6,6,3,3,1");
  ASSERT_TRUE(spec.has_value());
  EXPECT_EQ(spec->kind, "implicit_conv");
  EXPECT_TRUE(spec->epi.bias);
  EXPECT_TRUE(spec->epi.residual);
  EXPECT_TRUE(spec->epi.relu);
  EXPECT_EQ(spec->epi.out_pad, 1);
  EXPECT_EQ(spec->to_string(), "implicit_conv+bar,p1:1,32,32,6,6,3,3,1");
  EXPECT_NE(check::make_op(*spec), nullptr);
  // Pad-only and flags-only tags parse too.
  EXPECT_TRUE(check::OpSpec::parse("implicit_conv+p2:1,32,32,6,6,3,3,1"));
  EXPECT_TRUE(check::OpSpec::parse("implicit_conv+br:1,32,32,6,6,3,3,1"));
  // Malformed tags and fused non-implicit kinds are rejected.
  EXPECT_FALSE(check::OpSpec::parse("implicit_conv+x:1,32,32,6,6,3,3,1"));
  EXPECT_FALSE(check::OpSpec::parse("implicit_conv+rb:1,32,32,6,6,3,3,1"));
  EXPECT_FALSE(check::OpSpec::parse("implicit_conv+:1,32,32,6,6,3,3,1"));
  EXPECT_FALSE(check::OpSpec::parse("implicit_conv+bar,p0:1,32,32,6,6,3,3,1"));
  EXPECT_EQ(check::make_op(
                *check::OpSpec::parse("explicit_conv+b:1,32,32,6,6,3,3,1")),
            nullptr);
}

TEST(FuzzSmoke, FusedFixedSeedHasNoFailures) {
  // Epilogue candidates through the same sweep: sanitizers armed, every
  // fused store-path variant diffed against the fused host reference.
  check::FuzzOptions opts;
  opts.seed = 7;
  opts.cases = 30;
  opts.matmul = false;
  opts.fused = true;
  check::FuzzReport rep = check::fuzz_schedules(opts);
  EXPECT_GE(rep.cases_run, 30);
  // Some of them cache an input operand, so the cached path is diffed and
  // its bound re-checked too.
  EXPECT_GT(rep.cached_cases, 0);
  for (const auto& f : rep.failures)
    ADD_FAILURE() << "[" << f.kind << "] " << f.detail << "\n  " << f.repro;
}

TEST(FuzzSmoke, FixedSeedHasNoFailures) {
  check::FuzzOptions opts;
  opts.seed = 11;
  opts.cases = 30;
  opts.max_dim = 48;
  check::FuzzReport rep = check::fuzz_schedules(opts);
  EXPECT_GE(rep.cases_run, 30);
  EXPECT_GT(rep.cached_cases, 0);
  for (const auto& f : rep.failures)
    ADD_FAILURE() << "[" << f.kind << "] " << f.detail << "\n  " << f.repro;
}

TEST(FuzzSmoke, ConvOnlySeedReachesAnImplicitConv) {
  // CI's conv-only seed: each shape runs at most an eighth of the budget,
  // so 200 cases spread over several operators instead of one big space,
  // and every forward design (implicit, explicit, Winograd) is drawn.
  check::FuzzOptions opts;
  opts.seed = 2;
  opts.cases = 200;
  opts.matmul = false;
  std::vector<std::string> shapes;
  opts.log = [&](const std::string& line) { shapes.push_back(line); };
  const check::FuzzReport rep = check::fuzz_schedules(opts);
  EXPECT_GE(rep.shapes, 8);
  for (const std::string kind :
       {"implicit_conv:", "explicit_conv:", "winograd:"}) {
    EXPECT_TRUE(std::any_of(shapes.begin(), shapes.end(),
                            [&](const std::string& l) {
                              return l.rfind(kind, 0) == 0;
                            }))
        << kind;
  }
  for (const auto& f : rep.failures)
    ADD_FAILURE() << "[" << f.kind << "] " << f.detail << "\n  " << f.repro;
}

TEST(FuzzReplay, KnownGoodPairPasses) {
  const sim::SimConfig cfg;
  ops::MatmulOp op(32, 32, 8);
  const auto strat = tune::ModelTuner(cfg).tune(op).candidate.strategy;
  check::FuzzOptions opts;
  const auto rep =
      check::replay("matmul:32,32,8", strat.serialize(), opts);
  EXPECT_TRUE(rep.ok()) << (rep.failures.empty()
                                ? std::string()
                                : rep.failures.front().detail);
}

}  // namespace
}  // namespace swatop
