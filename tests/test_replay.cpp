// Measurement-memo tests: key sensitivity, loop-order twins sharing a key,
// memo hits returning the interpreter's cycles bit-identically, and the
// tuners picking exactly what they pick with the memo off.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "ops/matmul.hpp"
#include "rt/bind.hpp"
#include "sched/scheduler.hpp"
#include "tune/replay.hpp"
#include "tune/tuner.hpp"

namespace swatop::tune {
namespace {

const sim::SimConfig cfg;

sched::Candidate matmul_candidate(const dsl::OperatorDef& op) {
  dsl::Strategy s;
  s.set_factor("Tm", 64);
  s.set_factor("Tn", 64);
  s.set_factor("Tk", 32);
  s.set_choice("order", "mnk");
  s.set_choice("variant", "0");
  s.set_choice("boundary", "pad");
  return build_candidate(op, s, cfg);
}

/// The addresses a measurement of `op` binds its tensors to.
dsl::BoundTensors binding(const dsl::OperatorDef& op) {
  sim::MainMemory mem;
  mem.set_materialize(false);
  return rt::bind_tensors(mem, op);
}

ReplayExecutor enabled_memo() {
  ReplayOptions ro;
  ro.enabled = true;
  return ReplayExecutor(ro);
}

/// A matmul whose m tile covers M: its m loop has one trip, so the loop
/// orders mnk and nmk (and mkn and kmn) lower to one program.
ops::MatmulOp one_m_tile_matmul() { return ops::MatmulOp(32, 256, 128); }

TEST(ReplayKey, SensitiveToProgramBindingAndMachine) {
  ops::MatmulOp op(96, 72, 40);
  ops::MatmulOp op2(96, 72, 48);
  const sched::Candidate c1 = matmul_candidate(op);
  const sched::Candidate c1b = matmul_candidate(op);
  const sched::Candidate c2 = matmul_candidate(op2);
  const dsl::BoundTensors bt = binding(op);
  // Same structural measurement -> same key (stability under rebuild).
  EXPECT_EQ(replay_key(c1.program, bt, cfg), replay_key(c1b.program, bt, cfg));
  // Different program -> different key.
  EXPECT_NE(replay_key(c1.program, bt, cfg), replay_key(c2.program, bt, cfg));
  // Different binding -> different key, even for the same program.
  dsl::BoundTensors moved = bt;
  moved.begin()->second += 32;
  EXPECT_NE(replay_key(c1.program, bt, cfg),
            replay_key(c1.program, moved, cfg));
  // Different machine -> different key, even for the same program.
  sim::SimConfig faster = cfg;
  faster.clock_ghz *= 2.0;
  EXPECT_NE(replay_key(c1.program, bt, cfg),
            replay_key(c1.program, bt, faster));
}

TEST(ReplayKey, LoopOrderTwinsShareAKeyAndCycles) {
  const ops::MatmulOp op = one_m_tile_matmul();
  dsl::Strategy first;
  first.set_factor("Tm", 32);
  first.set_factor("Tn", 64);
  first.set_factor("Tk", 32);
  first.set_choice("order", "mnk");
  first.set_choice("variant", "0");
  first.set_choice("boundary", "pad");
  dsl::Strategy twin_strategy = first;
  twin_strategy.set_choice("order", "nmk");
  const sched::Candidate a = build_candidate(op, first, cfg);
  const sched::Candidate b = build_candidate(op, twin_strategy, cfg);
  ASSERT_FALSE(a.strategy == b.strategy);
  const dsl::BoundTensors bt = binding(op);
  EXPECT_EQ(replay_key(a.program, bt, cfg), replay_key(b.program, bt, cfg));
  EXPECT_EQ(measure_candidate(op, a, cfg), measure_candidate(op, b, cfg));
}

TEST(ReplayExecutor, SecondMeasurementIsACacheHit) {
  ops::MatmulOp op(96, 72, 40);
  const sched::Candidate cand = matmul_candidate(op);
  const double reference = measure_candidate(op, cand, cfg);
  ReplayExecutor rx = enabled_memo();
  const double first = rx.measure(op, cand, cfg);
  const double second = rx.measure(op, cand, cfg);
  EXPECT_EQ(first, reference);
  EXPECT_EQ(second, reference);
  const ReplayStats st = rx.stats();
  EXPECT_EQ(st.misses, 1);
  EXPECT_EQ(st.hits, 1);
  EXPECT_EQ(rx.cached(), 1);
}

TEST(ReplayExecutor, DisabledFallsThroughToInterpreter) {
  ops::MatmulOp op(64, 64, 32);
  const sched::Candidate cand = matmul_candidate(op);
  ReplayExecutor rx;  // enabled = false
  EXPECT_EQ(rx.measure(op, cand, cfg), measure_candidate(op, cand, cfg));
  const ReplayStats st = rx.stats();
  EXPECT_EQ(st.hits + st.misses, 0);
  EXPECT_EQ(rx.cached(), 0);
}

TEST(BlackBoxTuner, ReplayPreservesArgminBitExactly) {
  ops::MatmulOp op(64, 64, 32);
  const BlackBoxTuner plain(cfg);
  const auto base = plain.tune(op);

  // Four workers share the memo; the second sweep is all hits.
  sched::SchedulerOptions opts;
  opts.num_threads = 4;
  ReplayExecutor rx = enabled_memo();
  BlackBoxTuner with_replay(cfg);
  with_replay.set_replay(&rx);
  for (int pass = 0; pass < 2; ++pass) {
    SCOPED_TRACE("pass " + std::to_string(pass));
    const auto fast = with_replay.tune(op, opts);
    EXPECT_TRUE(fast.best.candidate.strategy == base.best.candidate.strategy);
    EXPECT_EQ(fast.best.cycles, base.best.cycles);
    ASSERT_EQ(fast.all_measured.size(), base.all_measured.size());
    for (std::size_t i = 0; i < base.all_measured.size(); ++i)
      EXPECT_EQ(fast.all_measured[i], base.all_measured[i])
          << "candidate " << i;
  }
  const ReplayStats st = rx.stats();
  EXPECT_EQ(st.hits + st.misses,
            2 * static_cast<std::int64_t>(base.all_measured.size()));
  EXPECT_GE(st.hits, static_cast<std::int64_t>(base.all_measured.size()));
}

TEST(ModelTuner, TopKWithMemoMatchesInterpreterAndHitsEachTwin) {
  const ops::MatmulOp op = one_m_tile_matmul();
  constexpr int kTopK = 16;
  Journal plain_journal, memo_journal;
  const Tuned plain =
      ModelTuner(cfg).tune_top_k(op, kTopK, {}, nullptr, &plain_journal);
  ReplayExecutor rx = enabled_memo();
  ModelTuner with_memo(cfg);
  with_memo.set_replay(&rx);
  const Tuned fast =
      with_memo.tune_top_k(op, kTopK, {}, nullptr, &memo_journal);

  EXPECT_TRUE(fast.candidate.strategy == plain.candidate.strategy);
  EXPECT_EQ(fast.cycles, plain.cycles);
  EXPECT_EQ(memo_journal.to_jsonl(), plain_journal.to_jsonl());

  // The journal lists every candidate once, indexed by its position in
  // the schedule space; its measured rows are the shortlist.
  const std::vector<sched::Candidate> cands =
      sched::Scheduler(cfg).candidates(op);
  ASSERT_EQ(cands.size(), memo_journal.size());
  const dsl::ScheduleSpace space = op.space();
  const dsl::BoundTensors bt = binding(op);
  std::set<std::string> keys;
  std::int64_t shortlist = 0;
  for (const JournalEntry& e : memo_journal.entries()) {
    if (e.measured < 0.0) continue;
    ++shortlist;
    const sched::Candidate c = build_candidate(op, space.at(e.index), cfg);
    keys.insert(replay_key(c.program, bt, cfg));
  }
  ASSERT_EQ(shortlist, kTopK);
  const auto repeats = shortlist - static_cast<std::int64_t>(keys.size());
  EXPECT_GT(repeats, 0) << "the shortlist holds no loop-order twins";
  const ReplayStats st = rx.stats();
  EXPECT_EQ(st.hits, repeats);
  EXPECT_EQ(st.misses, static_cast<std::int64_t>(keys.size()));
}

}  // namespace
}  // namespace swatop::tune
