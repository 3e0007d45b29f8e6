// Observability subsystem tests: counter determinism, the traced-DMA-bytes
// == priced-DMA-bytes contract (Eq. (1) accounting), trace-JSON
// well-formedness, and the disabled-by-default zero-profile behaviour.
#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>

#include "graph/build.hpp"
#include "graph/compile.hpp"
#include "graph/engine.hpp"
#include "graph/net_report.hpp"
#include "obs/attribution.hpp"
#include "obs/profile.hpp"
#include "obs/recorder.hpp"
#include "obs/roofline.hpp"
#include "obs/trace.hpp"
#include "ops/implicit_conv.hpp"
#include "ops/matmul.hpp"
#include "rt/bind.hpp"
#include "rt/interpreter.hpp"
#include "tune/journal.hpp"
#include "tune/tuner.hpp"

namespace swatop {
namespace {

// ---------------------------------------------------------------------------
// A minimal JSON validator (objects, arrays, strings, numbers, literals) so
// the well-formedness check does not depend on an external parser.

class JsonValidator {
 public:
  explicit JsonValidator(std::string s) : s_(std::move(s)) {}

  bool valid() {
    pos_ = 0;
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }

  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }

  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }

  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) return false;
      }
      ++pos_;
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }

  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-'))
      ++pos_;
    return pos_ > start;
  }

  bool literal(const char* lit) {
    for (const char* p = lit; *p; ++p, ++pos_)
      if (pos_ >= s_.size() || s_[pos_] != *p) return false;
    return true;
  }

  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_])))
      ++pos_;
  }

  std::string s_;
  std::size_t pos_ = 0;
};

// ---------------------------------------------------------------------------

/// A fixed, known matmul schedule (no tuner involved).
sched::Candidate fixed_matmul_candidate(const ops::MatmulOp& op,
                                        const sim::SimConfig& cfg) {
  dsl::Strategy s;
  s.set_factor("Tm", 64);
  s.set_factor("Tn", 64);
  s.set_factor("Tk", 32);
  s.set_choice("order", "mnk");
  s.set_choice("variant", "0");
  s.set_choice("boundary", "pad");
  return tune::build_candidate(op, s, cfg);
}

/// Run one candidate on an observed core group and return the profile.
obs::Profile observed_run(const dsl::OperatorDef& op,
                          const sched::Candidate& cand,
                          const sim::SimConfig& cfg, sim::ExecMode mode,
                          rt::RunResult* out = nullptr) {
  obs::Options oo;
  oo.enabled = true;
  obs::Recorder rec(oo);
  sim::CoreGroup cg(cfg);
  cg.attach_observer(&rec);
  const dsl::BoundTensors bt = rt::bind_tensors(cg, op);
  if (mode == sim::ExecMode::Functional)
    op.fill_inputs(cg, bt, cand.strategy);
  rt::Interpreter interp(cg, mode);
  const rt::RunResult r = interp.run(cand.program, bt);
  if (out) *out = r;
  return r.profile;
}

TEST(Obs, TraceBufferRingDropsOldest) {
  obs::TraceBuffer buf(4);
  for (int i = 0; i < 10; ++i) {
    obs::TraceEvent ev;
    ev.name = "e" + std::to_string(i);
    buf.record(std::move(ev));
  }
  EXPECT_EQ(buf.size(), 4u);
  EXPECT_EQ(buf.dropped(), 6);
  const auto evs = buf.snapshot();
  ASSERT_EQ(evs.size(), 4u);
  EXPECT_EQ(evs.front().name, "e6");  // oldest surviving
  EXPECT_EQ(evs.back().name, "e9");
}

TEST(Obs, DisabledByDefaultYieldsEmptyProfile) {
  const sim::SimConfig cfg;
  ops::MatmulOp op(64, 64, 32);
  const sched::Candidate cand = fixed_matmul_candidate(op, cfg);
  sim::CoreGroup cg(cfg);  // no recorder attached
  const dsl::BoundTensors bt = rt::bind_tensors(cg, op);
  rt::Interpreter interp(cg, sim::ExecMode::TimingOnly);
  const rt::RunResult r = interp.run(cand.program, bt);
  EXPECT_FALSE(r.profile.enabled);
  EXPECT_TRUE(r.profile.events.empty());
  EXPECT_EQ(r.profile.counters.dma.bytes_requested, 0);
  EXPECT_GT(r.cycles, 0.0);  // the run itself still happened
}

TEST(Obs, TracedDmaBytesEqualPricedBytes) {
  // The Eq. (1) cross-check: the aggregate DMA counters, the per-event
  // trace arguments and the run statistics must agree *exactly* -- they
  // are wired to the same booking sites, not re-derived.
  const sim::SimConfig cfg;
  ops::MatmulOp op(128, 128, 64);
  const sched::Candidate cand = fixed_matmul_candidate(op, cfg);
  rt::RunResult r;
  const obs::Profile p =
      observed_run(op, cand, cfg, sim::ExecMode::TimingOnly, &r);
  ASSERT_TRUE(p.enabled);
  ASSERT_EQ(p.events_dropped, 0);

  std::int64_t ev_bytes = 0, ev_txn = 0, ev_wasted = 0;
  for (const obs::TraceEvent& ev : p.events) {
    if (ev.pid != 0 || ev.tid != obs::Track::kDmaEngine) continue;
    if (ev.name != "dma") continue;
    ev_bytes += ev.arg[0];
    ev_txn += ev.arg[1];
    ev_wasted += ev.arg[2];
  }
  EXPECT_GT(ev_bytes, 0);
  EXPECT_EQ(ev_bytes, p.counters.dma.bytes_requested);
  EXPECT_EQ(ev_txn, p.counters.dma.transactions);
  EXPECT_EQ(ev_wasted, p.counters.dma.bytes_wasted);
  EXPECT_EQ(p.counters.dma.bytes_requested, r.stats.dma_bytes_requested);
  EXPECT_EQ(p.counters.dma.bytes_wasted, r.stats.dma_bytes_wasted);
  EXPECT_EQ(p.counters.dma.transactions, r.stats.dma_transactions);
  EXPECT_EQ(p.counters.dma.transfers, r.stats.dma_transfers);
  EXPECT_DOUBLE_EQ(p.counters.total_cycles, r.cycles);
}

/// A batch-8, 48 -> 48 channel 9x9 conv with bias + residual + relu fused
/// into its C put, on a fixed strategy whose tiles are ragged in channels
/// and columns.
ops::ImplicitConvOp fused_conv() {
  ops::ConvShape s;
  s.batch = 8;
  s.ni = 48;
  s.no = 48;
  s.ri = 9;
  s.ci = 9;
  dsl::EpilogueSpec epi;
  epi.bias = true;
  epi.residual = true;
  epi.relu = true;
  return ops::ImplicitConvOp(s, epi);
}

dsl::Strategy fused_conv_strategy() {
  dsl::Strategy st;
  st.set_factor("Tno", 32);
  st.set_factor("Tni", 32);
  st.set_factor("Tco", 4);
  st.set_choice("wlayout", "no_major");
  st.set_choice("order", "rcouvi");
  st.set_choice("variant", "6");
  st.set_choice("boundary", "pad");
  return st;
}

TEST(Obs, PerCpeDmaSumsToAggregate) {
  // An unfused matmul, and the fused conv, whose residual re-read the put
  // books through its own blocks.
  const sim::SimConfig cfg;
  ops::MatmulOp op(128, 128, 64);
  const ops::ImplicitConvOp conv = fused_conv();
  const std::pair<const dsl::OperatorDef*, sched::Candidate> runs[] = {
      {&op, fixed_matmul_candidate(op, cfg)},
      {&conv, tune::build_candidate(conv, fused_conv_strategy(), cfg)}};
  for (const auto& [o, cand] : runs) {
    const obs::Profile p =
        observed_run(*o, cand, cfg, sim::ExecMode::TimingOnly);
    std::int64_t per_cpe = 0;
    for (const obs::CpeCounters& c : p.counters.per_cpe)
      per_cpe += c.dma_bytes;
    EXPECT_GT(per_cpe, 0) << o->name();
    EXPECT_EQ(per_cpe, p.counters.dma.bytes_requested) << o->name();
  }
}

TEST(Obs, CountersAreDeterministic) {
  const sim::SimConfig cfg;
  ops::MatmulOp op(128, 128, 64);
  const sched::Candidate cand = fixed_matmul_candidate(op, cfg);
  const obs::Profile a =
      observed_run(op, cand, cfg, sim::ExecMode::Functional);
  const obs::Profile b =
      observed_run(op, cand, cfg, sim::ExecMode::Functional);

  const obs::Counters& ca = a.counters;
  const obs::Counters& cb = b.counters;
  EXPECT_DOUBLE_EQ(ca.total_cycles, cb.total_cycles);
  EXPECT_DOUBLE_EQ(ca.compute_cycles, cb.compute_cycles);
  EXPECT_EQ(ca.flops, cb.flops);
  EXPECT_EQ(ca.gemm_calls, cb.gemm_calls);
  EXPECT_EQ(ca.dma.bytes_requested, cb.dma.bytes_requested);
  EXPECT_EQ(ca.dma.bytes_wasted, cb.dma.bytes_wasted);
  EXPECT_EQ(ca.dma.transactions, cb.dma.transactions);
  EXPECT_EQ(ca.dma.transfers, cb.dma.transfers);
  EXPECT_DOUBLE_EQ(ca.dma.queue_wait_cycles, cb.dma.queue_wait_cycles);
  EXPECT_DOUBLE_EQ(ca.dma.stall_cycles, cb.dma.stall_cycles);
  EXPECT_DOUBLE_EQ(ca.dma.busy_cycles, cb.dma.busy_cycles);
  EXPECT_DOUBLE_EQ(ca.pipe.issued_p0, cb.pipe.issued_p0);
  EXPECT_DOUBLE_EQ(ca.pipe.issued_p1, cb.pipe.issued_p1);
  EXPECT_DOUBLE_EQ(ca.pipe.raw_stall_cycles, cb.pipe.raw_stall_cycles);
  EXPECT_EQ(ca.reg_comm.row_messages, cb.reg_comm.row_messages);
  EXPECT_EQ(ca.reg_comm.col_messages, cb.reg_comm.col_messages);
  EXPECT_EQ(ca.spm_high_water_floats, cb.spm_high_water_floats);
  EXPECT_EQ(ca.spm_reads, cb.spm_reads);
  EXPECT_EQ(ca.spm_writes, cb.spm_writes);
  ASSERT_EQ(ca.per_cpe.size(), cb.per_cpe.size());
  for (std::size_t i = 0; i < ca.per_cpe.size(); ++i) {
    EXPECT_EQ(ca.per_cpe[i].dma_bytes, cb.per_cpe[i].dma_bytes) << i;
    EXPECT_EQ(ca.per_cpe[i].dma_transfers, cb.per_cpe[i].dma_transfers) << i;
  }
  // Same number of trace events, same simulated timestamps.
  ASSERT_EQ(a.events.size(), b.events.size());
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].name, b.events[i].name) << i;
    EXPECT_DOUBLE_EQ(a.events[i].ts, b.events[i].ts) << i;
    EXPECT_DOUBLE_EQ(a.events[i].dur, b.events[i].dur) << i;
  }
}

TEST(Obs, FunctionalModeCountsRegCommAndSpmAccesses) {
  const sim::SimConfig cfg;
  ops::MatmulOp op(128, 128, 64);
  const sched::Candidate cand = fixed_matmul_candidate(op, cfg);
  const obs::Profile p =
      observed_run(op, cand, cfg, sim::ExecMode::Functional);
  // The distributed GEMM broadcasts panels over both buses.
  EXPECT_GT(p.counters.reg_comm.row_messages, 0);
  EXPECT_GT(p.counters.reg_comm.col_messages, 0);
  EXPECT_GT(p.counters.spm_reads, 0);
  EXPECT_GT(p.counters.spm_writes, 0);
  EXPECT_GT(p.counters.spm_high_water_floats, 0);
}

TEST(Obs, FunctionalImplicitConvSpmAccessCountsArePinned) {
  // Every float a functional DMA copy or fused epilogue moves is one SPM
  // element read or write. These totals come from the per-element copy
  // loops; the bulk copies must keep them exactly. Ragged channels and
  // columns exercise the clamped edge tiles.
  const sim::SimConfig cfg;
  const ops::ImplicitConvOp op = fused_conv();
  const sched::Candidate cand =
      tune::build_candidate(op, fused_conv_strategy(), cfg);
  const obs::Profile p =
      observed_run(op, cand, cfg, sim::ExecMode::Functional);
  // Reads: the put and the epilogue each read the 18,816 outputs once.
  // Writes: both inputs are cached. The weights' 36 tiles are fetched once
  // (20,736 floats, 27,648 zeroed on the 27 partial tiles), the input's 18
  // tiles once per (r, c) (169,344 fetched, 193,536 zeroed), plus the C
  // tile's zero-fill per (r, c, o) (28,672) and the epilogue's 18,816.
  EXPECT_EQ(p.counters.spm_reads, 37632);
  EXPECT_EQ(p.counters.spm_writes, 458752);
}

TEST(Obs, ChromeTraceIsWellFormedJson) {
  const sim::SimConfig cfg;
  ops::MatmulOp op(128, 128, 64);
  const sched::Candidate cand = fixed_matmul_candidate(op, cfg);
  const obs::Profile p =
      observed_run(op, cand, cfg, sim::ExecMode::TimingOnly);
  const std::string json = p.chrome_trace();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\""), std::string::npos);
  JsonValidator v(json);
  EXPECT_TRUE(v.valid()) << json.substr(0, 200);
}

TEST(Obs, TraceEscapesSpecialCharacters) {
  obs::TraceBuffer buf(4);
  obs::TraceEvent ev;
  ev.name = "weird \"name\"\\with\nnewline";
  ev.instant = true;
  buf.record(std::move(ev));
  std::ostringstream os;
  obs::write_chrome_trace(os, buf.snapshot());
  JsonValidator v(os.str());
  EXPECT_TRUE(v.valid()) << os.str();
}

TEST(Obs, DroppedEventsAreRecordedAsTraceMetadata) {
  obs::TraceBuffer buf(4);
  for (int i = 0; i < 10; ++i) {
    obs::TraceEvent ev;
    ev.name = "e" + std::to_string(i);
    ev.instant = true;
    buf.record(std::move(ev));
  }
  ASSERT_EQ(buf.dropped(), 6);
  std::ostringstream os;
  obs::write_chrome_trace(os, buf.snapshot(), buf.dropped());
  const std::string json = os.str();
  EXPECT_NE(json.find("\"trace_buffer_dropped_events\""), std::string::npos);
  EXPECT_NE(json.find("\"dropped\":6"), std::string::npos);
  JsonValidator v(json);
  EXPECT_TRUE(v.valid()) << json.substr(0, 200);
  // A clean trace carries no dropped-event metadata.
  std::ostringstream clean;
  obs::write_chrome_trace(clean, buf.snapshot(), 0);
  EXPECT_EQ(clean.str().find("trace_buffer_dropped_events"),
            std::string::npos);
}

TEST(Obs, FlowEventsSerializeWithChromeFlowPhases) {
  obs::TraceBuffer buf(8);
  const char phases[3] = {'s', 't', 'f'};
  for (int i = 0; i < 3; ++i) {
    obs::TraceEvent ev;
    ev.name = "req";
    ev.cat = obs::Category::Serve;
    ev.pid = 2;
    ev.ts = 10.0 * (i + 1);
    ev.flow = phases[i];
    ev.flow_id = 42;
    buf.record(std::move(ev));
  }
  std::ostringstream os;
  obs::write_chrome_trace(os, buf.snapshot());
  const std::string json = os.str();
  EXPECT_NE(json.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"t\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"f\""), std::string::npos);
  EXPECT_NE(json.find("\"id\":42"), std::string::npos);
  // Chrome's binding point: the flow end attaches to the enclosing slice.
  EXPECT_NE(json.find("\"bp\":\"e\""), std::string::npos);
  JsonValidator v(json);
  EXPECT_TRUE(v.valid()) << json.substr(0, 200);
}

TEST(Obs, OneCallApiCarriesTuningHistory) {
  SwatopConfig cfg;
  cfg.observability.enabled = true;
  cfg.tune_top_k = 3;
  ops::MatmulOp op(128, 128, 64);
  CompiledOp tuned = compile(op, cfg);
  const rt::RunResult r = tuned.run(sim::ExecMode::TimingOnly);
  ASSERT_TRUE(r.profile.enabled);
  EXPECT_EQ(r.profile.tune.candidates_measured, 3);
  EXPECT_GT(r.profile.tune.candidates_ranked, 0);
  EXPECT_GT(r.profile.tune.space_size, 0);
  ASSERT_EQ(r.profile.tune_samples.size(), 3u);
  for (const obs::TuneSample& s : r.profile.tune_samples) {
    EXPECT_GT(s.predicted_cycles, 0.0);
    EXPECT_GT(s.measured_cycles, 0.0);
    EXPECT_FALSE(s.strategy.empty());
  }
  // The execution winner is the measured-best shortlist entry.
  EXPECT_GT(tuned.measured_cycles, 0.0);
  EXPECT_GT(tuned.predicted_cycles, 0.0);
  // Tuner (pid 1) and execution (pid 0) events coexist in one trace.
  bool saw_tune = false, saw_run = false;
  for (const obs::TraceEvent& ev : r.profile.events) {
    saw_tune |= ev.pid == 1;
    saw_run |= ev.pid == 0;
  }
  EXPECT_TRUE(saw_tune);
  EXPECT_TRUE(saw_run);
}

TEST(Obs, ReportMentionsDmaShare) {
  SwatopConfig cfg;
  cfg.observability.enabled = true;
  ops::MatmulOp op(128, 128, 64);
  const rt::RunResult r = compile(op, cfg).run(sim::ExecMode::TimingOnly);
  const std::string rep = r.profile.report();
  EXPECT_NE(rep.find("DMA"), std::string::npos);
  EXPECT_NE(rep.find("wasted"), std::string::npos);
  EXPECT_NE(rep.find("cycles"), std::string::npos);
}

TEST(Obs, RepeatedExecuteResetsExecutionCounters) {
  SwatopConfig cfg;
  cfg.observability.enabled = true;
  ops::MatmulOp op(128, 128, 64);
  CompiledOp tuned = compile(op, cfg);
  const rt::RunResult r1 = tuned.run(sim::ExecMode::TimingOnly);
  const rt::RunResult r2 = tuned.run(sim::ExecMode::TimingOnly);
  // Counters describe one execution, not the accumulation of both.
  EXPECT_EQ(r1.profile.counters.dma.bytes_requested,
            r2.profile.counters.dma.bytes_requested);
  EXPECT_DOUBLE_EQ(r1.profile.counters.total_cycles,
                   r2.profile.counters.total_cycles);
  // The trace accumulates across runs (one timeline).
  EXPECT_GE(r2.profile.events.size(), r1.profile.events.size());
}

// ---------------------------------------------------------------------------
// Cycle attribution

TEST(Attribution, SyntheticDecompositionIsExact) {
  obs::AttributionInput in;
  in.elapsed = 100.0;
  in.groups = 1;
  in.group_cycles = 100.0;
  in.compute_cycles = 60.0;
  in.dma_stall_cycles = 40.0;
  in.dma_queue_wait_cycles = 15.0;
  in.gemm_cycles = 50.0;
  in.gemm_comm_cycles = 5.0;
  in.raw_stall_cycles = 10.0;
  const obs::Attribution a = obs::attribute(in);
  EXPECT_TRUE(a.balanced());
  EXPECT_DOUBLE_EQ(a.basis, 100.0);
  EXPECT_DOUBLE_EQ(a.at(obs::AttrCat::DmaQueueWait), 15.0);
  EXPECT_DOUBLE_EQ(a.at(obs::AttrCat::DmaWait), 25.0);
  EXPECT_DOUBLE_EQ(a.at(obs::AttrCat::RegComm), 5.0);
  EXPECT_DOUBLE_EQ(a.at(obs::AttrCat::KernelRawStall), 10.0);
  EXPECT_DOUBLE_EQ(a.at(obs::AttrCat::KernelIssue), 35.0);
  EXPECT_DOUBLE_EQ(a.at(obs::AttrCat::OtherCompute), 10.0);
  EXPECT_DOUBLE_EQ(a.at(obs::AttrCat::Residual), 0.0);
  EXPECT_DOUBLE_EQ(a.sum(), a.basis);
}

TEST(Attribution, UnexplainedCyclesLandInResidual) {
  obs::AttributionInput in;
  in.elapsed = 100.0;
  in.groups = 1;
  in.group_cycles = 100.0;
  in.compute_cycles = 30.0;  // counters only explain 70 of 100
  in.dma_stall_cycles = 40.0;
  const obs::Attribution a = obs::attribute(in);
  EXPECT_TRUE(a.balanced());
  EXPECT_DOUBLE_EQ(a.at(obs::AttrCat::Residual), 30.0);
  EXPECT_DOUBLE_EQ(a.sum(), a.basis);
}

TEST(Attribution, DoubleBufferedConvTracedBytesAndExactSum) {
  // The ISSUE's invariant audit, on a real double-buffered convolution:
  // traced DMA bytes equal priced DMA bytes, and the attribution categories
  // sum exactly to the elapsed cycles (residual 0 for a single-CG run whose
  // clock only ever advances through compute and DMA stalls).
  const sim::SimConfig cfg;
  ops::ConvShape s;
  s.batch = 2;
  s.ni = 64;
  s.no = 64;
  s.ri = 18;
  s.ci = 18;
  const ops::ImplicitConvOp op(s);
  const tune::ModelTuner tuner(cfg);
  const tune::Tuned t = tuner.tune(op);  // default options: prefetch on
  ASSERT_TRUE(t.candidate.prefetch);     // the schedule is double-buffered

  rt::RunResult r;
  const obs::Profile p =
      observed_run(op, t.candidate, cfg, sim::ExecMode::TimingOnly, &r);
  ASSERT_TRUE(p.enabled);
  ASSERT_EQ(p.events_dropped, 0);

  // Traced == priced, also under double buffering.
  std::int64_t ev_bytes = 0, ev_wasted = 0;
  for (const obs::TraceEvent& ev : p.events) {
    if (ev.pid != 0 || ev.tid != obs::Track::kDmaEngine) continue;
    if (ev.name != "dma") continue;
    ev_bytes += ev.arg[0];
    ev_wasted += ev.arg[2];
  }
  EXPECT_GT(ev_bytes, 0);
  EXPECT_EQ(ev_bytes, p.counters.dma.bytes_requested);
  EXPECT_EQ(ev_wasted, p.counters.dma.bytes_wasted);
  EXPECT_EQ(p.counters.dma.bytes_requested, r.stats.dma_bytes_requested);

  // Exact-sum attribution with zero residual.
  const obs::Attribution a = obs::attribute(p.counters);
  EXPECT_TRUE(a.balanced());
  EXPECT_DOUBLE_EQ(a.basis, r.cycles);
  EXPECT_DOUBLE_EQ(a.sum(), r.cycles);
  EXPECT_DOUBLE_EQ(a.at(obs::AttrCat::Residual), 0.0);
  // A double-buffered conv does real kernel work and overlaps some DMA.
  EXPECT_GT(a.at(obs::AttrCat::KernelIssue), 0.0);
}

// ---------------------------------------------------------------------------
// Roofline

TEST(Roofline, RidgeSeparatesBindingResource) {
  obs::RooflineMachine m;
  m.peak_flops_per_cycle = 32.0;
  m.dma_bytes_per_cycle = 2.0;
  EXPECT_DOUBLE_EQ(m.ridge(), 16.0);

  // Below the ridge: memory roof binds.
  const obs::RooflinePoint lo =
      obs::roofline_place("lo", /*flops=*/800, /*dram_bytes=*/100,
                          /*cycles=*/100.0, m);
  EXPECT_DOUBLE_EQ(lo.intensity, 8.0);
  EXPECT_DOUBLE_EQ(lo.roof, 16.0);  // 8 flop/B * 2 B/cy
  EXPECT_DOUBLE_EQ(lo.achieved, 8.0);
  EXPECT_DOUBLE_EQ(lo.utilization, 0.5);

  // Above the ridge: compute roof binds.
  const obs::RooflinePoint hi =
      obs::roofline_place("hi", /*flops=*/6400, /*dram_bytes=*/100,
                          /*cycles=*/400.0, m);
  EXPECT_DOUBLE_EQ(hi.intensity, 64.0);
  EXPECT_DOUBLE_EQ(hi.roof, 32.0);
  EXPECT_DOUBLE_EQ(hi.utilization, 0.5);
}

TEST(Roofline, ZeroByteSpanIsComputeBound) {
  obs::RooflineMachine m;
  m.peak_flops_per_cycle = 32.0;
  m.dma_bytes_per_cycle = 2.0;
  const obs::RooflinePoint p =
      obs::roofline_place("spm-only", 3200, 0, 100.0, m);
  EXPECT_DOUBLE_EQ(p.roof, 32.0);
  EXPECT_DOUBLE_EQ(p.utilization, 1.0);
}

TEST(Roofline, CountersPlacementUsesTransactionBytes) {
  const sim::SimConfig cfg;
  ops::MatmulOp op(128, 128, 64);
  const sched::Candidate cand = fixed_matmul_candidate(op, cfg);
  const obs::Profile p =
      observed_run(op, cand, cfg, sim::ExecMode::TimingOnly);
  const obs::RooflineMachine m{cfg.peak_flops_per_cycle(),
                               cfg.dma_bytes_per_cycle()};
  const obs::RooflinePoint pt = obs::roofline_place("mm", p.counters, m);
  EXPECT_EQ(pt.dram_bytes,
            p.counters.dma.bytes_requested + p.counters.dma.bytes_wasted);
  EXPECT_EQ(pt.flops, p.counters.flops);
  EXPECT_GT(pt.utilization, 0.0);
  EXPECT_LE(pt.utilization, 1.0 + 1e-9);
  const std::string rep = obs::roofline_report({pt}, m);
  EXPECT_NE(rep.find("util%"), std::string::npos);
  JsonValidator v(obs::roofline_json({pt}, m));
  EXPECT_TRUE(v.valid());
}

// ---------------------------------------------------------------------------
// Tuning journal

TEST(Journal, ModelErrorAndRegretStatistics) {
  tune::Journal j;
  // Three measured entries (in journal order) + one pruned (excluded).
  j.append({"op", "model", "s0", 0, 2, 120.0, 100.0, false});
  j.append({"op", "model", "s1", 1, 0, 80.0, 90.0, false});
  j.append({"op", "model", "s2", 2, 1, 95.0, 95.0, true});
  j.append({"op", "model", "s3", 3, 3, 200.0, -1.0, false});  // pruned

  const tune::ModelErrorStats st = tune::model_error_stats(j.entries());
  EXPECT_EQ(st.samples, 3);
  // |120-100|/100 = .2, |80-90|/90 = .111..., |95-95|/95 = 0.
  EXPECT_NEAR(st.mean_rel_err, (0.2 + 1.0 / 9.0) / 3.0, 1e-12);
  EXPECT_NEAR(st.max_rel_err, 0.2, 1e-12);
  // Predicted order (80, 95, 120) matches measured order (90, 95, 100).
  EXPECT_NEAR(st.rank_corr, 1.0, 1e-12);

  const std::vector<double> regret = tune::regret_curve(j.entries());
  ASSERT_EQ(regret.size(), 3u);
  EXPECT_NEAR(regret[0], 100.0 / 90.0 - 1.0, 1e-12);  // best-so-far 100
  EXPECT_NEAR(regret[1], 0.0, 1e-12);                 // found the winner
  EXPECT_NEAR(regret[2], 0.0, 1e-12);

  const std::string sum = tune::journal_summary(j);
  EXPECT_NE(sum.find("model"), std::string::npos);
  JsonValidator v(tune::journal_summary_json(j));
  EXPECT_TRUE(v.valid());
}

TEST(Journal, RankCorrelationAllTies) {
  // Every prediction identical: frac_ranks assigns all entries the same
  // average rank, rank variance is zero, and the Spearman coefficient must
  // come out a defined 0.0 -- not NaN from a 0/0.
  tune::Journal j;
  j.append({"op", "model", "s0", 0, 0, 50.0, 100.0, false});
  j.append({"op", "model", "s1", 1, 1, 50.0, 90.0, false});
  j.append({"op", "model", "s2", 2, 2, 50.0, 95.0, true});
  const tune::ModelErrorStats st = tune::model_error_stats(j.entries());
  EXPECT_EQ(st.samples, 3);
  EXPECT_DOUBLE_EQ(st.rank_corr, 0.0);
  EXPECT_TRUE(std::isfinite(st.mean_rel_err));
}

TEST(Journal, RankCorrelationPartialTies) {
  // Tied predictions share the average of the ranks they span (the
  // standard Spearman tie treatment); with measured values ordered the
  // same way the coefficient is positive but below 1.
  tune::Journal j;
  j.append({"op", "model", "s0", 0, 0, 50.0, 10.0, false});
  j.append({"op", "model", "s1", 1, 1, 50.0, 20.0, false});
  j.append({"op", "model", "s2", 2, 2, 80.0, 30.0, false});
  j.append({"op", "model", "s3", 3, 3, 90.0, 40.0, true});
  const tune::ModelErrorStats st = tune::model_error_stats(j.entries());
  EXPECT_EQ(st.samples, 4);
  // Predicted ranks (avg on ties): 0.5, 0.5, 2, 3; measured: 0, 1, 2, 3.
  // Pearson over those rank vectors = 4.5 / sqrt(4.5 * 5) = sqrt(0.9).
  EXPECT_NEAR(st.rank_corr, std::sqrt(0.9), 1e-12);
  EXPECT_GT(st.rank_corr, 0.9);
  EXPECT_LT(st.rank_corr, 1.0);
}

TEST(Journal, NonFiniteSamplesAreExcluded) {
  // NaN passes `predicted < 0` / `measured <= 0` (every NaN comparison is
  // false); the stats must filter on finiteness or one poisoned entry
  // turns the means and the regret curve into NaN.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  tune::Journal j;
  j.append({"op", "model", "s0", 0, 0, 100.0, 110.0, false});
  j.append({"op", "model", "s1", 1, 1, nan, 90.0, false});
  j.append({"op", "model", "s2", 2, 2, 95.0, nan, false});
  j.append({"op", "model", "s3", 3, 3, inf, 95.0, false});
  j.append({"op", "model", "s4", 4, 4, 120.0, 130.0, true});
  const tune::ModelErrorStats st = tune::model_error_stats(j.entries());
  EXPECT_EQ(st.samples, 2);
  EXPECT_TRUE(std::isfinite(st.mean_rel_err));
  EXPECT_TRUE(std::isfinite(st.rank_corr));
  // regret_curve filters on `measured` only: the NaN measurement drops,
  // the Inf-*predicted* (but finitely measured) entry stays.
  const std::vector<double> regret = tune::regret_curve(j.entries());
  ASSERT_EQ(regret.size(), 4u);
  for (double r : regret) EXPECT_TRUE(std::isfinite(r));
}

TEST(Journal, JsonlSerializesUnevaluatedAsNull) {
  tune::Journal j;
  j.append({"op \"x\"", "blackbox", "s", 0, 0, -1.0, 42.0, true});
  const std::string line = tune::journal_entry_json(j.entries()[0]);
  EXPECT_NE(line.find("\"predicted\": null"), std::string::npos);
  EXPECT_NE(line.find("42"), std::string::npos);
  JsonValidator v(line);
  EXPECT_TRUE(v.valid()) << line;
  // Every JSONL line of a real tuning run is valid JSON too.
  const sim::SimConfig cfg;
  ops::MatmulOp op(64, 64, 32);
  tune::Journal real;
  const tune::ModelTuner tuner(cfg);
  (void)tuner.tune(op, {}, nullptr, &real);
  ASSERT_GT(real.size(), 0u);
  std::istringstream lines(real.to_jsonl());
  std::string l;
  while (std::getline(lines, l)) {
    JsonValidator lv(l);
    EXPECT_TRUE(lv.valid()) << l;
  }
}

TEST(Journal, IdenticalAcrossRunsAndThreadCounts) {
  // The determinism contract: a tuning journal is byte-identical run to
  // run, including when the tuner's ranking fans out to worker threads.
  const sim::SimConfig cfg;
  ops::MatmulOp op(128, 128, 64);
  const tune::ModelTuner tuner(cfg);

  const auto journal_of = [&](int threads) {
    sched::SchedulerOptions opts;
    opts.num_threads = threads;
    tune::Journal j;
    (void)tuner.tune(op, opts, nullptr, &j);
    return j.to_jsonl();
  };
  const std::string serial_a = journal_of(1);
  const std::string serial_b = journal_of(1);
  const std::string parallel = journal_of(4);
  EXPECT_EQ(serial_a, serial_b);
  EXPECT_EQ(serial_a, parallel);
  EXPECT_FALSE(serial_a.empty());
}

TEST(Journal, OptimizerCacheHitIsJournaled) {
  SwatopConfig cfg;
  cfg.cache.enabled = true;  // in-memory (no path)
  tune::Journal j;
  cfg.journal = &j;
  Optimizer optimizer(cfg);
  ops::MatmulOp op(128, 128, 64);
  (void)optimizer.optimize(op);
  const std::size_t first = j.size();
  ASSERT_GT(first, 0u);
  (void)optimizer.optimize(op);  // in-memory cache hit
  ASSERT_GT(j.size(), first);
  const tune::JournalEntry& hit = j.entries().back();
  EXPECT_EQ(hit.phase, "cache");
  EXPECT_TRUE(hit.chosen);
}

TEST(Obs, ProfileTextIsDeterministic) {
  SwatopConfig cfg;
  cfg.observability.enabled = true;
  ops::MatmulOp op(128, 128, 64);
  // Every simulated quantity in the report is byte-identical run to run;
  // the single host-time line ("wall clock") is the only exception and is
  // stripped before comparing.
  const auto report_of = [&]() {
    const rt::RunResult r = compile(op, cfg).run(sim::ExecMode::TimingOnly);
    std::istringstream in(r.profile.report());
    std::string out, line;
    while (std::getline(in, line))
      if (line.find("wall clock") == std::string::npos) out += line + "\n";
    return out;
  };
  const std::string a = report_of();
  const std::string b = report_of();
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a.empty());
}

// ---------------------------------------------------------------------------
// Whole-network attribution (graph engine)

TEST(NetAttribution, Vgg16PerLayerAttributionsSumToNetBasis) {
  const graph::Graph g = graph::build_net("vgg16");
  SwatopConfig cfg;
  graph::GraphEngine engine(cfg);
  graph::NetOptions opts;
  opts.groups = 2;
  opts.mode = sim::ExecMode::TimingOnly;
  opts.check = false;
  const graph::NetRunResult r = engine.run(g, /*batch=*/2, opts);
  ASSERT_FALSE(r.layers.empty());

  // NetOptions defaults leave fusion and residency ON, so this run prices
  // fused epilogues and elided DMA -- the attribution identities below must
  // survive both (elided transfers are invisible to the DMA observability,
  // keeping traced bytes equal to priced bytes).
  EXPECT_GT(r.fusion.convs_fused, 0);
  EXPECT_GT(r.dma_bytes_elided, 0);

  // Every layer's decomposition is exact over its own basis, and the layer
  // bases tile the network basis exactly (the per-step maxima sum to the
  // end-to-end cycle count).
  double layer_basis_sum = 0.0, layer_cycles_sum = 0.0;
  for (const graph::LayerReport& lr : r.layers) {
    const obs::Attribution a = graph::layer_attribution(lr);
    EXPECT_TRUE(a.balanced()) << lr.name;
    EXPECT_DOUBLE_EQ(a.sum(), a.basis) << lr.name;
    EXPECT_DOUBLE_EQ(a.basis, lr.cycles * lr.groups) << lr.name;
    layer_basis_sum += a.basis;
    layer_cycles_sum += lr.cycles;
  }
  EXPECT_DOUBLE_EQ(layer_cycles_sum, r.cycles);
  EXPECT_DOUBLE_EQ(layer_basis_sum, r.cycles * r.groups_used);

  // The whole-network decomposition is exact over the same basis.
  const obs::Attribution net = graph::net_attribution(r);
  EXPECT_TRUE(net.balanced());
  EXPECT_DOUBLE_EQ(net.basis, r.cycles * r.groups_used);
  EXPECT_DOUBLE_EQ(net.sum(), net.basis);
  // Multi-CG runs pay real NoC barriers.
  EXPECT_GT(net.at(obs::AttrCat::Barrier), 0.0);

  // The rendered reports carry the tables and are well-formed.
  const std::string text = graph::net_report(r, cfg.machine);
  EXPECT_NE(text.find("attribution"), std::string::npos);
  EXPECT_NE(text.find("roofline"), std::string::npos);
  const std::string json = graph::net_report_json(r, cfg.machine);
  JsonValidator v(json);
  EXPECT_TRUE(v.valid());

  // Every conv row names its pick -- tiles, loop order and kernel variant
  // -- in both forms, without the epilogue the row already marks.
  for (const graph::LayerReport& lr : r.layers) {
    if (!lr.conv) continue;
    EXPECT_NE(lr.pick.find("order="), std::string::npos) << lr.name;
    EXPECT_NE(lr.pick.find("variant="), std::string::npos) << lr.name;
    EXPECT_EQ(lr.pick.find("epi="), std::string::npos) << lr.name;
    EXPECT_NE(text.find(lr.pick), std::string::npos) << lr.name;
    EXPECT_NE(json.find("\"pick\": \"" + lr.pick + "\""), std::string::npos)
        << lr.name;
  }
}

}  // namespace
}  // namespace swatop
