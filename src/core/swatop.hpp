// swATOP's operator handle and the tuning service behind it. Describe an
// operator (ops/ provides matmul and the three convolution designs, or
// implement dsl::OperatorDef for your own) and compile it:
//
//   swatop::SwatopConfig cfg;
//   swatop::ops::MatmulOp op(512, 512, 512);
//   auto compiled = swatop::compile(op, cfg);   // graph/compile.hpp
//   auto result = compiled.run();               // functional by default
//   double err = compiled.check();
//
// CompiledOp is the one handle for a tuned operator: the schedule, its
// generated C source, the tuning numbers, and a core group it owns and
// binds on first run(). Callers that manage memory themselves run the same
// handle on their own core group and binding (run(cg, bt, mode)), which is
// what the graph engine does for every layer.
//
// Optimizer is the schedule-cache and measurement-memo service that
// compile(op) and graph::GraphEngine share: Optimizer::optimize tunes (or
// serves from the cache) and code-generates one operator.
#pragma once

#include <memory>
#include <string>

#include "codegen/c_emitter.hpp"
#include "dsl/dsl.hpp"
#include "obs/recorder.hpp"
#include "rt/bind.hpp"
#include "rt/interpreter.hpp"
#include "sched/scheduler.hpp"
#include "tune/journal.hpp"
#include "tune/replay.hpp"
#include "tune/schedule_cache.hpp"
#include "tune/tuner.hpp"

namespace swatop {

/// The single configuration surface: machine model, scheduling and tuning
/// knobs, and observability. Every lower-level options struct
/// (sched::SchedulerOptions, the tuner's top-k) is derived from here.
struct SwatopConfig {
  sim::SimConfig machine{};

  bool prefetch = true;  ///< let the optimizer apply double buffering
  /// SPM floats kept free of tile buffers (stack/spill headroom).
  std::int64_t spm_reserve_floats = 512;
  /// Cap on schedule candidates considered (0 = the whole pruned space).
  std::int64_t max_candidates = 0;

  /// 0: pick the cost model's best candidate without measuring (the pure
  /// model-based autotuner). k >= 1: additionally measure the k
  /// model-ranked best through the timing interpreter and keep the
  /// measured winner (Sec. 4.6's "pick best (or top k)"); k = 1 measures
  /// the model's pick.
  int tune_top_k = 0;

  /// Worker threads for tuning (lower+optimize sweep and cost-model
  /// ranking): 0 = hardware concurrency, 1 = serial. The pick is identical
  /// at any thread count.
  int tune_threads = 0;

  /// Schedule cache: when enabled, Optimizer::optimize serves a previously
  /// tuned (operator, machine, knobs) from the cache -- rebuilding only the
  /// winning strategy's IR instead of re-enumerating the space -- and banks
  /// every fresh tuning result (to `cache.path` when set, unless
  /// read-only).
  tune::CacheConfig cache{};

  /// Measurement memo: when enabled, every candidate measurement this
  /// configuration triggers (the top-k shortlists) goes through one shared
  /// ReplayExecutor, so a program measured before -- keyed on its
  /// structure, not its strategy -- is not interpreted again. Cycles are
  /// bit-identical either way.
  tune::ReplayOptions replay{};

  /// Observability: off by default (near-zero overhead). When enabled, the
  /// tuner and every execution are profiled into RunResult::profile.
  obs::Options observability{};

  /// Tuning journal: when set (caller-owned, non-owning), every candidate
  /// the tuners consider is appended -- including cache hits, as phase
  /// "cache" -- so one journal shared across operators/layers records the
  /// whole search. See tune/journal.hpp.
  tune::Journal* journal = nullptr;

  /// The scheduler options this configuration implies.
  sched::SchedulerOptions scheduler_options() const {
    sched::SchedulerOptions s;
    s.opt.prefetch = prefetch;
    s.opt.spm_reserve_floats = spm_reserve_floats;
    s.max_candidates = max_candidates;
    s.num_threads = tune_threads;
    return s;
  }

  /// The cache-key knobs this configuration implies (anything that can
  /// change the tuner's pick).
  tune::TunerKnobs tuner_knobs() const {
    tune::TunerKnobs k;
    k.prefetch = prefetch;
    k.spm_reserve_floats = spm_reserve_floats;
    k.max_candidates = max_candidates;
    k.top_k = tune_top_k;
    return k;
  }
};

/// A tuned, code-generated operator: returned by compile(op, cfg)
/// (graph/compile.hpp) and by Optimizer::optimize. It owns (lazily) the
/// simulated core group and tensor binding needed to run it; the operator
/// definition must outlive it. Move-only (it owns a core group).
class CompiledOp {
 public:
  CompiledOp() = default;
  CompiledOp(CompiledOp&&) = default;
  CompiledOp& operator=(CompiledOp&&) = default;
  CompiledOp(const CompiledOp&) = delete;
  CompiledOp& operator=(const CompiledOp&) = delete;

  sched::Candidate candidate;
  tune::TunerStats stats;
  double predicted_cycles = 0.0;  ///< cost-model estimate of the winner
  double measured_cycles = 0.0;   ///< 0 unless measured during tuning
  bool from_cache = false;  ///< served from the schedule cache (no search)
  std::string c_source;

  /// Execute the tuned schedule on the internally owned core group,
  /// creating it, binding the operator's tensors and filling its inputs on
  /// first use. Repeated calls reuse the core group; output tensors are
  /// re-zeroed before each re-run so an accumulating schedule (C += A*B)
  /// starts from the same state every time -- inputs are read-only to the
  /// generated programs and keep their first-use fill. With observability
  /// enabled, the result's `profile` carries the counters and trace of
  /// this run plus the accumulated tuning history.
  rt::RunResult run(sim::ExecMode mode = sim::ExecMode::Functional);

  /// Max |computed - reference| over the outputs of the last run(). Throws
  /// swatop::CheckError unless the last run() was functional: a timing-only
  /// run writes no output, so there is nothing to compare.
  double check();

  /// One-paragraph text summary: strategy, predicted/measured cycles,
  /// cache status, and the last run's numbers when available.
  std::string report() const;

  /// Every candidate the tuner considered compiling this operator (plus
  /// any the caller's own SwatopConfig::journal had recorded before).
  /// Throws when the handle was tuned without a journal (an
  /// Optimizer::optimize call whose config had none).
  const tune::Journal& journal() const;

  const sim::SimConfig& machine() const { return machine_; }

  /// Run on a caller-owned core group and binding. `resident` (optional)
  /// pins operand tensors on-chip for the run -- the graph engine's
  /// inter-layer SPM residency (see rt::ResidentSet).
  rt::RunResult run(sim::CoreGroup& cg, const dsl::BoundTensors& bt,
                    sim::ExecMode mode,
                    const rt::ResidentSet* resident = nullptr) const;

 private:
  friend class Optimizer;
  friend CompiledOp compile(const dsl::OperatorDef& op, SwatopConfig cfg);

  const dsl::OperatorDef* op_ = nullptr;
  sim::SimConfig machine_{};
  std::shared_ptr<obs::Recorder> recorder_;  ///< null when obs is off
  tune::Journal* journal_ = nullptr;  ///< the config's journal, if any
  std::unique_ptr<tune::Journal> owned_journal_;  ///< compile(op)'s own
  std::unique_ptr<sim::CoreGroup> cg_;
  dsl::BoundTensors bt_;
  double last_cycles_ = 0.0;  ///< of the last run(), for report()
  bool ran_ = false;
  bool checkable_ = false;  ///< the last run() was functional
};

class Optimizer {
 public:
  explicit Optimizer(SwatopConfig cfg = {});

  /// Tune the operator with the performance-model-based autotuner (plus
  /// top-k measurement when configured) and generate its code. The
  /// returned handle keeps a pointer to `op`; its journal is the config's
  /// (compile(op) supplies one when the caller did not). With the schedule
  /// cache enabled, a previously tuned (operator, machine, knobs) is served
  /// from the cache: the banked winning strategy is re-lowered directly
  /// (the schedule space is never enumerated) and the handle is marked
  /// `from_cache`; fresh results are banked after tuning.
  CompiledOp optimize(const dsl::OperatorDef& op) const;

  /// The schedule cache, when enabled (for inspection / explicit save()).
  tune::ScheduleCache* schedule_cache() const { return cache_.get(); }

  /// The shared measurement memo, when enabled (null otherwise): the
  /// graph engine reads its hit/miss counts per run.
  tune::ReplayExecutor* replay_executor() const { return replay_.get(); }

 private:
  SwatopConfig cfg_;
  std::shared_ptr<tune::ScheduleCache> cache_;  ///< null when disabled
  std::shared_ptr<tune::ReplayExecutor> replay_;  ///< null when disabled
};

}  // namespace swatop
