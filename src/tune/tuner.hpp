// The two autotuners of Sec. 4.6.
//
// The black-box autotuner is the baseline: it *runs* every schedule
// candidate (here: through the loop-by-loop timing interpreter, this
// reproduction's stand-in for executing on the SW26010) and keeps the
// fastest. The performance-model-based autotuner picks the candidate the
// static cost model predicts best instead -- orders of magnitude cheaper
// per candidate -- and builds only the few a lower bound on the model
// cannot rule out. Table 3 measures the time ratio; Fig. 9 measures the
// performance the model-picked candidate leaves on the table.
#pragma once

#include <cstdint>
#include <vector>

#include "dsl/dsl.hpp"
#include "obs/recorder.hpp"
#include "sched/scheduler.hpp"
#include "tune/cost_model.hpp"
#include "tune/journal.hpp"

namespace swatop::tune {

class ReplayExecutor;  // tune/replay.hpp

struct TunerStats {
  std::int64_t space_size = 0;  ///< raw schedule-space size
  /// Strategies that lowered to a program (the model tuner bounds each
  /// one); for the black-box tuner, the candidates that survived pruning.
  std::int64_t valid_candidates = 0;
  double seconds = 0.0;  ///< wall-clock tuning time

  // Work counts: deterministic at any thread count, unlike `seconds`.
  std::int64_t enumerated = 0;  ///< strategies the sweep visited
  /// Programs lowered: the sweep's structurally valid strategies -- for
  /// the model tuner, its bounding pass plus the builds of the candidates
  /// it prices -- plus the rebuild of the pick (or the top-k shortlist,
  /// or a cache hit).
  std::int64_t lowered = 0;
  /// Candidates priced by the cost model: those its lower bound could not
  /// rule out.
  std::int64_t ranked = 0;
  std::int64_t measured = 0;  ///< candidates run through the simulator
  /// IR nodes allocated building those programs (ir::nodes_built): the
  /// sweep's, counted per worker, plus the rebuilds'.
  std::int64_t ir_nodes = 0;
};

struct Tuned {
  sched::Candidate candidate;
  /// Model-predicted (ModelTuner::tune) or measured (tune_top_k, BlackBox).
  double cycles = 0.0;
  /// The cost model's estimate of the pick (model tuner only).
  double predicted = 0.0;
  TunerStats stats;
};

/// Measure one candidate with the timing interpreter on a scratch core
/// group (non-materialized memory, so huge workloads cost no RAM). With an
/// enabled measurement memo attached (tune/replay.hpp), a key seen before
/// returns its stored cycles without building the core group.
double measure_candidate(const dsl::OperatorDef& op,
                         const sched::Candidate& cand,
                         const sim::SimConfig& cfg,
                         ReplayExecutor* memo = nullptr);

/// Lower + optimize one explicit strategy (how a fixed manual schedule is
/// built) and measure it. Throws CheckError if the strategy is invalid for
/// the operator.
double measure_strategy(const dsl::OperatorDef& op, const dsl::Strategy& s,
                        const sim::SimConfig& cfg, bool prefetch = true);

/// Build the optimized, validated candidate for one explicit strategy
/// through the scheduler's build path (sched::try_build_candidate). Throws
/// CheckError when the strategy is invalid or pruned for the operator, or
/// when its program fails validation.
sched::Candidate build_candidate(const dsl::OperatorDef& op,
                                 const dsl::Strategy& s,
                                 const sim::SimConfig& cfg,
                                 bool prefetch = true);

/// Same, with full optimizer options (the schedule-cache rebuild path must
/// replicate the scheduler's SPM reserve, not just the prefetch flag).
sched::Candidate build_candidate(const dsl::OperatorDef& op,
                                 const dsl::Strategy& s,
                                 const sim::SimConfig& cfg,
                                 const opt::OptOptions& oo);

class ModelTuner {
 public:
  explicit ModelTuner(const sim::SimConfig& cfg);

  /// Branch and bound over the space: every strategy is lowered and given
  /// a lower bound on its estimate (CostModel::lower_bound, on the worker
  /// pool), then candidates are built, validated and priced in bound order
  /// on the calling thread until the next bound exceeds the best estimate.
  /// The pick -- the lowest estimate, ties to the lower index -- is that
  /// of pricing every candidate; it is then rebuilt through the same build
  /// path. When `rec` is given, the tuning phases are traced ("bound",
  /// "visit" and "rebuild pick" on the wall-clock track) and the pick's
  /// sample recorded. When `journal` is given, every lowered strategy is
  /// appended in space-index order: priced candidates as phase "model"
  /// (only the pick is ever measured), the rest as phase "bound" rows
  /// whose prediction is the bound. The log is identical at any thread
  /// count.
  Tuned tune(const dsl::OperatorDef& op,
             const sched::SchedulerOptions& opts = {},
             obs::Recorder* rec = nullptr, Journal* journal = nullptr) const;

  /// The paper's "pick best (or top k)" refinement: rank candidates with
  /// the static model (the same search as tune(), stopping at the k-th
  /// best estimate instead), then rebuild and *measure* the k best through
  /// the timing interpreter and keep the measured winner. k times the
  /// measurement cost buys back most of the model's residual error (Fig.
  /// 9's tail). The journal's priced rows are phase "top-k".
  Tuned tune_top_k(const dsl::OperatorDef& op, int k,
                   const sched::SchedulerOptions& opts = {},
                   obs::Recorder* rec = nullptr,
                   Journal* journal = nullptr) const;

  /// Put a measurement memo in front of the top-k shortlist measurements
  /// (non-owning; null measures every candidate). Cycle results are
  /// bit-identical either way -- see tune/replay.hpp.
  void set_replay(ReplayExecutor* r) { replay_ = r; }

 private:
  sim::SimConfig cfg_;
  ReplayExecutor* replay_ = nullptr;
};

class BlackBoxTuner {
 public:
  explicit BlackBoxTuner(const sim::SimConfig& cfg) : cfg_(cfg) {}

  struct Result {
    Tuned best;
    std::vector<double> all_measured;  ///< per candidate, scheduler order
  };
  /// When `rec` is given, black-box tuning is traced like ModelTuner's
  /// phases, so Tab. 3 comparisons are observable on both sides. The
  /// measurement fan-out runs on worker threads and the Recorder is not
  /// thread-safe, so per-candidate results are *aggregated*: workers write
  /// only their own result slots, and all spans, counters and tune samples
  /// are emitted from the calling thread after the pool joins (one
  /// "measure (parallel)" span covers the whole fan-out window).
  Result tune(const dsl::OperatorDef& op,
              const sched::SchedulerOptions& opts = {},
              obs::Recorder* rec = nullptr, Journal* journal = nullptr) const;

  /// Put a measurement memo in front of the candidate measurements
  /// (non-owning and shared by the worker threads; null measures every
  /// candidate).
  void set_replay(ReplayExecutor* r) { replay_ = r; }

 private:
  sim::SimConfig cfg_;
  ReplayExecutor* replay_ = nullptr;
};

/// Emit one tuner-phase span on the wall-clock track (pid 1); shared by the
/// tuners and the Optimizer's cache fast-path. `us0`/`us1` come from
/// rec->wall_us(); `count` >= 0 adds a "candidates" argument.
void tune_phase_span(obs::Recorder* rec, const char* name, double us0,
                     double us1, std::int64_t count = -1);

}  // namespace swatop::tune
