#include "tune/tuner.hpp"

#include <algorithm>
#include <chrono>
#include <functional>
#include <limits>
#include <memory>
#include <numeric>
#include <optional>

#include "common/check.hpp"
#include "rt/bind.hpp"
#include "rt/interpreter.hpp"
#include "sched/parallel.hpp"
#include "tune/replay.hpp"

namespace swatop::tune {

namespace {

double now_seconds() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch())
      .count();
}

/// The one timing-measurement path: a timing interpreter on a scratch core
/// group with the operator's tensors bound (non-materialized memory, so
/// huge workloads cost no RAM), fronted by the measurement memo when one is
/// attached. A memo hit builds nothing; the core group is made on the first
/// miss and then reused, so the interpreter's GEMM and DMA cost memos stay
/// warm across an operator's candidates.
class TimingBench {
 public:
  TimingBench(const dsl::OperatorDef& op, const sim::SimConfig& cfg,
              ReplayExecutor* memo)
      : op_(op),
        cfg_(cfg),
        memo_(memo != nullptr && memo->options().enabled ? memo : nullptr) {
    sim::MainMemory layout;
    layout.set_materialize(false);
    bt_ = rt::bind_tensors(layout, op);
  }

  double run(const sched::Candidate& c) {
    if (memo_ == nullptr) return interpret(c);
    std::string key = replay_key(c.program, bt_, cfg_);
    if (const std::optional<double> hit = memo_->find(key)) return *hit;
    const double cycles = interpret(c);
    memo_->store(std::move(key), cycles);
    return cycles;
  }

 private:
  double interpret(const sched::Candidate& c) {
    if (cg_ == nullptr) {
      cg_ = std::make_unique<sim::CoreGroup>(cfg_);
      cg_->mem().set_materialize(false);
      SWATOP_CHECK(rt::bind_tensors(*cg_, op_) == bt_)
          << "tensor binding of " << op_.name() << " is not deterministic";
      interp_ =
          std::make_unique<rt::Interpreter>(*cg_, sim::ExecMode::TimingOnly);
    }
    return interp_->run(c.program, bt_).cycles;
  }

  const dsl::OperatorDef& op_;
  const sim::SimConfig& cfg_;
  ReplayExecutor* memo_;
  dsl::BoundTensors bt_;
  std::unique_ptr<sim::CoreGroup> cg_;
  std::unique_ptr<rt::Interpreter> interp_;
};

/// What the model tuner's sweep keeps of a schedule space: per candidate,
/// in enumeration order, its position in the space and its predicted
/// cycles. The IR is dropped as soon as it is priced.
struct Ranking {
  dsl::ScheduleSpace space;
  std::vector<std::int64_t> index;  ///< space index of each candidate
  std::vector<double> est;          ///< its cost-model estimate
  sched::SweepStats work;

  dsl::Strategy strategy(std::size_t pos) const {
    return space.at(index[pos]);
  }
};

/// Price every candidate of the operator's space in one streaming sweep.
/// Each worker owns a CostModel (its DMA-cost memo is not shareable) and
/// writes only its own index's slot, so the ranking is identical at any
/// thread count.
Ranking rank_space(const dsl::OperatorDef& op,
                   const sched::SchedulerOptions& opts,
                   const sim::SimConfig& cfg) {
  const GemmCostModel& gm = gemm_cost_model(cfg);
  Ranking r;
  r.space = op.space();
  const auto n = static_cast<std::size_t>(r.space.size());
  std::vector<double> est(n, 0.0);
  std::vector<char> kept(n, 0);
  r.work = sched::Scheduler(cfg).sweep(op, opts, [&] {
    auto model = std::make_shared<const CostModel>(cfg, gm);
    return [&est, &kept, model](std::int64_t i, sched::Candidate&& c) {
      const auto slot = static_cast<std::size_t>(i);
      est[slot] = model->estimate(c.program).total();
      kept[slot] = 1;
    };
  });
  for (std::size_t i = 0; i < n; ++i) {
    if (kept[i] == 0) continue;
    r.index.push_back(static_cast<std::int64_t>(i));
    r.est.push_back(est[i]);
  }
  return r;
}

/// Rebuild ranked candidate `pos` through the sweep's build path, adding
/// the IR nodes it allocates to `*ir_nodes`.
sched::Candidate rebuild(const dsl::OperatorDef& op, const Ranking& r,
                         std::size_t pos,
                         const sched::SchedulerOptions& opts,
                         const sim::SimConfig& cfg, std::int64_t* ir_nodes) {
  const std::int64_t nodes0 = ir::nodes_built();
  const dsl::Strategy s = r.strategy(pos);
  std::optional<sched::Candidate> c =
      sched::try_build_candidate(op, s, cfg, opts.opt);
  SWATOP_CHECK(c.has_value())
      << "ranked strategy " << s.to_string() << " no longer builds for "
      << op.name();
  *ir_nodes += ir::nodes_built() - nodes0;
  return std::move(*c);
}

/// The work counts of a model-tuner run over `r` that rebuilt `rebuilt`
/// candidates (allocating `rebuilt_nodes` IR nodes) and measured
/// `measured`.
TunerStats ranking_stats(const Ranking& r, std::int64_t rebuilt,
                         std::int64_t rebuilt_nodes, std::int64_t measured) {
  TunerStats st;
  st.space_size = r.space.size();
  st.valid_candidates = static_cast<std::int64_t>(r.est.size());
  st.enumerated = r.work.enumerated;
  st.lowered = r.work.lowered + rebuilt;
  st.ranked = st.valid_candidates;
  st.measured = measured;
  st.ir_nodes = r.work.ir_nodes + rebuilt_nodes;
  return st;
}

/// Rank positions (0 = best) implied by an index-aligned score vector;
/// ties break towards the lower index, so ranks are deterministic.
std::vector<std::int64_t> ranks_by_score(const std::vector<double>& score) {
  std::vector<std::size_t> idx(score.size());
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  std::stable_sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
    return score[a] < score[b];
  });
  std::vector<std::int64_t> rank(score.size());
  for (std::size_t r = 0; r < idx.size(); ++r)
    rank[idx[r]] = static_cast<std::int64_t>(r);
  return rank;
}

/// Append one row per candidate (in index order, from the calling thread).
/// `strategy(i)` names candidate i; `predicted`/`measured` may be empty,
/// and missing values journal as -1.
void journal_candidates(
    Journal* journal, const dsl::OperatorDef& op, const char* phase,
    std::size_t count,
    const std::function<dsl::Strategy(std::size_t)>& strategy,
    const std::vector<double>& predicted, const std::vector<double>& measured,
    const std::vector<std::int64_t>& rank, std::size_t chosen_i) {
  for (std::size_t i = 0; i < count; ++i) {
    JournalEntry e;
    e.op = op.name();
    e.phase = phase;
    e.strategy = strategy(i).to_string();
    e.index = static_cast<std::int64_t>(i);
    e.rank = rank[i];
    e.predicted = i < predicted.size() ? predicted[i] : -1.0;
    e.measured = i < measured.size() ? measured[i] : -1.0;
    e.chosen = i == chosen_i;
    journal->append(std::move(e));
  }
}

}  // namespace

void tune_phase_span(obs::Recorder* rec, const char* name, double us0,
                     double us1, std::int64_t count) {
  obs::TraceEvent ev;
  ev.name = name;
  ev.cat = obs::Category::Tune;
  ev.pid = 1;
  ev.tid = obs::Track::kTuner;
  ev.ts = us0;
  ev.dur = us1 > us0 ? us1 - us0 : 0.0;
  if (count >= 0) {
    ev.arg_name[0] = "candidates";
    ev.arg[0] = count;
  }
  rec->trace_event(std::move(ev));
}

double measure_candidate(const dsl::OperatorDef& op,
                         const sched::Candidate& cand,
                         const sim::SimConfig& cfg, ReplayExecutor* memo) {
  return TimingBench(op, cfg, memo).run(cand);
}

sched::Candidate build_candidate(const dsl::OperatorDef& op,
                                 const dsl::Strategy& s,
                                 const sim::SimConfig& cfg,
                                 const opt::OptOptions& oo) {
  bool lowered = false;
  std::optional<sched::Candidate> c =
      sched::try_build_candidate(op, s, cfg, oo, &lowered);
  SWATOP_CHECK(lowered) << "strategy " << s.to_string() << " invalid for "
                        << op.name();
  SWATOP_CHECK(c.has_value())
      << "strategy " << s.to_string() << " pruned for " << op.name();
  return std::move(*c);
}

sched::Candidate build_candidate(const dsl::OperatorDef& op,
                                 const dsl::Strategy& s,
                                 const sim::SimConfig& cfg, bool prefetch) {
  opt::OptOptions o;
  o.prefetch = prefetch;
  return build_candidate(op, s, cfg, o);
}

double measure_strategy(const dsl::OperatorDef& op, const dsl::Strategy& s,
                        const sim::SimConfig& cfg, bool prefetch) {
  return measure_candidate(op, build_candidate(op, s, cfg, prefetch), cfg);
}

ModelTuner::ModelTuner(const sim::SimConfig& cfg) : cfg_(cfg) {}

Tuned ModelTuner::tune(const dsl::OperatorDef& op,
                       const sched::SchedulerOptions& opts,
                       obs::Recorder* rec, Journal* journal) const {
  const double t0 = now_seconds();
  const double w0 = rec ? rec->wall_us() : 0.0;
  const Ranking r = rank_space(op, opts, cfg_);
  SWATOP_CHECK(!r.est.empty())
      << "no valid schedule candidate for " << op.name();
  const double w_rank = rec ? rec->wall_us() : 0.0;
  if (rec)
    tune_phase_span(rec, "sweep (lower+rank)", w0, w_rank,
                    static_cast<std::int64_t>(r.est.size()));
  double best = std::numeric_limits<double>::infinity();
  std::size_t best_i = 0;
  for (std::size_t i = 0; i < r.est.size(); ++i) {
    if (r.est[i] < best) {
      best = r.est[i];
      best_i = i;
    }
  }
  if (journal)
    journal_candidates(
        journal, op, "model", r.est.size(),
        [&](std::size_t i) { return r.strategy(i); }, r.est, {},
        ranks_by_score(r.est), best_i);
  Tuned out;
  std::int64_t rebuilt_nodes = 0;
  out.candidate = rebuild(op, r, best_i, opts, cfg_, &rebuilt_nodes);
  out.cycles = best;
  out.stats = ranking_stats(r, 1, rebuilt_nodes, 0);
  out.stats.seconds = now_seconds() - t0;
  if (rec) {
    tune_phase_span(rec, "rebuild pick", w_rank, rec->wall_us(), 1);
    rec->tune().space_size += out.stats.space_size;
    rec->tune().candidates_ranked += out.stats.ranked;
    rec->tune().seconds += out.stats.seconds;
    rec->record_tune_sample(
        {out.candidate.strategy.to_string(), best, -1.0});
  }
  return out;
}

Tuned ModelTuner::tune_top_k(const dsl::OperatorDef& op, int k,
                             const sched::SchedulerOptions& opts,
                             obs::Recorder* rec, Journal* journal) const {
  SWATOP_CHECK(k >= 1) << "tune_top_k with k=" << k;
  const double t0 = now_seconds();
  const double w0 = rec ? rec->wall_us() : 0.0;
  const Ranking r = rank_space(op, opts, cfg_);
  SWATOP_CHECK(!r.est.empty())
      << "no valid schedule candidate for " << op.name();

  // Shortlist the k best predictions. The estimates are in enumeration
  // order, so the shortlist is stable across thread counts (ties break
  // towards the lower index).
  std::vector<std::pair<double, std::size_t>> ranked;
  ranked.reserve(r.est.size());
  for (std::size_t i = 0; i < r.est.size(); ++i)
    ranked.emplace_back(r.est[i], i);
  const std::size_t keep =
      std::min<std::size_t>(static_cast<std::size_t>(k), ranked.size());
  std::partial_sort(ranked.begin(),
                    ranked.begin() + static_cast<std::ptrdiff_t>(keep),
                    ranked.end());
  if (rec)
    tune_phase_span(rec, "sweep (lower+rank)", w0, rec->wall_us(),
                    static_cast<std::int64_t>(r.est.size()));

  // Rebuild and measure the shortlist in rank order, keeping only the
  // measured winner's program. With a memo attached, a candidate that
  // lowers to a program measured before (a loop-order twin) is not
  // interpreted again.
  TimingBench bench(op, cfg_, replay_);
  std::vector<double> measured(r.est.size(), -1.0);
  sched::Candidate winner;
  double best = std::numeric_limits<double>::infinity();
  std::size_t best_i = 0;
  std::int64_t rebuilt_nodes = 0;
  for (std::size_t j = 0; j < keep; ++j) {
    const std::size_t i = ranked[j].second;
    sched::Candidate c = rebuild(op, r, i, opts, cfg_, &rebuilt_nodes);
    const double wm0 = rec ? rec->wall_us() : 0.0;
    const double t = bench.run(c);
    measured[i] = t;
    if (rec) {
      tune_phase_span(rec, "measure candidate", wm0, rec->wall_us());
      rec->record_tune_sample({c.strategy.to_string(), ranked[j].first, t});
    }
    if (t < best) {
      best = t;
      best_i = i;
      winner = std::move(c);
    }
  }
  if (journal)
    journal_candidates(
        journal, op, "top-k", r.est.size(),
        [&](std::size_t i) { return r.strategy(i); }, r.est, measured,
        ranks_by_score(r.est), best_i);
  Tuned out;
  out.candidate = std::move(winner);
  out.cycles = best;
  out.stats = ranking_stats(r, static_cast<std::int64_t>(keep), rebuilt_nodes,
                            static_cast<std::int64_t>(keep));
  out.stats.seconds = now_seconds() - t0;
  if (rec) {
    rec->tune().space_size += out.stats.space_size;
    rec->tune().candidates_ranked += out.stats.ranked;
    rec->tune().candidates_measured += out.stats.measured;
    rec->tune().seconds += out.stats.seconds;
  }
  return out;
}

BlackBoxTuner::Result BlackBoxTuner::tune(const dsl::OperatorDef& op,
                                          const sched::SchedulerOptions& opts,
                                          obs::Recorder* rec,
                                          Journal* journal) const {
  const double t0 = now_seconds();
  const double w0 = rec ? rec->wall_us() : 0.0;
  const sched::Scheduler sched(cfg_);
  sched::SweepStats work;
  std::vector<sched::Candidate> cands = sched.candidates(op, opts, &work);
  SWATOP_CHECK(!cands.empty())
      << "no valid schedule candidate for " << op.name();
  const double w_enum = rec ? rec->wall_us() : 0.0;
  if (rec)
    tune_phase_span(rec, "enumerate+lower", w0, w_enum,
                    static_cast<std::int64_t>(cands.size()));

  // Candidates are measured independently; fan out across the worker
  // pool, one bench per worker. (The machine under test is simulated, so
  // concurrent measurements do not perturb each other -- unlike the real
  // black-box tuner this stands in for.) Workers touch only their own
  // all_measured slots and share the memo, which is thread-safe;
  // observability is emitted after the join (see the header's aggregation
  // note).
  Result res;
  res.all_measured.resize(cands.size());
  sched::parallel_for(
      cands.size(), sched::resolve_threads(opts.num_threads, cands.size()),
      [&] {
        return [&, bench = std::make_unique<TimingBench>(op, cfg_, replay_)](
                   std::size_t i) {
          res.all_measured[i] = bench->run(cands[i]);
        };
      });
  if (rec)
    tune_phase_span(rec, "measure (parallel)", w_enum, rec->wall_us(),
                    static_cast<std::int64_t>(cands.size()));

  double best = std::numeric_limits<double>::infinity();
  std::size_t best_i = 0;
  for (std::size_t i = 0; i < cands.size(); ++i) {
    if (res.all_measured[i] < best) {
      best = res.all_measured[i];
      best_i = i;
    }
  }
  if (rec) {
    for (std::size_t i = 0; i < cands.size(); ++i)
      rec->record_tune_sample(
          {cands[i].strategy.to_string(), -1.0, res.all_measured[i]});
  }
  if (journal)
    journal_candidates(
        journal, op, "blackbox", cands.size(),
        [&](std::size_t i) { return cands[i].strategy; }, {},
        res.all_measured, ranks_by_score(res.all_measured), best_i);
  res.best.candidate = std::move(cands[best_i]);
  res.best.cycles = best;
  res.best.stats.space_size = sched.space_size(op);
  res.best.stats.valid_candidates = static_cast<std::int64_t>(cands.size());
  res.best.stats.enumerated = work.enumerated;
  res.best.stats.lowered = work.lowered;
  res.best.stats.ir_nodes = work.ir_nodes;
  res.best.stats.measured = res.best.stats.valid_candidates;
  res.best.stats.seconds = now_seconds() - t0;
  if (rec) {
    rec->tune().space_size += res.best.stats.space_size;
    rec->tune().candidates_measured += res.best.stats.measured;
    rec->tune().seconds += res.best.stats.seconds;
  }
  return res;
}

}  // namespace swatop::tune
