#include "tune/tuner.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
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

/// What the model tuner's search learned about a schedule space: for each
/// strategy that lowered, in space-index order, its lower bound and, when
/// pass 2 priced it, its estimate.
struct Ranking {
  dsl::ScheduleSpace space;
  std::vector<std::int64_t> index;  ///< space index of each lowered strategy
  std::vector<double> bound;        ///< its lower bound
  std::vector<double> est;          ///< its estimate, -1 when never priced
  /// Positions in pass 2's visiting order, (bound, index) ascending; pass 2
  /// built order[0, stop) and the bound ruled out the rest.
  std::vector<std::size_t> order;
  std::size_t stop = 0;
  /// The `keep` best priced positions by (estimate, index), best first.
  std::vector<std::size_t> best;
  std::int64_t enumerated = 0;  ///< strategies pass 1 visited
  std::int64_t lowered = 0;     ///< programs lowered by both passes
  std::int64_t ranked = 0;      ///< candidates pass 2 built and priced
  std::int64_t ir_nodes = 0;    ///< IR nodes both passes allocated

  dsl::Strategy strategy(std::size_t pos) const {
    return space.at(index[pos]);
  }
};

/// Find the `keep` best candidates of the operator's space by estimate,
/// ties broken by the lower index -- the same as pricing every candidate
/// -- without building most of them.
///
/// Pass 1 lowers and bounds every strategy (CostModel::lower_bound) on the
/// worker pool; each worker writes only its own index's slot, and the
/// shared model's lower_bound is thread-safe. Pass 2, on the calling
/// thread, builds and prices the lowered strategies in (bound, index)
/// order and stops at the first bound strictly above the keep-th best
/// estimate: every strategy left has an estimate at least its bound, so
/// none can enter the shortlist. What pass 2 visits, and so the counts
/// and the journal, is the same at any thread count.
Ranking rank_space(const dsl::OperatorDef& op,
                   const sched::SchedulerOptions& opts,
                   const sim::SimConfig& cfg, std::size_t keep,
                   obs::Recorder* rec) {
  const CostModel model(cfg, gemm_cost_model(cfg));
  Ranking r;
  r.space = op.space();
  const auto n = static_cast<std::size_t>(r.space.size());

  const double w0 = rec ? rec->wall_us() : 0.0;
  std::vector<double> bound(n, -1.0);  // -1: did not lower
  const std::int64_t cap = opts.max_candidates;
  const std::size_t threads =
      cap > 0 ? 1 : sched::resolve_threads(opts.num_threads, n);
  std::atomic<std::int64_t> enumerated{0}, lowered{0}, ir_nodes{0};
  sched::parallel_for(n, threads, [&] {
    return [&](std::size_t i) {
      if (cap > 0 && lowered.load() >= cap) return;
      enumerated.fetch_add(1);
      const dsl::Strategy s = r.space.at(static_cast<std::int64_t>(i));
      const std::int64_t nodes0 = ir::nodes_built();
      if (const ir::StmtPtr prog = op.lower(s)) {
        lowered.fetch_add(1);
        opt::OptOptions o = opts.opt;
        o.prefetch = o.prefetch && op.prefetch_enabled(s);
        bound[i] = model.lower_bound(prog, o).total();
      }
      ir_nodes.fetch_add(ir::nodes_built() - nodes0);
    };
  });
  r.enumerated = enumerated.load();
  r.lowered = lowered.load();
  r.ir_nodes = ir_nodes.load();
  for (std::size_t i = 0; i < n; ++i) {
    if (bound[i] < 0.0) continue;
    r.index.push_back(static_cast<std::int64_t>(i));
    r.bound.push_back(bound[i]);
  }
  const std::size_t m = r.index.size();
  const double w1 = rec ? rec->wall_us() : 0.0;
  if (rec) tune_phase_span(rec, "bound", w0, w1, static_cast<std::int64_t>(m));

  r.order.resize(m);
  std::iota(r.order.begin(), r.order.end(), std::size_t{0});
  std::stable_sort(r.order.begin(), r.order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return r.bound[a] < r.bound[b];
                   });
  r.est.assign(m, -1.0);
  // Max-heap of the keep best (estimate, position) pairs so far.
  std::vector<std::pair<double, std::size_t>> shortlist;
  r.stop = m;
  for (std::size_t t = 0; t < m; ++t) {
    const std::size_t pos = r.order[t];
    if (shortlist.size() == keep && r.bound[pos] > shortlist.front().first) {
      r.stop = t;
      break;
    }
    bool low = false;
    const std::int64_t nodes0 = ir::nodes_built();
    std::optional<sched::Candidate> c = sched::try_build_candidate(
        op, r.strategy(pos), cfg, opts.opt, &low);
    r.ir_nodes += ir::nodes_built() - nodes0;
    if (low) ++r.lowered;
    if (!c) continue;  // pruned by the optimizer
    ++r.ranked;
    r.est[pos] = model.estimate(c->program).total();
    shortlist.emplace_back(r.est[pos], pos);
    std::push_heap(shortlist.begin(), shortlist.end());
    if (shortlist.size() > keep) {
      std::pop_heap(shortlist.begin(), shortlist.end());
      shortlist.pop_back();
    }
  }
  std::sort_heap(shortlist.begin(), shortlist.end());
  for (const auto& entry : shortlist) r.best.push_back(entry.second);
  if (rec) tune_phase_span(rec, "visit", w1, rec->wall_us(), r.ranked);
  SWATOP_CHECK(!r.best.empty())
      << "no valid schedule candidate for " << op.name();
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
  st.valid_candidates = static_cast<std::int64_t>(r.index.size());
  st.enumerated = r.enumerated;
  st.lowered = r.lowered + rebuilt;
  st.ranked = r.ranked;
  st.measured = measured;
  st.ir_nodes = r.ir_nodes + rebuilt_nodes;
  return st;
}

/// Append one row per lowered strategy of `r`, in space-index order, from
/// the calling thread: phase `phase` for the candidates pass 2 priced,
/// ranked by estimate, and "bound" for the strategies the bound ruled
/// out, ranked by bound and predicting it. A strategy pass 2 built but the
/// optimizer pruned gets no row. `measured` is per position or empty.
void journal_ranking(Journal* journal, const dsl::OperatorDef& op,
                     const Ranking& r, const char* phase,
                     const std::vector<double>& measured,
                     std::size_t chosen) {
  const std::size_t m = r.index.size();
  std::vector<std::int64_t> rank(m, -1);
  std::vector<std::size_t> priced;
  for (std::size_t pos = 0; pos < m; ++pos)
    if (r.est[pos] >= 0.0) priced.push_back(pos);
  std::stable_sort(priced.begin(), priced.end(),
                   [&](std::size_t a, std::size_t b) {
                     return r.est[a] < r.est[b];
                   });
  for (std::size_t k = 0; k < priced.size(); ++k)
    rank[priced[k]] = static_cast<std::int64_t>(k);
  std::vector<char> ruled_out(m, 0);
  for (std::size_t t = r.stop; t < m; ++t) {
    ruled_out[r.order[t]] = 1;
    rank[r.order[t]] = static_cast<std::int64_t>(t - r.stop);
  }
  const std::string name = op.name();
  const dsl::StrategyNames names(r.space);
  for (std::size_t pos = 0; pos < m; ++pos) {
    if (rank[pos] < 0) continue;
    JournalEntry e;
    e.op = name;
    e.phase = ruled_out[pos] ? "bound" : phase;
    e.strategy = names(r.index[pos]);
    e.index = r.index[pos];
    e.rank = rank[pos];
    e.predicted = ruled_out[pos] ? r.bound[pos] : r.est[pos];
    if (!measured.empty()) e.measured = measured[pos];
    e.chosen = pos == chosen;
    journal->append(std::move(e));
  }
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

/// Append one black-box row per candidate (in candidate order, from the
/// calling thread).
void journal_measured(Journal* journal, const dsl::OperatorDef& op,
                      const std::vector<sched::Candidate>& cands,
                      const std::vector<double>& measured,
                      std::size_t chosen) {
  const std::vector<std::int64_t> rank = ranks_by_score(measured);
  const std::string name = op.name();
  for (std::size_t i = 0; i < cands.size(); ++i) {
    JournalEntry e;
    e.op = name;
    e.phase = "blackbox";
    e.strategy = cands[i].strategy.to_string();
    e.index = static_cast<std::int64_t>(i);
    e.rank = rank[i];
    e.measured = measured[i];
    e.chosen = i == chosen;
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
  const Ranking r = rank_space(op, opts, cfg_, 1, rec);
  const double w_rank = rec ? rec->wall_us() : 0.0;
  const std::size_t best = r.best.front();
  if (journal) journal_ranking(journal, op, r, "model", {}, best);
  Tuned out;
  std::int64_t rebuilt_nodes = 0;
  out.candidate = rebuild(op, r, best, opts, cfg_, &rebuilt_nodes);
  out.cycles = r.est[best];
  out.predicted = r.est[best];
  out.stats = ranking_stats(r, 1, rebuilt_nodes, 0);
  out.stats.seconds = now_seconds() - t0;
  if (rec) {
    tune_phase_span(rec, "rebuild pick", w_rank, rec->wall_us(), 1);
    rec->tune().space_size += out.stats.space_size;
    rec->tune().candidates_ranked += out.stats.ranked;
    rec->tune().seconds += out.stats.seconds;
    rec->record_tune_sample(
        {out.candidate.strategy.to_string(), out.cycles, -1.0});
  }
  return out;
}

Tuned ModelTuner::tune_top_k(const dsl::OperatorDef& op, int k,
                             const sched::SchedulerOptions& opts,
                             obs::Recorder* rec, Journal* journal) const {
  SWATOP_CHECK(k >= 1) << "tune_top_k with k=" << k;
  const double t0 = now_seconds();
  const Ranking r = rank_space(op, opts, cfg_, static_cast<std::size_t>(k),
                               rec);

  // Rebuild and measure the shortlist in rank order, keeping only the
  // measured winner's program. With a memo attached, a candidate that
  // lowers to a program measured before (a loop-order twin) is not
  // interpreted again.
  TimingBench bench(op, cfg_, replay_);
  std::vector<double> measured(r.index.size(), -1.0);
  sched::Candidate winner;
  double best = std::numeric_limits<double>::infinity();
  std::size_t best_i = 0;
  std::int64_t rebuilt_nodes = 0;
  for (const std::size_t i : r.best) {
    sched::Candidate c = rebuild(op, r, i, opts, cfg_, &rebuilt_nodes);
    const double wm0 = rec ? rec->wall_us() : 0.0;
    const double t = bench.run(c);
    measured[i] = t;
    if (rec) {
      tune_phase_span(rec, "measure candidate", wm0, rec->wall_us());
      rec->record_tune_sample({c.strategy.to_string(), r.est[i], t});
    }
    if (t < best) {
      best = t;
      best_i = i;
      winner = std::move(c);
    }
  }
  if (journal) journal_ranking(journal, op, r, "top-k", measured, best_i);
  const auto keep = static_cast<std::int64_t>(r.best.size());
  Tuned out;
  out.candidate = std::move(winner);
  out.cycles = best;
  out.predicted = r.est[best_i];
  out.stats = ranking_stats(r, keep, rebuilt_nodes, keep);
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
  if (journal) journal_measured(journal, op, cands, res.all_measured, best_i);
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
