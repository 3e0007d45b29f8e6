#include "core/swatop.hpp"

#include <cctype>
#include <chrono>
#include <cstdio>

#include "common/check.hpp"

namespace swatop {

rt::RunResult CompiledOp::run(sim::CoreGroup& cg, const dsl::BoundTensors& bt,
                              sim::ExecMode mode,
                              const rt::ResidentSet* resident) const {
  rt::Interpreter interp(cg, mode);
  if (resident != nullptr && !resident->empty())
    interp.set_resident(resident);
  return interp.run(candidate.program, bt);
}

rt::RunResult CompiledOp::run(sim::ExecMode mode) {
  SWATOP_CHECK(op_ != nullptr)
      << "CompiledOp::run on a default-constructed handle; use compile()";
  if (!cg_) {
    cg_ = std::make_unique<sim::CoreGroup>(machine_);
    if (recorder_) cg_->attach_observer(recorder_.get());
    bt_ = rt::bind_tensors(*cg_, *op_);
    op_->fill_inputs(*cg_, bt_, candidate.strategy);
  } else if (cg_->mem().materialize()) {
    // Restore the launch-time state (outputs zeroed, as alloc left them;
    // inputs are never written by a program and keep their fill). Today's
    // generated programs zero their SPM accumulator on the first reduction
    // pass and overwrite the output tile on DmaPut, so they happen to be
    // idempotent on preserved memory -- but that is a property of the DMA
    // inference pass, not of run()'s contract; zeroing here keeps re-runs
    // correct for any accumulating schedule.
    for (const dsl::TensorSpec& t : op_->tensors())
      if (t.is_output) cg_->mem().fill(bt_.at(t.name), t.floats, 0.0f);
  }
  rt::RunResult r = run(*cg_, bt_, mode);
  last_cycles_ = r.cycles;
  ran_ = true;
  checkable_ = mode == sim::ExecMode::Functional;
  return r;
}

double CompiledOp::check() {
  SWATOP_CHECK(checkable_)
      << "CompiledOp::check() needs a functional run() first"
      << (ran_ ? " (the last run was timing-only and wrote no output)" : "");
  return op_->check_output(*cg_, bt_, candidate.strategy);
}

const tune::Journal& CompiledOp::journal() const {
  SWATOP_CHECK(journal_ != nullptr)
      << "CompiledOp::journal(): tuned without a journal (compile() always "
         "has one)";
  return *journal_;
}

std::string CompiledOp::report() const {
  SWATOP_CHECK(op_ != nullptr) << "CompiledOp::report on an empty handle";
  char buf[256];
  std::string s;
  s += "== " + op_->name() + " ==\n";
  s += "strategy:  " + candidate.strategy.serialize() + "\n";
  std::snprintf(buf, sizeof(buf), "predicted: %.0f cycles%s\n",
                predicted_cycles, from_cache ? "  (schedule cache hit)" : "");
  s += buf;
  if (measured_cycles > 0.0) {
    std::snprintf(buf, sizeof(buf), "measured:  %.0f cycles (tuning)\n",
                  measured_cycles);
    s += buf;
  }
  if (ran_) {
    rt::RunResult last;
    last.cycles = last_cycles_;
    std::snprintf(buf, sizeof(buf), "last run:  %.0f cycles, %.1f GFLOPS\n",
                  last.cycles, last.gflops(op_->flops(), machine_));
    s += buf;
  }
  if (journal_ != nullptr) {
    std::snprintf(buf, sizeof(buf), "journal:   %zu candidate rows\n",
                  journal_->size());
    s += buf;
  }
  return s;
}

Optimizer::Optimizer(SwatopConfig cfg) : cfg_(cfg) {
  if (cfg_.cache.enabled)
    cache_ = std::make_shared<tune::ScheduleCache>(cfg_.cache);
  if (cfg_.replay.enabled)
    replay_ = std::make_shared<tune::ReplayExecutor>(cfg_.replay);
}

CompiledOp Optimizer::optimize(const dsl::OperatorDef& op) const {
  CompiledOp out;
  out.op_ = &op;
  out.machine_ = cfg_.machine;
  out.journal_ = cfg_.journal;
  if (cfg_.observability.enabled)
    out.recorder_ = std::make_shared<obs::Recorder>(cfg_.observability);

  tune::ModelTuner tuner(cfg_.machine);
  tuner.set_replay(replay_.get());
  const sched::SchedulerOptions sopts = cfg_.scheduler_options();
  obs::Recorder* rec = out.recorder_.get();

  const tune::ReplayStats replay0 =
      replay_ ? replay_->stats() : tune::ReplayStats{};

  // Cache fast path: a banked winner is rebuilt directly through the
  // tuner's build path (one lower + optimize + validate, no space
  // enumeration, no ranking).
  const std::string cache_key =
      cache_ ? tune::ScheduleCache::fingerprint(op.name(), cfg_.machine,
                                                cfg_.tuner_knobs())
             : std::string();
  if (cache_) {
    const double w0 = rec ? rec->wall_us() : 0.0;
    if (const auto entry = cache_->lookup(cache_key)) {
      try {
        const auto t0 = std::chrono::steady_clock::now();
        opt::OptOptions oo = sopts.opt;
        oo.prefetch = entry->prefetch;
        const std::int64_t nodes0 = ir::nodes_built();
        out.candidate = tune::build_candidate(op, entry->strategy,
                                              cfg_.machine, oo);
        out.stats.ir_nodes = ir::nodes_built() - nodes0;
        out.predicted_cycles = entry->predicted_cycles;
        out.measured_cycles = entry->measured_cycles;
        out.from_cache = true;
        out.stats.space_size = op.space().size();
        out.stats.valid_candidates = 1;
        out.stats.lowered = 1;
        out.stats.seconds =
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          t0)
                .count();
        if (rec) {
          rec->tune().cache_hits += 1;
          rec->tune().seconds += out.stats.seconds;
          tune::tune_phase_span(rec, "cache hit (rebuild)", w0,
                                rec->wall_us(), 1);
        }
        if (cfg_.journal) {
          tune::JournalEntry e;
          e.op = op.name();
          e.phase = "cache";
          e.strategy = out.candidate.strategy.to_string();
          e.rank = 0;
          if (out.predicted_cycles > 0.0) e.predicted = out.predicted_cycles;
          if (out.measured_cycles > 0.0) e.measured = out.measured_cycles;
          e.chosen = true;
          cfg_.journal->append(std::move(e));
        }
      } catch (const CheckError&) {
        // A stale/corrupt entry that no longer lowers, optimizes or
        // validates cleanly: fall through to a fresh tuning run (which
        // re-banks the key).
      }
    }
    if (!out.from_cache && rec) rec->tune().cache_misses += 1;
  }

  // Fresh tuning (no cache, a miss, or an entry that failed to rebuild),
  // banked for the next call.
  if (!out.from_cache) {
    const bool measure = cfg_.tune_top_k >= 1;
    tune::Tuned tuned =
        measure
            ? tuner.tune_top_k(op, cfg_.tune_top_k, sopts, rec, cfg_.journal)
            : tuner.tune(op, sopts, rec, cfg_.journal);
    out.predicted_cycles = tuned.predicted;
    if (measure) out.measured_cycles = tuned.cycles;
    out.stats = tuned.stats;
    out.candidate = std::move(tuned.candidate);

    if (cache_) {
      const double w0 = rec ? rec->wall_us() : 0.0;
      tune::CacheEntry e;
      e.strategy = out.candidate.strategy;
      e.prefetch = out.candidate.prefetch;
      e.predicted_cycles = out.predicted_cycles;
      e.measured_cycles = out.measured_cycles;
      cache_->store(cache_key, e);
      if (rec) {
        rec->tune().cache_stores += 1;
        tune::tune_phase_span(rec, "cache store", w0, rec->wall_us());
      }
    }
  }

  codegen::EmitOptions eopts;
  eopts.kernel_name = "swatop_" + op.name();
  for (char& c : eopts.kernel_name)
    if (!isalnum(static_cast<unsigned char>(c))) c = '_';
  out.c_source = codegen::emit_c(out.candidate.program, eopts);

  // Surface the memo's traffic for this call into the recorder's tuning
  // counters.
  if (replay_ && rec) {
    const tune::ReplayStats r = replay_->stats();
    rec->tune().replay_hits += r.hits - replay0.hits;
    rec->tune().replay_misses += r.misses - replay0.misses;
  }
  return out;
}

}  // namespace swatop
