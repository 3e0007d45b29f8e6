#include "core/swatop.hpp"

#include <cctype>
#include <chrono>

#include "common/check.hpp"
#include "tune/cost_model.hpp"

namespace swatop {

rt::RunResult OptimizedOperator::run(sim::CoreGroup& cg,
                                     const dsl::BoundTensors& bt,
                                     sim::ExecMode mode,
                                     const rt::ResidentSet* resident) const {
  rt::Interpreter interp(cg, mode);
  if (resident != nullptr && !resident->empty())
    interp.set_resident(resident);
  return interp.run(candidate.program, bt);
}

void OptimizedOperator::ensure_bound() {
  SWATOP_CHECK(op_ != nullptr)
      << "OptimizedOperator::execute on a default-constructed handle; use "
         "Optimizer::optimize";
  if (cg_) return;
  cg_ = std::make_unique<sim::CoreGroup>(machine_);
  if (recorder_) cg_->attach_observer(recorder_.get());
  bt_ = rt::bind_tensors(*cg_, *op_);
  op_->fill_inputs(*cg_, bt_, candidate.strategy);
}

rt::RunResult OptimizedOperator::execute(sim::ExecMode mode) {
  ensure_bound();
  if (executed_ && cg_->mem().materialize()) {
    // Restore the launch-time state (outputs zeroed, as alloc left them;
    // inputs are never written by a program and keep their fill). Today's
    // generated programs zero their SPM accumulator on the first reduction
    // pass and overwrite the output tile on DmaPut, so they happen to be
    // idempotent on preserved memory -- but that is a property of the DMA
    // inference pass, not of execute()'s contract; zeroing here keeps
    // re-runs correct for any accumulating schedule.
    for (const dsl::TensorSpec& t : op_->tensors())
      if (t.is_output) cg_->mem().fill(bt_.at(t.name), t.floats, 0.0f);
  }
  executed_ = true;
  return run(*cg_, bt_, mode);
}

double OptimizedOperator::check_output() {
  ensure_bound();
  return op_->check_output(*cg_, bt_, candidate.strategy);
}

sim::CoreGroup& OptimizedOperator::core_group() {
  ensure_bound();
  return *cg_;
}

const dsl::BoundTensors& OptimizedOperator::tensors() {
  ensure_bound();
  return bt_;
}

std::int64_t OptimizedOperator::flops() const {
  SWATOP_CHECK(op_ != nullptr) << "flops() on a default-constructed handle";
  return op_->flops();
}

Optimizer::Optimizer(SwatopConfig cfg) : cfg_(cfg) {
  if (cfg_.cache.enabled)
    cache_ = std::make_shared<tune::ScheduleCache>(cfg_.cache);
  if (cfg_.replay.enabled)
    replay_ = std::make_shared<tune::ReplayExecutor>(cfg_.replay);
}

OptimizedOperator Optimizer::optimize(const dsl::OperatorDef& op) const {
  OptimizedOperator out;
  out.op_ = &op;
  out.machine_ = cfg_.machine;
  if (cfg_.observability.enabled)
    out.recorder_ = std::make_shared<obs::Recorder>(cfg_.observability);

  tune::ModelTuner tuner(cfg_.machine);
  tuner.set_replay(replay_.get());
  const sched::SchedulerOptions sopts = cfg_.scheduler_options();
  obs::Recorder* rec = out.recorder_.get();

  // One candidate measurement, through the shared memo when enabled
  // (bit-identical cycles either way).
  auto measure = [&](const sched::Candidate& c) {
    return tune::measure_candidate(op, c, cfg_.machine, replay_.get());
  };
  // Surface the memo's traffic for this optimize() call into the
  // recorder's tuning counters (called at every return).
  const tune::ReplayStats replay0 =
      replay_ ? replay_->stats() : tune::ReplayStats{};
  auto flush_replay = [&] {
    if (!replay_ || rec == nullptr) return;
    const tune::ReplayStats r = replay_->stats();
    rec->tune().replay_hits += r.hits - replay0.hits;
    rec->tune().replay_misses += r.misses - replay0.misses;
  };

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
        if (cfg_.measure_best && out.measured_cycles == 0.0) {
          out.measured_cycles = measure(out.candidate);
          out.stats.measured = 1;
        }
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
        codegen::EmitOptions eopts;
        eopts.kernel_name = "swatop_" + op.name();
        for (char& c : eopts.kernel_name)
          if (!isalnum(static_cast<unsigned char>(c))) c = '_';
        out.c_source = codegen::emit_c(out.candidate.program, eopts);
        flush_replay();
        return out;
      } catch (const CheckError&) {
        // A stale/corrupt entry that no longer lowers, optimizes or
        // validates cleanly: fall through to a fresh tuning run (which
        // re-banks the key).
      }
    }
    if (rec) rec->tune().cache_misses += 1;
  }

  if (cfg_.tune_top_k >= 1) {
    tune::Tuned tuned =
        tuner.tune_top_k(op, cfg_.tune_top_k, sopts, rec, cfg_.journal);
    out.measured_cycles = tuned.cycles;
    out.stats = tuned.stats;
    out.candidate = std::move(tuned.candidate);
    // tune_top_k reports measured cycles; recover the model's estimate of
    // the winner so callers can compare.
    const tune::CostModel model(cfg_.machine, tune::gemm_cost_model(cfg_.machine));
    out.predicted_cycles = model.estimate(out.candidate.program).total();
  } else {
    tune::Tuned tuned = tuner.tune(op, sopts, rec, cfg_.journal);
    out.predicted_cycles = tuned.cycles;
    out.stats = tuned.stats;
    out.candidate = std::move(tuned.candidate);
    if (cfg_.measure_best) {
      out.measured_cycles = measure(out.candidate);
      out.stats.measured += 1;
      // Record the pick's model-vs-simulator sample (the "model" rows
      // above carry no measurement by construction).
      if (cfg_.journal) {
        tune::JournalEntry e;
        e.op = op.name();
        e.phase = "measure";
        e.strategy = out.candidate.strategy.to_string();
        e.rank = 0;
        e.predicted = out.predicted_cycles;
        e.measured = out.measured_cycles;
        cfg_.journal->append(std::move(e));
      }
    }
  }

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

  codegen::EmitOptions eopts;
  eopts.kernel_name = "swatop_" + op.name();
  for (char& c : eopts.kernel_name)
    if (!isalnum(static_cast<unsigned char>(c))) c = '_';
  out.c_source = codegen::emit_c(out.candidate.program, eopts);
  flush_replay();
  return out;
}

RunOutcome optimize_and_run(const SwatopConfig& cfg,
                            const dsl::OperatorDef& op, sim::ExecMode mode) {
  RunOutcome o;
  o.optimized = Optimizer(cfg).optimize(op);
  o.result = o.optimized.execute(mode);
  return o;
}

}  // namespace swatop
