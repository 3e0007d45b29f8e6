#include "check/fuzz.hpp"

#include <algorithm>
#include <iomanip>
#include <random>
#include <sstream>

#include "check/validate_ir.hpp"
#include "common/check.hpp"
#include "ir/analysis.hpp"
#include "ops/explicit_conv.hpp"
#include "ops/implicit_conv.hpp"
#include "ops/matmul.hpp"
#include "ops/winograd.hpp"
#include "rt/bind.hpp"
#include "rt/interpreter.hpp"
#include "sched/scheduler.hpp"
#include "tune/cost_model.hpp"
#include "tune/gemm_model.hpp"
#include "tune/tuner.hpp"

namespace swatop::check {

namespace {

ops::ConvShape shape_of(const std::vector<std::int64_t>& d) {
  ops::ConvShape s;
  s.batch = d[0];
  s.ni = d[1];
  s.no = d[2];
  s.ri = d[3];
  s.ci = d[4];
  s.kr = d[5];
  s.kc = d[6];
  s.stride = d[7];
  return s;
}

bool conv_dims_sane(const ops::ConvShape& s) {
  return s.batch > 0 && s.ni > 0 && s.no > 0 && s.kr > 0 && s.kc > 0 &&
         s.stride > 0 && s.ri >= s.kr && s.ci >= s.kc && s.ro() > 0 &&
         s.co() > 0;
}

std::string repro_line(const OpSpec& spec, const std::string& strategy) {
  std::string line = "tools/fuzz_schedules --op " + spec.to_string();
  if (!strategy.empty()) line += " --strategy '" + strategy + "'";
  return line;
}

/// Scribble a marker over every output tensor so a schedule that fails to
/// write part of its output cannot pass by inheriting the previous
/// candidate's (correct) results from the shared arena.
void poison_outputs(sim::CoreGroup& cg, const dsl::OperatorDef& op,
                    const dsl::BoundTensors& bt) {
  for (const dsl::TensorSpec& t : op.tensors()) {
    if (!t.is_output) continue;
    auto it = bt.find(t.name);
    if (it == bt.end()) continue;
    std::span<float> v = cg.mem().view(it->second, t.floats);
    std::fill(v.begin(), v.end(), -12345.5f);
  }
}

struct Outcome {
  std::string kind;  ///< empty = pass
  std::string detail;
};

Outcome run_one(const dsl::OperatorDef& op, const dsl::Strategy& s,
                const ir::StmtPtr& prog, sim::CoreGroup& cg,
                const dsl::BoundTensors& bt, double tol) {
  op.fill_inputs(cg, bt, s);
  poison_outputs(cg, op, bt);
  rt::Interpreter interp(cg, sim::ExecMode::Functional);
  try {
    interp.run(prog, bt);
  } catch (const SanitizerError& e) {
    return {"sanitizer", e.what()};
  } catch (const CheckError& e) {
    return {"check", e.what()};
  }
  const double diff = op.check_output(cg, bt, s);
  if (!(diff <= tol)) {
    std::ostringstream os;
    os << "max |computed - reference| = " << diff;
    return {"mismatch", os.str()};
  }
  return {};
}

/// The model tuner prunes on CostModel::lower_bound: re-lower the
/// candidate's strategy and check that neither term of the bound exceeds
/// the matching term of the built program's estimate.
Outcome check_bound(const dsl::OperatorDef& op, const sched::Candidate& cand,
                    const tune::CostModel& model) {
  opt::OptOptions o;
  o.prefetch = cand.prefetch;
  const tune::CostBound b = model.lower_bound(op.lower(cand.strategy), o);
  const tune::StaticCost e = model.estimate(cand.program);
  if (b.total() <= e.total() && b.dma_cycles() <= e.dma_cycles() &&
      b.compute_cycles <= e.compute_cycles)
    return {};
  std::ostringstream os;
  os << std::setprecision(17) << "lower bound above the estimate: total "
     << b.total() << " vs " << e.total() << ", dma " << b.dma_cycles()
     << " vs " << e.dma_cycles() << ", compute " << b.compute_cycles
     << " vs " << e.compute_cycles;
  return {"bound", os.str()};
}

/// True when DMA inference cached one of the program's input operands.
bool has_cached_operand(const ir::StmtPtr& prog) {
  for (const ir::Dma* d : ir::find_dmas(prog))
    if (d->attrs.cache_fill) return true;
  return false;
}

/// Whether `s` is a member of the operator's schedule space. Exact but
/// O(space); skipped (returns true) for outsized spaces so minimization
/// stays cheap.
bool strategy_in_space(const dsl::OperatorDef& op, const dsl::Strategy& s) {
  const dsl::ScheduleSpace space = op.space();
  if (space.size() > 20000) return true;
  const std::vector<dsl::Strategy> all = space.enumerate();
  return std::find(all.begin(), all.end(), s) != all.end();
}

/// Re-lower `strat` for the shape `spec` describes and check it still fails
/// with the same kind. Used by the minimizer.
bool still_fails(const OpSpec& spec, const dsl::Strategy& strat,
                 const std::string& kind, const sim::SimConfig& cfg,
                 double tol, std::string* detail) {
  const std::unique_ptr<dsl::OperatorDef> op = make_op(spec);
  if (op == nullptr) return false;
  if (!strategy_in_space(*op, strat)) return false;
  sched::Candidate cand;
  try {
    cand = tune::build_candidate(*op, strat, cfg);
  } catch (const CheckError&) {
    return false;  // strategy invalid or pruned at this shape
  }
  sim::CoreGroup cg(cfg);
  const dsl::BoundTensors bt = rt::bind_tensors(cg, *op);
  const Outcome o = run_one(*op, strat, cand.program, cg, bt, tol);
  if (o.kind != kind) return false;
  if (detail != nullptr) *detail = o.detail;
  return true;
}

/// Greedily shrink the failing shape's dimensions (halving, one at a time)
/// while the same strategy still lowers, validates and fails the same way.
/// Bounded work: at most a few dozen re-runs, each on a smaller shape.
void minimize(OpSpec& spec, const dsl::Strategy& strat,
              const std::string& kind, const sim::SimConfig& cfg, double tol,
              std::string* detail) {
  int attempts = 0;
  bool shrunk = true;
  while (shrunk && attempts < 48) {
    shrunk = false;
    for (std::size_t i = 0; i < spec.d.size() && attempts < 48; ++i) {
      const std::int64_t v = spec.d[i];
      std::int64_t smaller = v / 2;
      if (spec.kind == "matmul") {
        // Keep 8-alignment when present so the same tiling stays valid.
        if (v % 8 == 0) smaller = (smaller / 8) * 8;
        if (smaller < 8) continue;
      } else {
        if (i >= 5) continue;  // never touch kr/kc/stride
        if (smaller < 1) continue;
      }
      if (smaller >= v) continue;
      OpSpec trial = spec;
      trial.d[i] = smaller;
      ++attempts;
      if (still_fails(trial, strat, kind, cfg, tol, detail)) {
        spec = trial;
        shrunk = true;
      }
    }
  }
}

std::int64_t draw_dim8(std::mt19937_64& rng, std::int64_t max_dim) {
  const std::int64_t hi = std::max<std::int64_t>(1, max_dim / 8);
  std::int64_t v = 8 * std::uniform_int_distribution<std::int64_t>(1, hi)(rng);
  switch (std::uniform_int_distribution<int>(0, 5)(rng)) {
    case 0: v -= 1; break;  // ragged edges exercise boundary handling
    case 1: v += 1; break;
    default: break;
  }
  return std::max<std::int64_t>(8, v);
}

std::int64_t pick(std::mt19937_64& rng,
                  std::initializer_list<std::int64_t> opts) {
  const std::vector<std::int64_t> v(opts);
  return v[std::uniform_int_distribution<std::size_t>(0, v.size() - 1)(rng)];
}

OpSpec draw_spec(std::mt19937_64& rng, const FuzzOptions& opts) {
  const bool do_conv =
      opts.conv &&
      (!opts.matmul || std::uniform_int_distribution<int>(0, 1)(rng) == 1);
  if (!do_conv) {
    return OpSpec{"matmul",
                  {draw_dim8(rng, opts.max_dim), draw_dim8(rng, opts.max_dim),
                   draw_dim8(rng, opts.max_dim)},
                  {}};
  }
  // Convolution: modest spatial dims (the functional GEMM is simulated in
  // software), channel counts around the 32/64 sweet spots with ragged
  // variants, occasional stride 2, and now and then an output row of 17-40
  // columns, whose whole-row implicit-GEMM tile is not a power of two.
  const std::int64_t k = pick(rng, {1, 3, 3, 5});
  const std::int64_t stride =
      k == 1 ? 1 : pick(rng, {1, 1, 1, 2});
  const std::int64_t ro = std::uniform_int_distribution<std::int64_t>(2, 8)(rng);
  const bool wide = std::uniform_int_distribution<int>(0, 3)(rng) == 0;
  const std::int64_t co =
      std::uniform_int_distribution<std::int64_t>(wide ? 17 : 2,
                                                  wide ? 40 : 8)(rng);
  const std::int64_t b = std::uniform_int_distribution<std::int64_t>(1, 4)(rng);
  const std::int64_t ni = pick(rng, {8, 16, 32, 32, 33, 40, 64});
  const std::int64_t no = pick(rng, {32, 32, 33, 40, 48, 64});
  std::vector<std::int64_t> d = {b,  ni, no, k + stride * (ro - 1),
                                 k + stride * (co - 1), k, k, stride};
  const ops::ConvShape s = shape_of(d);
  std::vector<std::string> kinds = {"explicit_conv"};
  if (ops::ImplicitConvOp::applicable(s)) kinds.push_back("implicit_conv");
  if (ops::WinogradPlan::applicable(s)) kinds.push_back("winograd");
  OpSpec spec;
  spec.kind =
      kinds[std::uniform_int_distribution<std::size_t>(0, kinds.size() - 1)(
          rng)];
  spec.d = std::move(d);
  if (opts.fused && spec.kind == "implicit_conv") {
    // A non-empty random epilogue: any of the 15 bias/residual/relu/pad
    // combinations, so every fused store-path variant gets swept.
    const int mask = std::uniform_int_distribution<int>(1, 15)(rng);
    spec.epi.bias = (mask & 1) != 0;
    spec.epi.residual = (mask & 2) != 0;
    spec.epi.relu = (mask & 4) != 0;
    spec.epi.out_pad = (mask & 8) != 0 ? pick(rng, {1, 1, 2}) : 0;
  }
  return spec;
}

}  // namespace

std::string OpSpec::to_string() const {
  std::string out = kind;
  if (epi.any()) out += "+" + epi.tag();
  out += ":";
  for (std::size_t i = 0; i < d.size(); ++i) {
    if (i > 0) out += ",";
    out += std::to_string(d[i]);
  }
  return out;
}

namespace {

/// Decode dsl::EpilogueSpec::tag() ("bar", "p1", "bar,p2", ...). Strict:
/// flags must appear in tag order, the pad token last.
std::optional<dsl::EpilogueSpec> parse_epi_tag(const std::string& tag) {
  dsl::EpilogueSpec e;
  std::size_t i = 0;
  if (i < tag.size() && tag[i] == 'b') { e.bias = true; ++i; }
  if (i < tag.size() && tag[i] == 'a') { e.residual = true; ++i; }
  if (i < tag.size() && tag[i] == 'r') { e.relu = true; ++i; }
  if (i < tag.size()) {
    if (e.compute()) {
      if (tag[i] != ',') return std::nullopt;
      ++i;
    }
    if (i >= tag.size() || tag[i] != 'p') return std::nullopt;
    try {
      std::size_t used = 0;
      e.out_pad = std::stoll(tag.substr(i + 1), &used);
      if (i + 1 + used != tag.size() || e.out_pad <= 0) return std::nullopt;
    } catch (const std::exception&) {
      return std::nullopt;
    }
  }
  if (!e.any()) return std::nullopt;
  return e;
}

}  // namespace

std::optional<OpSpec> OpSpec::parse(const std::string& text) {
  const std::size_t colon = text.find(':');
  if (colon == std::string::npos || colon == 0) return std::nullopt;
  OpSpec spec;
  spec.kind = text.substr(0, colon);
  if (const std::size_t plus = spec.kind.find('+');
      plus != std::string::npos) {
    const auto epi = parse_epi_tag(spec.kind.substr(plus + 1));
    if (!epi || plus == 0) return std::nullopt;
    spec.epi = *epi;
    spec.kind = spec.kind.substr(0, plus);
  }
  std::istringstream is(text.substr(colon + 1));
  std::string tok;
  while (std::getline(is, tok, ',')) {
    try {
      std::size_t used = 0;
      const std::int64_t v = std::stoll(tok, &used);
      if (used != tok.size()) return std::nullopt;
      spec.d.push_back(v);
    } catch (const std::exception&) {
      return std::nullopt;
    }
  }
  if (spec.d.empty()) return std::nullopt;
  return spec;
}

std::unique_ptr<dsl::OperatorDef> make_op(const OpSpec& spec) {
  // Only the implicit-GEMM design lowers a fused epilogue.
  if (spec.epi.any() && spec.kind != "implicit_conv") return nullptr;
  if (spec.kind == "matmul") {
    if (spec.d.size() != 3 || spec.d[0] <= 0 || spec.d[1] <= 0 ||
        spec.d[2] <= 0)
      return nullptr;
    return std::make_unique<ops::MatmulOp>(spec.d[0], spec.d[1], spec.d[2]);
  }
  if (spec.d.size() != 8) return nullptr;
  const ops::ConvShape s = shape_of(spec.d);
  if (!conv_dims_sane(s)) return nullptr;
  if (spec.kind == "explicit_conv") {
    if (!ops::ExplicitConvOp::applicable(s)) return nullptr;
    return std::make_unique<ops::ExplicitConvOp>(s);
  }
  if (spec.kind == "implicit_conv") {
    if (!ops::ImplicitConvOp::applicable(s)) return nullptr;
    return std::make_unique<ops::ImplicitConvOp>(s, spec.epi);
  }
  if (spec.kind == "winograd") {
    if (!ops::WinogradPlan::applicable(s)) return nullptr;
    return std::make_unique<ops::WinogradGemmOp>(s);
  }
  return nullptr;
}

FuzzReport fuzz_schedules(const FuzzOptions& opts) {
  FuzzReport rep;
  std::mt19937_64 rng(opts.seed);
  sim::SimConfig cfg;
  cfg.sanitize.enabled = opts.sanitize;
  const sched::Scheduler sched(cfg);
  const tune::CostModel model(cfg, tune::gemm_cost_model(cfg));
  while (rep.cases_run < opts.cases) {
    const OpSpec spec = draw_spec(rng, opts);
    const std::unique_ptr<dsl::OperatorDef> op = make_op(spec);
    if (op == nullptr) continue;  // inapplicable draw; redraw
    ++rep.shapes;
    std::vector<sched::Candidate> cands;
    try {
      cands = sched.candidates(*op);
    } catch (const CheckError& e) {
      rep.failures.push_back(
          {"validator", spec.to_string(), "", e.what(), repro_line(spec, "")});
      continue;
    }
    if (opts.log) {
      std::ostringstream os;
      os << spec.to_string() << ": " << cands.size() << " candidates ("
         << rep.cases_run << "/" << opts.cases << " cases)";
      opts.log(os.str());
    }
    if (cands.empty()) continue;
    for (const sched::Candidate& cand : cands) {
      const Outcome o = check_bound(*op, cand, model);
      if (o.kind.empty()) continue;
      const std::string strategy = cand.strategy.serialize();
      rep.failures.push_back({o.kind, spec.to_string(), strategy, o.detail,
                              repro_line(spec, strategy)});
      if (opts.log) opts.log("FAIL [bound] " + rep.failures.back().repro);
    }
    // Functional runs on a strided sample of at most an eighth of the
    // budget, so that one large space cannot spend it all on one shape.
    const std::size_t per_shape =
        static_cast<std::size_t>(std::max<std::int64_t>(1, opts.cases / 8));
    const std::size_t stride = (cands.size() + per_shape - 1) / per_shape;
    sim::CoreGroup cg(cfg);
    const dsl::BoundTensors bt = rt::bind_tensors(cg, *op);
    for (std::size_t i = 0; i < cands.size(); i += stride) {
      const sched::Candidate& cand = cands[i];
      if (rep.cases_run >= opts.cases) break;
      ++rep.cases_run;
      if (has_cached_operand(cand.program)) ++rep.cached_cases;
      const Outcome o =
          run_one(*op, cand.strategy, cand.program, cg, bt, opts.tolerance);
      if (o.kind.empty()) continue;
      FuzzFailure f;
      f.kind = o.kind;
      f.detail = o.detail;
      f.strategy = cand.strategy.serialize();
      OpSpec small = spec;
      if (o.kind == "mismatch")
        minimize(small, cand.strategy, o.kind, cfg, opts.tolerance,
                 &f.detail);
      f.op = small.to_string();
      f.repro = repro_line(small, f.strategy);
      rep.failures.push_back(std::move(f));
      if (opts.log) opts.log("FAIL [" + f.kind + "] " + f.repro);
    }
  }
  return rep;
}

FuzzReport replay(const std::string& op_spec, const std::string& strategy,
                  const FuzzOptions& opts) {
  FuzzReport rep;
  rep.shapes = 1;
  const std::optional<OpSpec> spec = OpSpec::parse(op_spec);
  if (!spec) {
    rep.failures.push_back({"check", op_spec, strategy,
                            "malformed --op spec", repro_line({}, strategy)});
    return rep;
  }
  const std::unique_ptr<dsl::OperatorDef> op = make_op(*spec);
  if (op == nullptr) {
    rep.failures.push_back({"check", op_spec, strategy,
                            "spec fails the operator's applicability test",
                            repro_line(*spec, strategy)});
    return rep;
  }
  const std::optional<dsl::Strategy> strat = dsl::Strategy::parse(strategy);
  if (!strat) {
    rep.failures.push_back({"check", op_spec, strategy,
                            "malformed --strategy text",
                            repro_line(*spec, strategy)});
    return rep;
  }
  sim::SimConfig cfg;
  cfg.sanitize.enabled = opts.sanitize;
  sched::Candidate cand;
  try {
    cand = tune::build_candidate(*op, *strat, cfg);
  } catch (const CheckError& e) {
    rep.failures.push_back({"check", op_spec, strategy, e.what(),
                            repro_line(*spec, strategy)});
    return rep;
  }
  const std::vector<std::string> verrs = validate_ir(cand.program, cfg);
  if (!verrs.empty()) {
    std::string detail = "IR validation failed:";
    for (const std::string& e : verrs) detail += "\n  - " + e;
    rep.failures.push_back({"validator", op_spec, strategy, detail,
                            repro_line(*spec, strategy)});
    return rep;
  }
  rep.cases_run = 1;
  rep.cached_cases = has_cached_operand(cand.program) ? 1 : 0;
  const tune::CostModel model(cfg, tune::gemm_cost_model(cfg));
  const Outcome bound = check_bound(*op, cand, model);
  if (!bound.kind.empty())
    rep.failures.push_back({bound.kind, op_spec, strategy, bound.detail,
                            repro_line(*spec, strategy)});
  sim::CoreGroup cg(cfg);
  const dsl::BoundTensors bt = rt::bind_tensors(cg, *op);
  const Outcome o =
      run_one(*op, *strat, cand.program, cg, bt, opts.tolerance);
  if (!o.kind.empty())
    rep.failures.push_back({o.kind, op_spec, strategy, o.detail,
                            repro_line(*spec, strategy)});
  return rep;
}

}  // namespace swatop::check
