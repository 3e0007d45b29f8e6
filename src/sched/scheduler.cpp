#include "sched/scheduler.hpp"

#include <atomic>
#include <utility>

#include "check/validate_ir.hpp"
#include "sched/parallel.hpp"

namespace swatop::sched {

std::optional<Candidate> try_build_candidate(const dsl::OperatorDef& op,
                                             const dsl::Strategy& s,
                                             const sim::SimConfig& cfg,
                                             const opt::OptOptions& oo,
                                             bool* lowered) {
  ir::StmtPtr prog = op.lower(s);
  if (lowered != nullptr) *lowered = prog != nullptr;
  if (prog == nullptr) return std::nullopt;  // structurally invalid
  opt::OptOptions o = oo;
  o.prefetch = oo.prefetch && op.prefetch_enabled(s);
  if (!opt::optimize(prog, cfg, o)) return std::nullopt;  // pruned
  check::validate_ir_or_throw(prog, cfg);
  return Candidate{s, std::move(prog), o.prefetch};
}

std::int64_t Scheduler::space_size(const dsl::OperatorDef& op) const {
  return op.space().size();
}

std::vector<Candidate> Scheduler::candidates(const dsl::OperatorDef& op,
                                             const SchedulerOptions& opts,
                                             SweepStats* stats) const {
  const dsl::ScheduleSpace space = op.space();
  const auto n = static_cast<std::size_t>(space.size());
  const std::int64_t cap = opts.max_candidates;
  // The cap bounds the lowering work itself: serial, and once it is
  // reached the remaining indices are skipped without being built.
  const std::size_t threads =
      cap > 0 ? 1 : resolve_threads(opts.num_threads, n);
  std::vector<std::optional<Candidate>> slots(n);
  std::atomic<std::int64_t> enumerated{0}, lowered{0}, kept{0}, ir_nodes{0};
  parallel_for(n, threads, [&] {
    return [&](std::size_t i) {
      if (cap > 0 && lowered.load() >= cap) return;
      enumerated.fetch_add(1);
      bool low = false;
      const std::int64_t nodes0 = ir::nodes_built();
      std::optional<Candidate> c = try_build_candidate(
          op, space.at(static_cast<std::int64_t>(i)), cfg_, opts.opt, &low);
      ir_nodes.fetch_add(ir::nodes_built() - nodes0);
      if (low) lowered.fetch_add(1);
      if (!c) return;
      kept.fetch_add(1);
      slots[i] = std::move(c);
    };
  });
  if (stats != nullptr)
    *stats = {enumerated.load(), lowered.load(), kept.load(), ir_nodes.load()};
  std::vector<Candidate> out;
  out.reserve(static_cast<std::size_t>(kept.load()));
  for (std::optional<Candidate>& c : slots)
    if (c) out.push_back(std::move(*c));
  return out;
}

}  // namespace swatop::sched
