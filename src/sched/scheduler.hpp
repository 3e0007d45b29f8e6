// The scheduler (Sec. 4.3): traverses the schedule space an operator
// definition declares, lowers every strategy to IR, runs the IR optimizer
// pipeline and validates what survives. candidates() builds the whole
// space (the black-box tuner measures every candidate); the model tuner
// builds through try_build_candidate() only the strategies its lower bound
// cannot rule out (tune/tuner.hpp).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "dsl/dsl.hpp"
#include "ir/node.hpp"
#include "opt/pass_manager.hpp"
#include "sim/config.hpp"

namespace swatop::sched {

struct Candidate {
  dsl::Strategy strategy;
  ir::StmtPtr program;     ///< optimized IR, ready for the runtime
  bool prefetch = false;   ///< double buffering applied
};

struct SchedulerOptions {
  opt::OptOptions opt;
  /// Cap on the strategies lowered (0 = unlimited): a sweep considers only
  /// the first N strategies, in enumeration order, that lower to a program
  /// -- the candidates() list and the model tuner's search alike.
  std::int64_t max_candidates = 0;
  /// Worker threads for candidates(), the model tuner's bounding pass and
  /// the black-box tuner's measurements (0 = hardware concurrency, 1 =
  /// serial). The candidate list and the tuner's pick are identical at any
  /// thread count: results keep enumeration order and ties break by the
  /// first index. A positive max_candidates forces the serial path,
  /// because its purpose is to bound the lowering work itself.
  int num_threads = 0;
};

/// The one build path of a candidate: lower, optimize, validate. Returns
/// nullopt when the strategy is structurally invalid (lower() gives no
/// program) or the optimizer prunes it; `lowered`, when given, tells the
/// two apart. A program that survives pruning but fails validation is a
/// lowering or optimizer bug, not an invalid strategy, so it throws
/// CheckError instead of being dropped. The prefetch flag is
/// `oo.prefetch && op.prefetch_enabled(s)`.
std::optional<Candidate> try_build_candidate(const dsl::OperatorDef& op,
                                             const dsl::Strategy& s,
                                             const sim::SimConfig& cfg,
                                             const opt::OptOptions& oo,
                                             bool* lowered = nullptr);

/// Work one sweep did.
struct SweepStats {
  std::int64_t enumerated = 0;  ///< strategies visited
  std::int64_t lowered = 0;     ///< of those, lowered to a program
  std::int64_t kept = 0;        ///< of those, survived pruning (validated)
  /// IR nodes the builds allocated (ir::nodes_built), counted by each
  /// worker for its own candidates, so the sum is the same at any thread
  /// count.
  std::int64_t ir_nodes = 0;
};

class Scheduler {
 public:
  explicit Scheduler(const sim::SimConfig& cfg) : cfg_(cfg) {}

  /// Raw size of the operator's schedule space (before pruning).
  std::int64_t space_size(const dsl::OperatorDef& op) const;

  /// All valid optimized candidates, in enumeration order. Workers take
  /// strategy indices in order, build each one through
  /// try_build_candidate() and keep a survivor in its index's slot, so the
  /// list is identical at any thread count. Exceptions (validation
  /// failures) are rethrown on the calling thread. `stats`, when given,
  /// receives the sweep's work counts.
  std::vector<Candidate> candidates(
      const dsl::OperatorDef& op,
      const SchedulerOptions& opts = SchedulerOptions{},
      SweepStats* stats = nullptr) const;

 private:
  sim::SimConfig cfg_;
};

}  // namespace swatop::sched
