// The scheduler (Sec. 4.3): traverses the schedule space an operator
// definition declares, lowers every strategy to IR, runs the IR optimizer
// pipeline, validates what survives, and hands each candidate on as soon
// as it is built -- one streaming sweep that the model tuner ranks and
// drops, and that candidates() collects.
#pragma once

#include <cstdint>
#include <functional>
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
  /// Cap on returned candidates (0 = unlimited); applied after pruning, by
  /// enumeration order, and reported so benches can note truncation.
  std::int64_t max_candidates = 0;
  /// Worker threads for the candidate sweep and the black-box tuner's
  /// measurements (0 = hardware concurrency, 1 = serial). The candidate
  /// list and the tuner's pick are identical at any thread count: results
  /// keep enumeration order and ties break by the first index. A positive
  /// max_candidates forces the serial path, because its purpose is to bound
  /// the lowering work itself.
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

/// Receives one built candidate on a worker thread, with the strategy's
/// position in enumeration order. The candidate is the sink's to keep or
/// drop; dropping it frees its IR at once.
using CandidateSink = std::function<void(std::int64_t index, Candidate&& c)>;

class Scheduler {
 public:
  explicit Scheduler(const sim::SimConfig& cfg) : cfg_(cfg) {}

  /// Raw size of the operator's schedule space (before pruning).
  std::int64_t space_size(const dsl::OperatorDef& op) const;

  /// The streaming sweep: workers take strategy indices in enumeration
  /// order, build each one through try_build_candidate() and pass every
  /// survivor to their sink. `make_sink` is called once per worker, on
  /// that worker, so per-worker state lives in the sink it returns. No
  /// list of the space's strategies is built and no worker holds more than
  /// the candidate it is building. Exceptions (validation failures) are
  /// rethrown on the calling thread.
  SweepStats sweep(const dsl::OperatorDef& op, const SchedulerOptions& opts,
                   const std::function<CandidateSink()>& make_sink) const;

  /// All valid optimized candidates, in enumeration order: the sweep,
  /// collecting. `stats`, when given, receives the sweep's work counts.
  std::vector<Candidate> candidates(
      const dsl::OperatorDef& op,
      const SchedulerOptions& opts = SchedulerOptions{},
      SweepStats* stats = nullptr) const;

 private:
  sim::SimConfig cfg_;
};

}  // namespace swatop::sched
