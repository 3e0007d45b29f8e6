// Measurement memo: a thread-safe map from the structural key of a timing
// measurement to the cycles the interpreter measured for it.
//
// A timing-only interpreter run is deterministic: its clock is a function
// of the lowered program, the bound tensor addresses and the machine
// config, and replay_key serializes all three. So the cycles of the first
// measurement of a key are the cycles of every later one, bit for bit, and
// storing them is the whole mechanism. The memo sits in front of the one
// timing-measurement path (tune::measure_candidate and the tuners' bench,
// tune/tuner.cpp): a hit returns the stored cycles without building a core
// group or running the interpreter; a miss interprets and stores.
//
// Why the structural key rather than the schedule cache's cheaper
// (operator, Strategy::serialize, machine) fingerprint: distinct
// strategies can lower to the same program -- the order=mnk and order=nmk
// builds of a matmul whose m tile covers M, say -- and only a key over the
// program itself sees that they are the same measurement. (An implicit
// convolution's space refuses such loop-order twins, so its shortlists
// hold distinct programs: ResNet's top-32 shortlists measure 640 of them.)
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "dsl/dsl.hpp"
#include "sched/scheduler.hpp"

namespace swatop::tune {

struct ReplayOptions {
  bool enabled = false;  ///< master switch: measure() interprets when off
};

/// Memo accounting, surfaced through obs::TuneCounters.
struct ReplayStats {
  std::int64_t hits = 0;    ///< measurements served from the memo
  std::int64_t misses = 0;  ///< measurements interpreted (and stored)
};

/// Canonical structural key of a measurement: serializes every
/// timing-relevant field of the lowered IR (ir::print omits some, e.g.
/// DmaAttrs::rows_to_rid), the sorted bound-tensor addresses, and the
/// machine parameters. Two measurements with equal keys measure the same
/// cycles.
std::string replay_key(const ir::StmtPtr& program,
                       const dsl::BoundTensors& bt,
                       const sim::SimConfig& cfg);

/// The memo. Share one across a tuning run (the tuners take a non-owning
/// pointer); every method is safe to call concurrently.
class ReplayExecutor {
 public:
  explicit ReplayExecutor(ReplayOptions opts = {}) : opts_(opts) {}

  /// Measure one candidate: tune::measure_candidate with this memo
  /// attached (a plain interpreter run when disabled).
  double measure(const dsl::OperatorDef& op, const sched::Candidate& cand,
                 const sim::SimConfig& cfg);

  /// The measurement path's lookup: the stored cycles of `key` (a hit), or
  /// nullopt (a miss, which the caller measures and store()s).
  std::optional<double> find(const std::string& key);
  /// Store a miss's cycles. Two threads that missed on the same key
  /// measured the same cycles, so the first store wins.
  void store(std::string key, double cycles);

  const ReplayOptions& options() const { return opts_; }
  ReplayStats stats() const;
  /// Stored key count (tests).
  std::int64_t cached() const;

 private:
  ReplayOptions opts_;
  mutable std::mutex mu_;
  ReplayStats stats_;
  std::unordered_map<std::string, double> memo_;
};

}  // namespace swatop::tune
