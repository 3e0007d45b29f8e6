// Chip execution costs for the serving simulator.
//
// A sub-batch placed on a fleet chip runs the whole network end-to-end on
// that chip's core groups; its cost in simulated time is what the cycle
// simulator says it is. EngineCostProvider obtains those cycles from
// timing-only GraphEngine runs -- tune-on-first-miss through the schedule
// cache, then memoized per (net, sub-batch) so a serving run prices each
// distinct sub-batch shape exactly once. SyntheticCostProvider is the
// engine-free analytic stand-in the unit tests and quick demos use.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "graph/engine.hpp"

namespace swatop::serve {

/// Cost of one sub-batch on one chip.
struct ChipCost {
  double cycles = 0.0;
  double us = 0.0;      ///< cycles / (clock_ghz * 1e3)
  int groups = 1;       ///< core groups the run data-parallels over
  bool profiled_fresh = false;  ///< true the first time this key was priced
};

/// Aggregate profiling traffic, for reports.
struct CostProviderStats {
  std::int64_t profiles = 0;      ///< distinct (net, images) priced
  std::int64_t memo_hits = 0;     ///< cost() calls served from the memo
  std::int64_t shapes_tuned = 0;  ///< layer tunings across all profiles
  std::int64_t cache_hits = 0;    ///< of those, schedule-cache hits
};

class CostProvider {
 public:
  virtual ~CostProvider() = default;

  /// Price `images` of `net` on one chip. Deterministic: the same key
  /// always returns the same cost.
  virtual ChipCost cost(const std::string& net, std::int64_t images) = 0;

  virtual CostProviderStats stats() const { return {}; }
};

/// Cycle-accurate costs from timing-only GraphEngine runs. One engine (and
/// therefore one schedule cache and measurement memo) is shared across
/// every profile, so repeated layer shapes tune once for the whole serving
/// run; whole-net costs are memoized per (net, images).
/// Thread-safe: cost() serializes profiling under one lock (warm calls are
/// a locked map lookup); tuning parallelism comes from
/// SwatopConfig::tune_threads inside each profile, and the pick -- hence
/// the priced cycles -- is identical at any thread count.
class EngineCostProvider : public CostProvider {
 public:
  struct Options {
    /// Core groups a chip data-parallels a sub-batch over (clamped to the
    /// sub-batch size: a batch-1 request runs on a single CG -- this
    /// simulator has no intra-request parallelism, the honest cost of
    /// batch-1 serving on SW26010).
    int groups_per_chip = 4;
    graph::ConvMethod method = graph::ConvMethod::Auto;
    bool fusion = true;
    bool residency = true;
  };

  explicit EngineCostProvider(SwatopConfig cfg = {});
  EngineCostProvider(SwatopConfig cfg, Options opts);

  ChipCost cost(const std::string& net, std::int64_t images) override;
  CostProviderStats stats() const override;

  const SwatopConfig& config() const { return engine_.config(); }

 private:
  Options opts_;
  graph::GraphEngine engine_;
  mutable std::mutex mu_;
  std::map<std::pair<std::string, std::int64_t>, ChipCost> memo_;
  std::map<std::string, graph::Graph> graphs_;
  CostProviderStats stats_;
};

/// Analytic costs for tests and engine-free demos: a fixed per-launch
/// overhead plus a per-image term that data-parallelizes over the chip's
/// core groups, mirroring the engine's min(groups, batch) rule. The same
/// for every net, strictly deterministic and monotone in the sub-batch
/// size.
class SyntheticCostProvider : public CostProvider {
 public:
  static constexpr double kLaunchUs = 300.0;  ///< per-sub-batch overhead
  static constexpr double kImageUs = 1000.0;  ///< one image on one group

  explicit SyntheticCostProvider(int groups_per_chip = 4)
      : groups_per_chip_(groups_per_chip) {}

  ChipCost cost(const std::string& net, std::int64_t images) override;

 private:
  int groups_per_chip_;
};

}  // namespace swatop::serve
