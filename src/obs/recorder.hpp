// The Recorder is the attachment point of the observability layer: the
// simulator, runtime and tuner all hold a nullable Recorder pointer and, at
// the exact code sites where they book time or traffic, mirror the numbers
// here and (optionally) emit trace events. With no recorder attached every
// instrumentation site is a single pointer test -- the disabled-by-default
// near-zero-overhead contract.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/counters.hpp"
#include "obs/trace.hpp"

namespace swatop::obs {

struct Options {
  bool enabled = false;  ///< master switch: no Recorder is created when off
  bool trace = true;     ///< collect trace events (counters are always on)
  std::size_t trace_capacity = 1 << 16;  ///< ring-buffer entries
};

/// One tuner candidate's model-predicted vs interpreter-measured cycles
/// (measured < 0 means the candidate was ranked but not measured;
/// predicted < 0 means black-box measured without a model estimate).
struct TuneSample {
  std::string strategy;
  double predicted_cycles = 0.0;
  double measured_cycles = -1.0;
};

/// Tuning-phase counters.
struct TuneCounters {
  std::int64_t space_size = 0;
  std::int64_t candidates_ranked = 0;
  std::int64_t candidates_measured = 0;
  double seconds = 0.0;
  /// Schedule-cache traffic for this Optimizer (a hit skips enumerating
  /// and ranking the space entirely; stores may trail misses when the
  /// cache is disabled mid-flight or the entry was unusable).
  std::int64_t cache_hits = 0;
  std::int64_t cache_misses = 0;
  std::int64_t cache_stores = 0;
  /// Measurement memo (tune/replay.hpp): measurements served from the
  /// memo / interpreted and stored.
  std::int64_t replay_hits = 0;
  std::int64_t replay_misses = 0;
};

class Recorder {
 public:
  explicit Recorder(const Options& opts);

  const Options& options() const { return opts_; }
  bool tracing() const { return opts_.trace; }

  /// Mutable counter registry; instrumentation sites increment in place.
  Counters& counters() { return counters_; }
  const Counters& counters() const { return counters_; }

  /// Per-CPE slot, growing the registry to `cpe + 1` entries on demand.
  CpeCounters& cpe(int cpe);

  TuneCounters& tune() { return tune_; }
  const TuneCounters& tune() const { return tune_; }

  void record_tune_sample(TuneSample s) { samples_.push_back(std::move(s)); }
  const std::vector<TuneSample>& tune_samples() const { return samples_; }

  /// Record a trace event; no-op unless tracing is on.
  void trace_event(TraceEvent ev) {
    if (opts_.trace) buffer_.record(std::move(ev));
  }

  /// Microseconds of wall clock since this recorder was created (the time
  /// base of pid-1 tuner events).
  double wall_us() const;

  const TraceBuffer& buffer() const { return buffer_; }

  /// Reset the execution counters for a fresh run (called when the core
  /// group's own statistics reset, so the mirrored values stay equal).
  /// Trace events and tuning history accumulate across runs; attach a
  /// fresh Recorder for a fully isolated observation.
  void reset_execution();

 private:
  Options opts_;
  Counters counters_;
  TuneCounters tune_;
  std::vector<TuneSample> samples_;
  TraceBuffer buffer_;
  double t0_us_ = 0.0;
};

}  // namespace swatop::obs
