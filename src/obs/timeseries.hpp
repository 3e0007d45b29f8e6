// Windowed time-series recorder over a simulated clock.
//
// Time is carved into fixed-width half-open windows [k*W, (k+1)*W)
// anchored at t = 0; an event at exactly k*W belongs to window k. Counter
// channels are summed per window; gauge channels are sampled at each
// window close by a caller-supplied sampler (between discrete events the
// observed state is constant, so sampling at the boundary is exact).
// Windows tile the run: every window from 0 through the finish time is
// emitted, empty ones included, and the final window is truncated at the
// finish time -- per-window counter sums therefore equal the end-of-run
// totals by construction (totals() recomputes them for conservation
// checks).
//
// Counts may be dated in the future (a discrete-event loop often learns
// an outcome before its timestamp, e.g. a completion scheduled at
// dispatch time); each future window keeps its own accumulator in a ring
// that rotates into place as the clock passes it, so a future-dated count
// is one array add, not a heap operation -- this recorder sits on the
// serving event loop's hot path. Everything -- window boundaries,
// future-count attribution, the %.17g JSONL export -- is deterministic:
// the same event stream produces the byte-identical export.
#pragma once

#include <cmath>
#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "common/check.hpp"

namespace swatop::obs {

/// Half-open window index of time t: floor(t / W), corrected so a t
/// computed as k*W lands in window k even when t/W rounds unluckily.
inline std::int64_t window_index(double t_us, double window_us) {
  std::int64_t idx = static_cast<std::int64_t>(std::floor(t_us / window_us));
  if (t_us < static_cast<double>(idx) * window_us) --idx;
  if (t_us >= static_cast<double>(idx + 1) * window_us) ++idx;
  return idx;
}

class TimeSeries {
 public:
  /// Invoked once per window close with the close time (the window
  /// boundary, or the finish time for the final window); fills `gauges`
  /// (pre-sized to the gauge channel count, zero-initialized).
  using GaugeSampler = std::function<void(double t_us,
                                          std::vector<double>& gauges)>;

  TimeSeries(double window_us, std::vector<std::string> counter_names,
             std::vector<std::string> gauge_names,
             GaugeSampler sampler = nullptr);

  double window_us() const { return window_us_; }

  /// Add `delta` to counter `channel` at time `t_us`. `t_us` must not
  /// precede the current (open) window; later times are buffered until
  /// advance()/finish() reaches them.
  void count(std::size_t channel, double t_us, double delta = 1.0) {
    count_at(window_index(t_us, window_us_), channel, delta);
  }

  /// count() with the window index precomputed -- for wrappers that also
  /// bucket their own per-window state and index once per event. Inline:
  /// the open-window case (the overwhelming majority) is an array add.
  void count_at(std::int64_t idx, std::size_t channel, double delta = 1.0) {
    SWATOP_CHECK(!finished_) << "count() after finish()";
    SWATOP_CHECK(channel < counters_.size())
        << "counter channel " << channel << " of " << counters_.size();
    SWATOP_CHECK(idx >= cur_)
        << "count in window " << idx << " precedes the open window " << cur_;
    if (idx == cur_) {
      counters_[channel] += delta;
      return;
    }
    count_future(idx, channel, delta);
  }

  std::int64_t open_window() const { return cur_; }
  std::int64_t index_of(double t_us) const {
    return window_index(t_us, window_us_);
  }

  /// Move the clock to `t_us`, closing every window whose end <= t_us.
  /// Inline no-op while t stays inside the open window.
  void advance(double t_us) {
    SWATOP_CHECK(!finished_) << "advance() after finish()";
    if (static_cast<double>(cur_ + 1) * window_us_ > t_us) return;
    advance_slow(t_us);
  }

  /// Close the final window, truncated at `end_us` (>= the current window
  /// start; a run ending exactly on a boundary yields a zero-width final
  /// window so events dated on that boundary still have a home). All
  /// buffered future counts must be <= end_us. Idempotent-terminal: no
  /// recording after finish().
  void finish(double end_us);
  bool finished() const { return finished_; }

  struct Window {
    std::int64_t index = 0;
    double start_us = 0.0;
    double end_us = 0.0;
    std::vector<double> counters;
    std::vector<double> gauges;
  };
  const std::vector<Window>& windows() const { return windows_; }

  /// Invoked at the end of every window close with the just-archived
  /// window (after the gauge sample). Lets a wrapper rotate its own
  /// per-window state in lockstep without duplicating boundary logic.
  void set_on_close(std::function<void(const Window&)> fn) {
    on_close_ = std::move(fn);
  }

  /// Per-counter sums over every closed window (the conservation check:
  /// equals the totals the event loop reports).
  std::vector<double> totals() const;

  /// One JSON object per line per window, fixed field order, %.17g
  /// numbers: {"window":k,"start_us":...,"end_us":...,"<counter>":...,
  /// ...,"<gauge>":...}. Byte-identical for identical event streams.
  std::string jsonl() const;

 private:
  void count_future(std::int64_t idx, std::size_t channel, double delta);
  void advance_slow(double t_us);
  void close_window(double end_us);

  double window_us_;
  std::vector<std::string> cnames_;
  std::vector<std::string> gnames_;
  GaugeSampler sampler_;
  std::function<void(const Window&)> on_close_;
  std::int64_t cur_ = 0;  ///< index of the open window
  std::vector<double> counters_;  ///< open window's accumulation
  /// future_[d] accumulates counts dated in window cur_ + 1 + d; the
  /// front rotates into counters_ at each window close.
  std::deque<std::vector<double>> future_;
  std::vector<Window> windows_;
  bool finished_ = false;
};

}  // namespace swatop::obs
