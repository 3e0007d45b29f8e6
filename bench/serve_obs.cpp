// Serving flight-recorder benchmark and overhead gate.
//
// Serves one fixed-seed synthetic trace (synthetic cost provider, so the
// host time is the event loop itself, not engine pricing) three ways:
//   telemetry_off    -- the plain server: the time baseline
//   telemetry_on     -- windowed timeline + histograms + burn monitor
//   lifecycle_trace  -- telemetry plus a tracing recorder with 10% of
//                       requests emitting lifecycle span chains
// and reports simulated outcomes (byte-stable, diffed by bench_compare)
// alongside host timings (metric names contain "seconds", which
// bench_compare skips).
//
// Self-gates, the flight recorder's contract:
//   - the windowed telemetry adds <= 5% time over the plain server, OR
//     stays within an absolute budget of 150 ns added per offered request
//     (off/on runs timed interleaved after one untimed warm-up run each,
//     min per side over kGatedRounds rounds, so a host load swing hits
//     both sides alike; timed on the serving thread's CPU clock, which the
//     single-threaded event loop keeps busy from start to end, so time the
//     host's scheduler gives other processes is charged to neither side).
//     The absolute arm exists because this
//     microbench's baseline event loop is only ~0.5 us/request (synthetic
//     costs, no engine pricing) -- 5% of that is ~25 ns, below what any
//     real instrumentation can hit and below scheduler noise; against a
//     serving stack doing real per-request work the same recorder is
//     comfortably inside 5%. The map-based prototype recorder cost
//     ~310 ns/request and fails the 150 ns arm. Full tracing is reported
//     but not gated -- it allocates a name string per event by design,
//   - two telemetry runs export byte-identical timeline JSONL and report
//     JSON,
//   - telemetry changes no serving outcome (off/on reports agree),
//   - every sampled request's flow chain is complete ('s' and 'f' counts
//     match the sampled-request count).
//
// Quick mode serves a 20 s arrival window; SWATOP_FULL=1 serves 60 s.
#include <algorithm>
#include <cstdio>
#include <ctime>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "obs/recorder.hpp"
#include "serve/server.hpp"
#include "serve/traffic.hpp"

using namespace swatop;

namespace {

constexpr int kRepeats = 7;
/// Rounds of the gated off/on pair. A run lasts about 10 ms, and on a
/// shared host a clean run of each side is rare enough that 7 rounds often
/// hold none, so the two minima differ by more than the budget.
constexpr int kGatedRounds = 15;

/// CPU seconds the calling thread spends in one run of `fn`: the serving
/// event loop is single-threaded and never waits, so this is its wall
/// time minus the time the host's scheduler gave other processes.
template <typename Fn>
double cpu_s(Fn&& fn) {
  timespec t0{}, t1{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &t0);
  fn();
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &t1);
  return static_cast<double>(t1.tv_sec - t0.tv_sec) +
         1e-9 * static_cast<double>(t1.tv_nsec - t0.tv_nsec);
}

/// Minimum CPU seconds over kRepeats runs of `fn` (min, not mean: the
/// cleanest run is the best estimate of the code's cost on a noisy box).
template <typename Fn>
double min_cpu_s(Fn&& fn) {
  double best = 0.0;
  for (int i = 0; i < kRepeats; ++i) {
    const double s = cpu_s(fn);
    if (i == 0 || s < best) best = s;
  }
  return best;
}

}  // namespace

int main() {
  serve::TrafficConfig traffic;
  traffic.seed = 13;
  traffic.duration_s = bench::full_scale() ? 60.0 : 20.0;
  traffic.rate_rps = 900.0;
  traffic.mix = {{"resnet", 2.0, 30.0}, {"yolo", 1.0, 60.0}};
  traffic.sizes = {1, 2, 4};
  traffic.size_weights = {1.0, 1.0, 1.0};
  const std::vector<serve::Request> trace = serve::generate_trace(traffic);

  serve::ServerConfig base;
  base.fleet.chips = 4;
  base.batcher.max_batch = 8;
  base.batcher.max_wait_us = 2000.0;

  serve::ServerConfig telem = base;
  telem.telemetry.enabled = true;
  telem.telemetry.window_us = 100e3;

  serve::SyntheticCostProvider cost(base.fleet.groups_per_chip);

  bench::print_title(
      "serving flight recorder: telemetry overhead + determinism (" +
      std::string(bench::full_scale() ? "60" : "20") + " s window)");
  bench::BenchJson bj("serve_obs");
  bench::print_row({"case", "offered", "done", "windows", "alerts",
                    "cpu_ms"});

  // The gated pair is timed interleaved -- one off run then one on run per
  // round, min per side -- so a sustained load swing on the host inflates
  // both sides alike instead of landing entirely on one of them.
  serve::ServingReport off_rep, on_rep;
  off_rep = serve::Server(base, cost).run(trace);  // warm the heap up
  on_rep = serve::Server(telem, cost).run(trace);
  double off_s = 0.0, on_s = 0.0;
  for (int i = 0; i < kGatedRounds; ++i) {
    const double o = cpu_s([&] {
      off_rep = serve::Server(base, cost).run(trace);
    });
    if (i == 0 || o < off_s) off_s = o;
    const double n = cpu_s([&] {
      on_rep = serve::Server(telem, cost).run(trace);
    });
    if (i == 0 || n < on_s) on_s = n;
  }
  bj.add("telemetry_off",
         {{"pattern", "poisson"},
          {"rate_rps", bench::fmt(traffic.rate_rps, 0)},
          {"duration_s", bench::fmt(traffic.duration_s, 0)},
          {"seed", std::to_string(traffic.seed)}},
         {{"offered", static_cast<double>(off_rep.offered)},
          {"completed", static_cast<double>(off_rep.completed)},
          {"shed_rate", off_rep.shed_rate},
          {"p50_ms", off_rep.p50_ms},
          {"p99_ms", off_rep.p99_ms},
          {"cpu_seconds", off_s}},
         0.0);
  bench::print_row({"telemetry_off", std::to_string(off_rep.offered),
                    std::to_string(off_rep.completed), "0", "0",
                    bench::fmt(off_s * 1e3, 1)});

  const std::string timeline = on_rep.timeline_jsonl();
  bj.add("telemetry_on", {{"window_ms", "100"}},
         {{"offered", static_cast<double>(on_rep.offered)},
          {"completed", static_cast<double>(on_rep.completed)},
          {"windows", static_cast<double>(on_rep.telemetry.windows.size())},
          {"alerts", static_cast<double>(on_rep.telemetry.alerts.size())},
          {"timeline_bytes", static_cast<double>(timeline.size())},
          {"cpu_seconds", on_s}},
         0.0);
  bench::print_row({"telemetry_on", std::to_string(on_rep.offered),
                    std::to_string(on_rep.completed),
                    std::to_string(on_rep.telemetry.windows.size()),
                    std::to_string(on_rep.telemetry.alerts.size()),
                    bench::fmt(on_s * 1e3, 1)});

  serve::ServerConfig traced = telem;
  traced.telemetry.trace_sample = 0.1;
  obs::Options oo;
  oo.enabled = true;
  serve::ServingReport tr_rep;
  std::int64_t flow_s = 0, flow_f = 0, events = 0;
  const double tr_s = min_cpu_s([&] {
    obs::Recorder rec(oo);
    tr_rep = serve::Server(traced, cost, &rec).run(trace);
    flow_s = flow_f = 0;
    const std::vector<obs::TraceEvent> evs = rec.buffer().snapshot();
    events = static_cast<std::int64_t>(evs.size()) + rec.buffer().dropped();
    for (const obs::TraceEvent& e : evs) {
      if (e.flow == 's') ++flow_s;
      if (e.flow == 'f') ++flow_f;
    }
  });
  bj.add("lifecycle_trace", {{"trace_sample", "0.1"}},
         {{"sampled_requests",
           static_cast<double>(tr_rep.telemetry.sampled_requests)},
          {"flow_starts", static_cast<double>(flow_s)},
          {"flow_ends", static_cast<double>(flow_f)},
          {"trace_events", static_cast<double>(events)},
          {"cpu_seconds", tr_s}},
         0.0);
  bench::print_row({"lifecycle_trace", std::to_string(tr_rep.offered),
                    std::to_string(tr_rep.completed),
                    std::to_string(tr_rep.telemetry.windows.size()),
                    std::to_string(tr_rep.telemetry.alerts.size()),
                    bench::fmt(tr_s * 1e3, 1)});

  const double overhead =
      off_s > 0.0 ? (on_s - off_s) / off_s : 0.0;
  const double added_s_per_req =
      off_rep.offered > 0
          ? (on_s - off_s) / static_cast<double>(off_rep.offered)
          : 0.0;
  bj.add("summary", {},
         {{"telemetry_overhead_seconds_frac", overhead},
          {"telemetry_added_seconds_per_request", added_s_per_req},
          {"trace_overhead_seconds_frac",
           off_s > 0.0 ? (tr_s - off_s) / off_s : 0.0}},
         0.0);
  std::printf("\ntelemetry overhead: %.1f%% (%.1f vs %.1f CPU ms, %.0f ns per "
              "request); full lifecycle tracing: %+.1f%%\n",
              100.0 * overhead, on_s * 1e3, off_s * 1e3,
              added_s_per_req * 1e9,
              off_s > 0.0 ? 100.0 * (tr_s - off_s) / off_s : 0.0);

  int failures = 0;
  // Gate 1: telemetry cost -- <= 5% relative, or within the absolute
  // per-request budget (see the header comment for why both arms exist).
  if (overhead > 0.05 && added_s_per_req > 150e-9) {
    std::fprintf(stderr,
                 "FAIL: telemetry added %.1f%% CPU time and %.0f ns per "
                 "request (contract: <= 5%% or <= 150 ns/request)\n",
                 100.0 * overhead, added_s_per_req * 1e9);
    ++failures;
  }
  // Gate 2: byte-identical export across runs.
  const serve::ServingReport again = serve::Server(telem, cost).run(trace);
  if (again.timeline_jsonl() != timeline || again.json() != on_rep.json()) {
    std::fprintf(stderr,
                 "FAIL: telemetry export is not byte-identical across runs\n");
    ++failures;
  }
  // Gate 3: telemetry observes, never steers -- outcomes are unchanged.
  if (on_rep.completed != off_rep.completed ||
      on_rep.rejected != off_rep.rejected || on_rep.shed != off_rep.shed ||
      on_rep.p99_ms != off_rep.p99_ms) {
    std::fprintf(stderr, "FAIL: telemetry changed serving outcomes\n");
    ++failures;
  }
  // Gate 4: every sampled request's flow chain opens and closes.
  if (flow_s != tr_rep.telemetry.sampled_requests || flow_s != flow_f) {
    std::fprintf(stderr,
                 "FAIL: flow chains incomplete (%lld sampled, %lld starts, "
                 "%lld ends)\n",
                 static_cast<long long>(tr_rep.telemetry.sampled_requests),
                 static_cast<long long>(flow_s),
                 static_cast<long long>(flow_f));
    ++failures;
  }
  return failures == 0 ? 0 : 1;
}
