// Flight-recorder tests: the latency histogram's quantile error bound
// against the exact oracle on adversarial distributions, window-boundary
// edge cases of the time-series recorder, serving-telemetry conservation
// and streaming-quantile accuracy, lifecycle flow-chain completeness, and
// byte-identical timeline exports across runs and tuner thread counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "core/swatop.hpp"
#include "obs/histogram.hpp"
#include "obs/recorder.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "serve/cost.hpp"
#include "serve/server.hpp"
#include "serve/telemetry.hpp"
#include "serve/traffic.hpp"

namespace swatop {
namespace {

using obs::LatencyHistogram;
using obs::TimeSeries;

// --- Exact percentile oracle --------------------------------------------

TEST(ExactPercentile, CeilRankDefinition) {
  const std::vector<double> s = {1.0, 2.0, 3.0, 4.0};
  EXPECT_EQ(obs::exact_percentile(s, 0.0), 1.0);   // rank clamps to 1
  EXPECT_EQ(obs::exact_percentile(s, 0.25), 1.0);  // ceil(1) = 1
  EXPECT_EQ(obs::exact_percentile(s, 0.26), 2.0);  // ceil(1.04) = 2
  EXPECT_EQ(obs::exact_percentile(s, 0.5), 2.0);
  EXPECT_EQ(obs::exact_percentile(s, 0.99), 4.0);
  EXPECT_EQ(obs::exact_percentile(s, 1.0), 4.0);
  EXPECT_EQ(obs::exact_percentile({}, 0.5), 0.0);
}

// --- Histogram error bound ----------------------------------------------

void expect_quantiles_within_bound(const std::vector<double>& samples,
                                   const char* label) {
  LatencyHistogram h;
  std::vector<double> sorted = samples;
  std::sort(sorted.begin(), sorted.end());
  for (double v : samples) h.add(v);
  ASSERT_EQ(h.count(), static_cast<std::int64_t>(samples.size()));
  for (double q : {0.01, 0.10, 0.25, 0.50, 0.90, 0.99, 0.999}) {
    const double exact = obs::exact_percentile(sorted, q);
    const double approx = h.quantile(q);
    EXPECT_NEAR(approx, exact, LatencyHistogram::kMaxRelError * exact)
        << label << " q=" << q;
  }
}

TEST(Histogram, ConstantDistributionIsExactWithinBound) {
  expect_quantiles_within_bound(std::vector<double>(1000, 3.7), "constant");
}

TEST(Histogram, BimodalDistributionStaysWithinBound) {
  // Two tight modes five orders of magnitude apart -- the classic case
  // where a fixed-width histogram would collapse.
  std::vector<double> s;
  serve::Rng rng(17);
  for (int i = 0; i < 4000; ++i) {
    const bool fast = rng.next_double() < 0.9;
    const double base = fast ? 0.05 : 5000.0;
    s.push_back(base * (1.0 + 0.2 * rng.next_double()));
  }
  expect_quantiles_within_bound(s, "bimodal");
}

TEST(Histogram, HeavyTailDistributionStaysWithinBound) {
  // Pareto-ish tail: u^-2 spans many octaves with a long right tail.
  std::vector<double> s;
  serve::Rng rng(23);
  for (int i = 0; i < 4000; ++i) {
    const double u = 1.0 - rng.next_double();  // (0, 1]
    s.push_back(1.0 / (u * u));
  }
  expect_quantiles_within_bound(s, "heavy-tail");
}

TEST(Histogram, MergeEqualsAddingEverySample) {
  serve::Rng rng(5);
  LatencyHistogram all, a, b, c;
  for (int i = 0; i < 3000; ++i) {
    const double v = rng.next_exponential(0.2);
    all.add(v);
    (i % 3 == 0 ? a : i % 3 == 1 ? b : c).add(v);
  }
  LatencyHistogram merged;
  merged.merge(a);
  merged.merge(b);
  merged.merge(c);
  EXPECT_EQ(merged.count(), all.count());
  // Sums accumulate in different orders; bucket counts are exactly equal.
  EXPECT_NEAR(merged.sum(), all.sum(), 1e-9 * all.sum());
  EXPECT_EQ(merged.min(), all.min());
  EXPECT_EQ(merged.max(), all.max());
  EXPECT_EQ(merged.buckets(), all.buckets());
  for (double q : {0.01, 0.5, 0.99})
    EXPECT_EQ(merged.quantile(q), all.quantile(q));
}

TEST(Histogram, ZeroAndNegativeLandInTheZeroBucket) {
  LatencyHistogram h;
  h.add(0.0);
  h.add(-3.0);
  h.add(2.0);
  EXPECT_EQ(h.count(), 3);
  EXPECT_EQ(h.zero_count(), 2);
  EXPECT_EQ(h.min(), 0.0);
  EXPECT_EQ(h.quantile(0.5), 0.0);  // rank 2 of 3 is still a zero
  EXPECT_GT(h.quantile(0.99), 0.0);
}

TEST(Histogram, ExtremeValuesClampToEdgeBuckets) {
  LatencyHistogram h;
  h.add(1e-40);
  h.add(1e30);
  EXPECT_EQ(h.count(), 2);
  EXPECT_EQ(LatencyHistogram::bucket_index(1e-40), 0);
  EXPECT_EQ(LatencyHistogram::bucket_index(1e30),
            LatencyHistogram::kNumOctaves * LatencyHistogram::kSubBuckets - 1);
  EXPECT_TRUE(std::isfinite(h.quantile(0.5)));
  EXPECT_TRUE(std::isfinite(h.quantile(0.99)));
}

TEST(Histogram, BucketIndexIsMonotoneAndEdgesAreConsistent) {
  serve::Rng rng(31);
  std::vector<double> vs;
  for (int i = 0; i < 2000; ++i) vs.push_back(rng.next_exponential(0.01));
  std::sort(vs.begin(), vs.end());
  int prev = -1;
  for (double v : vs) {
    const int idx = LatencyHistogram::bucket_index(v);
    EXPECT_GE(idx, prev);
    prev = idx;
    EXPECT_LE(LatencyHistogram::bucket_lo(idx), v);
    EXPECT_GT(LatencyHistogram::bucket_mid(idx),
              LatencyHistogram::bucket_lo(idx));
  }
}

TEST(Histogram, ClearForgetsSamplesButStaysUsable) {
  LatencyHistogram h, fresh;
  for (int i = 1; i <= 100; ++i) h.add(static_cast<double>(i));
  h.clear();
  EXPECT_TRUE(h.empty());
  EXPECT_EQ(h.count(), 0);
  EXPECT_EQ(h.quantile(0.5), 0.0);
  h.add(7.0);
  fresh.add(7.0);
  EXPECT_EQ(h.quantile(0.5), fresh.quantile(0.5));
  EXPECT_EQ(h.buckets(), fresh.buckets());
}

// --- TimeSeries window semantics ----------------------------------------

TEST(TimeSeriesWindows, BoundaryEventBelongsToTheNextWindow) {
  TimeSeries ts(100.0, {"n"}, {});
  ts.count(0, 99.9999);
  ts.count(0, 100.0);  // exactly on the boundary -> window 1
  ts.finish(250.0);
  ASSERT_EQ(ts.windows().size(), 3u);
  EXPECT_EQ(ts.windows()[0].counters[0], 1.0);
  EXPECT_EQ(ts.windows()[1].counters[0], 1.0);
  EXPECT_EQ(ts.windows()[2].counters[0], 0.0);
}

TEST(TimeSeriesWindows, EmptyWindowsAreEmittedAndTileTheRun) {
  TimeSeries ts(100.0, {"n"}, {});
  ts.count(0, 320.0);
  ts.finish(350.0);
  ASSERT_EQ(ts.windows().size(), 4u);
  for (std::size_t k = 0; k < 4; ++k) {
    EXPECT_EQ(ts.windows()[k].index, static_cast<std::int64_t>(k));
    EXPECT_EQ(ts.windows()[k].start_us, 100.0 * static_cast<double>(k));
    if (k + 1 < 4) {
      EXPECT_EQ(ts.windows()[k].end_us, ts.windows()[k + 1].start_us);
    }
  }
  EXPECT_EQ(ts.windows().back().end_us, 350.0);  // final window truncated
  EXPECT_EQ(ts.totals()[0], 1.0);
}

TEST(TimeSeriesWindows, RunEndingOnBoundaryYieldsZeroWidthFinalWindow) {
  TimeSeries ts(100.0, {"n"}, {});
  ts.count(0, 200.0);  // dated exactly at the future end of the run
  ts.finish(200.0);
  ASSERT_EQ(ts.windows().size(), 3u);
  EXPECT_EQ(ts.windows()[2].start_us, 200.0);
  EXPECT_EQ(ts.windows()[2].end_us, 200.0);
  EXPECT_EQ(ts.windows()[2].counters[0], 1.0);
}

TEST(TimeSeriesWindows, FutureDatedCountsLandInTheirWindow) {
  TimeSeries ts(100.0, {"n"}, {});
  ts.count(0, 250.0);  // two windows ahead of the open one
  ts.count(0, 10.0);
  ts.advance(260.0);
  ts.finish(280.0);
  ASSERT_EQ(ts.windows().size(), 3u);
  EXPECT_EQ(ts.windows()[0].counters[0], 1.0);
  EXPECT_EQ(ts.windows()[1].counters[0], 0.0);
  EXPECT_EQ(ts.windows()[2].counters[0], 1.0);
  EXPECT_EQ(ts.totals()[0], 2.0);
}

TEST(TimeSeriesWindows, RejectsCountsBeforeTheOpenWindow) {
  TimeSeries ts(100.0, {"n"}, {});
  ts.advance(250.0);
  EXPECT_THROW(ts.count(0, 50.0), CheckError);
}

TEST(TimeSeriesWindows, RejectsCountsBeyondTheFinishTime) {
  TimeSeries ts(100.0, {"n"}, {});
  ts.count(0, 500.0);
  EXPECT_THROW(ts.finish(300.0), CheckError);
}

TEST(TimeSeriesWindows, GaugesSampleAtEveryWindowClose) {
  std::vector<double> close_times;
  TimeSeries ts(100.0, {"n"}, {"g"},
                [&](double t, std::vector<double>& g) {
                  close_times.push_back(t);
                  g[0] = t;  // the gauge records its own sample time
                });
  ts.finish(250.0);
  ASSERT_EQ(close_times.size(), 3u);
  EXPECT_EQ(close_times, (std::vector<double>{100.0, 200.0, 250.0}));
  EXPECT_EQ(ts.windows()[1].gauges[0], 200.0);
}

TEST(TimeSeriesWindows, OnCloseFiresPerWindowInOrder) {
  TimeSeries ts(100.0, {"n"}, {});
  std::vector<std::int64_t> closed;
  ts.set_on_close(
      [&](const TimeSeries::Window& w) { closed.push_back(w.index); });
  ts.count(0, 250.0);
  ts.finish(260.0);
  EXPECT_EQ(closed, (std::vector<std::int64_t>{0, 1, 2}));
}

TEST(TimeSeriesWindows, JsonlIsByteIdenticalForIdenticalStreams) {
  auto build = [] {
    TimeSeries ts(50.0, {"a", "b"}, {"g"},
                  [](double t, std::vector<double>& g) { g[0] = t * 2.0; });
    ts.count(0, 10.0, 3.0);
    ts.count(1, 120.0);
    ts.advance(130.0);
    ts.count(0, 130.0);
    ts.finish(170.0);
    return ts.jsonl();
  };
  const std::string a = build(), b = build();
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find("\"window\":0"), std::string::npos);
  EXPECT_NE(a.find("\"a\":3"), std::string::npos);
}

// --- Deterministic request sampling -------------------------------------

TEST(Sampling, DeterministicMonotoneAndUnbiased) {
  int at_tenth = 0;
  for (std::int64_t id = 0; id < 10000; ++id) {
    EXPECT_FALSE(serve::sample_request(id, 0.0));
    EXPECT_TRUE(serve::sample_request(id, 1.0));
    const bool low = serve::sample_request(id, 0.1);
    if (low) {
      ++at_tenth;
      // The same hash is compared against a larger fraction: monotone.
      EXPECT_TRUE(serve::sample_request(id, 0.3));
    }
    EXPECT_EQ(low, serve::sample_request(id, 0.1));  // deterministic
  }
  EXPECT_NEAR(static_cast<double>(at_tenth), 1000.0, 100.0);
}

// --- Serving telemetry end-to-end (synthetic costs) ---------------------

serve::ServerConfig telemetry_config() {
  serve::ServerConfig cfg;
  cfg.fleet.chips = 4;
  cfg.batcher.max_batch = 8;
  cfg.batcher.max_wait_us = 2000.0;
  cfg.telemetry.enabled = true;
  cfg.telemetry.window_us = 100e3;
  return cfg;
}

std::vector<serve::Request> mixed_trace(std::uint64_t seed = 3) {
  serve::TrafficConfig t;
  t.seed = seed;
  t.duration_s = 1.0;
  t.rate_rps = 900.0;
  t.pattern = serve::ArrivalPattern::Bursty;
  t.mix = {{"resnet", 2.0, 8.0}, {"yolo", 1.0, 30.0}};
  t.sizes = {1, 2, 4};
  t.size_weights = {1.0, 1.0, 1.0};
  return serve::generate_trace(t);
}

TEST(ServeTelemetry, WindowsTileTheRunAndConserveTotals) {
  serve::SyntheticCostProvider cost;
  const serve::ServingReport rep =
      serve::Server(telemetry_config(), cost).run(mixed_trace());
  const serve::TelemetryResult& tel = rep.telemetry;
  ASSERT_TRUE(tel.enabled);
  ASSERT_FALSE(tel.windows.empty());
  std::int64_t arrivals = 0, admitted = 0, rejected = 0, shed = 0,
               completed = 0, images = 0, batches = 0;
  std::map<std::string, std::int64_t> net_offered, net_completed;
  for (std::size_t k = 0; k < tel.windows.size(); ++k) {
    const serve::TelemetryWindow& w = tel.windows[k];
    EXPECT_EQ(w.index, static_cast<std::int64_t>(k));
    EXPECT_EQ(w.start_us, tel.window_us * static_cast<double>(k));
    if (k + 1 < tel.windows.size()) {
      EXPECT_EQ(w.end_us, tel.windows[k + 1].start_us);
    }
    arrivals += w.arrivals;
    admitted += w.admitted;
    rejected += w.rejected;
    shed += w.shed;
    completed += w.completed;
    images += w.images_completed;
    batches += w.batches;
    EXPECT_EQ(w.lat_count, w.completed);
    for (const serve::WindowNetStats& n : w.nets) {
      net_offered[n.net] += n.offered;
      net_completed[n.net] += n.completed;
    }
  }
  EXPECT_EQ(arrivals, rep.offered);
  EXPECT_EQ(admitted + rejected, rep.offered);
  EXPECT_EQ(rejected, rep.rejected);
  EXPECT_EQ(shed, rep.shed);
  EXPECT_EQ(completed, rep.completed);
  EXPECT_EQ(images, rep.images_completed);
  EXPECT_EQ(batches, rep.batches);
  std::int64_t offered_by_net = 0;
  for (const auto& [net, n] : net_offered) offered_by_net += n;
  EXPECT_EQ(offered_by_net, rep.offered);
  for (const serve::NetStreamingStats& s : tel.per_net)
    EXPECT_EQ(s.completed, net_completed[s.net]);
}

TEST(ServeTelemetry, StreamingQuantilesMatchExactWithinDocumentedBound) {
  serve::SyntheticCostProvider cost;
  const std::vector<serve::Request> trace = mixed_trace();
  const serve::ServingReport rep =
      serve::Server(telemetry_config(), cost).run(trace);
  const serve::TelemetryResult& tel = rep.telemetry;
  // Exact per-window oracle: bucket every completed request's latency by
  // the window its finish time falls in (same half-open rule).
  std::vector<std::vector<double>> lat(tel.windows.size());
  std::map<std::string, std::vector<double>> net_lat;
  ASSERT_EQ(rep.records.size(), trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const serve::RequestRecord& r = rep.records[i];
    if (r.outcome != serve::Outcome::Completed) continue;
    std::int64_t k = obs::window_index(r.finish_us, tel.window_us);
    if (k >= static_cast<std::int64_t>(tel.windows.size()))
      k = static_cast<std::int64_t>(tel.windows.size()) - 1;
    lat[static_cast<std::size_t>(k)].push_back(r.latency_us(trace[i]) / 1e3);
    net_lat[trace[i].net].push_back(r.latency_us(trace[i]) / 1e3);
  }
  int checked = 0;
  for (std::size_t k = 0; k < tel.windows.size(); ++k) {
    std::sort(lat[k].begin(), lat[k].end());
    ASSERT_EQ(tel.windows[k].lat_count,
              static_cast<std::int64_t>(lat[k].size()));
    if (lat[k].empty()) continue;
    ++checked;
    const double e50 = obs::exact_percentile(lat[k], 0.50);
    const double e99 = obs::exact_percentile(lat[k], 0.99);
    EXPECT_NEAR(tel.windows[k].p50_ms, e50,
                obs::LatencyHistogram::kMaxRelError * e50);
    EXPECT_NEAR(tel.windows[k].p99_ms, e99,
                obs::LatencyHistogram::kMaxRelError * e99);
  }
  EXPECT_GT(checked, 0);
  // Whole-run per-net streaming quantiles (merged histograms) against the
  // exact per-net oracle.
  ASSERT_FALSE(tel.per_net.empty());
  for (const serve::NetStreamingStats& s : tel.per_net) {
    std::vector<double>& v = net_lat[s.net];
    std::sort(v.begin(), v.end());
    const double e50 = obs::exact_percentile(v, 0.50);
    const double e99 = obs::exact_percentile(v, 0.99);
    EXPECT_NEAR(s.p50_ms, e50, obs::LatencyHistogram::kMaxRelError * e50);
    EXPECT_NEAR(s.p99_ms, e99, obs::LatencyHistogram::kMaxRelError * e99);
  }
}

TEST(ServeTelemetry, TelemetryObservesWithoutChangingOutcomes) {
  serve::SyntheticCostProvider cost;
  const std::vector<serve::Request> trace = mixed_trace();
  serve::ServerConfig off = telemetry_config();
  off.telemetry.enabled = false;
  const serve::ServingReport with =
      serve::Server(telemetry_config(), cost).run(trace);
  const serve::ServingReport without = serve::Server(off, cost).run(trace);
  EXPECT_EQ(with.completed, without.completed);
  EXPECT_EQ(with.rejected, without.rejected);
  EXPECT_EQ(with.shed, without.shed);
  EXPECT_EQ(with.p99_ms, without.p99_ms);
  EXPECT_FALSE(without.telemetry.enabled);
  EXPECT_TRUE(without.timeline_jsonl().empty());
}

TEST(ServeTelemetry, TimelineJsonlIsByteIdenticalAcrossRuns) {
  serve::SyntheticCostProvider cost;
  const std::vector<serve::Request> trace = mixed_trace();
  const serve::ServingReport a =
      serve::Server(telemetry_config(), cost).run(trace);
  const serve::ServingReport b =
      serve::Server(telemetry_config(), cost).run(trace);
  EXPECT_EQ(a.timeline_jsonl(), b.timeline_jsonl());
  EXPECT_EQ(a.json(), b.json());
  EXPECT_FALSE(a.timeline_jsonl().empty());
}

TEST(ServeTelemetry, BurnAlertsFireOnRisingEdgesUnderOverload) {
  serve::TrafficConfig t;
  t.seed = 7;
  t.duration_s = 1.0;
  t.rate_rps = 4000.0;
  t.pattern = serve::ArrivalPattern::Bursty;
  t.mix = {{"resnet", 1.0, 10.0}};
  t.sizes = {1, 2, 4};
  t.size_weights = {1.0, 1.0, 1.0};
  serve::ServerConfig cfg = telemetry_config();
  cfg.fleet.chips = 2;
  serve::SyntheticCostProvider cost;
  const serve::ServingReport rep =
      serve::Server(cfg, cost).run(serve::generate_trace(t));
  const serve::TelemetryResult& tel = rep.telemetry;
  ASSERT_FALSE(tel.alerts.empty()) << "overload run should cross burn 2.0";
  for (const serve::BurnAlert& a : tel.alerts) {
    EXPECT_GE(a.burn, cfg.telemetry.burn_threshold);
    ASSERT_LT(a.window, static_cast<std::int64_t>(tel.windows.size()));
    const serve::TelemetryWindow& w =
        tel.windows[static_cast<std::size_t>(a.window)];
    EXPECT_EQ(a.t_us, w.end_us);  // stamped at the window close
    bool found = false;  // the alert names a net active in that window
    for (const serve::WindowNetStats& n : w.nets)
      if (n.net == a.net) {
        found = true;
        EXPECT_GE(n.burn, cfg.telemetry.burn_threshold);
      }
    EXPECT_TRUE(found);
  }
  // Rising edge only: consecutive above-threshold windows alert once.
  for (std::size_t i = 1; i < tel.alerts.size(); ++i) {
    if (tel.alerts[i].net == tel.alerts[i - 1].net) {
      EXPECT_GT(tel.alerts[i].window, tel.alerts[i - 1].window + 1);
    }
  }
  // The alert is embedded in its window's timeline line.
  const std::string jsonl = tel.jsonl();
  EXPECT_NE(jsonl.find("\"alerts\":[{\"net\":\""), std::string::npos);
}

TEST(ServeTelemetry, LifecycleFlowChainsAreComplete) {
  obs::Options oo;
  oo.enabled = true;
  obs::Recorder rec(oo);
  serve::ServerConfig cfg = telemetry_config();
  cfg.telemetry.trace_sample = 0.3;
  serve::SyntheticCostProvider cost;
  const serve::ServingReport rep =
      serve::Server(cfg, cost, &rec).run(mixed_trace());
  ASSERT_GT(rep.telemetry.sampled_requests, 0);
  std::map<std::int64_t, int> starts, steps, ends;
  std::map<std::int64_t, double> start_ts, end_ts;
  for (const obs::TraceEvent& e : rec.buffer().snapshot()) {
    if (e.flow == 's') {
      ++starts[e.flow_id];
      start_ts[e.flow_id] = e.ts;
    } else if (e.flow == 't') {
      ++steps[e.flow_id];
    } else if (e.flow == 'f') {
      ++ends[e.flow_id];
      end_ts[e.flow_id] = e.ts;
    }
  }
  EXPECT_EQ(static_cast<std::int64_t>(starts.size()),
            rep.telemetry.sampled_requests);
  EXPECT_EQ(starts.size(), ends.size());
  for (const auto& [id, n] : starts) {
    EXPECT_EQ(n, 1) << "request " << id;
    ASSERT_TRUE(ends.count(id)) << "request " << id << " never terminated";
    EXPECT_EQ(ends[id], 1);
    EXPECT_LE(start_ts[id], end_ts[id]);
  }
  for (const auto& [id, n] : steps) {
    EXPECT_TRUE(starts.count(id)) << "orphan flow step for " << id;
    EXPECT_GE(n, 1);
  }
}

TEST(ServeTelemetry, SamplingFractionEndpointsAreExact) {
  obs::Options oo;
  oo.enabled = true;
  serve::SyntheticCostProvider cost;
  const std::vector<serve::Request> trace = mixed_trace();
  serve::ServerConfig all = telemetry_config();
  all.telemetry.trace_sample = 1.0;
  serve::ServerConfig none = telemetry_config();
  none.telemetry.trace_sample = 0.0;
  obs::Recorder ra(oo), rn(oo);
  EXPECT_EQ(serve::Server(all, cost, &ra).run(trace)
                .telemetry.sampled_requests,
            static_cast<std::int64_t>(trace.size()));
  EXPECT_EQ(serve::Server(none, cost, &rn).run(trace)
                .telemetry.sampled_requests,
            0);
}

// --- Engine-backed determinism across tuner thread counts ---------------

TEST(ServeTelemetry, TimelineByteIdenticalAtAnyTunerThreadCount) {
  serve::TrafficConfig t;
  t.seed = 11;
  t.duration_s = 0.4;
  t.rate_rps = 60.0;
  t.mix = {{"resnet", 1.0, 200.0}};
  t.sizes = {1, 2};
  t.size_weights = {1.0, 1.0};
  const std::vector<serve::Request> trace = serve::generate_trace(t);
  SwatopConfig one;
  one.tune_threads = 1;
  SwatopConfig many;
  many.tune_threads = 0;  // hardware concurrency
  serve::EngineCostProvider c1(one), cn(many);
  serve::ServerConfig cfg;
  cfg.telemetry.enabled = true;
  cfg.telemetry.window_us = 50e3;
  const serve::ServingReport r1 = serve::Server(cfg, c1).run(trace);
  const serve::ServingReport rn = serve::Server(cfg, cn).run(trace);
  EXPECT_EQ(r1.timeline_jsonl(), rn.timeline_jsonl());
  EXPECT_EQ(r1.json(), rn.json());
  EXPECT_FALSE(r1.timeline_jsonl().empty());
}

}  // namespace
}  // namespace swatop
