// Serving front-end tests: traffic determinism, batcher edge cases, fleet
// placement, SLO-aware admission, and the end-to-end serving guarantees
// (no silent drops, byte-identical reports, dynamic batching beating the
// batch-1 FIFO baseline).
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "obs/recorder.hpp"
#include "serve/batcher.hpp"
#include "serve/cost.hpp"
#include "serve/fleet.hpp"
#include "serve/server.hpp"
#include "serve/traffic.hpp"

namespace swatop::serve {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

bool same_trace(const std::vector<Request>& a, const std::vector<Request>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].id != b[i].id || a[i].net != b[i].net ||
        a[i].images != b[i].images || a[i].arrival_us != b[i].arrival_us ||
        a[i].slo_us != b[i].slo_us)
      return false;
  }
  return true;
}

// --- Traffic ------------------------------------------------------------

TEST(Traffic, FixedSeedIsByteIdentical) {
  TrafficConfig cfg;
  cfg.seed = 42;
  cfg.duration_s = 2.0;
  cfg.rate_rps = 200.0;
  cfg.mix = {{"resnet", 2.0, 50.0}, {"yolo", 1.0, 80.0}};
  cfg.sizes = {1, 2, 4};
  cfg.size_weights = {0.5, 0.3, 0.2};
  EXPECT_TRUE(same_trace(generate_trace(cfg), generate_trace(cfg)));
  TrafficConfig other = cfg;
  other.seed = 43;
  EXPECT_FALSE(same_trace(generate_trace(cfg), generate_trace(other)));
}

TEST(Traffic, PoissonMeanRateIsRespected) {
  TrafficConfig cfg;
  cfg.seed = 7;
  cfg.duration_s = 50.0;
  cfg.rate_rps = 100.0;
  const std::vector<Request> trace = generate_trace(cfg);
  const double expected = cfg.duration_s * cfg.rate_rps;
  EXPECT_NEAR(static_cast<double>(trace.size()), expected, 0.1 * expected);
  for (std::size_t i = 1; i < trace.size(); ++i)
    EXPECT_LE(trace[i - 1].arrival_us, trace[i].arrival_us);
}

TEST(Traffic, BurstyMeanMatchesFormula) {
  TrafficConfig cfg;
  cfg.seed = 9;
  cfg.duration_s = 50.0;
  cfg.rate_rps = 50.0;
  cfg.pattern = ArrivalPattern::Bursty;
  cfg.burst_factor = 6.0;
  cfg.burst_fraction = 0.25;
  const std::vector<Request> trace = generate_trace(cfg);
  const double mean_rate =
      cfg.rate_rps * (1.0 + (cfg.burst_factor - 1.0) * cfg.burst_fraction);
  const double expected = cfg.duration_s * mean_rate;
  EXPECT_NEAR(static_cast<double>(trace.size()), expected, 0.12 * expected);
}

TEST(Traffic, RejectsMalformedConfigs) {
  TrafficConfig cfg;
  cfg.rate_rps = 0.0;
  EXPECT_THROW(generate_trace(cfg), CheckError);
  cfg = TrafficConfig{};
  cfg.mix.clear();
  EXPECT_THROW(generate_trace(cfg), CheckError);
  cfg = TrafficConfig{};
  cfg.sizes = {1, 2};  // mismatched with size_weights {1.0}
  EXPECT_THROW(generate_trace(cfg), CheckError);
}

// --- Batcher edge cases -------------------------------------------------

Request req(std::int64_t id, const std::string& net, std::int64_t images,
            double arrival_us, double slo_us = 1e9) {
  return Request{id, net, images, arrival_us, slo_us};
}

TEST(Batcher, EmptyQueueHasNoDeadlineAndNothingToPop) {
  DynamicBatcher b(BatcherConfig{});
  EXPECT_EQ(b.next_deadline_us(0.0), kInf);
  EXPECT_FALSE(b.ready(0.0, /*drain=*/false));
  EXPECT_FALSE(b.ready(0.0, /*drain=*/true));
  EXPECT_FALSE(b.pop(0.0, /*drain=*/true).has_value());
  EXPECT_TRUE(b.empty());
}

TEST(Batcher, LonelyRequestWaitsExactlyMaxWait) {
  BatcherConfig cfg;
  cfg.max_batch = 8;
  cfg.max_wait_us = 2000.0;
  DynamicBatcher b(cfg);
  b.enqueue(req(1, "resnet", 1, 100.0), 0);
  EXPECT_FALSE(b.ready(100.0, false));
  EXPECT_EQ(b.next_deadline_us(100.0), 2100.0);
  EXPECT_FALSE(b.ready(2099.0, false));
  EXPECT_TRUE(b.ready(2100.0, false));
  const std::optional<SubBatch> sb = b.pop(2100.0, false);
  ASSERT_TRUE(sb.has_value());
  EXPECT_EQ(sb->images, 1);
  ASSERT_EQ(sb->slices.size(), 1u);
  EXPECT_TRUE(sb->slices[0].final_slice);
  EXPECT_TRUE(b.empty());
}

TEST(Batcher, CoalescesSmallRequestsUpToMaxBatch) {
  BatcherConfig cfg;
  cfg.max_batch = 8;
  DynamicBatcher b(cfg);
  for (int i = 0; i < 10; ++i) b.enqueue(req(i, "resnet", 1, 0.0), i);
  EXPECT_TRUE(b.ready(0.0, false));  // full batch, no waiting
  const std::optional<SubBatch> sb = b.pop(0.0, false);
  ASSERT_TRUE(sb.has_value());
  EXPECT_EQ(sb->images, 8);
  EXPECT_EQ(sb->slices.size(), 8u);  // FIFO head of the queue
  for (const auto& s : sb->slices) EXPECT_TRUE(s.final_slice);
  EXPECT_EQ(b.queued_images(), 2);
}

TEST(Batcher, OversizeRequestSplitsAcrossSubBatches) {
  BatcherConfig cfg;
  cfg.max_batch = 8;
  DynamicBatcher b(cfg);
  b.enqueue(req(5, "resnet", 20, 0.0), 3);
  std::vector<std::int64_t> sizes;
  bool saw_final = false;
  while (!b.empty()) {
    const std::optional<SubBatch> sb = b.pop(0.0, /*drain=*/true);
    ASSERT_TRUE(sb.has_value());
    ASSERT_EQ(sb->slices.size(), 1u);
    EXPECT_EQ(sb->slices[0].request_id, 5);
    EXPECT_EQ(sb->slices[0].index, 3u);  // the caller's index, every slice
    EXPECT_FALSE(saw_final);  // the final slice must be the last one
    saw_final = sb->slices[0].final_slice;
    sizes.push_back(sb->images);
  }
  EXPECT_TRUE(saw_final);
  ASSERT_EQ(sizes.size(), 3u);  // 8 + 8 + 4 on the default ladder
  EXPECT_EQ(sizes[0], 8);
  EXPECT_EQ(sizes[1], 8);
  EXPECT_EQ(sizes[2], 4);
}

TEST(Batcher, NeverMixesNetworksInOneSubBatch) {
  BatcherConfig cfg;
  cfg.max_batch = 8;
  DynamicBatcher b(cfg);
  for (int i = 0; i < 6; ++i)
    b.enqueue(req(i, i % 2 == 0 ? "resnet" : "yolo", 1, static_cast<double>(i)),
              i);
  while (!b.empty()) {
    const std::optional<SubBatch> sb = b.pop(10.0, /*drain=*/true);
    ASSERT_TRUE(sb.has_value());
    for (const auto& s : sb->slices) {
      const bool resnet_batch = sb->net == "resnet";
      EXPECT_EQ(s.request_id % 2 == 0, resnet_batch)
          << "request " << s.request_id << " in a " << sb->net << " batch";
    }
  }
}

TEST(Batcher, FifoModeIsStrictArrivalOrderAcrossNets) {
  BatcherConfig cfg;
  cfg.coalesce = false;
  cfg.max_batch = 8;  // forced down to 1 by coalesce=false
  DynamicBatcher b(cfg);
  b.enqueue(req(0, "resnet", 1, 0.0), 0);
  b.enqueue(req(1, "yolo", 1, 1.0), 1);
  b.enqueue(req(2, "resnet", 1, 2.0), 2);
  std::vector<std::int64_t> order;
  while (!b.empty()) {
    const std::optional<SubBatch> sb = b.pop(100.0, false);
    ASSERT_TRUE(sb.has_value());
    EXPECT_EQ(sb->images, 1);
    order.push_back(sb->slices[0].request_id);
  }
  EXPECT_EQ(order, (std::vector<std::int64_t>{0, 1, 2}));
}

TEST(Batcher, DropRemovesAllQueuedImagesOfARequest) {
  DynamicBatcher b(BatcherConfig{});
  b.enqueue(req(1, "resnet", 3, 0.0), 0);
  b.enqueue(req(2, "resnet", 2, 0.0), 1);
  EXPECT_EQ(b.drop(1), 3);
  EXPECT_EQ(b.drop(1), 0);  // already gone
  EXPECT_EQ(b.queued_images(), 2);
  EXPECT_EQ(b.queued_requests(), 1);
}

TEST(Batcher, RejectsMalformedLadders) {
  BatcherConfig cfg;
  cfg.ladder = {2, 4};  // must start at 1
  EXPECT_THROW(DynamicBatcher{cfg}, CheckError);
  cfg.ladder = {1, 4, 2};  // must ascend
  EXPECT_THROW(DynamicBatcher{cfg}, CheckError);
  cfg.ladder = {1, 16};  // exceeds max_batch 8
  EXPECT_THROW(DynamicBatcher{cfg}, CheckError);
}

// --- Fleet --------------------------------------------------------------

TEST(Fleet, PlacesOnLowestIdleChipAndTracksClocks) {
  Fleet f(FleetConfig{2, 4});
  EXPECT_EQ(f.idle_chip(0.0), 0);
  EXPECT_EQ(f.dispatch(0, 0.0, 100.0, 4), 100.0);
  EXPECT_EQ(f.idle_chip(0.0), 1);
  EXPECT_EQ(f.dispatch(1, 0.0, 50.0, 2), 50.0);
  EXPECT_EQ(f.idle_chip(0.0), -1);
  EXPECT_EQ(f.next_free_us(0.0), 50.0);
  EXPECT_EQ(f.earliest_start_us(0.0), 50.0);
  EXPECT_EQ(f.idle_chip(50.0), 1);
  EXPECT_EQ(f.next_free_us(200.0), kInf);
  EXPECT_EQ(f.total_busy_us(), 150.0);
}

// --- Server -------------------------------------------------------------

/// Overloaded single-net scenario on the synthetic cost model: offered
/// load well above fleet capacity, tight SLO.
TrafficConfig overload_traffic() {
  TrafficConfig t;
  t.seed = 3;
  t.duration_s = 1.0;
  t.rate_rps = 9000.0;
  t.mix = {{"resnet", 1.0, 20.0}};
  t.sizes = {1, 2, 4};
  t.size_weights = {0.5, 0.3, 0.2};
  return t;
}

TEST(Server, AdmissionKeepsEveryCompletedRequestWithinSlo) {
  SyntheticCostProvider cost(4);
  Server srv(ServerConfig{}, cost);
  const std::vector<Request> trace = generate_trace(overload_traffic());
  const ServingReport rep = srv.run(trace);
  EXPECT_GT(rep.shed + rep.rejected, 0);  // overload: something was dropped
  EXPECT_GT(rep.completed, 0);
  EXPECT_EQ(rep.slo_violations, 0);
  ASSERT_EQ(rep.records.size(), trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const RequestRecord& r = rep.records[i];
    if (r.outcome == Outcome::Completed) {
      EXPECT_LE(r.latency_us(trace[i]), trace[i].slo_us + 1e-6)
          << "request " << trace[i].id;
    }
  }
  // No silent drops: every offered request has exactly one outcome.
  EXPECT_EQ(rep.completed + rep.rejected + rep.shed, rep.offered);
  EXPECT_GT(rep.shed_rate, 0.0);
}

TEST(Server, NoAdmissionAblationViolatesSloInsteadOfShedding) {
  SyntheticCostProvider cost(4);
  ServerConfig cfg;
  cfg.admission.enabled = false;
  Server srv(cfg, cost);
  const ServingReport rep = srv.run(generate_trace(overload_traffic()));
  EXPECT_EQ(rep.shed + rep.rejected, 0);  // everything admitted and served
  EXPECT_EQ(rep.completed, rep.offered);
  EXPECT_GT(rep.slo_violations, 0);  // ...late
}

TEST(Server, DeadlineExpiryMidCoalesceShedsHonestly) {
  // A request whose SLO (5 ms) expires while the batcher is still waiting
  // for company (max_wait 100 ms): it must be shed -- and reported -- when
  // its timeout finally forms the batch, not silently dropped. A second
  // arrival far in the future keeps the trace "live" through the wait (at
  // end-of-trace the batcher drains immediately instead of coalescing).
  SyntheticCostProvider cost(4);  // exec(1) = 1.3 ms < SLO: admission admits
  ServerConfig cfg;
  cfg.batcher.max_wait_us = 100e3;
  std::vector<Request> trace{req(0, "resnet", 1, 0.0, /*slo_us=*/5e3),
                             req(1, "resnet", 1, 500e3)};
  Server srv(cfg, cost);
  const ServingReport rep = srv.run(trace);
  EXPECT_EQ(rep.completed, 1);  // the sentinel
  EXPECT_EQ(rep.rejected, 0);
  EXPECT_EQ(rep.shed, 1);
  ASSERT_EQ(rep.records.size(), 2u);
  EXPECT_EQ(rep.records[0].outcome, Outcome::Shed);
  EXPECT_EQ(rep.records[1].outcome, Outcome::Completed);
  // Shed at batch-formation time (the head timeout), after the deadline.
  EXPECT_GE(rep.records[0].finish_us, trace[0].deadline_us());
}

TEST(Server, SplitRequestCompletesWhenItsLastSliceDoes) {
  SyntheticCostProvider cost(4);
  ServerConfig cfg;  // max_batch 8
  std::vector<Request> trace{req(0, "resnet", 20, 0.0)};
  Server srv(cfg, cost);
  const ServingReport rep = srv.run(trace);
  EXPECT_EQ(rep.completed, 1);
  EXPECT_EQ(rep.batches, 3);  // 8 + 8 + 4
  // All three parts start at t=0 on idle chips; completion is the slowest
  // part (a size-8 sub-batch: 300 us launch + 2 images/group * 1000 us).
  EXPECT_DOUBLE_EQ(rep.records[0].latency_us(trace[0]), 2300.0);
  EXPECT_EQ(rep.records[0].wasted_us, 0.0);
}

TEST(Server, DynamicBatchingSustainsAtLeastTwiceFifoThroughput) {
  // Equal offered load (same trace), saturating the FIFO baseline: the
  // batcher's 2x comes from amortizing launches and running every core
  // group, vs batch-1 FIFO's single-group single-image dispatches.
  const std::vector<Request> trace = generate_trace(overload_traffic());
  SyntheticCostProvider cost(4);
  Server dynamic(ServerConfig{}, cost);
  const ServingReport dyn = dynamic.run(trace);
  ServerConfig fifo_cfg;
  fifo_cfg.batcher.coalesce = false;
  Server fifo(fifo_cfg, cost);
  const ServingReport ff = fifo.run(trace);
  EXPECT_GT(ff.throughput_ips, 0.0);
  EXPECT_GE(dyn.throughput_ips, 2.0 * ff.throughput_ips)
      << "dynamic " << dyn.throughput_ips << " img/s vs fifo "
      << ff.throughput_ips;
}

TEST(Server, ReportsAreByteIdenticalAcrossRuns) {
  const std::vector<Request> trace = generate_trace(overload_traffic());
  SyntheticCostProvider c1(4), c2(4);
  Server s1(ServerConfig{}, c1), s2(ServerConfig{}, c2);
  EXPECT_EQ(s1.run(trace).json(), s2.run(trace).json());
}

TEST(Server, RejectsMalformedTraces) {
  SyntheticCostProvider cost(4);
  Server srv(ServerConfig{}, cost);
  std::vector<Request> unsorted{req(0, "resnet", 1, 10.0),
                                req(1, "resnet", 1, 5.0)};
  EXPECT_THROW(srv.run(unsorted), CheckError);
  std::vector<Request> dup{req(0, "resnet", 1, 0.0),
                           req(0, "resnet", 1, 1.0)};
  EXPECT_THROW(srv.run(dup), CheckError);
}

TEST(Server, UniqueIdsNeedNotIncrease) {
  // Ids only have to be unique: a trace whose ids fall is served, and a
  // duplicate that is not adjacent to its twin is still refused.
  SyntheticCostProvider cost(4);
  Server srv(ServerConfig{}, cost);
  const std::vector<Request> falling{
      req(7, "resnet", 1, 0.0), req(3, "yolo", 2, 1.0),
      req(9, "resnet", 1, 2.0), req(-4, "resnet", 1, 3.0)};
  const ServingReport rep = srv.run(falling);
  EXPECT_EQ(rep.completed, 4);
  ASSERT_EQ(rep.per_net.size(), 2u);
  EXPECT_EQ(rep.per_net[0].net, "resnet");
  EXPECT_EQ(rep.per_net[0].completed, 3);
  EXPECT_EQ(rep.per_net[1].net, "yolo");
  EXPECT_EQ(rep.per_net[1].images_completed, 2);
  const std::vector<Request> dup{req(7, "resnet", 1, 0.0),
                                 req(3, "resnet", 1, 1.0),
                                 req(7, "resnet", 1, 2.0)};
  EXPECT_THROW(srv.run(dup), CheckError);
}

TEST(Server, ShedSplitRequestReportsItsDispatchedPartsAsWasted) {
  // 20 images on two chips (max_batch 8): two 8-image parts start at t=0
  // and finish at 2300 us; the last 4-image part would then finish at
  // 2300 + 1300 us, past the 3 ms SLO, so the request is shed at 2300 us
  // and both dispatched parts (2 x 2300 chip-us) are wasted work.
  SyntheticCostProvider cost(4);
  ServerConfig cfg;
  cfg.fleet.chips = 2;
  const std::vector<Request> trace{req(0, "resnet", 20, 0.0, 3e3)};
  const ServingReport rep = Server(cfg, cost).run(trace);
  EXPECT_EQ(rep.shed, 1);
  EXPECT_EQ(rep.batches, 2);
  EXPECT_EQ(rep.records[0].outcome, Outcome::Shed);
  EXPECT_DOUBLE_EQ(rep.records[0].finish_us, 2300.0);
  EXPECT_DOUBLE_EQ(rep.records[0].wasted_us, 4600.0);
  EXPECT_DOUBLE_EQ(rep.wasted_ms, 4.6);
  EXPECT_DOUBLE_EQ(rep.makespan_s, 2300e-6);
}

TEST(Server, EmitsServeCountersAndFleetTraceEvents) {
  obs::Options oo;
  oo.enabled = true;
  obs::Recorder rec(oo);
  SyntheticCostProvider cost(4);
  Server srv(ServerConfig{}, cost, &rec);
  const ServingReport rep = srv.run(generate_trace(overload_traffic()));
  const obs::ServeCounters& sc = rec.counters().serve;
  EXPECT_EQ(sc.requests_offered, rep.offered);
  EXPECT_EQ(sc.requests_completed, rep.completed);
  EXPECT_EQ(sc.requests_rejected, rep.rejected);
  EXPECT_EQ(sc.requests_shed, rep.shed);
  EXPECT_EQ(sc.batches_dispatched, rep.batches);
  EXPECT_GT(sc.busy_us, 0.0);
  bool saw_chip_span = false, saw_admission_instant = false;
  for (const obs::TraceEvent& e : rec.buffer().snapshot()) {
    if (e.pid != 2) continue;
    if (!e.instant && e.tid >= obs::Track::kServeChip0 &&
        e.tid < obs::Track::kServeChip0 + 4)
      saw_chip_span = true;
    if (e.instant && e.tid == obs::Track::kServeAdmission)
      saw_admission_instant = true;
  }
  EXPECT_TRUE(saw_chip_span);
  EXPECT_TRUE(saw_admission_instant);
}

// --- Engine-backed costs ------------------------------------------------

TEST(EngineCost, MemoizesAndSharesTheScheduleCacheAcrossProfiles) {
  EngineCostProvider cost;
  const ChipCost first = cost.cost("resnet", 2);
  EXPECT_TRUE(first.profiled_fresh);
  EXPECT_GT(first.cycles, 0.0);
  EXPECT_EQ(first.groups, 2);  // min(groups_per_chip, images)
  const ChipCost again = cost.cost("resnet", 2);
  EXPECT_FALSE(again.profiled_fresh);
  EXPECT_EQ(again.cycles, first.cycles);
  // A second profile at another sub-batch re-tunes only what the shared
  // (persistent-Optimizer) schedule cache has not seen.
  const ChipCost other = cost.cost("resnet", 1);
  EXPECT_TRUE(other.profiled_fresh);
  const CostProviderStats st = cost.stats();
  EXPECT_EQ(st.profiles, 2);
  EXPECT_EQ(st.memo_hits, 1);
  EXPECT_GT(st.cache_hits, 0) << "second profile should warm-hit the cache";
}

TEST(EngineCost, CostsAreInvariantToTunerThreadCount) {
  SwatopConfig one;
  one.tune_threads = 1;
  SwatopConfig four;
  four.tune_threads = 4;
  EngineCostProvider c1(one), c4(four);
  EXPECT_EQ(c1.cost("resnet", 2).cycles, c4.cost("resnet", 2).cycles);
}

TEST(EngineCost, ServingRunIsByteIdenticalAtAnyTunerThreadCount) {
  TrafficConfig t;
  t.seed = 11;
  t.duration_s = 0.4;
  t.rate_rps = 60.0;
  t.mix = {{"resnet", 1.0, 200.0}};
  t.sizes = {1, 2};
  t.size_weights = {1.0, 1.0};
  const std::vector<Request> trace = generate_trace(t);
  SwatopConfig one;
  one.tune_threads = 1;
  SwatopConfig many;
  many.tune_threads = 0;  // hardware concurrency
  EngineCostProvider c1(one), cn(many);
  Server s1(ServerConfig{}, c1), sn(ServerConfig{}, cn);
  EXPECT_EQ(s1.run(trace).json(), sn.run(trace).json());
}

}  // namespace
}  // namespace swatop::serve
