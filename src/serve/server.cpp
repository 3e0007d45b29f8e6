#include "serve/server.hpp"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <limits>
#include <optional>

#include "common/check.hpp"
#include "obs/histogram.hpp"

namespace swatop::serve {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
/// Completed-late slack: simulated times are sums of exact chip execution
/// times, so anything beyond sub-microsecond drift is a real violation.
constexpr double kLateEpsUs = 1e-6;

/// The ladder rung (index into bc.ladder) of the largest sub-batch size
/// that `images` can fill: a request alone in the queue splits into parts
/// of these sizes, and a sub-batch of `images` is exactly that rung.
std::size_t ladder_rung(std::int64_t images, const BatcherConfig& bc) {
  std::size_t k = 0;
  while (k + 1 < bc.ladder.size() &&
         bc.ladder[k + 1] <= std::min(images, bc.max_batch))
    ++k;
  return k;
}

/// Exact ceil-rank percentile of sorted microsecond samples, in ms. The
/// rank rule lives in obs::exact_percentile, shared with the streaming
/// histogram's error-bound contract (the report is the exact oracle the
/// per-window quantiles are validated against).
double percentile_ms(const std::vector<double>& sorted_us, double q) {
  return obs::exact_percentile(sorted_us, q) / 1e3;
}

void appendf(std::string& out, const char* fmt, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, ap);
  va_end(ap);
  out += buf;
}

/// Shortest-round-trip double formatting (%.17g) so two identical runs
/// serialize byte-identically.
void append_num(std::string& out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out += buf;
}

void append_kv(std::string& out, const char* key, double v, bool comma) {
  if (comma) out += ',';
  out += '"';
  out += key;
  out += "\":";
  append_num(out, v);
}

void append_kv(std::string& out, const char* key, std::int64_t v,
               bool comma) {
  if (comma) out += ',';
  out += '"';
  out += key;
  out += "\":";
  out += std::to_string(v);
}

}  // namespace

Server::Server(ServerConfig cfg, CostProvider& cost, obs::Recorder* rec)
    : cfg_(std::move(cfg)), cost_(cost), rec_(rec) {
  SWATOP_CHECK(cfg_.admission.headroom > 0.0)
      << "admission headroom " << cfg_.admission.headroom;
}

ServingReport Server::run(const std::vector<Request>& trace) {
  DynamicBatcher batcher(cfg_.batcher);
  Fleet fleet(cfg_.fleet);
  const BatcherConfig& bc = batcher.config();

  ServingReport rep;
  rep.records.resize(trace.size());
  // Per-request flags, parallel to `trace` / `rep.records`.
  enum : std::uint8_t {
    kDone = 1,     ///< finalized
    kSampled = 2,  ///< emits lifecycle flow spans into the trace
    kStarted = 4,  ///< at least one slice dispatched
  };
  std::vector<std::uint8_t> flags(trace.size(), 0);

  // Each request's index into the sorted net universe (the telemetry's
  // per-net windows and the report's per-net rows), resolved once: every
  // later per-request step reads `net_of`, never a name.
  std::vector<std::string> net_names;
  std::vector<std::uint32_t> net_of(trace.size());
  bool ids_increase = true;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const Request& r = trace[i];
    SWATOP_CHECK(!r.net.empty() && r.images >= 1)
        << "malformed request " << r.id;
    SWATOP_CHECK(i == 0 || trace[i - 1].arrival_us <= r.arrival_us)
        << "trace not sorted by arrival at request " << r.id;
    if (i > 0 && r.id <= trace[i - 1].id) ids_increase = false;
    rep.images_offered += r.images;
    const auto it = std::find(net_names.begin(), net_names.end(), r.net);
    net_of[i] = static_cast<std::uint32_t>(it - net_names.begin());
    if (it == net_names.end()) net_names.push_back(r.net);
  }
  if (!ids_increase) {
    std::vector<std::int64_t> ids;
    ids.reserve(trace.size());
    for (const Request& r : trace) ids.push_back(r.id);
    std::sort(ids.begin(), ids.end());
    const auto dup = std::adjacent_find(ids.begin(), ids.end());
    SWATOP_CHECK(dup == ids.end()) << "duplicate request id " << *dup;
  }
  {
    // Renumber the first-seen order by name.
    std::vector<std::uint32_t> rank(net_names.size());
    std::vector<std::string> sorted = net_names;
    std::sort(sorted.begin(), sorted.end());
    for (std::size_t k = 0; k < net_names.size(); ++k)
      rank[k] = static_cast<std::uint32_t>(
          std::lower_bound(sorted.begin(), sorted.end(), net_names[k]) -
          sorted.begin());
    for (std::uint32_t& n : net_of) n = rank[n];
    net_names = std::move(sorted);
  }
  rep.offered = static_cast<std::int64_t>(trace.size());
  if (!trace.empty()) {
    rep.first_arrival_us = trace.front().arrival_us;
    rep.last_arrival_us = trace.back().arrival_us;
  }

  // Chip time of (net, ladder size), asked of the provider once per run,
  // on first use (NaN = not asked yet).
  const std::size_t rungs = bc.ladder.size();
  std::vector<double> prices(net_names.size() * rungs,
                             std::numeric_limits<double>::quiet_NaN());
  auto price_us = [&](std::uint32_t net, std::size_t rung) {
    double& p = prices[net * rungs + rung];
    if (std::isnan(p)) p = cost_.cost(net_names[net], bc.ladder[rung]).us;
    return p;
  };

  const bool tracing = rec_ != nullptr && rec_->tracing();
  double now = 0.0;
  double last_finish = 0.0;
  double depth_integral = 0.0;
  std::size_t next = 0;  // next trace index to admit
  std::int64_t live_requests = 0;  // admitted, not yet finalized

  // The flight recorder: windowed counters/gauges plus per-window latency
  // histograms. Gauges read the batcher/fleet state at each window close
  // (exact between discrete events).
  std::optional<ServeTelemetry> telem;
  if (cfg_.telemetry.enabled) {
    telem.emplace(cfg_.telemetry, net_names, fleet.chips(),
                  [&](double t, std::vector<double>& g) {
                    g[0] = static_cast<double>(batcher.queued_images());
                    g[1] = static_cast<double>(batcher.queued_requests());
                    g[2] = static_cast<double>(live_requests);
                    g[3] = static_cast<double>(fleet.busy_count(t));
                    const int n =
                        std::min(fleet.chips(),
                                 ServeTelemetry::kMaxChipGauges);
                    for (int c = 0; c < n; ++c)
                      g[4 + static_cast<std::size_t>(c)] =
                          fleet.busy_at(c, t) ? 1.0 : 0.0;
                  });
  }
  const double sample_frac = cfg_.telemetry.trace_sample;

  // Request-lifecycle spans land on one of the request tracks; dur-0
  // spans give flow starts/ends a slice to bind to.
  auto request_track = [](std::int64_t id) {
    return obs::Track::kServeRequest0 +
           static_cast<int>(static_cast<std::uint64_t>(id) %
                            obs::Track::kServeRequestTracks);
  };
  auto request_span = [&](const Request& r, const char* what, double ts,
                          double dur) {
    obs::TraceEvent ev;
    ev.name = std::string(what) + ":" + r.net;
    ev.cat = obs::Category::Serve;
    ev.pid = 2;
    ev.tid = request_track(r.id);
    ev.ts = ts;
    ev.dur = dur;
    ev.arg_name[0] = "request";
    ev.arg[0] = r.id;
    ev.arg_name[1] = "images";
    ev.arg[1] = r.images;
    rec_->trace_event(std::move(ev));
  };
  auto request_flow = [&](const Request& r, char phase, int tid, double ts) {
    obs::TraceEvent ev;
    ev.name = "req:" + std::to_string(r.id);
    ev.cat = obs::Category::Serve;
    ev.pid = 2;
    ev.tid = tid;
    ev.ts = ts;
    ev.flow = phase;
    ev.flow_id = r.id;
    rec_->trace_event(std::move(ev));
  };

  auto finalize = [&](std::size_t i, Outcome o, double finish_us) {
    RequestRecord& rec = rep.records[i];
    const Request& req = trace[i];
    SWATOP_CHECK(!(flags[i] & kDone))
        << "request " << req.id << " finalized twice";
    flags[i] |= kDone;
    if (o != Outcome::Rejected) --live_requests;
    switch (o) {
      case Outcome::Completed: {
        const double latency_us = finish_us - req.arrival_us;
        const bool late = latency_us > req.slo_us + kLateEpsUs;
        ++rep.completed;
        rep.images_completed += req.images;
        last_finish = std::max(last_finish, finish_us);
        if (late) ++rep.slo_violations;
        if (telem)
          telem->on_completed(net_of[i], finish_us, latency_us, req.images,
                              late);
        rec.wasted_us = 0.0;  // its dispatched share was useful work
        break;
      }
      case Outcome::Rejected:
        ++rep.rejected;
        if (telem) telem->on_rejected(net_of[i], finish_us);
        break;
      case Outcome::Shed:
        ++rep.shed;
        // Parts already on a chip keep running; the fleet stays busy with
        // work nobody will receive.  That time is reported, not hidden
        // (`wasted_us` already holds their share).
        last_finish = std::max(last_finish, rec.finish_us);
        if (telem) telem->on_shed(net_of[i], finish_us);
        break;
    }
    rec.outcome = o;
    rec.finish_us = finish_us;
    if (flags[i] & kSampled) {
      // Close the lifecycle chain on the request track: an un-dispatched
      // request still owes its "queued" span (arrival -> drop decision),
      // then a dur-0 terminal span anchors the flow end.
      if (!(flags[i] & kStarted) && o != Outcome::Rejected)
        request_span(req, "queued", req.arrival_us,
                     finish_us - req.arrival_us);
      request_span(req, outcome_name(o), finish_us, 0.0);
      request_flow(req, 'f', request_track(req.id), finish_us);
    }
    if (tracing && o != Outcome::Completed) {
      obs::TraceEvent ev;
      ev.name = std::string(outcome_name(o)) + ":" + req.net;
      ev.cat = obs::Category::Serve;
      ev.pid = 2;
      ev.tid = obs::Track::kServeAdmission;
      ev.ts = finish_us;
      ev.instant = true;
      ev.arg_name[0] = "request";
      ev.arg[0] = req.id;
      ev.arg_name[1] = "images";
      ev.arg[1] = req.images;
      rec_->trace_event(std::move(ev));
    }
  };

  // Admission on arrival: reject when even the optimistic schedule -- every
  // part of the request starting on the earliest-free chip in parallel --
  // already misses the (headroom-scaled) deadline.  This is a policy
  // predictor; the hard completed=>on-time guarantee is the exact per-slice
  // check at dispatch below.
  auto admit = [&](std::size_t i) {
    const Request& r = trace[i];
    if (telem) telem->on_arrival(net_of[i], r.arrival_us);
    if (tracing && sample_frac > 0.0 && sample_request(r.id, sample_frac)) {
      flags[i] |= kSampled;
      if (telem) telem->note_sampled();
      request_span(r, "arrive", r.arrival_us, 0.0);
      request_flow(r, 's', request_track(r.id), r.arrival_us);
    }
    if (cfg_.admission.enabled) {
      const double start = fleet.earliest_start_us(now);
      double exec_max = 0.0;
      for (std::int64_t left = r.images; left > 0;) {
        const std::size_t rung = ladder_rung(left, bc);
        exec_max = std::max(exec_max, price_us(net_of[i], rung));
        left -= bc.ladder[rung];
      }
      const double budget = r.arrival_us + cfg_.admission.headroom * r.slo_us;
      if (start + exec_max > budget) {
        finalize(i, Outcome::Rejected, now);
        return;
      }
    }
    batcher.enqueue(r, i);
    ++live_requests;
    if (telem) telem->on_admitted(net_of[i], now);
  };

  // Dispatch: fill idle chips with ready sub-batches, shedding any request
  // whose deadline is unreachable even if its slice ran right now.
  auto dispatch = [&](bool drain) {
    for (;;) {
      const int chip = fleet.idle_chip(now);
      if (chip < 0) return;
      std::optional<SubBatch> sb = batcher.peek(now, drain);
      if (!sb) return;
      const double exec = price_us(net_of[sb->slices.front().index],
                                   ladder_rung(sb->images, bc));
      if (cfg_.admission.enabled) {
        // A slice's sub-batch would finish at now + exec, and the request
        // completes no earlier than its latest part -- so deadline < now +
        // exec means the request can no longer make it.  Shed it (drop its
        // queued images) and re-form the batch from the survivors.
        bool dropped = false;
        for (const SubBatch::Slice& s : sb->slices) {
          const Request& r = trace[s.index];
          const double budget =
              r.arrival_us + cfg_.admission.headroom * r.slo_us;
          if (now + exec > budget) {
            batcher.drop(s.request_id);
            finalize(s.index, Outcome::Shed, now);
            dropped = true;
          }
        }
        if (dropped) continue;  // re-peek: the batch shrank or vanished
      }
      std::optional<SubBatch> got = batcher.pop(now, drain);
      SWATOP_CHECK(got && got->net == sb->net && got->images == sb->images)
          << "pop diverged from peek";
      const double finish = fleet.dispatch(chip, now, exec, sb->images);
      ++rep.batches;
      if (telem) telem->on_dispatch(now, sb->images, exec);
      for (const SubBatch::Slice& s : sb->slices) {
        const std::size_t i = s.index;
        RequestRecord& rec = rep.records[i];
        rec.finish_us = std::max(rec.finish_us, finish);
        rec.wasted_us += exec * static_cast<double>(s.images) /
                         static_cast<double>(sb->images);
        if (flags[i] & kSampled) {
          // The wait is over once the first slice lands on a chip; each
          // slice adds a flow step bound to that chip's sub-batch span.
          if (!(flags[i] & kStarted))
            request_span(trace[i], "queued", trace[i].arrival_us,
                         now - trace[i].arrival_us);
          request_flow(trace[i], 't', obs::Track::kServeChip0 + chip, now);
        }
        flags[i] |= kStarted;
        if (s.final_slice) finalize(i, Outcome::Completed, rec.finish_us);
      }
      if (tracing) {
        obs::TraceEvent ev;
        ev.name = sb->net + " x" + std::to_string(sb->images);
        ev.cat = obs::Category::Serve;
        ev.pid = 2;
        ev.tid = obs::Track::kServeChip0 + chip;
        ev.ts = now;
        ev.dur = exec;
        ev.arg_name[0] = "images";
        ev.arg[0] = sb->images;
        ev.arg_name[1] = "requests";
        ev.arg[1] = static_cast<std::int64_t>(sb->slices.size());
        rec_->trace_event(std::move(ev));
      }
    }
  };

  // The event loop: admit, dispatch, then jump to the next arrival, batcher
  // head-timeout, or chip completion.  Single-threaded by construction --
  // event order, and therefore every decision, is deterministic.
  for (;;) {
    while (next < trace.size() && trace[next].arrival_us <= now)
      admit(next++);
    rep.max_queue_images =
        std::max(rep.max_queue_images, batcher.queued_images());
    dispatch(/*drain=*/next >= trace.size());
    double t = kInf;
    if (next < trace.size()) t = std::min(t, trace[next].arrival_us);
    t = std::min(t, batcher.next_deadline_us(now));
    t = std::min(t, fleet.next_free_us(now));
    if (t == kInf) break;
    SWATOP_CHECK(t > now) << "event loop stuck at t=" << t;
    depth_integral += static_cast<double>(batcher.queued_images()) * (t - now);
    if (telem) telem->advance(t);
    now = t;
  }
  SWATOP_CHECK(batcher.empty()) << "event loop exited with queued work";
  SWATOP_CHECK(rep.completed + rep.rejected + rep.shed == rep.offered)
      << "request accounting out of sync";
  if (telem) {
    // The loop exits only once every chip is idle, so `now` is past every
    // buffered completion timestamp.
    telem->finish(now);
    rep.telemetry = telem->result();
    // Conservation: the windows tile the run, so summing any counter over
    // the timeline must reproduce the end-of-run total.
    std::int64_t arrivals = 0, admitted = 0, rejected = 0, shed = 0,
                 completed = 0, images = 0, batches = 0;
    for (const TelemetryWindow& w : rep.telemetry.windows) {
      arrivals += w.arrivals;
      admitted += w.admitted;
      rejected += w.rejected;
      shed += w.shed;
      completed += w.completed;
      images += w.images_completed;
      batches += w.batches;
    }
    SWATOP_CHECK(arrivals == rep.offered && admitted + rejected == rep.offered)
        << "telemetry arrival windows do not tile the run";
    SWATOP_CHECK(rejected == rep.rejected && shed == rep.shed &&
                 completed == rep.completed && images == rep.images_completed)
        << "telemetry outcome windows do not tile the run";
    SWATOP_CHECK(batches == rep.batches)
        << "telemetry dispatch windows do not tile the run";
    if (tracing) {
      for (const BurnAlert& a : rep.telemetry.alerts) {
        obs::TraceEvent ev;
        ev.name = "burn-alert:" + a.net;
        ev.cat = obs::Category::Serve;
        ev.pid = 2;
        ev.tid = obs::Track::kServeAdmission;
        ev.ts = a.t_us;
        ev.instant = true;
        ev.arg_name[0] = "window";
        ev.arg[0] = a.window;
        ev.arg_name[1] = "burn_x100";
        ev.arg[1] = static_cast<std::int64_t>(a.burn * 100.0);
        rec_->trace_event(std::move(ev));
      }
    }
  }

  // -- Report assembly ----------------------------------------------------
  rep.shed_rate =
      rep.offered == 0
          ? 0.0
          : static_cast<double>(rep.rejected + rep.shed) /
                static_cast<double>(rep.offered);
  const double makespan_us = last_finish - rep.first_arrival_us;
  rep.makespan_s = makespan_us / 1e6;
  if (makespan_us > 0.0) {
    rep.throughput_rps = static_cast<double>(rep.completed) /
                         (makespan_us / 1e6);
    rep.throughput_ips = static_cast<double>(rep.images_completed) /
                         (makespan_us / 1e6);
    rep.mean_queue_images = depth_integral / makespan_us;
    rep.utilization = fleet.total_busy_us() /
                      (static_cast<double>(fleet.chips()) * makespan_us);
  }
  rep.mean_batch_images =
      rep.batches == 0 ? 0.0
                       : static_cast<double>(rep.images_completed) /
                             static_cast<double>(rep.batches);
  rep.chips = fleet.chip_stats();
  rep.cost = cost_.stats();

  std::vector<double> all_lat;
  all_lat.reserve(static_cast<std::size_t>(rep.completed));
  std::vector<NetServingStats> per_net(net_names.size());
  std::vector<std::vector<double>> per_net_lat(net_names.size());
  for (std::size_t n = 0; n < net_names.size(); ++n)
    per_net[n].net = net_names[n];
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const Request& req = trace[i];
    const RequestRecord& r = rep.records[i];
    NetServingStats& ns = per_net[net_of[i]];
    ++ns.offered;
    ns.images_offered += req.images;
    ns.slo_ms = std::max(ns.slo_ms, req.slo_us / 1e3);
    switch (r.outcome) {
      case Outcome::Completed: {
        const double latency_us = r.latency_us(req);
        ++ns.completed;
        ns.images_completed += req.images;
        all_lat.push_back(latency_us);
        per_net_lat[net_of[i]].push_back(latency_us);
        if (latency_us > req.slo_us + kLateEpsUs) ++ns.slo_violations;
        break;
      }
      case Outcome::Rejected: ++ns.rejected; break;
      case Outcome::Shed:
        ++ns.shed;
        rep.wasted_ms += r.wasted_us / 1e3;
        break;
    }
  }
  std::sort(all_lat.begin(), all_lat.end());
  rep.p50_ms = percentile_ms(all_lat, 0.50);
  rep.p99_ms = percentile_ms(all_lat, 0.99);
  if (!all_lat.empty()) {
    rep.max_ms = all_lat.back() / 1e3;
    double sum = 0.0;
    for (double v : all_lat) sum += v;
    rep.mean_ms = sum / static_cast<double>(all_lat.size()) / 1e3;
  }
  for (std::size_t n = 0; n < per_net.size(); ++n) {
    std::vector<double>& lat = per_net_lat[n];
    NetServingStats& ns = per_net[n];
    std::sort(lat.begin(), lat.end());
    ns.p50_ms = percentile_ms(lat, 0.50);
    ns.p99_ms = percentile_ms(lat, 0.99);
    if (!lat.empty()) ns.max_ms = lat.back() / 1e3;
  }
  rep.per_net = std::move(per_net);

  if (rec_ != nullptr) {
    obs::ServeCounters& sc = rec_->counters().serve;
    sc.requests_offered += rep.offered;
    sc.requests_completed += rep.completed;
    sc.requests_rejected += rep.rejected;
    sc.requests_shed += rep.shed;
    sc.images_completed += rep.images_completed;
    sc.batches_dispatched += rep.batches;
    sc.slo_violations += rep.slo_violations;
    sc.busy_us += fleet.total_busy_us();
    sc.wasted_us += rep.wasted_ms * 1e3;
  }
  return rep;
}

std::string ServingReport::text() const {
  std::string out;
  appendf(out, "== serving report ==\n");
  appendf(out,
          "offered    %lld requests (%lld images) over %.2f s of arrivals\n",
          static_cast<long long>(offered),
          static_cast<long long>(images_offered),
          (last_arrival_us - first_arrival_us) / 1e6);
  const double done_pct =
      offered == 0 ? 0.0
                   : 100.0 * static_cast<double>(completed) /
                         static_cast<double>(offered);
  appendf(out,
          "outcomes   %lld completed (%.1f%%), %lld rejected, %lld shed -> "
          "shed rate %.1f%%\n",
          static_cast<long long>(completed), done_pct,
          static_cast<long long>(rejected), static_cast<long long>(shed),
          100.0 * shed_rate);
  appendf(out,
          "latency    p50 %.2f ms   p99 %.2f ms   mean %.2f ms   max %.2f ms"
          "   (%lld SLO violations)\n",
          p50_ms, p99_ms, mean_ms, max_ms,
          static_cast<long long>(slo_violations));
  appendf(out, "throughput %.1f req/s, %.1f img/s sustained over %.2f s\n",
          throughput_rps, throughput_ips, makespan_s);
  appendf(out, "queue      mean %.1f images, max %lld\n", mean_queue_images,
          static_cast<long long>(max_queue_images));
  appendf(out,
          "fleet      %zu chips at %.1f%% utilization, %lld batches, mean "
          "%.2f img/batch, %.1f ms wasted on shed splits\n",
          chips.size(), 100.0 * utilization, static_cast<long long>(batches),
          mean_batch_images, wasted_ms);
  appendf(out,
          "cost       %lld profiles (%lld shapes tuned, %lld cache hits), "
          "%lld memoized lookups\n",
          static_cast<long long>(cost.profiles),
          static_cast<long long>(cost.shapes_tuned),
          static_cast<long long>(cost.cache_hits),
          static_cast<long long>(cost.memo_hits));
  for (const NetServingStats& ns : per_net) {
    appendf(out,
            "  %-8s offered %-5lld completed %-5lld rejected %-4lld shed "
            "%-4lld p50 %8.2f ms  p99 %8.2f ms  slo %.0f ms\n",
            ns.net.c_str(), static_cast<long long>(ns.offered),
            static_cast<long long>(ns.completed),
            static_cast<long long>(ns.rejected),
            static_cast<long long>(ns.shed), ns.p50_ms, ns.p99_ms, ns.slo_ms);
  }
  if (telemetry.enabled) {
    appendf(out,
            "telemetry  %zu windows of %.0f ms, %zu burn alerts, %lld "
            "requests lifecycle-traced\n",
            telemetry.windows.size(), telemetry.window_us / 1e3,
            telemetry.alerts.size(),
            static_cast<long long>(telemetry.sampled_requests));
    for (const NetStreamingStats& s : telemetry.per_net)
      appendf(out,
              "  stream %-8s completed %-5lld p50 %8.2f ms  p99 %8.2f ms  "
              "(streaming, <=%.2f%% rel err)\n",
              s.net.c_str(), static_cast<long long>(s.completed), s.p50_ms,
              s.p99_ms, 100.0 * obs::LatencyHistogram::kMaxRelError);
    for (const BurnAlert& a : telemetry.alerts)
      appendf(out, "  alert  %-8s window %-4lld at %8.1f ms: burn %.1fx "
              "the error budget\n",
              a.net.c_str(), static_cast<long long>(a.window), a.t_us / 1e3,
              a.burn);
  }
  return out;
}

std::string ServingReport::json() const {
  std::string out = "{";
  append_kv(out, "offered", offered, false);
  append_kv(out, "images_offered", images_offered, true);
  append_kv(out, "completed", completed, true);
  append_kv(out, "rejected", rejected, true);
  append_kv(out, "shed", shed, true);
  append_kv(out, "images_completed", images_completed, true);
  append_kv(out, "shed_rate", shed_rate, true);
  append_kv(out, "p50_ms", p50_ms, true);
  append_kv(out, "p99_ms", p99_ms, true);
  append_kv(out, "mean_ms", mean_ms, true);
  append_kv(out, "max_ms", max_ms, true);
  append_kv(out, "slo_violations", slo_violations, true);
  append_kv(out, "makespan_s", makespan_s, true);
  append_kv(out, "throughput_rps", throughput_rps, true);
  append_kv(out, "throughput_ips", throughput_ips, true);
  append_kv(out, "mean_queue_images", mean_queue_images, true);
  append_kv(out, "max_queue_images", max_queue_images, true);
  append_kv(out, "utilization", utilization, true);
  append_kv(out, "batches", batches, true);
  append_kv(out, "mean_batch_images", mean_batch_images, true);
  append_kv(out, "wasted_ms", wasted_ms, true);
  append_kv(out, "cost_profiles", cost.profiles, true);
  append_kv(out, "cost_memo_hits", cost.memo_hits, true);
  append_kv(out, "shapes_tuned", cost.shapes_tuned, true);
  append_kv(out, "cache_hits", cost.cache_hits, true);
  out += ",\"per_net\":[";
  for (std::size_t i = 0; i < per_net.size(); ++i) {
    const NetServingStats& ns = per_net[i];
    if (i > 0) out += ',';
    out += "{\"net\":\"" + ns.net + "\"";
    append_kv(out, "offered", ns.offered, true);
    append_kv(out, "completed", ns.completed, true);
    append_kv(out, "rejected", ns.rejected, true);
    append_kv(out, "shed", ns.shed, true);
    append_kv(out, "images_offered", ns.images_offered, true);
    append_kv(out, "images_completed", ns.images_completed, true);
    append_kv(out, "p50_ms", ns.p50_ms, true);
    append_kv(out, "p99_ms", ns.p99_ms, true);
    append_kv(out, "max_ms", ns.max_ms, true);
    append_kv(out, "slo_ms", ns.slo_ms, true);
    append_kv(out, "slo_violations", ns.slo_violations, true);
    out += '}';
  }
  out += "],\"chips\":[";
  for (std::size_t i = 0; i < chips.size(); ++i) {
    const Fleet::ChipStats& c = chips[i];
    if (i > 0) out += ',';
    out += '{';
    append_kv(out, "busy_us", c.busy_us, false);
    append_kv(out, "batches", c.batches, true);
    append_kv(out, "images", c.images, true);
    out += '}';
  }
  out += "],\"telemetry\":" + telemetry.json() + "}";
  return out;
}

}  // namespace swatop::serve
