// The serving front-end: request queue -> dynamic batcher -> fleet
// scheduler -> SLO-aware admission control, driven as a deterministic
// discrete-event simulation in simulated microseconds.
//
// Dataflow per event step:
//   1. *Admission*: arrivals up to `now` are admitted into the batcher or
//      rejected outright when even an idle-fleet execution of the request
//      could not meet its SLO (deadline infeasible on arrival).
//   2. *Dispatch*: while a chip is idle and the batcher has a ready
//      network, the next sub-batch is priced via the cost provider
//      (tune-on-first-miss through the schedule cache) and placed on the
//      earliest-free chip. Before committing, admission control sheds any
//      request in the candidate batch whose deadline can no longer be met
//      (`now + exec > deadline`) -- for the final slice of a request this
//      check is exact, so every *completed* request met its SLO when
//      admission is on. Shed and rejected requests are counted and
//      reported, never silently dropped.
//   3. *Advance*: simulated time jumps to the next arrival, batcher
//      timeout, or chip completion; queue depth is integrated over the
//      interval.
//
// Determinism contract: given one trace (serve/traffic.hpp, fixed seed)
// and one cost provider, the whole report -- every latency, every shed
// decision, every byte of the JSON -- is identical run to run and at any
// tuner worker-thread count (the engine's argmin is thread-invariant, so
// the priced cycles are too). Nothing on this path reads a wall clock.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "obs/recorder.hpp"
#include "serve/batcher.hpp"
#include "serve/cost.hpp"
#include "serve/fleet.hpp"
#include "serve/request.hpp"
#include "serve/telemetry.hpp"

namespace swatop::serve {

struct AdmissionConfig {
  /// Off: every request is admitted and runs to completion, however late
  /// (the no-admission ablation; p99 is unbounded under overload).
  bool enabled = true;
  /// Deadline scale used by the admission/shed predictions: shed when the
  /// predicted finish exceeds arrival + headroom * slo. 1.0 = the SLO
  /// itself; < 1 sheds earlier (reserves slack), > 1 tolerates lateness.
  double headroom = 1.0;
};

struct ServerConfig {
  BatcherConfig batcher;
  FleetConfig fleet;
  AdmissionConfig admission;
  TelemetryConfig telemetry;  ///< flight recorder (off by default)
};

/// Per-network slice of the report.
struct NetServingStats {
  std::string net;
  std::int64_t offered = 0;
  std::int64_t completed = 0;
  std::int64_t rejected = 0;
  std::int64_t shed = 0;
  std::int64_t images_offered = 0;
  std::int64_t images_completed = 0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double max_ms = 0.0;
  double slo_ms = 0.0;  ///< the SLO its requests carried (max over trace)
  std::int64_t slo_violations = 0;
};

struct ServingReport {
  // Offered load.
  std::int64_t offered = 0;
  std::int64_t images_offered = 0;
  double first_arrival_us = 0.0;
  double last_arrival_us = 0.0;

  // Outcomes (offered = completed + rejected + shed, always).
  std::int64_t completed = 0;
  std::int64_t rejected = 0;   ///< admission refused on arrival
  std::int64_t shed = 0;       ///< dropped later (deadline unreachable)
  std::int64_t images_completed = 0;
  double shed_rate = 0.0;      ///< (rejected + shed) / offered

  // Latency of completed requests, milliseconds.
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double mean_ms = 0.0;
  double max_ms = 0.0;
  std::int64_t slo_violations = 0;  ///< completed but late (admission off)

  // Sustained rates over the makespan (first arrival -> last finish).
  double makespan_s = 0.0;
  double throughput_rps = 0.0;
  double throughput_ips = 0.0;

  // Queueing and fleet occupancy.
  double mean_queue_images = 0.0;  ///< time-weighted over the makespan
  std::int64_t max_queue_images = 0;
  double utilization = 0.0;        ///< busy / (chips * makespan)
  std::int64_t batches = 0;
  double mean_batch_images = 0.0;
  double wasted_ms = 0.0;  ///< chip-time spent on parts of later-shed requests

  // Cost-provider traffic (profiles = timing-only engine runs).
  CostProviderStats cost;

  std::vector<NetServingStats> per_net;
  std::vector<Fleet::ChipStats> chips;
  /// Per-request ledger: records[i] is the outcome of the served trace's
  /// request i.
  std::vector<RequestRecord> records;

  /// Windowed flight-recorder timeline (empty stub unless
  /// ServerConfig::telemetry.enabled). Window counter sums are checked
  /// against the totals above before the report is returned.
  TelemetryResult telemetry;

  /// Human-readable multi-line summary.
  std::string text() const;
  /// Machine-readable JSON object (stable field order, %.17g doubles:
  /// byte-identical for identical runs). `records` are not included.
  std::string json() const;
  /// The telemetry timeline as JSONL, one window per line (empty when
  /// telemetry was off). Byte-identical for identical runs.
  std::string timeline_jsonl() const { return telemetry.jsonl(); }
};

class Server {
 public:
  /// The recorder is optional; when given, serving counters and pid-2
  /// trace spans (per-chip sub-batches, admission instants) are emitted.
  Server(ServerConfig cfg, CostProvider& cost, obs::Recorder* rec = nullptr);

  const ServerConfig& config() const { return cfg_; }

  /// Serve one arrival trace to completion. The trace must be sorted by
  /// arrival time with unique ids; throws swatop::CheckError otherwise.
  ServingReport run(const std::vector<Request>& trace);

 private:
  ServerConfig cfg_;
  CostProvider& cost_;
  obs::Recorder* rec_;
};

}  // namespace swatop::serve
