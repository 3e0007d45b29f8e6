// The counter registry of the observability layer: every cycle- and
// byte-level quantity the paper's analysis needs (Eq. (1) DMA accounting,
// Figs. 8-11), per execution, split per CPE where the hardware is per-CPE.
//
// Counters are *wired into* the code paths that price the run -- the DMA
// aggregates are incremented at the very sites that book time on the
// simulated engine (sim::CoreGroup), so traced bytes equal priced bytes by
// construction, never by re-derivation.
#pragma once

#include <cstdint>
#include <vector>

namespace swatop::obs {

/// DMA engine counters (the Eq. (1) quantities plus engine occupancy).
struct DmaCounters {
  std::int64_t bytes_requested = 0;  ///< payload bytes the program asked for
  std::int64_t bytes_wasted = 0;     ///< transaction padding around blocks
  /// DRAM bytes the graph engine's fusion + SPM-residency passes removed
  /// from the run (stores/loads an unfused execution would have priced).
  std::int64_t bytes_elided = 0;
  std::int64_t transactions = 0;     ///< 128 B DRAM transactions touched
  std::int64_t transfers = 0;        ///< CG-level DMA operations issued
  double queue_wait_cycles = 0.0;    ///< issue delayed by a busy engine
  double stall_cycles = 0.0;         ///< cluster blocked in DmaWait
  double busy_cycles = 0.0;          ///< engine occupied (latency + transfer)
};

/// Dual-pipeline issue estimate for the GEMM kernels executed by a run,
/// per CPE (execution is SPMD: all 64 CPEs run the identical stream).
/// Derived from the same pipeline-simulator fits that price the kernels.
struct PipeCounters {
  double issued_p0 = 0.0;        ///< instructions issued to P0 (arithmetic)
  double issued_p1 = 0.0;        ///< instructions issued to P1 (memory)
  double raw_stall_cycles = 0.0; ///< cycles with nothing issued (RAW waits)
};

/// Register-communication traffic over the row/column buses.
struct RegCommCounters {
  std::int64_t row_messages = 0;
  std::int64_t col_messages = 0;
  std::int64_t row_bytes = 0;
  std::int64_t col_bytes = 0;
};

/// Simulator sanitizer trips (SimConfig::sanitize). Every trip also throws
/// swatop::SanitizerError; the counters record *which* check fired so a
/// profile of a failed run says what went wrong without parsing the error.
struct SanitizerCounters {
  std::int64_t spm_poison_trips = 0;  ///< read of a never-defined SPM float
  std::int64_t dma_bounds_trips = 0;  ///< DMA outside the owning tensor
  std::int64_t dma_overlap_trips = 0; ///< touched an in-flight DMA range
  std::int64_t reply_slot_trips = 0;  ///< slot reuse / wait-on-empty / leak

  std::int64_t total() const {
    return spm_poison_trips + dma_bounds_trips + dma_overlap_trips +
           reply_slot_trips;
  }
};

/// One CPE's share of the run.
struct CpeCounters {
  std::int64_t dma_bytes = 0;      ///< payload bytes moved to/from this SPM
  std::int64_t dma_transfers = 0;  ///< transfers this CPE participated in
};

/// Serving front-end counters (src/serve/): request outcomes and dispatch
/// traffic of one Server::run. Times are simulated microseconds.
struct ServeCounters {
  std::int64_t requests_offered = 0;
  std::int64_t requests_completed = 0;
  std::int64_t requests_rejected = 0;  ///< admission refused on arrival
  std::int64_t requests_shed = 0;      ///< dropped after queueing
  std::int64_t images_completed = 0;
  std::int64_t batches_dispatched = 0;
  std::int64_t slo_violations = 0;  ///< completed late (admission off)
  double busy_us = 0.0;             ///< fleet chip-time executed
  double wasted_us = 0.0;           ///< chip-time on parts of shed requests
};

/// The full counter set of one observed execution.
struct Counters {
  double total_cycles = 0.0;
  double compute_cycles = 0.0;
  /// Of compute_cycles: GEMM kernel time, and within it the inter-panel
  /// register-communication pattern-switch latency (Eq. (2)'s comm term).
  /// Mirrored from the CgStats accumulators the booking sites increment.
  double gemm_cycles = 0.0;
  double gemm_comm_cycles = 0.0;
  std::int64_t flops = 0;
  std::int64_t gemm_calls = 0;
  DmaCounters dma;
  PipeCounters pipe;
  RegCommCounters reg_comm;
  SanitizerCounters sanitizer;
  std::int64_t spm_high_water_floats = 0;
  std::int64_t spm_capacity_floats = 0;
  std::int64_t spm_reads = 0;   ///< functional-mode SPM element reads
  std::int64_t spm_writes = 0;  ///< functional-mode SPM element writes
  /// Graph-engine memory plan (0 unless a whole network ran): the packed
  /// activation arena's peak versus binding every tensor separately.
  std::int64_t arena_planned_bytes = 0;
  std::int64_t arena_naive_bytes = 0;
  ServeCounters serve;  ///< serving front-end traffic (src/serve/)
  std::vector<CpeCounters> per_cpe;  ///< sized num_cpes when observed
};

}  // namespace swatop::obs
