// One SW26010 core group: main memory, the CPE cluster, the DMA engine, and
// the simulation clock.
//
// Time model: execution is SPMD at primitive granularity, so the CG keeps a
// single `now` cycle counter that compute primitives advance. DMA transfers
// are asynchronous: issuing one books its price on the engine and returns
// its completion time, which the caller keeps (rt::Interpreter, in its
// reply-slot table) until it waits; waiting advances `now` to that time (the
// stall the paper's double buffering removes). The core group only prices
// and books transfers; the data itself is moved by rt::Interpreter.
#pragma once

#include <cstdint>
#include <span>

#include "obs/counters.hpp"
#include "obs/recorder.hpp"
#include "sim/cluster.hpp"
#include "sim/config.hpp"
#include "sim/dma.hpp"
#include "sim/main_memory.hpp"

namespace swatop::sim {

/// What the runtime should do when executing primitives.
enum class ExecMode {
  Functional,  ///< move data and compute, and account time
  TimingOnly,  ///< account time only (the stand-in for hardware runs)
};

/// Aggregate counters for one execution. The observability layer's counter
/// registry (obs::Counters) is a superset assembled from these exact
/// accumulators -- see CoreGroup::counters_snapshot().
struct CgStats {
  double compute_cycles = 0.0;    ///< cycles spent in compute primitives
  double dma_stall_cycles = 0.0;  ///< cycles the cluster waited on DMA
  double dma_queue_wait_cycles = 0.0;  ///< issue delayed by a busy engine
  std::int64_t dma_bytes_requested = 0;
  std::int64_t dma_bytes_wasted = 0;
  std::int64_t dma_transactions = 0;
  std::int64_t dma_transfers = 0;
  std::int64_t flops = 0;  ///< useful MACs * 2 executed by GEMM primitives
  std::int64_t gemm_calls = 0;
  /// Of compute_cycles: cycles booked by GEMM kernels (the rest is
  /// zero-fills, packing and MPE-priced passes). Both GEMM booking sites
  /// (prim::spm_gemm, the timing interpreter's fast path) record these so
  /// the attribution layer can decompose kernel time without re-pricing.
  double gemm_cycles = 0.0;
  /// Of gemm_cycles: inter-panel register-communication pattern switches
  /// (the Sec. 4.6 latency term of Eq. (2)).
  double gemm_comm_cycles = 0.0;
  /// Per-CPE dual-pipeline issue/stall estimate for the GEMM kernels, from
  /// the same pipeline-simulator fits that price them (SPMD: one CPE's
  /// stream stands for all 64).
  obs::PipeCounters pipe;
  /// Sanitizer trips (SimConfig::sanitize); accumulated at the throw sites
  /// so counters_snapshot() can surface them in the profile.
  obs::SanitizerCounters sanitizer;

  /// Accumulate another stats block (every field). Chip::aggregate_stats
  /// and the graph engine's per-node accumulation both go through here so
  /// a new CgStats field can't be summed in one place and dropped in the
  /// other.
  void add(const CgStats& o) {
    compute_cycles += o.compute_cycles;
    dma_stall_cycles += o.dma_stall_cycles;
    dma_queue_wait_cycles += o.dma_queue_wait_cycles;
    dma_bytes_requested += o.dma_bytes_requested;
    dma_bytes_wasted += o.dma_bytes_wasted;
    dma_transactions += o.dma_transactions;
    dma_transfers += o.dma_transfers;
    flops += o.flops;
    gemm_calls += o.gemm_calls;
    gemm_cycles += o.gemm_cycles;
    gemm_comm_cycles += o.gemm_comm_cycles;
    pipe.issued_p0 += o.pipe.issued_p0;
    pipe.issued_p1 += o.pipe.issued_p1;
    pipe.raw_stall_cycles += o.pipe.raw_stall_cycles;
    sanitizer.spm_poison_trips += o.sanitizer.spm_poison_trips;
    sanitizer.dma_bounds_trips += o.sanitizer.dma_bounds_trips;
    sanitizer.dma_overlap_trips += o.sanitizer.dma_overlap_trips;
    sanitizer.reply_slot_trips += o.sanitizer.reply_slot_trips;
  }
};

class CoreGroup {
 public:
  explicit CoreGroup(const SimConfig& cfg = SimConfig{});

  const SimConfig& config() const { return cfg_; }
  MainMemory& mem() { return mem_; }
  const MainMemory& mem() const { return mem_; }
  CpeCluster& cluster() { return cluster_; }
  const CpeCluster& cluster() const { return cluster_; }
  DmaEngine& dma() { return dma_; }

  double now() const { return now_; }

  /// Advance the cluster clock by `cycles` of computation.
  void advance_compute(double cycles);

  /// Book an asynchronous transfer whose cost the caller computed (and
  /// possibly memoized) and return its completion time; pair with
  /// wait_until. Every DMA booking goes through here: queue-wait
  /// accounting, statistics, and (when an observer is attached) the
  /// engine-track trace event.
  double dma_issue_cost_at(const DmaCost& c);

  /// Stall until the given completion time (no-op if already past).
  void wait_until(double t);

  /// Price and book a synchronous CG-level transfer of per-CPE descriptors
  /// (in mesh order, or a single one for CPE (0,0)): descriptor i's bytes
  /// are attributed to CPE i when a recorder is attached. Moves no data;
  /// packing helpers that stage arena-to-arena copies through SPM move it
  /// themselves.
  void charge_dma_sync(std::span<const DmaCpeDesc> descs);

  /// Book a synchronous transfer whose cost the caller computed analytically
  /// (bulk re-layout passes such as im2col or the Winograd transforms).
  void charge_dma_cost_sync(const DmaCost& c);

  CgStats& stats() { return stats_; }
  const CgStats& stats() const { return stats_; }

  /// Attach (or detach, with nullptr) an observability recorder. While
  /// attached, DMA bookings additionally emit trace events and per-CPE
  /// attributions; every site is a single pointer test when detached.
  void attach_observer(obs::Recorder* rec) { obs_ = rec; }
  obs::Recorder* observer() const { return obs_; }

  /// Assemble the observability counter registry for the execution so far.
  /// Aggregates are copied from the very accumulators the booking paths
  /// increment (stats(), the DMA engine, the reg-comm bus, the SPM
  /// allocator), so they equal the priced quantities by construction.
  obs::Counters counters_snapshot() const;

  /// Reset clock, engine, statistics and SPM allocator -- memory contents
  /// and allocations are preserved (so one can re-run on the same buffers).
  void reset_execution();

 private:
  SimConfig cfg_;
  MainMemory mem_;
  CpeCluster cluster_;
  DmaEngine dma_;
  double now_ = 0.0;
  CgStats stats_;
  obs::Recorder* obs_ = nullptr;
};

}  // namespace swatop::sim
