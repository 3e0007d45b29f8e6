// Machine parameters of one SW26010 core group (CG).
//
// Numbers follow the paper (Sec. 2) and the benchmarking study it cites
// [Xu, Lin, Matsuoka, IPDPSW'17]: 8x8 CPE mesh, 64 KB SPM per CPE, 22.6 GB/s
// effective DMA bandwidth per CG, 647.25 GB/s aggregated register
// communication bandwidth, 1.45 GHz clock, 128-byte DRAM transactions.
#pragma once

#include <cstddef>
#include <cstdint>

namespace swatop::sim {

/// Simulator sanitizers: correctness instrumentation for lowered schedules.
/// Off by default (zero overhead on the hot paths); the schedule fuzzer and
/// the correctness tests switch them on. Each check, when it fires,
/// increments a trip counter in the run's profile and throws
/// swatop::SanitizerError with the offending buffer / slot / loop context.
struct SanitizerConfig {
  bool enabled = false;  ///< master switch: no checks run when false

  /// SPM poison tracking: every SpmAlloc poisons its range; DMA writes,
  /// zero-fills and GEMM stores define floats; reading a float never
  /// defined traps with buffer name + offset. Functional mode only (timing
  /// mode moves no data).
  bool spm_poison = true;

  /// DMA regions must stay inside the owning main-memory tensor (catches
  /// schedules whose address arithmetic walks into a neighbouring tensor
  /// -- invisible to arena bounds checks).
  bool dma_bounds = true;

  /// In-flight overlap detection: a GEMM, zero-fill or second DMA touching
  /// an SPM range whose reply slot is still pending traps (the race the
  /// functional interpreter's eager data movement would otherwise hide).
  bool dma_overlap = true;

  bool poison_on() const { return enabled && spm_poison; }
  bool bounds_on() const { return enabled && dma_bounds; }
  bool overlap_on() const { return enabled && dma_overlap; }
};

struct SimConfig {
  int mesh_rows = 8;
  int mesh_cols = 8;

  /// Scratch pad memory per CPE, bytes.
  std::size_t spm_bytes = 64 * 1024;

  /// CPE clock. All simulator times are in CPE cycles.
  double clock_ghz = 1.45;

  /// Effective DMA bandwidth of one CG (stream-triad measured, GB/s).
  double dma_peak_bw_gbs = 22.6;

  /// DMA start-up overhead (the T_latency term of Eq. (1)), cycles.
  double dma_latency_cycles = 270.0;

  /// DRAM transaction granularity: even a 1-byte touch moves a whole
  /// transaction (Sec. 4.6).
  std::size_t dram_transaction_bytes = 128;

  /// Global load/store bandwidth (GB/s) -- only used to demonstrate why DMA
  /// is the right transfer mechanism (bench_dma_modes ablation).
  double gls_bw_gbs = 1.48;

  /// Aggregated register-communication bandwidth per CPE cluster (GB/s).
  double reg_comm_bw_gbs = 647.25;

  /// Vector width in floats (256-bit vectors).
  int vector_width = 4;

  /// Simulator sanitizers (off by default; see SanitizerConfig).
  SanitizerConfig sanitize{};

  /// Pipeline latencies in cycles (P0 = float/vector arithmetic,
  /// P1 = memory / load-store).
  int vmad_latency = 7;   ///< vector multiply-add result latency
  int vload_latency = 4;  ///< SPM vector load latency
  int vstore_latency = 1; ///< store issue cost (no consumer)
  int reg_comm_latency = 11;  ///< row/column broadcast receive latency

  int num_cpes() const { return mesh_rows * mesh_cols; }

  /// DMA bandwidth in bytes per CPE cycle for the whole CG.
  double dma_bytes_per_cycle() const { return dma_peak_bw_gbs / clock_ghz; }

  /// GL/GS bandwidth in bytes per cycle.
  double gls_bytes_per_cycle() const { return gls_bw_gbs / clock_ghz; }

  /// Peak floating point throughput of the CPE cluster, flops per cycle
  /// (4-wide fused multiply-add on every CPE).
  double peak_flops_per_cycle() const {
    return static_cast<double>(num_cpes()) * vector_width * 2.0;
  }

  /// Peak throughput in GFLOPS, for efficiency reporting.
  double peak_gflops() const { return peak_flops_per_cycle() * clock_ghz; }

  /// SPM capacity in floats.
  std::int64_t spm_floats() const {
    return static_cast<std::int64_t>(spm_bytes / sizeof(float));
  }

  /// Per-CPE SPM floats left to a kernel's tile buffers: half the SPM. The
  /// graph engine's residency planner pins activations in the other half,
  /// and DMA inference stages cached operands only within this share.
  std::int64_t kernel_spm_floats() const { return spm_floats() / 2; }

  /// The machine the paper targets (all defaults).
  static SimConfig sw26010() { return SimConfig{}; }

  /// The successor processor (SW26010-Pro, as in the Sunway OceanLight
  /// system): 4x the scratchpad, higher clock and per-CG DRAM bandwidth.
  /// The paper's closing claim -- that the tensorized-primitive +
  /// autotuning split ports to new hardware -- is exercised by re-tuning
  /// against this preset (the tuner picks much larger tiles; see
  /// test_integration). The Pro's 512-bit SIMD is not modelled; kernels
  /// keep 256-bit vectors.
  static SimConfig sw26010pro() {
    SimConfig c;
    c.spm_bytes = 256 * 1024;
    c.clock_ghz = 2.1;
    c.dma_peak_bw_gbs = 51.2;
    return c;
  }
};

}  // namespace swatop::sim
