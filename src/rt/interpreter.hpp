// The runtime: executes optimized IR on the simulated core group.
//
// Two modes mirror the two ways swATOP code is exercised. Functional mode
// really moves data between the arena and the 64 SPMs and runs the
// distributed GEMM primitive -- used by tests and examples to validate
// generated schedules against naive references. TimingOnly mode walks every
// loop iteration and prices every primitive without touching data -- it is
// this reproduction's stand-in for "running the generated code on the
// SW26010", and is what the black-box autotuner measures.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <unordered_set>

#include "dsl/dsl.hpp"
#include "ir/node.hpp"
#include "isa/kernel_cache.hpp"
#include "obs/profile.hpp"
#include "prim/gemm_primitive.hpp"
#include "rt/dma_expand.hpp"
#include "sim/core_group.hpp"

namespace swatop::rt {

/// Operand tensors (by the *operator's* tensor names, e.g. "in"/"out")
/// the graph engine's inter-layer residency plan pinned on-chip for a
/// run: DMA against them never reaches DRAM or the DMA engine, so the
/// interpreter counts the transfer into RunResult::bytes_elided instead
/// of pricing it.
struct ResidentSet {
  std::unordered_set<std::string> tensors;
  bool empty() const { return tensors.empty(); }
};

struct RunResult {
  double cycles = 0.0;
  sim::CgStats stats;
  /// DRAM bytes not moved because the operand was SPM-resident.
  std::int64_t bytes_elided = 0;
  /// Observability snapshot of the run (counters + trace). Empty with
  /// `enabled == false` unless a recorder was attached to the core group.
  obs::Profile profile;

  /// Achieved GFLOPS given the operator's useful flops.
  double gflops(std::int64_t useful_flops, const sim::SimConfig& cfg) const {
    if (cycles <= 0.0) return 0.0;
    return static_cast<double>(useful_flops) / cycles * cfg.clock_ghz;
  }
};

class Interpreter {
 public:
  Interpreter(sim::CoreGroup& cg, sim::ExecMode mode);

  /// Execute `root` against the bound tensors. Resets the CG's clock,
  /// engine, statistics and SPM allocator (memory contents are preserved).
  RunResult run(const ir::StmtPtr& root, const dsl::BoundTensors& tensors);

  /// Pin operand tensors on-chip for subsequent run()s (null to clear);
  /// the pointer must outlive the runs. See ResidentSet.
  void set_resident(const ResidentSet* rs) { resident_ = rs; }

 private:
  void exec(const ir::StmtPtr& s);
  void exec_dma(const ir::Dma& s);
  void exec_gemm(const ir::Gemm& s);
  void exec_zero(const ir::SpmZero& s);
  /// Attribute a priced transfer's bytes to the CPEs whose blocks it moves
  /// (recorder attached only): the blocks the functional copy walks.
  void attribute_per_cpe(const ir::DmaAttrs& d, const DmaGeometry& geo);
  /// Apply a fused epilogue to the C tile in SPM right before its put:
  /// prices the residual re-read, the (once per channel range) bias fetch
  /// and the vector ops, and in Functional mode rewrites the tile in place.
  void apply_epilogue(const ir::DmaAttrs& d, const DmaGeometry& geo,
                      std::int64_t spm_at);
  std::int64_t spm_base(const std::string& buf) const;

  /// Per-slot bookkeeping beyond the completion time: which buffer the
  /// transfer fills/drains and (for the overlap sanitizer) the SPM range it
  /// owns while in flight. `buf` survives the wait so wait-on-empty errors
  /// can name the stream that last used the slot.
  struct SlotInfo {
    std::string buf;           ///< SPM buffer of the last transfer
    std::int64_t spm_lo = 0;   ///< in-flight SPM range [lo, hi)
    std::int64_t spm_hi = 0;
    bool writes_spm = false;   ///< get (writes SPM) vs put (reads SPM)
  };

  /// Human-readable current loop bindings ("i=2 j=0"), for diagnostics.
  std::string loop_context() const;

  /// Record a sanitizer trip and throw SanitizerError.
  [[noreturn]] void sanitizer_trip(std::int64_t obs::SanitizerCounters::*ctr,
                                   const std::string& what);

  /// Overlap sanitizer: trap if [lo, hi) intersects an in-flight transfer's
  /// SPM range and either side writes. The access is named "<who> buffer
  /// '<buf>'" in the message, formatted only when it trips.
  void check_overlap(std::int64_t lo, std::int64_t hi, bool writes,
                     const char* who, const std::string& buf);

  /// Bounds sanitizer: the DMA's memory footprint must stay inside the
  /// owning tensor's arena allocation.
  void check_dma_bounds(const ir::Dma& s, const DmaGeometry& geo);

  /// Poison sanitizer: trap if any float of [a, a+n) (uniform across CPEs)
  /// was never defined by a DMA, zero-fill or GEMM store.
  void check_defined(std::int64_t a, std::int64_t n, const std::string& buf,
                     const std::string& who);

  sim::CoreGroup& cg_;
  sim::ExecMode mode_;
  const isa::KernelCostDb& db_;
  ExprEvaluator eval_;
  const dsl::BoundTensors* tensors_ = nullptr;
  // Observability recorder of the core group, cached per run (nullptr when
  // observability is off -- every instrumentation site is one pointer test).
  obs::Recorder* obs_ = nullptr;
  // SPM buffer bases by name. A program allocates a handful of buffers, so
  // a linear scan is cheaper than hashing the name on every access.
  std::vector<std::pair<std::string, std::int64_t>> spm_off_;
  // Reply slots are small integers; completion times indexed directly.
  // A negative entry means "empty".
  std::vector<double> reply_done_;
  std::vector<SlotInfo> slot_info_;
  // Enclosing For bindings, outermost first (diagnostics only).
  std::vector<std::pair<ir::VarId, std::int64_t>> loop_stack_;
  // Arena allocation extents keyed by base address, for the DMA bounds
  // sanitizer (snapshotted at run() start; empty when bounds are off).
  std::unordered_map<std::int64_t, std::int64_t> alloc_floats_;
  // Hot-path memoization: gemm cycle cost and per-CPE pipeline breakdown
  // per (variant, M, N, K) -- one lookup covers both -- and DMA cost per
  // transfer geometry.
  struct GemmCost {
    double cycles = 0.0;
    obs::PipeCounters pipe;
  };
  std::unordered_map<std::uint64_t, GemmCost> gemm_cost_memo_;
  DmaCostCache dma_cost_cache_;
  // Inter-layer residency for the current run (null: everything priced).
  const ResidentSet* resident_ = nullptr;
  std::int64_t bytes_elided_ = 0;
  // Epilogue bias vectors already fetched this run (keyed by first channel):
  // the tiny broadcast get is charged once per channel range, then the
  // vector stays in SPM across the output tiles that reuse it.
  std::unordered_set<std::int64_t> bias_charged_;
};

}  // namespace swatop::rt
