// The static performance model of the autotuner (Sec. 4.6).
//
// Walks a candidate's IR without iterating data: a loop of n iterations
// costs its body at the first iteration n-1 times plus its body at the last
// iteration once (so ragged boundary tiles and the final iteration's
// skipped prefetch are priced), and an If follows the branch taken at that
// environment. DMA nodes are priced with Eq. (1) (transaction-granular
// transfer + start-up latency) and gemm calls with Eq. (2), read from the
// kernel cost table the simulator charges (GemmCostModel).
//
// Time is composed bottom-up, per loop iteration. One iteration of a
// double-buffered loop costs max(every transfer it issues, its cluster
// time): the DMA engine serializes all of its transfers while the cluster
// computes. Cluster time adds compute, nested loops and every transfer on
// a constant reply slot -- the synchronous get;wait / put;wait pairs and
// the prologue get issued before a prefetched loop, which the first
// iteration waits on at once. Everywhere else times add. So the prologue
// and the last iteration's compute (which has no prefetch to hide behind)
// are exposed, and per-iteration imbalance between DMA and compute is not
// averaged away. Pricing only two iterations of every loop, and not
// modelling the DMA queue across iteration boundaries, are the model's
// remaining error sources.
#pragma once

#include <algorithm>

#include "ir/node.hpp"
#include "rt/dma_expand.hpp"
#include "sim/dma.hpp"
#include "tune/gemm_model.hpp"

namespace swatop::tune {

struct StaticCost {
  /// Gemm calls, zero-fills and fused-epilogue vector ops.
  double compute_cycles = 0.0;
  /// Every transfer, at Eq. (1) cost, whether or not it overlaps.
  double transfer_cycles = 0.0;
  /// The composed time: at least each of the two sums above, at most their
  /// sum.
  double elapsed_cycles = 0.0;

  double dma_cycles() const { return transfer_cycles; }
  double total() const { return elapsed_cycles; }

  StaticCost& operator+=(const StaticCost& o) {
    compute_cycles += o.compute_cycles;
    transfer_cycles += o.transfer_cycles;
    elapsed_cycles += o.elapsed_cycles;
    return *this;
  }
};

/// A lower bound on a candidate's StaticCost, priced before the optimizer
/// runs (CostModel::lower_bound). Each term is at most the matching
/// estimate term, so total() is at most StaticCost::total() (see
/// lower_bound's soundness note).
struct CostBound {
  double dma_cycles = 0.0;      ///< <= StaticCost::dma_cycles()
  double compute_cycles = 0.0;  ///< <= StaticCost::compute_cycles

  double total() const { return std::max(dma_cycles, compute_cycles); }
};

class CostModel {
 public:
  CostModel(const sim::SimConfig& cfg, const GemmCostModel& gm)
      : cfg_(cfg), engine_(cfg_), gm_(gm) {}

  StaticCost estimate(const ir::StmtPtr& root) const;

  /// Lower bound on estimate(p) for the program p the optimizer builds
  /// from `lowered`, a lowered single-gemm chain (the loop nest every
  /// operator builds with sched::build_nest), with double buffering on or
  /// off as `prefetch` says. Costs a handful of expression evaluations
  /// instead of a build and a walk; unlike estimate() it is thread-safe.
  /// Returns a zero bound when DMA inference would reject the program, and
  /// throws CheckError when it is not a single-gemm chain (as building it
  /// would). May wrap loop bodies into Seqs, as DMA inference does.
  ///
  /// Why it is sound. estimate() adds every transfer and every gemm call of
  /// p, each weighted by its loops' walk weights (first iteration n-1
  /// times, last iteration once). Its time is at least both sums: an
  /// iteration of a double-buffered loop costs at least the transfers it
  /// issues and at least its cluster time, which holds its compute, and
  /// everywhere else times add. So total() >= max(dma_cycles(),
  /// compute_cycles), and a bound below both terms is below total(). The
  /// bound adds a subset of the same terms at the same environments and
  /// weights:
  ///  - compute: the gemm calls, priced exactly (p's compute also holds the
  ///    zero-fills and the epilogue's vector ops). Removing unit loops and
  ///    double buffering change neither the gemm's dims nor its loops.
  ///  - DMA: the A and B gets, the C put and, under outer reductions, the
  ///    C re-fetch (not the residual re-read), at the hoist level and SPM
  ///    orientation opt::plan_dma reports. A get that double buffering
  ///    moves is priced where it moves to: once at iteration 0 of its
  ///    innermost enclosing non-unit loop (the prologue) and n-1 times at
  ///    iteration 1 (the prefetch the walk prices at the first iteration;
  ///    the last iteration's is skipped). Each transfer costs Eq. (1)'s
  ///    latency plus, per CPE block, whole 128-byte transactions at peak
  ///    bandwidth -- ceil(bytes / 128) per contiguous column, or one per
  ///    element when the row stride is not 1 -- the fewest transactions any
  ///    base alignment can touch, so at most what the walk charges.
  /// A loop whose variable the term does not read contributes its trip
  /// count as a factor instead of two visits; both terms are then scaled
  /// by 1 - 1e-9 to absorb the different summation order.
  CostBound lower_bound(const ir::StmtPtr& lowered, bool prefetch) const;

 private:
  /// The cost of `s` at `env`, its loops priced by their walk weights.
  StaticCost walk(const ir::StmtPtr& s, ir::Env& env) const;

  sim::SimConfig cfg_;
  sim::DmaEngine engine_;
  const GemmCostModel& gm_;
  mutable rt::DmaCostCache dma_cost_cache_;
};

}  // namespace swatop::tune
