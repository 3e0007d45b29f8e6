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
// double-buffered loop -- one that prefetches gets, or the loop around a
// double-buffered C write-back, whose puts run while the next tile
// computes -- costs max(every transfer it issues, its cluster time): the
// DMA engine serializes all of its transfers while the cluster computes.
// Cluster time adds compute, nested loops and every transfer on a constant
// reply slot -- the synchronous get;wait / put;wait pairs (a cached
// operand's fill nest is a loop nest of them), the prologue get issued
// before a prefetched loop, which the first iteration waits on at once,
// and a fused residual's re-read. Everywhere else times add. So the
// prologue, the last iteration's compute (which has no prefetch to hide
// behind) and the last C put (which the program drains after its loops)
// are exposed, and per-iteration imbalance between DMA and compute is not
// averaged away. Pricing only two iterations of every loop, and not
// modelling the DMA queue across iteration boundaries, are the model's
// remaining error sources.
#pragma once

#include <algorithm>

#include "ir/node.hpp"
#include "opt/pass_manager.hpp"
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
  /// The last C put still in flight where this piece of program ends (a
  /// double-buffered write-back's); the next wait the walk meets drains it
  /// into elapsed_cycles.
  double drain_cycles = 0.0;

  double dma_cycles() const { return transfer_cycles; }
  double total() const { return elapsed_cycles; }

  /// This piece followed by `o`.
  StaticCost& operator+=(const StaticCost& o) {
    compute_cycles += o.compute_cycles;
    transfer_cycles += o.transfer_cycles;
    elapsed_cycles += o.elapsed_cycles;
    if (o.drain_cycles > 0.0) drain_cycles = o.drain_cycles;
    return *this;
  }
};

/// A lower bound on a candidate's StaticCost, priced before the optimizer
/// runs (CostModel::lower_bound). The transfers split into those the
/// cluster waits on, the prefetches a double-buffered loop overlaps with
/// its compute and the puts of a double-buffered C write-back; total() is
/// at most StaticCost::total() (see lower_bound's soundness note).
struct CostBound {
  /// Fills, the C put when its write-back is synchronous, a fused residual
  /// re-read, the C re-fetch, gets that are not double-buffered and the
  /// prologue gets of double-buffered loops.
  double sync_dma_cycles = 0.0;
  /// The prefetches double buffering issues inside its loops.
  double async_dma_cycles = 0.0;
  /// The C puts of a double-buffered write-back, each overlapping the next
  /// tile's compute, the exposed compute below included.
  double async_put_cycles = 0.0;
  double compute_cycles = 0.0;  ///< <= StaticCost::compute_cycles
  /// The part of compute_cycles no prefetch overlaps: the last iteration
  /// of the double-buffered loop, when there is exactly one.
  double exposed_compute_cycles = 0.0;

  /// <= StaticCost::dma_cycles().
  double dma_cycles() const {
    return sync_dma_cycles + async_dma_cycles + async_put_cycles;
  }
  double total() const {
    return sync_dma_cycles + exposed_compute_cycles +
           std::max(async_dma_cycles +
                        std::max(0.0, async_put_cycles -
                                          exposed_compute_cycles),
                    compute_cycles - exposed_compute_cycles);
  }
};

class CostModel {
 public:
  CostModel(const sim::SimConfig& cfg, const GemmCostModel& gm)
      : cfg_(cfg), engine_(cfg_), gm_(gm) {}

  StaticCost estimate(const ir::StmtPtr& root) const;

  /// Lower bound on estimate(p) for the program p that opt::optimize(
  /// lowered, cfg, o) builds from `lowered`, a lowered single-gemm chain
  /// (the loop nest every operator builds with sched::build_nest); `o` is
  /// the candidate's options, its `prefetch` already resolved for the
  /// strategy. Costs a handful of expression evaluations instead of a
  /// build and a walk; unlike estimate() it is thread-safe. Returns a zero
  /// bound when DMA inference would reject the program, and throws
  /// CheckError when it is not a single-gemm chain (as building it would).
  /// May wrap loop bodies into Seqs, as DMA inference does.
  ///
  /// Why it is sound. estimate() adds every transfer and every gemm call of
  /// p, each weighted by its loops' walk weights (first iteration n-1
  /// times, last iteration once). Call a transfer on a constant reply slot
  /// synchronous (S; the cluster waits on it), a prefetch or a
  /// double-buffered C put asynchronous (A), and let C be the compute.
  /// Every subtree outside a double-buffered loop's body takes at least
  /// S + max(A, C): a sync transfer adds its time and compute adds its
  /// cycles; sums keep the property because a sum of maxima is at least
  /// the maximum of the sums; and one iteration of a double-buffered loop
  /// (one that prefetches, or the loop around the C put) costs max(its
  /// elapsed time, every transfer it issues) >= max(S + C, S + A). The
  /// drained last put only adds. The bound adds a subset of the same terms
  /// at the same environments and weights:
  ///  - compute: the gemm calls, priced exactly (p's compute also holds the
  ///    zero-fills and the epilogue's vector ops). Removing unit loops and
  ///    double buffering change neither the gemm's dims nor its loops.
  ///  - sync: a cached operand's fills, at its fill loops; a fused
  ///    epilogue's residual re-read (the walk prices it on the put's
  ///    geometry); the C put unless its write-back is double-buffered
  ///    (async_put) and, under outer reductions, the C re-fetch; gets
  ///    double buffering does not move.
  ///  - A get that double buffering moves is priced where it moves to: at
  ///    iteration 0 of its innermost enclosing non-unit loop once (the
  ///    prologue, sync) and at iteration 1 n-1 times (the prefetch the walk
  ///    prices at the first iteration, async; the last iteration's is
  ///    skipped) -- also when that loop does not read the get.
  ///  - exposed compute X: when one loop L double-buffers every moved get,
  ///    the gemm calls of L's last iteration. That iteration issues no
  ///    prefetch (and no deeper loop does: it would be a second one), so it
  ///    costs at least its sync transfers plus its compute; the other
  ///    iterations keep the argument above. With no puts in A that gives
  ///    S + X + max(A, C - X). Puts P may run under X, since each overlaps
  ///    the next tile: where L lies inside the put's loop, each iteration
  ///    of that loop costs at least S + max(A_gets + max(X, P), C) of its
  ///    own terms; where L is that loop or encloses it, the visits of L's
  ///    last iteration cost at least S + max(X, P_last) and the rest
  ///    S + max(A - P_last, C - X). Both are at least
  ///    S + max(A_gets + max(X, P), C), which total() computes.
  /// Hoist levels, caches, SPM orientations and what double buffering
  /// overlaps are the ones opt::plan_dma reports, the plan DMA inference
  /// emits. Each transfer costs Eq. (1)'s
  /// latency plus, per CPE block, whole 128-byte transactions at peak
  /// bandwidth -- ceil(bytes / 128) per contiguous column, or one per
  /// element when the row stride is not 1 -- the fewest transactions any
  /// base alignment can touch, so at most what the walk charges. Any other
  /// loop whose variable a term does not read contributes its trip count
  /// as a factor instead of two visits; every term is then scaled by
  /// 1 - 1e-9 to absorb the different summation order.
  CostBound lower_bound(const ir::StmtPtr& lowered,
                        const opt::OptOptions& o) const;

 private:
  /// The cost of `s` at `env`, its loops priced by their walk weights.
  StaticCost walk(const ir::StmtPtr& s, ir::Env& env) const;

  sim::SimConfig cfg_;
  sim::DmaEngine engine_;
  const GemmCostModel& gm_;
  mutable rt::DmaCostCache dma_cost_cache_;
};

}  // namespace swatop::tune
