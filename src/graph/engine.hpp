// GraphEngine: run a whole network end-to-end on the simulated SW26010.
//
// The engine tunes every *distinct* (conv geometry, sub-batch) once --
// through the schedule cache, so repeated layers and repeated runs never
// re-enumerate a schedule space -- plans all inter-layer activations into
// one best-fit arena per core group, and then executes the graph in
// topological order with tensors actually flowing layer to layer:
// convolutions run their tuned programs through the interpreter on the
// arena, the elementwise passes (bias / relu / pool / pad / residual add)
// run as priced MPE-side passes.
//
// Every convolution design is an ops::ConvOp (ops/conv_op.hpp). The engine
// resolves a layer's design, builds its operator, and runs the layer
// through that contract alone: the design's parameters (loaded once per
// network), its per-step scratch (planned into the arena), its pre/post
// passes and their price. A new GEMM mapping arrives as one operator, with
// no edit here.
//
// With groups > 1 the batch is split across core groups (batch is the
// innermost dimension of every activation layout, so each group simply
// owns a contiguous sub-batch) and a NoC barrier is charged per
// convolution launch -- the chip-level latency is the per-step maximum
// over groups plus those barriers, which is what an honest data-parallel
// deployment pays.
//
// Callers come through swatop::compile(graph, cfg) (graph/compile.hpp),
// whose CompiledNet handle owns the tuning journal and glues
// report()/report_json() to the run that produced them. A GraphEngine is
// constructed directly only to run many graphs through one schedule cache
// and measurement memo, as the serving layer (src/serve/) does.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/swatop.hpp"
#include "graph/fuse.hpp"
#include "graph/graph.hpp"
#include "graph/memory_plan.hpp"
#include "obs/profile.hpp"
#include "ops/conv_common.hpp"
#include "sim/core_group.hpp"

namespace swatop::graph {

/// Convolution design selection. Auto picks implicit GEMM whenever the
/// layer has enough input channels to feed the K dimension (the paper's
/// preferred method) and falls back to explicit GEMM otherwise (first
/// layers); Winograd is opt-in and silently falls back to Auto on layers
/// it does not apply to (non-3x3, thin channels).
enum class ConvMethod { Auto, Implicit, Explicit, Winograd };

const char* conv_method_name(ConvMethod m);
/// Inverse of conv_method_name ("auto", "implicit", "explicit",
/// "winograd"); nullopt for any other name.
std::optional<ConvMethod> parse_conv_method(const std::string& name);

struct NetOptions {
  int groups = 1;  ///< core groups to data-parallel the batch over (1..4)
  ConvMethod method = ConvMethod::Auto;
  sim::ExecMode mode = sim::ExecMode::Functional;
  /// Validate the engine's outputs against the naive whole-net host
  /// forward pass (Functional mode only).
  bool check = true;
  /// Max relative error (|diff| / max|ref| per output tensor) the check
  /// reports against; the result records the measured error either way.
  double tolerance = 1e-4;
  /// Rewrite Conv -> Bias -> Add -> Relu -> Pad chains into fused conv
  /// nodes (graph/fuse.hpp) before tuning; only layers the implicit-GEMM
  /// design applies to are fused, the rest keep their MPE passes.
  bool fusion = true;
  /// Keep qualifying inter-layer tensors on-chip between adjacent MPE
  /// passes (memory_plan.hpp plan_residency), eliding their DRAM
  /// store/reload from the priced traffic.
  bool residency = true;
};

/// One graph node's share of the network run.
struct LayerReport {
  std::string name;
  std::string kind;  ///< operator name (conv) or node kind (MPE passes)
  bool conv = false;
  bool fused = false;       ///< conv carrying a fused epilogue
  bool from_cache = false;  ///< schedule served from the cache
  ops::ConvShape shape;     ///< conv only; batch = group 0's sub-batch
  double cycles = 0.0;      ///< slowest group's cycles, incl. NoC barrier
  /// Conv only, for group 0's sub-batch: the cost model's estimate of the
  /// tuned program (CompiledOp::predicted_cycles), and its simulated
  /// cycles when the tuner measured it (top-k), else 0. Neither counts the
  /// design's priced passes or the NoC barrier that `cycles` holds.
  double predicted_cycles = 0.0;
  double measured_cycles = 0.0;
  /// Conv only: group 0's tuned strategy (tiles, order, variant...), as
  /// dsl::Strategy::to_string without the epilogue that `fused` marks.
  std::string pick;
  std::int64_t flops = 0;   ///< whole-batch useful flops
  double gflops = 0.0;      ///< chip-level, for this step

  // Attribution inputs for this step (see graph/net_report.hpp): the
  // engine-captured simulator statistics, summed over the groups that ran
  // it, plus the clock quantities the basis needs.
  int groups = 1;            ///< core groups this step ran on
  double sync_cycles = 0.0;  ///< NoC barrier share of `cycles` (chip-level)
  double group_cycles = 0.0; ///< sum over groups of busy (clocked) cycles
  sim::CgStats stats;        ///< summed over groups, this step only
  /// DRAM bytes this step did NOT move thanks to SPM residency (summed
  /// over groups); fused epilogues additionally shrink stats itself.
  std::int64_t dma_bytes_elided = 0;
};

struct NetRunResult {
  // Chip-level end-to-end numbers.
  double cycles = 0.0;       ///< sum over steps of the slowest group
  double sync_cycles = 0.0;  ///< NoC barrier share of `cycles`
  std::int64_t flops = 0;
  double gflops = 0.0;
  double ms_per_batch = 0.0;
  double ms_per_image = 0.0;
  double efficiency = 0.0;  ///< gflops / peak of the groups used
  int groups_used = 1;
  std::int64_t batch = 0;

  // Functional check vs. the naive whole-net reference.
  bool checked = false;
  double max_rel_err = 0.0;

  // Memory plan, summed over groups.
  std::int64_t planned_peak_floats = 0;
  std::int64_t naive_floats = 0;

  // Fusion + residency: what the passes rewrote and what traffic the
  // residency elisions removed (fused epilogues shrink chip_stats itself).
  FusionStats fusion;
  std::int64_t resident_tensors = 0;
  std::int64_t dma_bytes_elided = 0;

  // Tuning.
  std::int64_t shapes_tuned = 0;  ///< distinct (method, shape) tuned
  std::int64_t cache_hits = 0;    ///< of those, served from the cache
  double tune_seconds = 0.0;
  /// Tuner work (tune::TunerStats) summed over the shapes tuned, a cache
  /// hit counting its one rebuild: exact at any thread count, so CI can
  /// gate host work where tune_seconds is too noisy to.
  std::int64_t tune_enumerated = 0;
  /// Strategies the model tuner lowered and bounded (cache hits bound
  /// none); tune_ranked of them were built and priced.
  std::int64_t tune_bounded = 0;
  std::int64_t tune_lowered = 0;
  std::int64_t tune_ranked = 0;
  std::int64_t tune_measured = 0;
  std::int64_t tune_ir_nodes = 0;  ///< IR nodes allocated building programs
  /// Measurement-memo traffic over the whole tuning phase (all zero
  /// unless SwatopConfig::replay.enabled) -- see tune/replay.hpp.
  std::int64_t replay_hits = 0;
  std::int64_t replay_misses = 0;

  sim::CgStats chip_stats;  ///< summed over groups (all fields)
  std::vector<LayerReport> layers;
  /// Network timeline (per-layer spans on the net-cg tracks) + aggregated
  /// counters; enabled iff SwatopConfig::observability is.
  obs::Profile profile;
};

class GraphEngine {
 public:
  /// The schedule cache is forced on (in memory at minimum): layer
  /// deduplication is the engine's contract, not an option.
  explicit GraphEngine(SwatopConfig cfg = {});

  const SwatopConfig& config() const { return cfg_; }

  /// Tune, plan and execute the whole graph at a batch size. Throws
  /// swatop::CheckError on an invalid graph or options.
  NetRunResult run(const Graph& g, std::int64_t batch,
                   const NetOptions& opts = {});

 private:
  SwatopConfig cfg_;
  /// Persistent across run() calls, so one engine's schedule cache and
  /// measurement memo warm every graph it ever runs: the serving path
  /// prices many (net, sub-batch) combinations through one engine and
  /// re-tunes a layer shape only the first time any of them needs it.
  /// Per-run memo numbers in NetRunResult are deltas against this state.
  std::unique_ptr<Optimizer> optimizer_;
  /// Memo totals already attributed to previous run() calls.
  std::int64_t replay_hits_seen_ = 0;
  std::int64_t replay_misses_seen_ = 0;
};

}  // namespace swatop::graph
