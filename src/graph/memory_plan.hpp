// Static memory planner for graph execution: computes every inter-layer
// tensor's lifetime over the topological schedule and packs them into one
// shared main-memory arena with best-fit free-block reuse -- the inter-layer
// memory optimization swCaffe-class runtimes do above per-operator codegen.
// The report compares the planned peak against the naive no-reuse sum (what
// binding every tensor separately would allocate).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "graph/graph.hpp"

namespace swatop::graph {

/// A per-step scratch tensor a node needs while executing (im2col column
/// matrices, Winograd transform buffers): live only during its step.
struct Transient {
  std::string name;
  std::int64_t floats = 0;
  int step = 0;  ///< position in the graph's topo order
};

struct PlanEntry {
  std::int64_t offset = 0;  ///< floats from the arena base
  std::int64_t floats = 0;  ///< unaligned logical size
  int first = 0;            ///< step producing the tensor (-1: graph input)
  int last = 0;             ///< last consuming step (num_steps: graph output)
};

struct MemoryPlan {
  /// Arena placement per tensor (graph tensors + transients).
  std::unordered_map<std::string, PlanEntry> entries;
  /// Arena floats needed (the high-water mark of the packing).
  std::int64_t peak_floats = 0;
  /// No-reuse sum: every planned tensor allocated separately.
  std::int64_t naive_floats = 0;
  /// Block alignment in floats (one DRAM transaction).
  std::int64_t alignment = 32;

  double reuse_ratio() const {
    return naive_floats > 0
               ? static_cast<double>(peak_floats) /
                     static_cast<double>(naive_floats)
               : 1.0;
  }
};

/// Plan the graph's tensors (inputs, every node output, the given
/// transients) at a batch size. Graph inputs are live from before the first
/// step; tensors nothing consumes (network outputs) stay live to the end.
/// Throws swatop::CheckError when the graph is invalid.
MemoryPlan plan_memory(const Graph& g, std::int64_t batch,
                       const std::vector<Transient>& transients = {});

/// Inter-layer SPM residency: tensors that stay on-chip between the step
/// that produces them and the *immediately following* step that consumes
/// them, so their DRAM store (by the producer) and reload (by the
/// consumer) are elided from the priced traffic. Two edge classes qualify,
/// both requiring a single consumer and not a network output:
///
///  - MPE pass -> MPE pass: the passes stream tiles in lockstep, so any
///    size qualifies (tiles hand over on-chip, never the whole tensor).
///  - Edges touching a convolution: a tuned conv kernel addresses its
///    operands tile-by-tile in arbitrary order, so the *whole* tensor must
///    be pinned, distributed across the mesh's 64 SPMs, for the duration
///    of both steps. Such an edge qualifies only when the tensor's
///    per-group footprint fits `conv_budget_floats` (the engine passes
///    the core group's aggregate SPM outside the kernels' share,
///    sim::SimConfig::kernel_spm_floats) and every conv endpoint passes
///    `conv_ok` (the engine admits only implicit-GEMM layers, whose
///    get/put paths the elision models).
struct ResidencyPlan {
  std::unordered_set<std::string> resident;
  /// Per-batch-element floats of all resident tensors (reporting).
  std::int64_t resident_floats_per_image = 0;
};

struct ResidencyOptions {
  /// Aggregate-SPM floats (per core group) a conv-adjacent tensor may
  /// occupy; 0 disables conv-edge pinning (MPE->MPE streaming only).
  std::int64_t conv_budget_floats = 0;
  /// Per-group sub-batch the footprints are evaluated at.
  std::int64_t batch = 1;
  /// Extra gate on conv endpoints (null: every conv qualifies).
  std::function<bool(const Node&)> conv_ok;
};

ResidencyPlan plan_residency(const Graph& g, const ResidencyOptions& o = {});

}  // namespace swatop::graph
