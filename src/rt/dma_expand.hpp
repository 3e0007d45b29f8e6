// Expansion of an IR DMA node into per-CPE descriptors (the DMA_CG ->
// DMA_CPE derivation of Sec. 4.5.1), shared by the runtime (pricing +
// functional copy) and the static cost model (pricing only).
#pragma once

#include <array>
#include <unordered_map>
#include <vector>

#include "ir/node.hpp"
#include "rt/expr_eval.hpp"
#include "sim/core_group.hpp"

namespace swatop::rt {

/// The evaluated geometry of one DMA node under a loop environment.
struct DmaGeometry {
  sim::MainMemory::Addr base = 0;  ///< tensor address + evaluated view base
  std::int64_t rows = 0, cols = 0;      ///< valid region
  std::int64_t rows_p = 0, cols_p = 0;  ///< tile grid
  std::int64_t tr = 0, tc = 0;          ///< per-CPE tile dims
};

/// Evaluate the node's expressions; checks validity (region within grid,
/// grid divisible by the mesh).
DmaGeometry evaluate_dma(const ir::DmaAttrs& d, const ir::Env& env,
                         sim::MainMemory::Addr tensor_base,
                         const sim::SimConfig& cfg);

/// Same, using the runtime's compiled-expression evaluator.
DmaGeometry evaluate_dma(const ir::DmaAttrs& d, ExprEvaluator& ev,
                         sim::MainMemory::Addr tensor_base,
                         const sim::SimConfig& cfg);

/// Per-CPE block indices for mesh position (rid, cid).
void block_of(const ir::DmaAttrs& d, int rid, int cid, std::int64_t* br,
              std::int64_t* bc);

/// Build the per-CPE descriptor list used for pricing.
std::vector<sim::DmaCpeDesc> expand_dma(const ir::DmaAttrs& d,
                                        const DmaGeometry& g,
                                        std::int64_t spm_at,
                                        const sim::SimConfig& cfg);

/// Memoized DMA pricing: the cost of a transfer only depends on its
/// geometry and the base address's alignment within a DRAM transaction, so
/// hot loops (the timing interpreter, the static cost model) reuse it.
class DmaCostCache {
 public:
  const sim::DmaCost& get(const ir::DmaAttrs& d, const DmaGeometry& g,
                          const sim::DmaEngine& engine,
                          const sim::SimConfig& cfg);

 private:
  struct KeyHash {
    std::size_t operator()(const std::array<std::int64_t, 9>& k) const {
      std::uint64_t h = 1469598103934665603ull;  // FNV-1a
      for (std::int64_t v : k) {
        h ^= static_cast<std::uint64_t>(v);
        h *= 1099511628211ull;
      }
      return static_cast<std::size_t>(h);
    }
  };
  std::unordered_map<std::array<std::int64_t, 9>, sim::DmaCost, KeyHash>
      memo_;
};

}  // namespace swatop::rt
