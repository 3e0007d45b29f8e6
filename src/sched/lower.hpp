// Shared lowering machinery: operator definitions turn a schedule strategy
// into a loop nest around a single GEMM statement using these helpers
// (Sec. 4.3's loop transformation -- split factors become tiled dims, the
// reorder choice becomes the nest order).
#pragma once

#include <string>
#include <vector>

#include "ir/node.hpp"
#include "opt/boundary.hpp"

namespace swatop::sched {

/// One loop of the nest, outermost first.
struct LoopSpec {
  ir::VarId var;
  ir::Expr extent;
  bool reduction = false;
};

/// Build Seq{ loops[0] { loops[1] { ... { innermost } } } }.
ir::StmtPtr build_nest(const std::vector<LoopSpec>& loops,
                       ir::StmtPtr innermost);

/// Loop order permutations are given as strings over dim letters (e.g.
/// "mnk"); this expands one into a LoopSpec order given per-letter specs.
std::vector<LoopSpec> order_loops(
    const std::string& order,
    const std::vector<std::pair<char, LoopSpec>>& dims);

}  // namespace swatop::sched
