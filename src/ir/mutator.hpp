// Traversal and mutation utilities over the statement IR.
#pragma once

#include <functional>

#include "ir/node.hpp"

namespace swatop::ir {

/// Pre-order visit of every statement node.
void visit(const StmtPtr& s, const std::function<void(const StmtPtr&)>& fn);

/// Post-order rewrite: children are transformed first, then `fn` is applied
/// to the (possibly updated) node. Returning a different StmtPtr replaces
/// the node; returning the argument keeps it. `fn` may return nullptr to
/// delete the node (only valid inside a Seq). Seq bodies are compacted in
/// place.
StmtPtr transform(StmtPtr s, const std::function<StmtPtr(StmtPtr)>& fn);

/// Apply `fn(Expr&)` to every non-null expression field of one node (not
/// its children): loop extent, guard, zero-fill range, DMA view, tile,
/// offset and reply, wait slot, GEMM dims, views, offsets and epilogues.
template <class Fn>
void for_each_expr(Stmt& n, Fn&& fn) {
  auto at = [&](Expr& e) {
    if (e != nullptr) fn(e);
  };
  auto view = [&](ViewAttrs& v) {
    at(v.base);
    at(v.rows);
    at(v.cols);
  };
  auto epi = [&](EpilogueAttrs& e) {
    at(e.channel0);
    view(e.res);
  };
  at(n.extent);
  at(n.cond);
  at(n.zero_off);
  at(n.zero_floats);
  view(n.dma.view);
  at(n.dma.rows_p);
  at(n.dma.cols_p);
  at(n.dma.spm_off);
  at(n.dma.reply);
  epi(n.dma.epi);
  at(n.wait_reply);
  at(n.gemm.M);
  at(n.gemm.N);
  at(n.gemm.K);
  view(n.gemm.a);
  view(n.gemm.b);
  view(n.gemm.c);
  at(n.gemm.a_off);
  at(n.gemm.b_off);
  at(n.gemm.c_off);
  epi(n.gemm.epi);
}

}  // namespace swatop::ir
