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
/// its children): a loop's extent, a guard, a zero-fill range, a DMA's
/// view, tile, offset, reply and epilogue, a wait's slot, a GEMM's dims,
/// views, offsets and epilogue.
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
  switch (n.kind) {
    case StmtKind::Seq:
    case StmtKind::SpmAlloc:
      return;
    case StmtKind::For:
      at(n.as<For>().extent);
      return;
    case StmtKind::If:
      at(n.as<If>().cond);
      return;
    case StmtKind::SpmZero: {
      SpmZero& z = n.as<SpmZero>();
      at(z.off);
      at(z.floats);
      return;
    }
    case StmtKind::DmaGet:
    case StmtKind::DmaPut: {
      DmaAttrs& d = n.as<Dma>().attrs;
      view(d.view);
      at(d.rows_p);
      at(d.cols_p);
      at(d.spm_off);
      at(d.reply);
      epi(d.epi);
      return;
    }
    case StmtKind::DmaWait:
      at(n.as<DmaWait>().reply);
      return;
    case StmtKind::Gemm: {
      GemmAttrs& g = n.as<Gemm>().attrs;
      at(g.M);
      at(g.N);
      at(g.K);
      view(g.a);
      view(g.b);
      view(g.c);
      at(g.a_off);
      at(g.b_off);
      at(g.c_off);
      epi(g.epi);
      return;
    }
  }
}

}  // namespace swatop::ir
