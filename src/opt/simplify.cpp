#include "opt/simplify.hpp"

#include <vector>

#include "common/check.hpp"
#include "ir/mutator.hpp"

namespace swatop::opt {

namespace ir = swatop::ir;

namespace {

bool is_unit_loop(const ir::Stmt& s) {
  return s.kind == ir::StmtKind::For && ir::is_const(s.extent) &&
         ir::as_cst(s.extent) == 1;
}

/// One post-order pass. `zeroed` holds the ids of the unit loops enclosing
/// `s`; they are substituted by 0 in every expression of the subtree in
/// the same visit. Each unit loop is replaced by its body, and Seq children
/// are spliced into their parent Seq, so later passes (double buffering
/// scans for DMA gets as *direct* loop-body children) see flat statement
/// lists. Whether a loop is a unit loop is decided on its own extent before
/// the enclosing substitutions: a loop whose extent only folds to 1 once
/// an outer unit loop's id is zeroed stays a loop.
ir::StmtPtr rewrite(ir::StmtPtr s, std::vector<ir::VarId>& zeroed,
                    const ir::Expr& zero) {
  if (s == nullptr) return nullptr;
  const bool unit = is_unit_loop(*s);
  if (!zeroed.empty() && !unit) {
    ir::for_each_expr(
        *s, [&](ir::Expr& e) { e = ir::substitute(e, zeroed, zero); });
  }
  if (s->kind == ir::StmtKind::Seq) {
    std::size_t kept = 0;
    bool nested = false;
    for (std::size_t i = 0; i < s->body.size(); ++i) {
      ir::StmtPtr t = rewrite(std::move(s->body[i]), zeroed, zero);
      if (t == nullptr) continue;
      nested = nested || t->kind == ir::StmtKind::Seq;
      s->body[kept++] = std::move(t);
    }
    s->body.resize(kept);
    if (nested) {
      std::vector<ir::StmtPtr> flat;
      for (ir::StmtPtr& c : s->body) {
        if (c->kind == ir::StmtKind::Seq)
          flat.insert(flat.end(), c->body.begin(), c->body.end());
        else
          flat.push_back(std::move(c));
      }
      s->body = std::move(flat);
    }
    return s;
  }
  if (unit) zeroed.push_back(s->var);
  if (s->for_body != nullptr) {
    s->for_body = rewrite(std::move(s->for_body), zeroed, zero);
    SWATOP_CHECK(s->for_body != nullptr) << "cannot delete the body of a For";
  }
  if (unit) {
    zeroed.pop_back();
    return std::move(s->for_body);
  }
  s->then_s = rewrite(std::move(s->then_s), zeroed, zero);
  s->else_s = rewrite(std::move(s->else_s), zeroed, zero);
  return s;
}

}  // namespace

void eliminate_unit_loops(ir::StmtPtr& root) {
  std::vector<ir::VarId> zeroed;
  root = rewrite(std::move(root), zeroed, ir::cst(0));
}

}  // namespace swatop::opt
