#include "opt/simplify.hpp"

#include <vector>

#include "common/check.hpp"
#include "ir/mutator.hpp"

namespace swatop::opt {

namespace ir = swatop::ir;

namespace {

bool is_unit_loop(const ir::Stmt& s) {
  if (!s.is<ir::For>()) return false;
  const ir::Expr& n = s.as<ir::For>().extent;
  return ir::is_const(n) && ir::as_cst(n) == 1;
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
  switch (s->kind) {
    case ir::StmtKind::Seq: {
      std::vector<ir::StmtPtr>& body = s->as<ir::Seq>().body;
      std::size_t kept = 0;
      bool nested = false;
      for (std::size_t i = 0; i < body.size(); ++i) {
        ir::StmtPtr t = rewrite(std::move(body[i]), zeroed, zero);
        if (t == nullptr) continue;
        nested = nested || t->is<ir::Seq>();
        body[kept++] = std::move(t);
      }
      body.resize(kept);
      if (nested) {
        std::vector<ir::StmtPtr> flat;
        for (ir::StmtPtr& c : body) {
          if (c->is<ir::Seq>()) {
            const std::vector<ir::StmtPtr>& inner = c->as<ir::Seq>().body;
            flat.insert(flat.end(), inner.begin(), inner.end());
          } else {
            flat.push_back(std::move(c));
          }
        }
        body = std::move(flat);
      }
      return s;
    }
    case ir::StmtKind::For: {
      ir::For& f = s->as<ir::For>();
      if (unit) zeroed.push_back(f.var);
      if (f.body != nullptr) {
        f.body = rewrite(std::move(f.body), zeroed, zero);
        SWATOP_CHECK(f.body != nullptr) << "cannot delete the body of a For";
      }
      if (!unit) return s;
      zeroed.pop_back();
      return std::move(f.body);
    }
    case ir::StmtKind::If: {
      ir::If& i = s->as<ir::If>();
      i.then_s = rewrite(std::move(i.then_s), zeroed, zero);
      i.else_s = rewrite(std::move(i.else_s), zeroed, zero);
      return s;
    }
    default:
      return s;
  }
}

}  // namespace

void eliminate_unit_loops(ir::StmtPtr& root) {
  std::vector<ir::VarId> zeroed;
  root = rewrite(std::move(root), zeroed, ir::cst(0));
}

}  // namespace swatop::opt
