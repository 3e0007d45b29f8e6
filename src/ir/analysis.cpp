#include "ir/analysis.hpp"

#include "common/math_util.hpp"
#include "ir/mutator.hpp"

namespace swatop::ir {

std::int64_t spm_footprint(const StmtPtr& s) {
  std::int64_t total = 0;
  visit(s, [&](const StmtPtr& n) {
    if (n->kind == StmtKind::SpmAlloc) {
      const std::int64_t one = align_up(n->buf_floats, 8);
      total += n->double_buffered ? 2 * one : one;
    }
  });
  return total;
}

std::vector<VarId> loop_vars(const StmtPtr& s) {
  std::vector<VarId> vars;
  visit(s, [&](const StmtPtr& n) {
    if (n->kind == StmtKind::For) vars.push_back(n->var);
  });
  return vars;
}

std::vector<Stmt*> find_gemms(const StmtPtr& s) {
  std::vector<Stmt*> out;
  visit(s, [&](const StmtPtr& n) {
    if (n->kind == StmtKind::Gemm) out.push_back(n.get());
  });
  return out;
}

std::vector<Stmt*> find_dmas(const StmtPtr& s) {
  std::vector<Stmt*> out;
  visit(s, [&](const StmtPtr& n) {
    if (n->kind == StmtKind::DmaGet || n->kind == StmtKind::DmaPut)
      out.push_back(n.get());
  });
  return out;
}

namespace {

std::int64_t count_rec(const StmtPtr& s, Env& env) {
  if (s == nullptr) return 0;
  switch (s->kind) {
    case StmtKind::Seq: {
      std::int64_t c = 0;
      for (const StmtPtr& b : s->body) c += count_rec(b, env);
      return c;
    }
    case StmtKind::For: {
      const std::int64_t n = eval(s->extent, env);
      env[s->var] = 0;
      const std::int64_t inner = count_rec(s->for_body, env);
      env.erase(s->var);
      return n * inner;
    }
    case StmtKind::If: {
      // Static approximation: assume the then-branch (boundary ifs guard
      // rare alternates; the optimizer keeps the common case in `then`).
      return count_rec(s->then_s, env);
    }
    case StmtKind::Gemm:
      return 1;
    default:
      return 0;
  }
}

}  // namespace

std::int64_t static_gemm_count(const StmtPtr& s, Env env) {
  return count_rec(s, env);
}

bool contains_kind(const StmtPtr& s, StmtKind k) {
  bool found = false;
  visit(s, [&](const StmtPtr& n) { found = found || n->kind == k; });
  return found;
}

}  // namespace swatop::ir
