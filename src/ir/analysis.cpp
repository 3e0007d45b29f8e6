#include "ir/analysis.hpp"

#include "common/math_util.hpp"
#include "ir/mutator.hpp"

namespace swatop::ir {

std::int64_t spm_footprint(const StmtPtr& s) {
  std::int64_t total = 0;
  visit(s, [&](const StmtPtr& n) {
    if (!n->is<SpmAlloc>()) return;
    const SpmAlloc& a = n->as<SpmAlloc>();
    const std::int64_t one = align_up(a.buf_floats, 8);
    total += a.double_buffered ? 2 * one : one;
  });
  return total;
}

std::vector<VarId> loop_vars(const StmtPtr& s) {
  std::vector<VarId> vars;
  visit(s, [&](const StmtPtr& n) {
    if (n->is<For>()) vars.push_back(n->as<For>().var);
  });
  return vars;
}

std::vector<Gemm*> find_gemms(const StmtPtr& s) {
  std::vector<Gemm*> out;
  visit(s, [&](const StmtPtr& n) {
    if (n->is<Gemm>()) out.push_back(&n->as<Gemm>());
  });
  return out;
}

std::vector<Dma*> find_dmas(const StmtPtr& s) {
  std::vector<Dma*> out;
  visit(s, [&](const StmtPtr& n) {
    if (n->is<Dma>()) out.push_back(&n->as<Dma>());
  });
  return out;
}

namespace {

std::int64_t count_rec(const StmtPtr& s, Env& env) {
  if (s == nullptr) return 0;
  switch (s->kind) {
    case StmtKind::Seq: {
      std::int64_t c = 0;
      for (const StmtPtr& b : s->as<Seq>().body) c += count_rec(b, env);
      return c;
    }
    case StmtKind::For: {
      const For& f = s->as<For>();
      const std::int64_t n = eval(f.extent, env);
      env[f.var] = 0;
      const std::int64_t inner = count_rec(f.body, env);
      env.erase(f.var);
      return n * inner;
    }
    case StmtKind::If: {
      // Static approximation: assume the then-branch (boundary ifs guard
      // rare alternates; the optimizer keeps the common case in `then`).
      return count_rec(s->as<If>().then_s, env);
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
