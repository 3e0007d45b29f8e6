#include "rt/expr_eval.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace swatop::rt {

namespace ir = swatop::ir;

int ExprEvaluator::slot_of(ir::VarId v) {
  SWATOP_CHECK(v.valid()) << "slot of an unset variable id";
  const auto slot = static_cast<std::size_t>(v.index());
  if (slot >= values_.size()) values_.resize(slot + 1, 0);
  return v.index();
}

int ExprEvaluator::emit(const ir::Expr& e, Code& out) {
  SWATOP_CHECK(e != nullptr) << "compile of null expression";
  switch (e->kind) {
    case ir::ExprKind::Const:
      out.push_back({Op::PushConst, e->value});
      return 1;
    case ir::ExprKind::Var:
      out.push_back({Op::PushVar, slot_of(e->var)});
      return 1;
    case ir::ExprKind::Select: {
      const int da = emit(e->a, out);
      const int db = emit(e->b, out);
      const int dc = emit(e->c, out);
      out.push_back({Op::Select, 0});
      return std::max({da, 1 + db, 2 + dc});
    }
    default:
      break;
  }
  const int da = emit(e->a, out);
  const int db = emit(e->b, out);
  switch (e->kind) {
    case ir::ExprKind::Add: out.push_back({Op::Add, 0}); break;
    case ir::ExprKind::Sub: out.push_back({Op::Sub, 0}); break;
    case ir::ExprKind::Mul: out.push_back({Op::Mul, 0}); break;
    case ir::ExprKind::FloorDiv: out.push_back({Op::Div, 0}); break;
    case ir::ExprKind::Mod: out.push_back({Op::Mod, 0}); break;
    case ir::ExprKind::Min: out.push_back({Op::Min, 0}); break;
    case ir::ExprKind::Max: out.push_back({Op::Max, 0}); break;
    case ir::ExprKind::Lt: out.push_back({Op::Lt, 0}); break;
    case ir::ExprKind::Ge: out.push_back({Op::Ge, 0}); break;
    default:
      SWATOP_UNREACHABLE("bad expr kind in compile");
  }
  return std::max(da, 1 + db);
}

const ExprEvaluator::Entry& ExprEvaluator::compile(const ir::Expr& e) {
  Recent& recent = recent_[(reinterpret_cast<std::uintptr_t>(e.get()) >> 4) %
                           recent_.size()];
  if (recent.node == e.get()) return *recent.entry;
  auto it = cache_.find(e.get());
  if (it == cache_.end()) {
    Entry entry{e, {}};
    const auto depth = static_cast<std::size_t>(emit(e, entry.code));
    if (depth > stack_.size()) stack_.resize(depth);
    it = cache_.emplace(e.get(), std::move(entry)).first;
  }
  recent = {e.get(), &it->second};
  return it->second;
}

std::int64_t ExprEvaluator::eval_compiled(const ir::Expr& e) {
  if (e->kind == ir::ExprKind::Var)
    return values_[static_cast<std::size_t>(slot_of(e->var))];
  const Entry& entry = compile(e);
  // compile() keeps the stack as deep as the deepest code compiled so far,
  // so no push can run past its end.
  std::int64_t* stack = stack_.data();
  int top = -1;
  for (const Step& s : entry.code) {
    switch (s.op) {
      case Op::PushConst:
        stack[++top] = s.payload;
        break;
      case Op::PushVar:
        stack[++top] = values_[static_cast<std::size_t>(s.payload)];
        break;
      case Op::Add:
        --top;
        stack[top] += stack[top + 1];
        break;
      case Op::Sub:
        --top;
        stack[top] -= stack[top + 1];
        break;
      case Op::Mul:
        --top;
        stack[top] *= stack[top + 1];
        break;
      case Op::Div:
        --top;
        SWATOP_CHECK(stack[top + 1] != 0) << "division by zero";
        stack[top] /= stack[top + 1];
        break;
      case Op::Mod:
        --top;
        SWATOP_CHECK(stack[top + 1] != 0) << "mod by zero";
        stack[top] %= stack[top + 1];
        break;
      case Op::Min:
        --top;
        stack[top] = std::min(stack[top], stack[top + 1]);
        break;
      case Op::Max:
        --top;
        stack[top] = std::max(stack[top], stack[top + 1]);
        break;
      case Op::Lt:
        --top;
        stack[top] = stack[top] < stack[top + 1] ? 1 : 0;
        break;
      case Op::Ge:
        --top;
        stack[top] = stack[top] >= stack[top + 1] ? 1 : 0;
        break;
      case Op::Select:
        top -= 2;
        stack[top] = stack[top] != 0 ? stack[top + 1] : stack[top + 2];
        break;
    }
  }
  SWATOP_CHECK(top == 0) << "malformed compiled expression";
  return stack[0];
}

}  // namespace swatop::rt
