#include "ir/expr.hpp"

#include <algorithm>
#include <sstream>

#include "common/check.hpp"

namespace swatop::ir {

namespace {

Expr make(ExprKind k, Expr a = nullptr, Expr b = nullptr, Expr c = nullptr) {
  auto n = std::make_shared<ExprNode>();
  n->kind = k;
  n->a = std::move(a);
  n->b = std::move(b);
  n->c = std::move(c);
  return n;
}

bool both_const(const Expr& a, const Expr& b) {
  return a->kind == ExprKind::Const && b->kind == ExprKind::Const;
}

}  // namespace

Expr cst(std::int64_t v) {
  auto n = std::make_shared<ExprNode>();
  n->kind = ExprKind::Const;
  n->value = v;
  return n;
}

Expr var(std::string name) {
  auto n = std::make_shared<ExprNode>();
  n->kind = ExprKind::Var;
  n->name = std::move(name);
  return n;
}

Expr add(Expr a, Expr b) {
  if (both_const(a, b)) return cst(a->value + b->value);
  if (a->kind == ExprKind::Const && a->value == 0) return b;
  if (b->kind == ExprKind::Const && b->value == 0) return a;
  return make(ExprKind::Add, std::move(a), std::move(b));
}

Expr sub(Expr a, Expr b) {
  if (both_const(a, b)) return cst(a->value - b->value);
  if (b->kind == ExprKind::Const && b->value == 0) return a;
  return make(ExprKind::Sub, std::move(a), std::move(b));
}

Expr mul(Expr a, Expr b) {
  if (both_const(a, b)) return cst(a->value * b->value);
  if (a->kind == ExprKind::Const && a->value == 1) return b;
  if (b->kind == ExprKind::Const && b->value == 1) return a;
  if ((a->kind == ExprKind::Const && a->value == 0) ||
      (b->kind == ExprKind::Const && b->value == 0))
    return cst(0);
  return make(ExprKind::Mul, std::move(a), std::move(b));
}

Expr floordiv(Expr a, Expr b) {
  if (both_const(a, b)) {
    SWATOP_CHECK(b->value != 0) << "division by zero in expression";
    return cst(a->value / b->value);
  }
  if (b->kind == ExprKind::Const && b->value == 1) return a;
  return make(ExprKind::FloorDiv, std::move(a), std::move(b));
}

Expr mod(Expr a, Expr b) {
  if (both_const(a, b)) {
    SWATOP_CHECK(b->value != 0) << "mod by zero in expression";
    return cst(a->value % b->value);
  }
  return make(ExprKind::Mod, std::move(a), std::move(b));
}

Expr min2(Expr a, Expr b) {
  if (both_const(a, b)) return cst(std::min(a->value, b->value));
  return make(ExprKind::Min, std::move(a), std::move(b));
}

Expr max2(Expr a, Expr b) {
  if (both_const(a, b)) return cst(std::max(a->value, b->value));
  return make(ExprKind::Max, std::move(a), std::move(b));
}

Expr select(Expr cond, Expr then_e, Expr else_e) {
  if (cond->kind == ExprKind::Const)
    return cond->value != 0 ? then_e : else_e;
  return make(ExprKind::Select, std::move(cond), std::move(then_e),
              std::move(else_e));
}

Expr lt(Expr a, Expr b) {
  if (both_const(a, b)) return cst(a->value < b->value ? 1 : 0);
  return make(ExprKind::Lt, std::move(a), std::move(b));
}

Expr ge(Expr a, Expr b) {
  if (both_const(a, b)) return cst(a->value >= b->value ? 1 : 0);
  return make(ExprKind::Ge, std::move(a), std::move(b));
}

std::int64_t eval(const Expr& e, const Env& env) {
  SWATOP_CHECK(e != nullptr) << "eval of null expression";
  switch (e->kind) {
    case ExprKind::Const:
      return e->value;
    case ExprKind::Var: {
      const std::int64_t* v = env.find(e->name);
      SWATOP_CHECK(v != nullptr) << "unbound variable '" << e->name << "'";
      return *v;
    }
    case ExprKind::Add:
      return eval(e->a, env) + eval(e->b, env);
    case ExprKind::Sub:
      return eval(e->a, env) - eval(e->b, env);
    case ExprKind::Mul:
      return eval(e->a, env) * eval(e->b, env);
    case ExprKind::FloorDiv: {
      const std::int64_t d = eval(e->b, env);
      SWATOP_CHECK(d != 0) << "division by zero";
      return eval(e->a, env) / d;
    }
    case ExprKind::Mod: {
      const std::int64_t d = eval(e->b, env);
      SWATOP_CHECK(d != 0) << "mod by zero";
      return eval(e->a, env) % d;
    }
    case ExprKind::Min:
      return std::min(eval(e->a, env), eval(e->b, env));
    case ExprKind::Max:
      return std::max(eval(e->a, env), eval(e->b, env));
    case ExprKind::Select:
      return eval(e->a, env) != 0 ? eval(e->b, env) : eval(e->c, env);
    case ExprKind::Lt:
      return eval(e->a, env) < eval(e->b, env) ? 1 : 0;
    case ExprKind::Ge:
      return eval(e->a, env) >= eval(e->b, env) ? 1 : 0;
  }
  SWATOP_UNREACHABLE("bad expr kind");
}

bool uses_var(const Expr& e, const std::string& name) {
  if (e == nullptr) return false;
  if (e->kind == ExprKind::Var) return e->name == name;
  return uses_var(e->a, name) || uses_var(e->b, name) || uses_var(e->c, name);
}

Expr substitute(const Expr& e, const std::string& name, const Expr& repl) {
  if (e == nullptr) return e;
  switch (e->kind) {
    case ExprKind::Const:
      return e;
    case ExprKind::Var:
      return e->name == name ? repl : e;
    default:
      break;
  }
  const Expr a = substitute(e->a, name, repl);
  const Expr b = substitute(e->b, name, repl);
  const Expr c = substitute(e->c, name, repl);
  switch (e->kind) {
    case ExprKind::Add: return add(a, b);
    case ExprKind::Sub: return sub(a, b);
    case ExprKind::Mul: return mul(a, b);
    case ExprKind::FloorDiv: return floordiv(a, b);
    case ExprKind::Mod: return mod(a, b);
    case ExprKind::Min: return min2(a, b);
    case ExprKind::Max: return max2(a, b);
    case ExprKind::Select: return select(a, b, c);
    case ExprKind::Lt: return lt(a, b);
    case ExprKind::Ge: return ge(a, b);
    default:
      SWATOP_UNREACHABLE("bad expr kind in substitute");
  }
}

bool is_const(const Expr& e) { return e != nullptr && e->kind == ExprKind::Const; }

std::int64_t as_cst(const Expr& e) {
  SWATOP_CHECK(is_const(e)) << "expression is not constant: " << to_string(e);
  return e->value;
}

namespace {
const char* op_text(ExprKind k) {
  switch (k) {
    case ExprKind::Add: return " + ";
    case ExprKind::Sub: return " - ";
    case ExprKind::Mul: return "*";
    case ExprKind::FloorDiv: return "/";
    case ExprKind::Mod: return "%";
    case ExprKind::Lt: return " < ";
    case ExprKind::Ge: return " >= ";
    default: return "?";
  }
}
}  // namespace

std::string to_string(const Expr& e) {
  if (e == nullptr) return "<null>";
  std::ostringstream os;
  switch (e->kind) {
    case ExprKind::Const:
      os << e->value;
      break;
    case ExprKind::Var:
      os << e->name;
      break;
    case ExprKind::Min:
      os << "min(" << to_string(e->a) << ", " << to_string(e->b) << ")";
      break;
    case ExprKind::Max:
      os << "max(" << to_string(e->a) << ", " << to_string(e->b) << ")";
      break;
    case ExprKind::Select:
      os << "(" << to_string(e->a) << " ? " << to_string(e->b) << " : "
         << to_string(e->c) << ")";
      break;
    default:
      os << "(" << to_string(e->a) << op_text(e->kind) << to_string(e->b)
         << ")";
      break;
  }
  return os.str();
}

}  // namespace swatop::ir
