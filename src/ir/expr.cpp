#include "ir/expr.hpp"

#include <algorithm>
#include <array>
#include <deque>
#include <functional>
#include <mutex>
#include <sstream>
#include <unordered_map>

#include "common/check.hpp"

namespace swatop::ir {

namespace {

struct NameHash {
  using is_transparent = void;
  std::size_t operator()(std::string_view s) const {
    return std::hash<std::string_view>{}(s);
  }
};
using NameMap =
    std::unordered_map<std::string, std::int32_t, NameHash, std::equal_to<>>;

/// The process-wide name table: ids by name, names by id (a deque, so a
/// name's address never moves once interned and `name()` can hand out a
/// reference after dropping the lock). Each thread caches the ids it has
/// interned, so lowering takes the lock once per (thread, name).
struct NameTable {
  std::mutex mu;
  NameMap ids;
  std::deque<std::string> names;
};

NameTable& name_table() {
  static NameTable t;
  return t;
}

}  // namespace

VarId::VarId(std::string_view name) {
  SWATOP_CHECK(!name.empty()) << "variable without a name";
  thread_local NameMap seen;
  if (auto it = seen.find(name); it != seen.end()) {
    index_ = it->second;
    return;
  }
  NameTable& t = name_table();
  {
    const std::lock_guard lock(t.mu);
    auto it = t.ids.find(name);
    if (it == t.ids.end()) {
      t.names.emplace_back(name);
      it = t.ids.emplace(t.names.back(),
                         static_cast<std::int32_t>(t.names.size() - 1))
               .first;
    }
    index_ = it->second;
  }
  seen.emplace(std::string(name), index_);
}

const std::string& VarId::name() const {
  SWATOP_CHECK(valid()) << "name of an unset variable id";
  NameTable& t = name_table();
  const std::lock_guard lock(t.mu);
  return t.names[static_cast<std::size_t>(index_)];
}

namespace {

Expr make(ExprKind k, Expr a = nullptr, Expr b = nullptr, Expr c = nullptr) {
  ++detail::nodes_built;
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
  constexpr std::int64_t kLo = -16, kHi = 1024;
  const auto make_const = [v] {
    auto n = std::make_shared<ExprNode>();
    n->kind = ExprKind::Const;
    n->value = v;
    return n;
  };
  if (v < kLo || v > kHi) {
    ++detail::nodes_built;
    return make_const();
  }
  thread_local std::array<Expr, kHi - kLo + 1> table;
  Expr& slot = table[static_cast<std::size_t>(v - kLo)];
  if (slot == nullptr) slot = make_const();
  return slot;
}

Expr var(VarId v) {
  SWATOP_CHECK(v.valid()) << "variable expression without an id";
  ++detail::nodes_built;
  auto n = std::make_shared<ExprNode>();
  n->kind = ExprKind::Var;
  n->var = v;
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
      const std::int64_t* v = env.find(e->var);
      SWATOP_CHECK(v != nullptr)
          << "unbound variable '" << e->var.name() << "'";
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

bool uses_var(const Expr& e, VarId v) {
  if (e == nullptr) return false;
  if (e->kind == ExprKind::Var) return e->var == v;
  return uses_var(e->a, v) || uses_var(e->b, v) || uses_var(e->c, v);
}

namespace {

std::uint64_t var_bits(const Expr& e, std::span<const VarId> vars) {
  if (e == nullptr) return 0;
  if (e->kind == ExprKind::Var) {
    for (std::size_t i = 0; i < vars.size(); ++i)
      if (vars[i] == e->var) return std::uint64_t{1} << i;
    return 0;
  }
  return var_bits(e->a, vars) | var_bits(e->b, vars) | var_bits(e->c, vars);
}

}  // namespace

std::uint64_t uses_vars(const Expr& e, std::span<const VarId> vars) {
  SWATOP_CHECK(vars.size() <= 64)
      << "uses_vars over " << vars.size() << " variables";
  return var_bits(e, vars);
}

namespace {

/// Rebuild `e` with every variable `hit` accepts replaced by `repl`. A node
/// whose operands all come back unchanged is returned as is: nodes are only
/// built by the folding constructors, so it is already in folded form.
template <class Hit>
Expr subst(const Expr& e, const Hit& hit, const Expr& repl) {
  if (e == nullptr) return e;
  switch (e->kind) {
    case ExprKind::Const:
      return e;
    case ExprKind::Var:
      return hit(e->var) ? repl : e;
    default:
      break;
  }
  Expr a = subst(e->a, hit, repl);
  Expr b = subst(e->b, hit, repl);
  Expr c = subst(e->c, hit, repl);
  if (a == e->a && b == e->b && c == e->c) return e;
  switch (e->kind) {
    case ExprKind::Add: return add(std::move(a), std::move(b));
    case ExprKind::Sub: return sub(std::move(a), std::move(b));
    case ExprKind::Mul: return mul(std::move(a), std::move(b));
    case ExprKind::FloorDiv: return floordiv(std::move(a), std::move(b));
    case ExprKind::Mod: return mod(std::move(a), std::move(b));
    case ExprKind::Min: return min2(std::move(a), std::move(b));
    case ExprKind::Max: return max2(std::move(a), std::move(b));
    case ExprKind::Select:
      return select(std::move(a), std::move(b), std::move(c));
    case ExprKind::Lt: return lt(std::move(a), std::move(b));
    case ExprKind::Ge: return ge(std::move(a), std::move(b));
    default:
      SWATOP_UNREACHABLE("bad expr kind in substitute");
  }
}

}  // namespace

Expr substitute(const Expr& e, VarId v, const Expr& repl) {
  return subst(e, [v](VarId x) { return x == v; }, repl);
}

Expr substitute(const Expr& e, std::span<const VarId> vs, const Expr& repl) {
  if (vs.empty()) return e;
  return subst(
      e,
      [vs](VarId x) { return std::find(vs.begin(), vs.end(), x) != vs.end(); },
      repl);
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
      os << e->var.name();
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
