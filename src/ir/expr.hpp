// Integer expression AST used throughout the IR: loop bounds, tensor
// offsets, boundary min() sizes, double-buffer parities.
//
// Expressions are immutable shared trees. Address expressions of DL
// operators are affine in the enclosing loop variables (Sec. 4.5.2), which
// is what makes DMA inference and auto-prefetch address inference decidable;
// min/select appear only through boundary processing.
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <iterator>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace swatop::ir {

enum class ExprKind {
  Const,
  Var,
  Add,
  Sub,
  Mul,
  FloorDiv,
  Mod,
  Min,
  Max,
  Select,  ///< a != 0 ? b : c
  Lt,      ///< a < b (0/1)
  Ge,      ///< a >= b (0/1)
};

struct ExprNode;
using Expr = std::shared_ptr<const ExprNode>;

struct ExprNode {
  ExprKind kind = ExprKind::Const;
  std::int64_t value = 0;  ///< Const payload
  std::string name;        ///< Var payload
  Expr a, b, c;            ///< operands
};

/// Environment binding variable names to values. A loop nest binds only a
/// handful of variables, so this is a flat list searched linearly (newest
/// binding first) instead of a hashed map.
class Env {
 public:
  Env() = default;
  Env(std::initializer_list<std::pair<std::string, std::int64_t>> init) {
    for (const auto& [name, value] : init) (*this)[name] = value;
  }

  /// The value bound to `name`, binding it to 0 first when unbound.
  std::int64_t& operator[](const std::string& name) {
    for (auto it = vars_.rbegin(); it != vars_.rend(); ++it)
      if (it->first == name) return it->second;
    return vars_.emplace_back(name, 0).second;
  }

  /// Unbind `name`; returns the number of bindings removed (0 or 1).
  std::size_t erase(const std::string& name) {
    for (auto it = vars_.rbegin(); it != vars_.rend(); ++it) {
      if (it->first == name) {
        vars_.erase(std::next(it).base());
        return 1;
      }
    }
    return 0;
  }

  /// The bound value, or nullptr when `name` is unbound.
  const std::int64_t* find(const std::string& name) const {
    for (auto it = vars_.rbegin(); it != vars_.rend(); ++it)
      if (it->first == name) return &it->second;
    return nullptr;
  }

 private:
  std::vector<std::pair<std::string, std::int64_t>> vars_;
};

// -- constructors (with local constant folding) -----------------------------
Expr cst(std::int64_t v);
Expr var(std::string name);
Expr add(Expr a, Expr b);
Expr sub(Expr a, Expr b);
Expr mul(Expr a, Expr b);
Expr floordiv(Expr a, Expr b);
Expr mod(Expr a, Expr b);
Expr min2(Expr a, Expr b);
Expr max2(Expr a, Expr b);
Expr select(Expr cond, Expr then_e, Expr else_e);
Expr lt(Expr a, Expr b);
Expr ge(Expr a, Expr b);

// Operator sugar for readable lowering code.
inline Expr operator+(Expr a, Expr b) { return add(std::move(a), std::move(b)); }
inline Expr operator-(Expr a, Expr b) { return sub(std::move(a), std::move(b)); }
inline Expr operator*(Expr a, Expr b) { return mul(std::move(a), std::move(b)); }
inline Expr operator+(Expr a, std::int64_t b) { return add(std::move(a), cst(b)); }
inline Expr operator*(Expr a, std::int64_t b) { return mul(std::move(a), cst(b)); }

// -- queries -----------------------------------------------------------------

/// Evaluate under `env`; throws CheckError on an unbound variable.
std::int64_t eval(const Expr& e, const Env& env);

/// True if the expression mentions `name`.
bool uses_var(const Expr& e, const std::string& name);

/// Replace every occurrence of variable `name` with `repl`.
Expr substitute(const Expr& e, const std::string& name, const Expr& repl);

/// True if `e` is a constant (after folding).
bool is_const(const Expr& e);
std::int64_t as_cst(const Expr& e);

std::string to_string(const Expr& e);

}  // namespace swatop::ir
