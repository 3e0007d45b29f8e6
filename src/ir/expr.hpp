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
#include <span>
#include <string>
#include <string_view>
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

/// An interned variable. Every distinct name gets one id from a
/// thread-safe, process-wide table the first time it is seen; expression
/// nodes, loops and environments carry and compare the id, and the name is
/// looked up only for output (the printer, the C emitter, replay keys,
/// error messages).
/// Ids follow first-use order, which varies with thread timing, so no
/// output may depend on an id's value.
class VarId {
 public:
  VarId() = default;
  /// Intern a non-empty name. Implicit so that lowering code and tests can
  /// name variables with literals; hot paths hold the id instead.
  VarId(std::string_view name);
  VarId(const char* name) : VarId(std::string_view(name)) {}
  VarId(const std::string& name) : VarId(std::string_view(name)) {}

  bool valid() const { return index_ >= 0; }
  /// Dense index (0, 1, ... in first-use order), usable as a slot.
  std::int32_t index() const { return index_; }
  const std::string& name() const;

  bool operator==(const VarId&) const = default;

 private:
  std::int32_t index_ = -1;
};

struct ExprNode;
using Expr = std::shared_ptr<const ExprNode>;

struct ExprNode {
  ExprKind kind = ExprKind::Const;
  std::int64_t value = 0;  ///< Const payload
  VarId var;               ///< Var payload
  Expr a, b, c;            ///< operands
};

/// Environment binding variables to values. A loop nest binds only a
/// handful of variables, so this is a flat list searched linearly (newest
/// binding first) instead of a hashed map.
class Env {
 public:
  Env() = default;
  Env(std::initializer_list<std::pair<VarId, std::int64_t>> init) {
    for (const auto& [v, value] : init) (*this)[v] = value;
  }

  /// The value bound to `v`, binding it to 0 first when unbound.
  std::int64_t& operator[](VarId v) {
    for (auto it = vars_.rbegin(); it != vars_.rend(); ++it)
      if (it->first == v) return it->second;
    return vars_.emplace_back(v, 0).second;
  }

  /// Unbind `v`; returns the number of bindings removed (0 or 1).
  std::size_t erase(VarId v) {
    for (auto it = vars_.rbegin(); it != vars_.rend(); ++it) {
      if (it->first == v) {
        vars_.erase(std::next(it).base());
        return 1;
      }
    }
    return 0;
  }

  /// The bound value, or nullptr when `v` is unbound.
  const std::int64_t* find(VarId v) const {
    for (auto it = vars_.rbegin(); it != vars_.rend(); ++it)
      if (it->first == v) return &it->second;
    return nullptr;
  }

 private:
  std::vector<std::pair<VarId, std::int64_t>> vars_;
};

namespace detail {
inline thread_local std::int64_t nodes_built = 0;
}  // namespace detail

/// IR nodes (expressions and statements, deep copies included) built on
/// the calling thread so far: the tuner's work counter. Small constants
/// come from a per-thread table and do not count, so the count of a piece
/// of work does not depend on which thread did it.
inline std::int64_t nodes_built() { return detail::nodes_built; }

// -- constructors (with local constant folding) -----------------------------
/// Small constants are shared nodes from a per-thread table (never a
/// process-wide one: shared nodes would put every tuner thread's
/// reference-count traffic on the same cache lines).
Expr cst(std::int64_t v);
Expr var(VarId v);
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

/// True if the expression mentions `v`.
bool uses_var(const Expr& e, VarId v);

/// The variables of `vars` the expression mentions, in one visit: bit i is
/// set when it mentions vars[i] (at most 64 variables).
std::uint64_t uses_vars(const Expr& e, std::span<const VarId> vars);

/// Replace every occurrence of variable `v` with `repl`. Subtrees that do
/// not mention `v` are returned as they are, not copied.
Expr substitute(const Expr& e, VarId v, const Expr& repl);

/// Replace every occurrence of any of `vs` with `repl`, in one visit.
Expr substitute(const Expr& e, std::span<const VarId> vs, const Expr& repl);

/// True if `e` is a constant (after folding).
bool is_const(const Expr& e);
std::int64_t as_cst(const Expr& e);

std::string to_string(const Expr& e);

}  // namespace swatop::ir
