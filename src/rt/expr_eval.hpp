// Fast expression evaluation for the runtime's hot loops.
//
// ir::eval walks the shared expression tree and searches its environment
// for every variable -- fine for passes, too slow for the timing
// interpreter that evaluates the same handful of expressions millions of
// times. This evaluator compiles each expression once (on first use,
// cached by node pointer) into a postfix program whose variable operands
// are slots, one per interned variable id, and keeps the values in a flat
// vector.
#pragma once

#include <array>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "ir/expr.hpp"

namespace swatop::rt {

class ExprEvaluator {
 public:
  /// Slot of a variable: its interned id's index.
  int slot_of(ir::VarId v);

  /// Bind a slot's current value.
  void set(int slot, std::int64_t v) {
    values_[static_cast<std::size_t>(slot)] = v;
  }

  /// Evaluate an expression against the current bindings. Constants, the
  /// most common operand, are answered inline.
  std::int64_t eval(const ir::Expr& e) {
    return e->kind == ir::ExprKind::Const ? e->value : eval_compiled(e);
  }

 private:
  std::int64_t eval_compiled(const ir::Expr& e);

  enum class Op : std::uint8_t {
    PushConst,
    PushVar,
    Add,
    Sub,
    Mul,
    Div,
    Mod,
    Min,
    Max,
    Lt,
    Ge,
    Select,  ///< pops else, then, cond
  };
  struct Step {
    Op op;
    std::int64_t payload = 0;  ///< constant or slot id
  };
  using Code = std::vector<Step>;

  /// Emit `e`'s postfix code; returns the stack depth it needs.
  int emit(const ir::Expr& e, Code& out);

  // The cache is keyed by node address; each entry pins the expression so
  // the allocator can never hand the same address to a different tree.
  struct Entry {
    ir::Expr pin;
    Code code;
  };
  /// Compile `e` once, growing `stack_` to the depth its code needs.
  const Entry& compile(const ir::Expr& e);

  std::unordered_map<const ir::ExprNode*, Entry> cache_;
  /// A direct-mapped front to `cache_`, so most evaluations find their
  /// code without hashing. Entries of `cache_` never move or go away.
  struct Recent {
    const ir::ExprNode* node = nullptr;
    const Entry* entry = nullptr;
  };
  std::array<Recent, 256> recent_{};
  std::vector<std::int64_t> values_;
  std::vector<std::int64_t> stack_;  ///< evaluation stack for eval()
};

}  // namespace swatop::rt
