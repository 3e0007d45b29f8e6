// The embedded DSL of Sec. 4.2: an operator is described by a *schedule
// seed* (its computation, lowered by the op definition into IR) plus a
// *schedule space* built from factor variables (split factors the scheduler
// traverses automatically) and choice variables (explicit candidates: loop
// orders, layouts, vectorization dimensions, boundary strategies). Every
// assignment of the variables is a *schedule strategy*; lowering a strategy
// yields one IR candidate.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "dsl/epilogue.hpp"
#include "ir/node.hpp"
#include "sim/core_group.hpp"

namespace swatop::dsl {

/// A split-factor variable: swATOP traverses all candidates automatically
/// (paper Fig. 4's FactorVar).
struct FactorVar {
  std::string name;
  std::vector<std::int64_t> candidates;
};

/// An enumerated choice: reorderings require explicit candidates (there are
/// too many permutations to traverse blindly); layouts, vectorization
/// dimensions and boundary strategies use the same mechanism.
struct ChoiceVar {
  std::string name;
  std::vector<std::string> options;
};

/// One point of the schedule space: an assignment of every variable.
class Strategy {
 public:
  void set_factor(const std::string& name, std::int64_t v) {
    factors_[name] = v;
  }
  void set_choice(const std::string& name, std::string v) {
    choices_[name] = std::move(v);
  }

  std::int64_t factor(const std::string& name) const;
  const std::string& choice(const std::string& name) const;
  bool has_choice(const std::string& name) const {
    return choices_.count(name) > 0;
  }
  bool has_factor(const std::string& name) const {
    return factors_.count(name) > 0;
  }

  /// The elementwise tail fused into the store path (default: none). Set by
  /// ScheduleSpace::enumerate on every strategy of a fused operator so the
  /// epilogue participates in the cache key and the serialize round-trip.
  void set_epilogue(const EpilogueSpec& e) { epilogue_ = e; }
  const EpilogueSpec& epilogue() const { return epilogue_; }

  std::string to_string() const;

  /// Round-trippable text form for the schedule cache: sorted
  /// `f:<name>=<int>` / `c:<name>=<option>` tokens separated by single
  /// spaces (variable names and options never contain whitespace, ':' or
  /// '='), followed by `e:<field>=<int>` tokens for any non-default
  /// epilogue field (bias/res/relu/pad). Unlike to_string(), the kind tag
  /// makes factors and choices unambiguous -- a choice option may itself
  /// look numeric ("variant=0").
  std::string serialize() const;

  /// Inverse of serialize(). Returns nullopt on malformed input (unknown
  /// kind tag, missing '=', non-integer factor value) so corrupted cache
  /// entries can be skipped instead of aborting.
  static std::optional<Strategy> parse(const std::string& text);

  friend bool operator==(const Strategy& a, const Strategy& b) {
    return a.factors_ == b.factors_ && a.choices_ == b.choices_ &&
           a.epilogue_ == b.epilogue_;
  }
  friend bool operator!=(const Strategy& a, const Strategy& b) {
    return !(a == b);
  }

 private:
  std::unordered_map<std::string, std::int64_t> factors_;
  std::unordered_map<std::string, std::string> choices_;
  EpilogueSpec epilogue_;
};

class ScheduleSpace {
 public:
  void add(FactorVar f);
  void add(ChoiceVar c);

  /// Stamp every enumerated strategy with a fused epilogue (fused operators
  /// call this from space() so the epilogue is part of each candidate).
  void set_epilogue(const EpilogueSpec& e) { epilogue_ = e; }
  const EpilogueSpec& epilogue() const { return epilogue_; }

  const std::vector<FactorVar>& factors() const { return factors_; }
  const std::vector<ChoiceVar>& choices() const { return choices_; }

  /// Number of raw assignments (before validity pruning).
  std::int64_t size() const;

  /// The assignment at position `index` (0 <= index < size()) of the
  /// enumeration order: factors in declaration order, then choices, the
  /// last-declared variable varying fastest. Built directly from the index,
  /// so a sweep can visit the space without materializing it.
  Strategy at(std::int64_t index) const;

  /// Enumerate all assignments in index order; `valid`, when given, prunes.
  std::vector<Strategy> enumerate(
      const std::function<bool(const Strategy&)>& valid = nullptr) const;

 private:
  std::vector<FactorVar> factors_;
  std::vector<ChoiceVar> choices_;
  EpilogueSpec epilogue_;
};

/// Strategy::to_string() of a space's strategies by index, without building
/// them: names(i) == space.at(i).to_string(), at a few string appends each
/// (the model tuner's journal names every strategy of a space).
class StrategyNames {
 public:
  explicit StrategyNames(const ScheduleSpace& space);

  std::string operator()(std::int64_t index) const;

 private:
  /// One variable in to_string()'s order: "name=value " per option (as
  /// many as the digit's radix), and the index stride of its digit.
  struct Var {
    std::vector<std::string> tokens;
    std::int64_t stride = 1;
  };
  std::vector<Var> vars_;
  std::string tail_;  ///< "epi=<tag> " of a fused space
};

/// A main-memory tensor the operator reads or writes.
struct TensorSpec {
  std::string name;
  std::int64_t floats = 0;
  bool is_output = false;
};

/// Tensor name -> arena address, established by the runtime.
using BoundTensors = std::unordered_map<std::string, sim::MainMemory::Addr>;

/// The interface every operator definition implements: its schedule space,
/// the lowering of a strategy into IR, and functional hooks for end-to-end
/// validation.
class OperatorDef {
 public:
  virtual ~OperatorDef() = default;

  virtual std::string name() const = 0;
  virtual ScheduleSpace space() const = 0;

  /// Lower one strategy to pre-optimization IR (no DMA nodes yet; GEMM
  /// nodes carry memory views). Returns nullptr when the assignment is
  /// structurally invalid (the scheduler skips it).
  virtual ir::StmtPtr lower(const Strategy& s) const = 0;

  virtual std::vector<TensorSpec> tensors() const = 0;

  /// Useful floating point work (2*M*N*K-style), for GFLOPS reporting.
  virtual std::int64_t flops() const = 0;

  /// Whether the double-buffering pass should run for this strategy
  /// (the "prefetch" choice when present; on by default).
  virtual bool prefetch_enabled(const Strategy& s) const;

  /// Fill input tensors with deterministic pseudo-random data, honouring
  /// the strategy's layout choices.
  virtual void fill_inputs(sim::CoreGroup& cg, const BoundTensors& bt,
                           const Strategy& s) const;

  /// Max |computed - reference| over the outputs; used by tests.
  virtual double check_output(sim::CoreGroup& cg, const BoundTensors& bt,
                              const Strategy& s) const;
};

}  // namespace swatop::dsl
