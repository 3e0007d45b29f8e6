// Schedule fuzzer: draws seeded-random GEMM / convolution shapes,
// enumerates every candidate strategy the scheduler produces, checks the
// cost model's lower bound against each one's estimate, runs a strided
// sample of them functionally through the interpreter with the simulator
// sanitizers armed, and diffs the output against the naive reference. Any
// mismatch is minimized (dimensions shrunk while the same strategy keeps
// failing) and reported with a repro one-liner for tools/fuzz_schedules.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "dsl/dsl.hpp"
#include "sim/config.hpp"

namespace swatop::check {

/// A fuzzable operator instance: a family tag plus its integer dimensions.
///   matmul        d = {M, N, K}
///   implicit_conv, explicit_conv, winograd (F(2x2, 3x3))
///                 d = {batch, ni, no, ri, ci, kr, kc, stride}
/// An implicit conv may additionally carry a fused epilogue, written as a
/// `+tag` suffix on the kind ("implicit_conv+bar,p1" = bias + residual +
/// relu with output pad 1 -- dsl::EpilogueSpec::tag()).
struct OpSpec {
  std::string kind;
  std::vector<std::int64_t> d;
  dsl::EpilogueSpec epi;  ///< implicit_conv only; default = unfused

  /// "matmul:72,40,24" -- the --op argument of tools/fuzz_schedules.
  std::string to_string() const;
  static std::optional<OpSpec> parse(const std::string& text);
};

/// Instantiate the operator an OpSpec describes, or nullptr when the spec is
/// malformed or the family's applicability test rejects the dimensions.
std::unique_ptr<dsl::OperatorDef> make_op(const OpSpec& spec);

struct FuzzOptions {
  std::uint64_t seed = 1;
  /// Budget in *cases*: one case = one candidate executed functionally. The
  /// fuzzer keeps drawing shapes until the budget is spent; it bound-checks
  /// every candidate of a shape and runs a strided sample of at most
  /// cases / 8 of them.
  std::int64_t cases = 200;
  std::int64_t max_dim = 96;  ///< cap on random matmul dimensions
  double tolerance = 2e-3;    ///< max |computed - reference| allowed
  bool sanitize = true;       ///< arm the simulator sanitizers
  bool matmul = true;         ///< draw GEMM shapes
  bool conv = true;           ///< draw convolution shapes
  /// Stamp a random fused epilogue (bias / residual / relu / out_pad) onto
  /// every implicit-conv draw, so fused candidates sweep the same schedule
  /// space, sanitizers and reference diff as unfused ones.
  bool fused = false;
  /// Optional progress sink (one line per shape); null = silent.
  std::function<void(const std::string&)> log;
};

struct FuzzFailure {
  /// "mismatch" (output diff over tolerance), "sanitizer" (SanitizerError),
  /// "check" (internal invariant tripped), "validator" (the scheduler's IR
  /// validator rejected a lowered program), or "bound" (a term of
  /// tune::CostModel::lower_bound exceeds the candidate's estimate, which
  /// would let the model tuner prune a winner).
  std::string kind;
  std::string op;        ///< OpSpec::to_string() of the (minimized) shape
  std::string strategy;  ///< Strategy::serialize(); empty for validator
  std::string detail;    ///< error text or the observed max |diff|
  std::string repro;     ///< tools/fuzz_schedules one-liner
};

struct FuzzReport {
  std::int64_t cases_run = 0;  ///< candidates executed functionally
  /// Of those, candidates whose program caches an input operand (DMA
  /// inference's fill nest), so the cached path stays under test.
  std::int64_t cached_cases = 0;
  std::int64_t shapes = 0;     ///< shapes drawn
  std::vector<FuzzFailure> failures;
  bool ok() const { return failures.empty(); }
};

/// Run the fuzz loop until `opts.cases` candidate executions.
FuzzReport fuzz_schedules(const FuzzOptions& opts);

/// Replay one (op, strategy) pair -- the repro path. The strategy text is
/// Strategy::serialize() output; the program is rebuilt with the same
/// lower+optimize+validate pipeline the scheduler uses.
FuzzReport replay(const std::string& op_spec, const std::string& strategy,
                  const FuzzOptions& opts);

}  // namespace swatop::check
