// Tuning journal: an append-only record of every schedule candidate a
// tuner considered -- strategy fingerprint, predicted cycles (or, for a
// strategy the model tuner's lower bound ruled out, the bound), simulated
// cycles, rank, and whether the candidate was pruned (model only) or
// actually run -- plus the derived statistics the paper's evaluation needs:
// model error (Fig. 9), rank correlation (does the static model order
// candidates the way the simulator does), and the regret curve (how fast
// the search converged on its winner).
//
// Entries are appended from the tuner's calling thread in index order
// after any parallel bounding/measuring joins, so a journal is
// byte-identical across thread counts (see tests/test_obs).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace swatop::tune {

/// One candidate's row. Negative predicted/measured mean "never evaluated
/// that way": a model-phase entry with measured < 0 was pruned by the model
/// (never run); a black-box entry has predicted < 0 (never modeled). A
/// "bound" entry is a strategy the model tuner's lower bound ruled out
/// without building it: `predicted` holds the bound, which its estimate
/// would be at least.
struct JournalEntry {
  std::string op;        ///< operator name
  /// "model" | "top-k" | "bound" | "blackbox" | "cache"
  std::string phase;
  std::string strategy;  ///< strategy fingerprint
  /// Position in the schedule space for the model tuner's rows; in
  /// Scheduler::candidates order for black-box rows.
  std::int64_t index = -1;
  std::int64_t rank = -1;   ///< rank by the phase's score (0 = best)
  double predicted = -1.0;  ///< cost-model cycles (< 0: not predicted)
  double measured = -1.0;   ///< simulated cycles (< 0: pruned, never run)
  bool chosen = false;      ///< the tuner's final pick for this op
};

/// The journal proper: an in-memory append-only log. Share one across
/// operators/layers to get a whole-network record.
class Journal {
 public:
  void append(JournalEntry e) { entries_.push_back(std::move(e)); }
  const std::vector<JournalEntry>& entries() const { return entries_; }
  std::size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }
  void clear() { entries_.clear(); }

  /// One JSON object per line (JSONL). Unevaluated predicted/measured
  /// serialize as null.
  std::string to_jsonl() const;

  /// Write the JSONL to a file. `append` adds to an existing log (the
  /// on-disk journal is append-only across runs). Returns false on I/O
  /// failure.
  bool write_jsonl(const std::string& path, bool append = false) const;

 private:
  std::vector<JournalEntry> entries_;
};

std::string journal_entry_json(const JournalEntry& e);

/// Model-vs-simulator statistics over the entries carrying both a
/// predicted and a measured value.
struct ModelErrorStats {
  std::int64_t samples = 0;
  double mean_rel_err = 0.0;  ///< mean |predicted - measured| / measured
  double max_rel_err = 0.0;
  /// Spearman rank correlation between predicted and measured cycles
  /// (average ranks on ties); 0 when fewer than 2 samples.
  double rank_corr = 0.0;
};
ModelErrorStats model_error_stats(const std::vector<JournalEntry>& entries);

/// Regret curve over the *measured* entries in journal order: point k is
/// best-measured-so-far after k+1 measurements relative to the overall
/// best (0 = the search has found its winner).
std::vector<double> regret_curve(const std::vector<JournalEntry>& entries);

/// Human-readable summary: entry counts by phase, model-error statistics,
/// and the regret curve's convergence point.
std::string journal_summary(const Journal& j);

/// The same summary as one JSON object (not the per-entry log).
std::string journal_summary_json(const Journal& j);

}  // namespace swatop::tune
