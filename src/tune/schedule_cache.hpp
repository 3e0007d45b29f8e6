// Persistent schedule cache: tune once per (operator, machine, knobs).
//
// The model-based autotuner makes per-shape tuning cheap (Tab. 3), but a
// serving workload re-optimizes the same layers run after run. Shipping
// auto-schedulers (TVM's tuning logs, swTVM) therefore bank the winning
// schedule keyed by operator and machine; on Sunway the per-layer choice is
// stable enough to reuse (swCaffe). This cache stores the winning
// dsl::Strategy -- in the human-readable serialize() form -- plus its
// predicted/measured cycles, in memory and optionally on disk, keyed by a
// *versioned fingerprint* of everything that can change the winner:
//
//   v<N> | operator signature (name + dims) | every SimConfig field |
//   tuner knobs (prefetch, SPM reserve, candidate cap, top-k)
//
// File format (one line per entry, tab-separated, '#' header):
//
//   # swatop-schedule-cache v<N>
//   <fingerprint>\t<predicted>\t<measured>\t<prefetch>\t<strategy>
//
// A file whose header names a different version is ignored wholesale (a
// format/key bump invalidates old entries); a line that fails to parse is
// skipped and counted, never fatal. Later duplicate keys win, so appending
// is a valid update protocol. All public methods are thread-safe; the warm
// path (lookup of a banked key) takes a shared lock, so any number of
// serving threads can hit the cache concurrently while a miss-and-store
// briefly takes the lock exclusively.
#pragma once

#include <cstdint>
#include <optional>
#include <shared_mutex>
#include <string>
#include <unordered_map>

#include "dsl/dsl.hpp"
#include "sim/config.hpp"

namespace swatop::tune {

/// Cache behaviour block of SwatopConfig.
struct CacheConfig {
  bool enabled = false;
  /// On-disk location; empty = in-memory only (still deduplicates within
  /// one Optimizer's lifetime).
  std::string path;
  /// Read the file but never write it back (shared/CI caches). Lookups
  /// still populate the in-memory map.
  bool read_only = false;
};

/// The tuner knobs that participate in the cache key: any of these changes
/// the schedule space or the pick, so they must not collide.
struct TunerKnobs {
  bool prefetch = true;
  std::int64_t spm_reserve_floats = 512;
  std::int64_t max_candidates = 0;
  int top_k = 0;
};

/// One banked tuning result.
struct CacheEntry {
  dsl::Strategy strategy;
  bool prefetch = false;          ///< double buffering applied to the winner
  double predicted_cycles = 0.0;  ///< cost-model estimate
  double measured_cycles = 0.0;   ///< 0 unless measured during tuning
};

class ScheduleCache {
 public:
  /// Bump to invalidate every existing cache file (key semantics or file
  /// format change). v2: strategies carry an EpilogueSpec (`e:` tokens) and
  /// operator signatures include the epilogue tag, so v1 unfused winners
  /// must never be replayed against fused operators. v3: DMA inference
  /// caches re-fetched operands, so a banked strategy lowers to another
  /// program and the pick (and its banked predicted cycles) may differ.
  /// v4: implicit convolutions with fewer than 32 input channels search a
  /// K tile of their channel count rounded up to 8 instead of 32. v5:
  /// implicit convolutions size Tco and Tno to the layer, offer orcuvi for
  /// 1x1 kernels and refuse loop-order twins, so a banked order may have
  /// no program and a banked pick may no longer be the best.
  static constexpr int kVersion = 6;

  /// Loads `cfg.path` when set; a missing, unreadable or version-mismatched
  /// file yields an empty cache, never an error.
  explicit ScheduleCache(CacheConfig cfg);

  /// The versioned key. `op_signature` should be dsl::OperatorDef::name(),
  /// which encodes the dims for every shipped operator.
  static std::string fingerprint(const std::string& op_signature,
                                 const sim::SimConfig& machine,
                                 const TunerKnobs& knobs);

  std::optional<CacheEntry> lookup(const std::string& key) const;

  /// Insert/overwrite; appends to the backing file unless read-only. A
  /// pre-existing file with a stale header is rewritten in the current
  /// format on first store.
  void store(const std::string& key, const CacheEntry& entry);

  /// Rewrite the backing file compacted (drops superseded duplicate lines).
  /// No-op (returning false) without a writable path.
  bool save() const;

  std::size_t size() const;
  /// Unparseable lines skipped across all loads (corruption diagnostics).
  std::int64_t corrupt_entries_skipped() const;

  const CacheConfig& config() const { return cfg_; }

  static std::string file_header();

 private:
  void load_file_locked();
  bool write_all_locked() const;

  CacheConfig cfg_;
  /// Reader-writer lock: lookup/size/corrupt_entries_skipped share, store
  /// and save are exclusive.
  mutable std::shared_mutex mu_;
  std::unordered_map<std::string, CacheEntry> map_;
  std::int64_t corrupt_ = 0;
  /// File on disk is current-version and append-safe.
  bool file_appendable_ = false;
};

}  // namespace swatop::tune
