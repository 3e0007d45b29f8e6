// Scratch pad memory (SPM / LDM) of a single CPE: 64 KB of software-managed
// storage. swATOP's runtime addresses SPM by float offset; a bump allocator
// (mirrored uniformly across all CPEs of a cluster, because execution is
// SPMD) lives in CpeCluster.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "sim/config.hpp"

namespace swatop::sim {

class Spm {
 public:
  explicit Spm(const SimConfig& cfg);

  std::int64_t capacity() const {
    return static_cast<std::int64_t>(data_.size());
  }

  float read(std::int64_t a) const;
  void write(std::int64_t a, float v);

  /// Bulk forms of n consecutive read() / write() calls starting at a:
  /// bounds-checked once, counted as n element accesses. write_block marks
  /// the range defined, so the caller must store every float of the span.
  std::span<const float> read_block(std::int64_t a, std::int64_t n) const;
  std::span<float> write_block(std::int64_t a, std::int64_t n);

  /// Bounds-checked span over [a, a + n).
  std::span<float> view(std::int64_t a, std::int64_t n);
  std::span<const float> view(std::int64_t a, std::int64_t n) const;

  void fill(std::int64_t a, std::int64_t n, float v);

  /// Zero the whole SPM (used between operator executions).
  void clear();

  // -- poison tracking (SimConfig::sanitize.spm_poison) ---------------------
  // The SPM only provides the mechanism: a per-float "defined" bitmap that
  // write()/fill() clear. Policy -- *when* a poisoned read is an error, and
  // with which buffer/loop diagnostics -- lives in the runtime and the GEMM
  // primitive, which know the buffer names.

  /// True when the bitmap is maintained (set from cfg.sanitize at
  /// construction; every write path pays one branch when on).
  bool poison_tracking() const { return !poison_.empty(); }

  /// Mark [a, a+n) undefined (fresh allocation).
  void poison(std::int64_t a, std::int64_t n);

  /// Mark [a, a+n) defined without writing (bulk producers that store
  /// through view() spans, e.g. the GEMM primitive's output tile).
  void unpoison(std::int64_t a, std::int64_t n);

  /// Lowest poisoned offset in [a, a+n), or -1 when the whole range is
  /// defined (always -1 when tracking is off).
  std::int64_t first_poisoned(std::int64_t a, std::int64_t n) const;

  /// Element accesses through read()/write()/fill() and their block forms
  /// -- the functional-mode access paths (view() spans are not counted).
  /// Feeds the observability layer's SPM traffic counters.
  std::int64_t element_reads() const { return reads_; }
  std::int64_t element_writes() const { return writes_; }
  void reset_access_counts() {
    reads_ = 0;
    writes_ = 0;
  }

 private:
  void check_range(std::int64_t a, std::int64_t n) const;
  std::vector<float> data_;
  /// Per-float poison bits (1 = undefined); empty when tracking is off.
  std::vector<std::uint8_t> poison_;
  mutable std::int64_t reads_ = 0;
  std::int64_t writes_ = 0;
};

}  // namespace swatop::sim
