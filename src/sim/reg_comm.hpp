// Register-communication mesh of the CPE cluster.
//
// The 8x8 CPEs share data over row and column buses; a producer broadcasts a
// 256-bit register to every CPE in its row (or column) with small latency and
// very high aggregate bandwidth (647.25 GB/s measured). The GEMM micro-kernel
// is the main user; this module provides the functional broadcast buffers
// plus byte accounting so the primitive and the ablation benches can report
// communication volume.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/config.hpp"

namespace swatop::sim {

class RegCommBus {
 public:
  explicit RegCommBus(const SimConfig& cfg);

  /// Account a row broadcast of `floats` floats (one producer to the other
  /// 7 CPEs in the row).
  void record_row_broadcast(std::int64_t floats);
  void record_col_broadcast(std::int64_t floats);

  std::int64_t row_bytes() const { return row_bytes_; }
  std::int64_t col_bytes() const { return col_bytes_; }

  /// Broadcast operations recorded, by bus direction.
  std::int64_t row_messages() const { return row_msgs_; }
  std::int64_t col_messages() const { return col_msgs_; }

  /// Cycles to broadcast `floats` floats over one bus, i.e. latency plus the
  /// bandwidth term at the per-bus share of aggregate bandwidth. The GEMM
  /// kernels hide this inside the pipeline, so this standalone price is used
  /// only by diagnostics and the communication ablation bench.
  double broadcast_cycles(std::int64_t floats) const;

  void reset();

 private:
  const SimConfig& cfg_;
  std::int64_t row_bytes_ = 0;
  std::int64_t col_bytes_ = 0;
  std::int64_t row_msgs_ = 0;
  std::int64_t col_msgs_ = 0;
};

}  // namespace swatop::sim
