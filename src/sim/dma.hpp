// DMA engine model of one core group: it prices transfers and books them on
// the engine's timeline, and moves no data (rt::Interpreter does).
//
// Pricing follows Eq. (1) of the paper: a start-up latency plus a transfer
// term at transaction granularity -- CPEs access DRAM in 128-byte
// transactions, so a strided access pattern pays for the *transactions it
// touches*, not the bytes it requests. Pricing depends only on the memory
// side of a transfer, so a descriptor carries neither its direction nor its
// SPM address. The engine is a shared resource: concurrent transfers
// serialize, which is what bounds the benefit of double buffering at the
// bandwidth limit.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "sim/config.hpp"
#include "sim/main_memory.hpp"

namespace swatop::sim {

/// One CPE's DMA descriptor (the paper's DMA_CPE node, Sec. 4.5.1): starting
/// at main-memory float offset `mem_base`, move `total` floats in contiguous
/// blocks of `block` floats, skipping `stride` floats between blocks.
struct DmaCpeDesc {
  MainMemory::Addr mem_base = 0;
  std::int64_t block = 0;
  std::int64_t stride = 0;
  std::int64_t total = 0;
};

/// Cost breakdown of one CG-level DMA (all participating CPEs together).
struct DmaCost {
  double latency_cycles = 0.0;
  double transfer_cycles = 0.0;
  std::int64_t bytes_requested = 0;
  std::int64_t bytes_wasted = 0;  ///< transaction padding around blocks
  std::int64_t transactions = 0;

  double total_cycles() const { return latency_cycles + transfer_cycles; }
};

class DmaEngine {
 public:
  explicit DmaEngine(const SimConfig& cfg) : cfg_(cfg) {}

  /// Price a CG-level DMA made of per-CPE descriptors (Eq. (1)).
  DmaCost cost(std::span<const DmaCpeDesc> descs) const;

  /// Price a single descriptor.
  DmaCost cost(const DmaCpeDesc& d) const;

  /// Book an asynchronous transfer issued at `now`; returns its completion
  /// time. Transfers serialize on the engine.
  double issue(double now, const DmaCost& c);

  /// Cycles a transfer issued at `now` waits for the engine to drain
  /// earlier transfers before its own latency+transfer time starts.
  double queue_wait(double now) const {
    return free_at_ > now ? free_at_ - now : 0.0;
  }

  /// Total cycles the engine has been occupied since the last reset
  /// (latency + transfer terms of every booked transfer).
  double busy_cycles() const { return busy_cycles_; }

  void reset() {
    free_at_ = 0.0;
    busy_cycles_ = 0.0;
  }

  /// Number of DRAM transactions touched by one contiguous block of
  /// `block_floats` floats starting at float offset `mem_base`.
  std::int64_t transactions_for_block(MainMemory::Addr mem_base,
                                      std::int64_t block_floats) const;

 private:
  const SimConfig& cfg_;
  double free_at_ = 0.0;
  double busy_cycles_ = 0.0;
};

}  // namespace swatop::sim
