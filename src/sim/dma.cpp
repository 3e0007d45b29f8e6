#include "sim/dma.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/math_util.hpp"

namespace swatop::sim {

std::int64_t DmaEngine::transactions_for_block(MainMemory::Addr mem_base,
                                               std::int64_t block_floats)
    const {
  const std::int64_t txn =
      static_cast<std::int64_t>(cfg_.dram_transaction_bytes);
  const std::int64_t byte_lo = mem_base * static_cast<std::int64_t>(
                                              sizeof(float));
  const std::int64_t byte_hi =
      (mem_base + block_floats) * static_cast<std::int64_t>(sizeof(float));
  return (align_up(byte_hi, txn) - align_down(byte_lo, txn)) / txn;
}

DmaCost DmaEngine::cost(const DmaCpeDesc& d) const {
  return cost(std::span<const DmaCpeDesc>(&d, 1));
}

DmaCost DmaEngine::cost(std::span<const DmaCpeDesc> descs) const {
  DmaCost c;
  c.latency_cycles = cfg_.dma_latency_cycles;
  const std::int64_t txn_floats =
      static_cast<std::int64_t>(cfg_.dram_transaction_bytes / sizeof(float));
  for (const DmaCpeDesc& d : descs) {
    SWATOP_CHECK(d.total >= 0 && d.block >= 0 && d.stride >= 0)
        << "negative DMA descriptor field";
    if (d.total == 0) continue;
    SWATOP_CHECK(d.block > 0) << "DMA with zero block size";
    c.bytes_requested += d.total * static_cast<std::int64_t>(sizeof(float));
    const std::int64_t full_blocks = d.total / d.block;
    const std::int64_t tail = d.total % d.block;
    // The per-block transaction count only depends on the block's start
    // alignment within a transaction, which advances by (block + stride)
    // modulo the transaction size -- a cycle of period at most txn_floats.
    // Price one period and multiply instead of walking every block.
    const std::int64_t step = (d.block + d.stride) % txn_floats;
    std::int64_t txns_full = 0;
    if (full_blocks > 0) {
      const std::int64_t period =
          step == 0 ? 1 : txn_floats / gcd(step, txn_floats);
      const std::int64_t reps = std::min(full_blocks, period);
      std::int64_t period_txns = 0;
      MainMemory::Addr base = d.mem_base;
      for (std::int64_t i = 0; i < reps; ++i) {
        period_txns += transactions_for_block(base, d.block);
        base += d.block + d.stride;
      }
      if (full_blocks <= period) {
        txns_full = period_txns;
      } else {
        const std::int64_t whole = full_blocks / reps;
        const std::int64_t rem = full_blocks % reps;
        txns_full = whole * period_txns;
        base = d.mem_base;
        for (std::int64_t i = 0; i < rem; ++i) {
          txns_full += transactions_for_block(base, d.block);
          base += d.block + d.stride;
        }
      }
    }
    c.transactions += txns_full;
    if (tail > 0) {
      const MainMemory::Addr tail_base =
          d.mem_base + full_blocks * (d.block + d.stride);
      c.transactions += transactions_for_block(tail_base, tail);
    }
  }
  c.bytes_wasted =
      c.transactions * static_cast<std::int64_t>(cfg_.dram_transaction_bytes) -
      c.bytes_requested;
  // Effective throughput is bounded by the bytes the DRAM actually moves,
  // i.e. whole transactions (Eq. (1)'s block + waste numerator).
  const double moved_bytes = static_cast<double>(
      c.transactions * static_cast<std::int64_t>(cfg_.dram_transaction_bytes));
  c.transfer_cycles = moved_bytes / cfg_.dma_bytes_per_cycle();
  return c;
}

double DmaEngine::issue(double now, const DmaCost& c) {
  const double start = std::max(now, free_at_);
  const double done = start + c.total_cycles();
  free_at_ = done;
  busy_cycles_ += c.total_cycles();
  return done;
}

}  // namespace swatop::sim
