#include <gtest/gtest.h>

#include <vector>

#include "common/check.hpp"
#include "obs/recorder.hpp"
#include "sim/core_group.hpp"

namespace swatop::sim {
namespace {

TEST(MainMemory, AllocAlignsToTransactions) {
  MainMemory m;
  const auto a = m.alloc(5, "a");
  const auto b = m.alloc(7, "b");
  EXPECT_EQ(a % 32, 0);
  EXPECT_EQ(b % 32, 0);
  EXPECT_GE(b, a + 5);
}

TEST(MainMemory, ReadWriteAndBounds) {
  MainMemory m;
  const auto a = m.alloc(16);
  m.write(a + 3, 1.5f);
  EXPECT_FLOAT_EQ(m.read(a + 3), 1.5f);
  EXPECT_THROW(m.read(m.size()), CheckError);
  EXPECT_THROW(m.view(a, m.size() + 1), CheckError);
}

TEST(MainMemory, CopyInOutRoundTrip) {
  MainMemory m;
  const auto a = m.alloc(8);
  std::vector<float> src = {1, 2, 3, 4, 5, 6, 7, 8};
  m.copy_in(a, src);
  std::vector<float> dst(8, 0.0f);
  m.copy_out(a, dst);
  EXPECT_EQ(src, dst);
}

TEST(MainMemory, NonMaterializedHandsOutAddressesOnly) {
  MainMemory m;
  m.set_materialize(false);
  const auto a = m.alloc(std::int64_t{1} << 28);  // 1 GiB of floats, no RAM
  EXPECT_GE(m.size(), std::int64_t{1} << 28);
  EXPECT_THROW(m.read(a), CheckError);
}

TEST(Spm, CapacityAndBounds) {
  SimConfig cfg;
  Spm spm(cfg);
  EXPECT_EQ(spm.capacity(), 16 * 1024);
  spm.write(0, 2.0f);
  spm.write(spm.capacity() - 1, 3.0f);
  EXPECT_FLOAT_EQ(spm.read(spm.capacity() - 1), 3.0f);
  EXPECT_THROW(spm.read(spm.capacity()), CheckError);
}

TEST(Dma, ContiguousCostMatchesBandwidth) {
  SimConfig cfg;
  DmaEngine e(cfg);
  DmaCpeDesc d;
  d.mem_base = 0;
  d.block = 1024;
  d.total = 1024;
  const DmaCost c = e.cost(d);
  EXPECT_EQ(c.transactions, 1024 * 4 / 128);
  EXPECT_EQ(c.bytes_wasted, 0);
  EXPECT_NEAR(c.transfer_cycles, 4096.0 / cfg.dma_bytes_per_cycle(), 1e-9);
  EXPECT_DOUBLE_EQ(c.latency_cycles, cfg.dma_latency_cycles);
}

TEST(Dma, StridedAccessPaysTransactionWaste) {
  SimConfig cfg;
  DmaEngine e(cfg);
  // 8-float blocks (32 B) on a 128-float stride.
  DmaCpeDesc d;
  d.mem_base = 0;
  d.block = 8;
  d.stride = 120;
  d.total = 64;
  const DmaCost c = e.cost(d);
  EXPECT_EQ(c.bytes_requested, 64 * 4);
  EXPECT_GE(c.transactions, 8);
  EXPECT_GT(c.bytes_wasted, 0);
  // Strided must never be cheaper than the same bytes contiguous.
  DmaCpeDesc contig;
  contig.block = 64;
  contig.total = 64;
  EXPECT_GE(c.transfer_cycles, e.cost(contig).transfer_cycles);
}

TEST(Dma, ElementGatherIsMuchWorseThanBlocks) {
  SimConfig cfg;
  DmaEngine e(cfg);
  DmaCpeDesc gather;
  gather.block = 1;
  gather.stride = 255;
  gather.total = 256;
  DmaCpeDesc block;
  block.block = 256;
  block.total = 256;
  EXPECT_GT(e.cost(gather).transfer_cycles,
            10.0 * e.cost(block).transfer_cycles);
}

TEST(Dma, EngineSerializesTransfers) {
  SimConfig cfg;
  DmaEngine e(cfg);
  DmaCost c;
  c.transfer_cycles = 100.0;
  const double d1 = e.issue(0.0, c);
  const double d2 = e.issue(0.0, c);
  EXPECT_DOUBLE_EQ(d1, 100.0);
  EXPECT_DOUBLE_EQ(d2, 200.0);
}

TEST(Dma, TransactionsForUnalignedBlock) {
  SimConfig cfg;
  DmaEngine e(cfg);
  // 32 floats (128 B) starting at float offset 1: straddles two txns.
  EXPECT_EQ(e.transactions_for_block(1, 32), 2);
  EXPECT_EQ(e.transactions_for_block(0, 32), 1);
}

TEST(Cluster, SpmAllocatorTracksAndOverflows) {
  SimConfig cfg;
  CpeCluster cl(cfg);
  const auto a = cl.spm_alloc(100, "a");
  const auto b = cl.spm_alloc(100, "b");
  EXPECT_EQ(a, 0);
  EXPECT_EQ(b % 8, 0);
  EXPECT_GT(cl.spm_used(), 200);
  EXPECT_THROW(cl.spm_alloc(cl.spm_capacity(), "huge"), CheckError);
  cl.spm_reset();
  EXPECT_EQ(cl.spm_used(), 0);
  EXPECT_GT(cl.spm_high_water(), 0);  // watermark survives reset
}

TEST(Cluster, MeshAddressing) {
  SimConfig cfg;
  CpeCluster cl(cfg);
  EXPECT_EQ(cl.at(3, 5).rid(), 3);
  EXPECT_EQ(cl.at(3, 5).cid(), 5);
  EXPECT_THROW(cl.at(8, 0), CheckError);
  EXPECT_THROW(cl.at(0, -1), CheckError);
}

TEST(RegComm, AccountsBroadcastBytes) {
  SimConfig cfg;
  RegCommBus bus(cfg);
  bus.record_row_broadcast(100);
  bus.record_col_broadcast(50);
  EXPECT_EQ(bus.row_bytes(), 100 * 4 * 7);
  EXPECT_EQ(bus.col_bytes(), 50 * 4 * 7);
  EXPECT_GT(bus.broadcast_cycles(64), cfg.reg_comm_latency);
}

TEST(CoreGroup, DmaWaitAdvancesClockAndRecordsStall) {
  CoreGroup cg;
  DmaCpeDesc d;
  d.mem_base = cg.mem().alloc(4096);
  d.block = 4096;
  d.total = 4096;
  const DmaCost c = cg.dma().cost(d);
  const double done = cg.dma_issue_cost_at(c);
  EXPECT_DOUBLE_EQ(done, c.total_cycles());
  EXPECT_DOUBLE_EQ(cg.now(), 0.0);  // issuing does not block
  cg.wait_until(done);
  EXPECT_DOUBLE_EQ(cg.now(), done);
  EXPECT_DOUBLE_EQ(cg.stats().dma_stall_cycles, done);
  // Waiting again for a completion already past stalls no further.
  cg.wait_until(done);
  EXPECT_DOUBLE_EQ(cg.now(), done);
  EXPECT_DOUBLE_EQ(cg.stats().dma_stall_cycles, done);
}

TEST(CoreGroup, ComputeOverlapsWithAsyncDma) {
  CoreGroup cg;
  DmaCpeDesc d;
  d.mem_base = cg.mem().alloc(4096);
  d.block = 4096;
  d.total = 4096;
  const DmaCost c = cg.dma().cost(d);
  const double done = cg.dma_issue_cost_at(c);
  const double transfer = c.total_cycles();
  cg.advance_compute(transfer + 100.0);  // compute longer than the transfer
  cg.wait_until(done);
  // Fully hidden: no stall beyond the compute time.
  EXPECT_DOUBLE_EQ(cg.now(), transfer + 100.0);
  EXPECT_DOUBLE_EQ(cg.stats().dma_stall_cycles, 0.0);
}

TEST(CoreGroup, SyncChargeAttributesEachDescriptorToItsCpe) {
  // One descriptor per CPE in mesh order, each of a different size: the
  // recorder must see descriptor i's bytes on CPE i, and the cluster must
  // stall for exactly the priced transfer.
  CoreGroup cg;
  obs::Options oo;
  oo.enabled = true;
  obs::Recorder rec(oo);
  cg.attach_observer(&rec);
  const int n = cg.config().num_cpes();
  ASSERT_EQ(n, 64);
  const auto base = cg.mem().alloc(64 * 64);
  std::vector<DmaCpeDesc> descs(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    DmaCpeDesc& d = descs[static_cast<std::size_t>(i)];
    d.mem_base = base + 64 * i;
    d.block = i + 1;
    d.total = i + 1;
  }
  cg.advance_compute(10.0);
  const DmaCost c = cg.dma().cost(descs);
  cg.charge_dma_sync(descs);
  EXPECT_DOUBLE_EQ(cg.now(), 10.0 + c.total_cycles());
  EXPECT_DOUBLE_EQ(cg.stats().dma_stall_cycles, c.total_cycles());
  EXPECT_EQ(cg.stats().dma_transfers, 1);
  EXPECT_EQ(cg.stats().dma_bytes_requested, c.bytes_requested);
  ASSERT_EQ(rec.counters().per_cpe.size(), static_cast<std::size_t>(n));
  std::int64_t sum = 0;
  for (int i = 0; i < n; ++i) {
    const obs::CpeCounters& pc =
        rec.counters().per_cpe[static_cast<std::size_t>(i)];
    EXPECT_EQ(pc.dma_bytes, 4 * (i + 1)) << "CPE " << i;
    EXPECT_EQ(pc.dma_transfers, 1) << "CPE " << i;
    sum += pc.dma_bytes;
  }
  EXPECT_EQ(sum, c.bytes_requested);
}

TEST(CoreGroup, ResetExecutionPreservesMemory) {
  CoreGroup cg;
  const auto a = cg.mem().alloc(8);
  cg.mem().write(a, 9.0f);
  cg.advance_compute(50.0);
  cg.reset_execution();
  EXPECT_DOUBLE_EQ(cg.now(), 0.0);
  EXPECT_FLOAT_EQ(cg.mem().read(a), 9.0f);
}

TEST(SimConfig, DerivedQuantities) {
  SimConfig cfg;
  EXPECT_EQ(cfg.num_cpes(), 64);
  EXPECT_NEAR(cfg.peak_gflops(), 742.4, 0.1);
  EXPECT_EQ(cfg.spm_floats(), 16384);
  EXPECT_NEAR(cfg.dma_bytes_per_cycle(), 22.6 / 1.45, 1e-9);
}

}  // namespace
}  // namespace swatop::sim

namespace swatop::sim {
namespace {

/// Brute-force reference for the engine's periodic transaction math.
std::int64_t naive_transactions(const DmaEngine& e, const DmaCpeDesc& d) {
  std::int64_t txns = 0;
  std::int64_t remaining = d.total;
  MainMemory::Addr base = d.mem_base;
  while (remaining > 0) {
    const std::int64_t blk = std::min(remaining, d.block);
    txns += e.transactions_for_block(base, blk);
    remaining -= blk;
    base += d.block + d.stride;
  }
  return txns;
}

TEST(Dma, PeriodicCostMatchesBruteForce) {
  SimConfig cfg;
  DmaEngine e(cfg);
  for (std::int64_t base : {0, 1, 7, 31, 32, 100}) {
    for (std::int64_t block : {1, 3, 8, 17, 32, 100, 256}) {
      for (std::int64_t stride : {0, 1, 5, 24, 96, 120, 255}) {
        for (std::int64_t total : {1, 7, 64, 321, 4096}) {
          DmaCpeDesc d;
          d.mem_base = base;
          d.block = block;
          d.stride = stride;
          d.total = total;
          EXPECT_EQ(e.cost(d).transactions, naive_transactions(e, d))
              << "base=" << base << " block=" << block
              << " stride=" << stride << " total=" << total;
        }
      }
    }
  }
}

}  // namespace
}  // namespace swatop::sim

#include "sim/chip.hpp"

namespace swatop::sim {
namespace {

TEST(Chip, FourGroupsWithPrivateClocks) {
  Chip chip;
  EXPECT_EQ(chip.groups(), 4);
  chip.cg(0).advance_compute(100.0);
  chip.cg(2).advance_compute(300.0);
  EXPECT_DOUBLE_EQ(chip.elapsed(), 300.0);
  EXPECT_THROW(chip.cg(4), CheckError);
  EXPECT_THROW(Chip(SimConfig{}, 5), CheckError);
}

TEST(Chip, AggregatesStats) {
  Chip chip(SimConfig{}, 2);
  chip.cg(0).advance_compute(10.0);
  chip.cg(1).advance_compute(20.0);
  EXPECT_DOUBLE_EQ(chip.aggregate_stats().compute_cycles, 30.0);
  chip.reset_execution();
  EXPECT_DOUBLE_EQ(chip.elapsed(), 0.0);
}

TEST(Chip, AggregateStatsSumsEveryField) {
  // Every CgStats field must survive aggregation -- including the queue
  // wait and sanitizer counters that are only set on specific paths.
  Chip chip(SimConfig{}, 2);
  CgStats& a = chip.cg(0).stats();
  a.compute_cycles = 1.0;
  a.dma_stall_cycles = 2.0;
  a.dma_queue_wait_cycles = 3.0;
  a.dma_bytes_requested = 4;
  a.dma_bytes_wasted = 5;
  a.dma_transactions = 6;
  a.dma_transfers = 7;
  a.flops = 8;
  a.gemm_calls = 9;
  a.sanitizer.spm_poison_trips = 10;
  a.sanitizer.dma_bounds_trips = 11;
  a.sanitizer.dma_overlap_trips = 12;
  a.sanitizer.reply_slot_trips = 13;
  chip.cg(1).stats() = a;  // both groups carry the same block

  const CgStats s = chip.aggregate_stats();
  EXPECT_DOUBLE_EQ(s.compute_cycles, 2.0);
  EXPECT_DOUBLE_EQ(s.dma_stall_cycles, 4.0);
  EXPECT_DOUBLE_EQ(s.dma_queue_wait_cycles, 6.0);
  EXPECT_EQ(s.dma_bytes_requested, 8);
  EXPECT_EQ(s.dma_bytes_wasted, 10);
  EXPECT_EQ(s.dma_transactions, 12);
  EXPECT_EQ(s.dma_transfers, 14);
  EXPECT_EQ(s.flops, 16);
  EXPECT_EQ(s.gemm_calls, 18);
  EXPECT_EQ(s.sanitizer.spm_poison_trips, 20);
  EXPECT_EQ(s.sanitizer.dma_bounds_trips, 22);
  EXPECT_EQ(s.sanitizer.dma_overlap_trips, 24);
  EXPECT_EQ(s.sanitizer.reply_slot_trips, 26);
}

TEST(Chip, ResetExecutionClearsStatsAndClocks) {
  Chip chip(SimConfig{}, 3);
  for (int i = 0; i < 3; ++i) {
    chip.cg(i).advance_compute(10.0 * (i + 1));
    chip.cg(i).stats().dma_queue_wait_cycles = 5.0;
  }
  chip.reset_execution();
  EXPECT_DOUBLE_EQ(chip.elapsed(), 0.0);
  const CgStats s = chip.aggregate_stats();
  EXPECT_DOUBLE_EQ(s.compute_cycles, 0.0);
  EXPECT_DOUBLE_EQ(s.dma_queue_wait_cycles, 0.0);
}

TEST(Chip, ElapsedIsTheSlowestGroup) {
  Chip chip(SimConfig{}, 4);
  chip.cg(0).advance_compute(10.0);
  chip.cg(1).advance_compute(250.0);
  chip.cg(2).advance_compute(40.0);
  chip.cg(3).advance_compute(249.0);
  EXPECT_DOUBLE_EQ(chip.elapsed(), 250.0);
}

TEST(Chip, PeakScalesWithGroups) {
  SimConfig cfg;
  EXPECT_NEAR(Chip(cfg, 4).peak_gflops(), 4 * cfg.peak_gflops(), 1e-9);
}

}  // namespace
}  // namespace swatop::sim
