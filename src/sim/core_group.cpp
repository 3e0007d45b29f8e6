#include "sim/core_group.hpp"

#include "common/check.hpp"

namespace swatop::sim {

CoreGroup::CoreGroup(const SimConfig& cfg)
    : cfg_(cfg), cluster_(cfg_), dma_(cfg_) {}

void CoreGroup::advance_compute(double cycles) {
  SWATOP_CHECK(cycles >= 0.0);
  now_ += cycles;
  stats_.compute_cycles += cycles;
}

double CoreGroup::dma_issue_cost_at(const DmaCost& c) {
  stats_.dma_queue_wait_cycles += dma_.queue_wait(now_);
  const double done = dma_.issue(now_, c);
  stats_.dma_bytes_requested += c.bytes_requested;
  stats_.dma_bytes_wasted += c.bytes_wasted;
  stats_.dma_transactions += c.transactions;
  stats_.dma_transfers += 1;
  if (obs_ != nullptr && obs_->tracing()) {
    obs::TraceEvent ev;
    ev.name = "dma";
    ev.cat = obs::Category::Dma;
    ev.tid = obs::Track::kDmaEngine;
    ev.ts = done - c.total_cycles();
    ev.dur = c.total_cycles();
    ev.arg_name[0] = "bytes";
    ev.arg[0] = c.bytes_requested;
    ev.arg_name[1] = "transactions";
    ev.arg[1] = c.transactions;
    ev.arg_name[2] = "bytes_wasted";
    ev.arg[2] = c.bytes_wasted;
    obs_->trace_event(std::move(ev));
  }
  return done;
}

void CoreGroup::wait_until(double t) {
  if (t > now_) {
    stats_.dma_stall_cycles += t - now_;
    now_ = t;
  }
}

void CoreGroup::charge_dma_sync(std::span<const DmaCpeDesc> descs) {
  charge_dma_cost_sync(dma_.cost(descs));
  if (obs_ == nullptr) return;
  for (std::size_t i = 0; i < descs.size(); ++i) {
    if (descs[i].total == 0) continue;
    obs::CpeCounters& pc = obs_->cpe(static_cast<int>(i));
    pc.dma_bytes += descs[i].total * static_cast<std::int64_t>(sizeof(float));
    pc.dma_transfers += 1;
  }
}

void CoreGroup::charge_dma_cost_sync(const DmaCost& c) {
  wait_until(dma_issue_cost_at(c));
}

void CoreGroup::reset_execution() {
  now_ = 0.0;
  dma_.reset();
  stats_ = CgStats{};
  cluster_.spm_reset();
  cluster_.bus().reset();
  for (int r = 0; r < cfg_.mesh_rows; ++r)
    for (int c = 0; c < cfg_.mesh_cols; ++c)
      cluster_.at(r, c).spm().reset_access_counts();
  // Mirror the reset so an attached recorder's counters stay equal to the
  // execution statistics they are assembled from.
  if (obs_ != nullptr) obs_->reset_execution();
}

obs::Counters CoreGroup::counters_snapshot() const {
  // Start from the recorder's registry so observer-only values (per-CPE
  // attribution, pipeline estimates accumulated by the runtime) survive.
  obs::Counters c =
      obs_ != nullptr ? obs_->counters() : obs::Counters{};
  c.total_cycles = now_;
  c.compute_cycles = stats_.compute_cycles;
  c.flops = stats_.flops;
  c.gemm_calls = stats_.gemm_calls;
  c.dma.bytes_requested = stats_.dma_bytes_requested;
  c.dma.bytes_wasted = stats_.dma_bytes_wasted;
  c.dma.transactions = stats_.dma_transactions;
  c.dma.transfers = stats_.dma_transfers;
  c.dma.stall_cycles = stats_.dma_stall_cycles;
  c.dma.queue_wait_cycles = stats_.dma_queue_wait_cycles;
  c.dma.busy_cycles = dma_.busy_cycles();
  c.gemm_cycles = stats_.gemm_cycles;
  c.gemm_comm_cycles = stats_.gemm_comm_cycles;
  c.pipe = stats_.pipe;
  const RegCommBus& bus = cluster_.bus();
  c.reg_comm.row_messages = bus.row_messages();
  c.reg_comm.col_messages = bus.col_messages();
  c.reg_comm.row_bytes = bus.row_bytes();
  c.reg_comm.col_bytes = bus.col_bytes();
  c.sanitizer = stats_.sanitizer;
  c.spm_high_water_floats = cluster_.spm_high_water();
  c.spm_capacity_floats = cluster_.spm_capacity();
  c.spm_reads = 0;
  c.spm_writes = 0;
  for (int r = 0; r < cfg_.mesh_rows; ++r) {
    for (int col = 0; col < cfg_.mesh_cols; ++col) {
      const Spm& spm = cluster_.at(r, col).spm();
      c.spm_reads += spm.element_reads();
      c.spm_writes += spm.element_writes();
    }
  }
  return c;
}

}  // namespace swatop::sim
