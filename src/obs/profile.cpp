#include "obs/profile.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <ostream>
#include <sstream>

namespace swatop::obs {

Profile Profile::snapshot(const Recorder& rec) {
  Profile p;
  p.enabled = true;
  p.counters = rec.counters();
  p.tune = rec.tune();
  p.tune_samples = rec.tune_samples();
  p.events = rec.buffer().snapshot();
  p.events_dropped = rec.buffer().dropped();
  return p;
}

void Profile::write_chrome_trace(std::ostream& os) const {
  obs::write_chrome_trace(os, events, events_dropped);
}

std::string Profile::chrome_trace() const {
  std::ostringstream os;
  write_chrome_trace(os);
  return os.str();
}

namespace {

double pct(double part, double whole) {
  return whole > 0.0 ? part / whole * 100.0 : 0.0;
}

std::string mb(std::int64_t bytes) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.2f MB",
                static_cast<double>(bytes) / (1024.0 * 1024.0));
  return buf;
}

void line(std::ostringstream& os, const char* label, const std::string& v) {
  char buf[160];
  std::snprintf(buf, sizeof buf, "  %-22s%s\n", label, v.c_str());
  os << buf;
}

std::string fmt(const char* f, ...)
    __attribute__((format(printf, 1, 2)));

std::string fmt(const char* f, ...) {
  char buf[256];
  va_list ap;
  va_start(ap, f);
  std::vsnprintf(buf, sizeof buf, f, ap);
  va_end(ap);
  return buf;
}

}  // namespace

std::string Profile::report() const {
  std::ostringstream os;
  if (!enabled) {
    os << "== swATOP profile ==\n(observability disabled)\n";
    return os.str();
  }
  const Counters& c = counters;
  const double total = c.total_cycles;
  const double other =
      std::max(0.0, total - c.compute_cycles - c.dma.stall_cycles);

  os << "== swATOP profile ==\n";
  os << fmt("DMA %.0f%% of cycles (stall), %.0f%% wasted transaction "
            "bytes\n",
            pct(c.dma.stall_cycles, total),
            pct(static_cast<double>(c.dma.bytes_wasted),
                static_cast<double>(c.dma.bytes_requested +
                                    c.dma.bytes_wasted)));
  os << "cycles\n";
  line(os, "total", fmt("%.0f", total));
  line(os, "compute",
       fmt("%.0f  (%.1f%%)", c.compute_cycles, pct(c.compute_cycles, total)));
  line(os, "dma stall",
       fmt("%.0f  (%.1f%%)", c.dma.stall_cycles,
           pct(c.dma.stall_cycles, total)));
  line(os, "other", fmt("%.0f  (%.1f%%)", other, pct(other, total)));
  os << "dma engine\n";
  line(os, "busy",
       fmt("%.0f cycles  (%.1f%% of run)", c.dma.busy_cycles,
           pct(c.dma.busy_cycles, total)));
  line(os, "queue wait", fmt("%.0f cycles", c.dma.queue_wait_cycles));
  line(os, "transfers",
       fmt("%" PRId64 "  (%" PRId64 " transactions)", c.dma.transfers,
           c.dma.transactions));
  line(os, "bytes requested", mb(c.dma.bytes_requested));
  line(os, "bytes wasted",
       fmt("%s  (%.1f%% of transaction bytes)",
           mb(c.dma.bytes_wasted).c_str(),
           pct(static_cast<double>(c.dma.bytes_wasted),
               static_cast<double>(c.dma.bytes_requested +
                                   c.dma.bytes_wasted))));
  os << "reg-comm\n";
  line(os, "row",
       fmt("%" PRId64 " msgs, %s", c.reg_comm.row_messages,
           mb(c.reg_comm.row_bytes).c_str()));
  line(os, "col",
       fmt("%" PRId64 " msgs, %s", c.reg_comm.col_messages,
           mb(c.reg_comm.col_bytes).c_str()));
  os << "spm (per CPE)\n";
  line(os, "high water",
       fmt("%.1f / %.1f KB  (%.1f%%)",
           static_cast<double>(c.spm_high_water_floats) * 4.0 / 1024.0,
           static_cast<double>(c.spm_capacity_floats) * 4.0 / 1024.0,
           pct(static_cast<double>(c.spm_high_water_floats),
               static_cast<double>(c.spm_capacity_floats))));
  if (c.spm_reads + c.spm_writes > 0)
    line(os, "element accesses",
         fmt("%" PRId64 " reads, %" PRId64 " writes", c.spm_reads,
             c.spm_writes));
  if (c.arena_naive_bytes > 0) {
    os << "memory plan (activation arena)\n";
    line(os, "planned peak",
         fmt("%s  (%.1f%% of no-reuse %s)", mb(c.arena_planned_bytes).c_str(),
             pct(static_cast<double>(c.arena_planned_bytes),
                 static_cast<double>(c.arena_naive_bytes)),
             mb(c.arena_naive_bytes).c_str()));
  }
  if (c.serve.requests_offered > 0) {
    os << "serving (simulated time)\n";
    line(os, "requests",
         fmt("%" PRId64 " offered: %" PRId64 " completed, %" PRId64
             " rejected, %" PRId64 " shed",
             c.serve.requests_offered, c.serve.requests_completed,
             c.serve.requests_rejected, c.serve.requests_shed));
    line(os, "dispatch",
         fmt("%" PRId64 " batches, %" PRId64 " images completed",
             c.serve.batches_dispatched, c.serve.images_completed));
    line(os, "fleet time",
         fmt("%.1f ms busy, %.1f ms wasted on shed splits",
             c.serve.busy_us / 1e3, c.serve.wasted_us / 1e3));
    if (c.serve.slo_violations > 0)
      line(os, "slo violations", fmt("%" PRId64, c.serve.slo_violations));
  }
  if (c.sanitizer.total() > 0) {
    os << "sanitizer trips\n";
    if (c.sanitizer.spm_poison_trips > 0)
      line(os, "spm poison", fmt("%" PRId64, c.sanitizer.spm_poison_trips));
    if (c.sanitizer.dma_bounds_trips > 0)
      line(os, "dma bounds", fmt("%" PRId64, c.sanitizer.dma_bounds_trips));
    if (c.sanitizer.dma_overlap_trips > 0)
      line(os, "dma overlap", fmt("%" PRId64, c.sanitizer.dma_overlap_trips));
    if (c.sanitizer.reply_slot_trips > 0)
      line(os, "reply slots", fmt("%" PRId64, c.sanitizer.reply_slot_trips));
  }
  os << "pipeline (per CPE, est. from kernel-cost fits)\n";
  line(os, "P0 issued", fmt("%.0f", c.pipe.issued_p0));
  line(os, "P1 issued", fmt("%.0f", c.pipe.issued_p1));
  line(os, "RAW stalls", fmt("%.0f cycles", c.pipe.raw_stall_cycles));
  line(os, "gemm calls",
       fmt("%" PRId64 "  (%.2f GFLOP)", c.gemm_calls,
           static_cast<double>(c.flops) / 1e9));

  if (!c.per_cpe.empty()) {
    std::int64_t lo = c.per_cpe.front().dma_bytes;
    std::int64_t hi = lo, sum = 0;
    for (const CpeCounters& p : c.per_cpe) {
      lo = std::min(lo, p.dma_bytes);
      hi = std::max(hi, p.dma_bytes);
      sum += p.dma_bytes;
    }
    os << "per-CPE dma payload\n";
    line(os, "min / mean / max",
         fmt("%s / %s / %s", mb(lo).c_str(),
             mb(sum / static_cast<std::int64_t>(c.per_cpe.size())).c_str(),
             mb(hi).c_str()));
  }

  if (tune.candidates_ranked > 0 || tune.candidates_measured > 0 ||
      tune.cache_hits + tune.cache_misses > 0) {
    os << "tuning\n";
    line(os, "space",
         fmt("%" PRId64 " strategies, %" PRId64 " ranked, %" PRId64
             " measured",
             tune.space_size, tune.candidates_ranked,
             tune.candidates_measured));
    if (tune.cache_hits + tune.cache_misses > 0)
      line(os, "schedule cache",
           fmt("%" PRId64 " hits, %" PRId64 " misses, %" PRId64 " stores",
               tune.cache_hits, tune.cache_misses, tune.cache_stores));
    if (tune.replay_hits + tune.replay_misses > 0)
      line(os, "measurement memo",
           fmt("%" PRId64 " hits, %" PRId64 " misses", tune.replay_hits,
               tune.replay_misses));
    line(os, "wall clock", fmt("%.3f s", tune.seconds));
    if (!tune_samples.empty()) {
      os << "  model vs measured:\n";
      for (const TuneSample& s : tune_samples) {
        if (s.measured_cycles < 0.0) {
          os << fmt("    %-40s predicted %12.0f\n", s.strategy.c_str(),
                    s.predicted_cycles);
        } else if (s.predicted_cycles < 0.0) {
          // Black-box samples: measured only, no model estimate.
          os << fmt("    %-40s measured  %12.0f\n", s.strategy.c_str(),
                    s.measured_cycles);
        } else {
          os << fmt("    %-40s predicted %12.0f  measured %12.0f  "
                    "(err %+.1f%%)\n",
                    s.strategy.c_str(), s.predicted_cycles,
                    s.measured_cycles,
                    pct(s.predicted_cycles - s.measured_cycles,
                        s.measured_cycles));
        }
      }
    }
  }

  os << fmt("trace: %zu events", events.size());
  if (events_dropped > 0)
    os << fmt(" (%" PRId64 " dropped by the ring buffer)", events_dropped);
  os << "\n";
  return os.str();
}

}  // namespace swatop::obs
