#include "rt/interpreter.hpp"

#include <algorithm>
#include <sstream>
#include <vector>

#include "common/check.hpp"
#include "common/math_util.hpp"
#include "rt/dma_expand.hpp"

namespace swatop::rt {

namespace ir = swatop::ir;

namespace {

/// The first of n floats spaced `stride` apart from address a, taken
/// through one view that covers exactly the floats they touch -- so an
/// access outside the arena throws as the per-element read/write would.
float* mem_column(sim::MainMemory& mem, sim::MainMemory::Addr a,
                  std::int64_t n, std::int64_t stride) {
  const std::int64_t span = (n - 1) * stride;
  const sim::MainMemory::Addr lo = a + std::min<std::int64_t>(span, 0);
  return mem.view(lo, std::max(span, -span) + 1).data() + (a - lo);
}

}  // namespace

Interpreter::Interpreter(sim::CoreGroup& cg, sim::ExecMode mode)
    : cg_(cg), mode_(mode), db_(isa::kernel_cost_db(cg.config())) {}

std::int64_t Interpreter::spm_base(const std::string& buf) const {
  for (const auto& [name, off] : spm_off_)
    if (name == buf) return off;
  SWATOP_UNREACHABLE("unknown SPM buffer '" + buf + "'");
}

std::string Interpreter::loop_context() const {
  if (loop_stack_.empty()) return "at top level";
  std::ostringstream os;
  os << "at ";
  for (std::size_t i = 0; i < loop_stack_.size(); ++i) {
    if (i > 0) os << " ";
    os << loop_stack_[i].first.name() << "=" << loop_stack_[i].second;
  }
  return os.str();
}

void Interpreter::sanitizer_trip(std::int64_t obs::SanitizerCounters::*ctr,
                                 const std::string& what) {
  cg_.stats().sanitizer.*ctr += 1;
  throw SanitizerError("swATOP sanitizer: " + what);
}

void Interpreter::check_overlap(std::int64_t lo, std::int64_t hi, bool writes,
                                const char* who, const std::string& buf) {
  if (!cg_.config().sanitize.overlap_on()) return;
  for (std::int64_t slot = 0; slot < ir::kMaxReplySlots; ++slot) {
    if (reply_done_[static_cast<std::size_t>(slot)] < 0.0) continue;
    const SlotInfo& si = slot_info_[static_cast<std::size_t>(slot)];
    if (lo >= si.spm_hi || si.spm_lo >= hi) continue;
    if (!writes && !si.writes_spm) continue;  // two readers may share
    std::ostringstream os;
    os << who << " buffer '" << buf << "' touches SPM floats [" << lo
       << ", " << hi
       << ") while a DMA " << (si.writes_spm ? "get into" : "put from")
       << " buffer '" << si.buf << "' (reply slot " << slot
       << ", SPM [" << si.spm_lo << ", " << si.spm_hi
       << ")) is still in flight " << loop_context();
    sanitizer_trip(&obs::SanitizerCounters::dma_overlap_trips, os.str());
  }
}

void Interpreter::check_dma_bounds(const ir::Dma& s, const DmaGeometry& geo) {
  if (!cg_.config().sanitize.bounds_on()) return;
  if (geo.rows <= 0 || geo.cols <= 0) return;
  const ir::ViewAttrs& view = s.attrs.view;
  const auto t = tensors_->find(view.tensor);
  const auto it = alloc_floats_.find(t->second);
  if (it == alloc_floats_.end()) return;  // not a named arena allocation
  const std::int64_t r_span = (geo.rows - 1) * view.stride_r;
  const std::int64_t c_span = (geo.cols - 1) * view.stride_c;
  const std::int64_t lo =
      geo.base + std::min<std::int64_t>(r_span, 0) +
      std::min<std::int64_t>(c_span, 0);
  const std::int64_t hi =
      geo.base + std::max<std::int64_t>(r_span, 0) +
      std::max<std::int64_t>(c_span, 0);
  if (lo >= t->second && hi < t->second + it->second) return;
  std::ostringstream os;
  os << "DMA " << (s.kind == ir::StmtKind::DmaGet ? "get" : "put")
     << " touches floats [" << lo << ", " << hi + 1 << ") of tensor '"
     << view.tensor << "' which owns [" << t->second << ", "
     << t->second + it->second << ") -- region " << geo.rows << "x"
     << geo.cols << " strides (" << view.stride_r << ", " << view.stride_c
     << ") " << loop_context();
  sanitizer_trip(&obs::SanitizerCounters::dma_bounds_trips, os.str());
}

void Interpreter::check_defined(std::int64_t a, std::int64_t n,
                                const std::string& buf,
                                const std::string& who) {
  if (n <= 0) return;
  const sim::SimConfig& cfg = cg_.config();
  for (int r = 0; r < cfg.mesh_rows; ++r) {
    for (int c = 0; c < cfg.mesh_cols; ++c) {
      const std::int64_t p =
          cg_.cluster().at(r, c).spm().first_poisoned(a, n);
      if (p < 0) continue;
      std::ostringstream os;
      os << who << " reads SPM float " << p << " of buffer '" << buf
         << "' (offset " << p - spm_base(buf)
         << " within the buffer) on CPE (" << r << "," << c
         << "), which was never written by a DMA, zero-fill or GEMM "
         << loop_context();
      sanitizer_trip(&obs::SanitizerCounters::spm_poison_trips, os.str());
    }
  }
}

RunResult Interpreter::run(const ir::StmtPtr& root,
                           const dsl::BoundTensors& tensors) {
  cg_.reset_execution();
  obs_ = cg_.observer();
  spm_off_.clear();
  reply_done_.assign(static_cast<std::size_t>(ir::kMaxReplySlots), -1.0);
  slot_info_.assign(static_cast<std::size_t>(ir::kMaxReplySlots),
                    SlotInfo{});
  loop_stack_.clear();
  alloc_floats_.clear();
  bias_charged_.clear();
  bytes_elided_ = 0;
  if (cg_.config().sanitize.bounds_on()) {
    for (const auto& a : cg_.mem().allocations())
      alloc_floats_[a.base] = a.size;
  }
  tensors_ = &tensors;
  exec(root);
  for (std::int64_t slot = 0; slot < ir::kMaxReplySlots; ++slot) {
    if (reply_done_[static_cast<std::size_t>(slot)] < 0.0) continue;
    std::ostringstream os;
    os << "program ended with in-flight DMA on reply slot " << slot
       << " (buffer '" << slot_info_[static_cast<std::size_t>(slot)].buf
       << "') -- a DmaWait was skipped or its slot expression is wrong";
    sanitizer_trip(&obs::SanitizerCounters::reply_slot_trips, os.str());
  }
  RunResult r;
  r.cycles = cg_.now();
  r.stats = cg_.stats();
  r.bytes_elided = bytes_elided_;
  if (obs_ != nullptr) {
    if (obs_->tracing()) {
      obs::TraceEvent ev;
      ev.name = mode_ == sim::ExecMode::Functional ? "run (functional)"
                                                   : "run (timing)";
      ev.cat = obs::Category::Run;
      ev.tid = obs::Track::kCluster;
      ev.ts = 0.0;
      ev.dur = cg_.now();
      obs_->trace_event(std::move(ev));
    }
    // Overlay the execution aggregates from the simulator's own
    // accumulators, then snapshot -- the profile's DMA bytes are the priced
    // DMA bytes, not a re-derivation.
    obs_->counters() = cg_.counters_snapshot();
    r.profile = obs::Profile::snapshot(*obs_);
  }
  return r;
}

void Interpreter::exec(const ir::StmtPtr& s) {
  if (s == nullptr) return;
  switch (s->kind) {
    case ir::StmtKind::Seq:
      for (const ir::StmtPtr& c : s->as<ir::Seq>().body) exec(c);
      return;
    case ir::StmtKind::For: {
      const ir::For& f = s->as<ir::For>();
      const std::int64_t n = eval_.eval(f.extent);
      const int slot = eval_.slot_of(f.var);
      loop_stack_.emplace_back(f.var, 0);
      for (std::int64_t i = 0; i < n; ++i) {
        loop_stack_.back().second = i;
        eval_.set(slot, i);
        exec(f.body);
      }
      loop_stack_.pop_back();
      return;
    }
    case ir::StmtKind::If: {
      const ir::If& i = s->as<ir::If>();
      exec(eval_.eval(i.cond) != 0 ? i.then_s : i.else_s);
      return;
    }
    case ir::StmtKind::SpmAlloc: {
      const ir::SpmAlloc& a = s->as<ir::SpmAlloc>();
      // One alignment rule for single- and double-buffered allocations:
      // each buffer (and each half) spans align_up(buf_floats, 8) floats.
      // ir::spm_footprint, the C emitter and the double-buffering pass all
      // size with the same formula, so the interpreter's layout is the
      // layout every other layer assumes.
      const std::int64_t half = align_up(a.buf_floats, 8);
      const std::int64_t total = a.double_buffered ? 2 * half : half;
      const std::int64_t base = cg_.cluster().spm_alloc(total, a.buf_name);
      // The second half's base must be what dma_expand and the kernels
      // compute from the parity expression: base + parity * half, with
      // both halves vector-aligned.
      SWATOP_CHECK(base % 8 == 0 && (base + half) % 8 == 0)
          << "SPM allocation '" << a.buf_name << "' at " << base
          << " breaks the 8-float alignment the double-buffer offsets "
             "assume";
      const auto named = std::find_if(
          spm_off_.begin(), spm_off_.end(),
          [&](const auto& e) { return e.first == a.buf_name; });
      if (named != spm_off_.end())
        named->second = base;
      else
        spm_off_.emplace_back(a.buf_name, base);
      if (cg_.config().sanitize.poison_on()) {
        const sim::SimConfig& cfg = cg_.config();
        for (int r = 0; r < cfg.mesh_rows; ++r)
          for (int c = 0; c < cfg.mesh_cols; ++c)
            cg_.cluster().at(r, c).spm().poison(base, total);
      }
      if (obs_ != nullptr && obs_->tracing()) {
        obs::TraceEvent ev;
        ev.name = "spm_alloc " + a.buf_name;
        ev.cat = obs::Category::Spm;
        ev.tid = obs::Track::kCluster;
        ev.ts = cg_.now();
        ev.instant = true;
        ev.arg_name[0] = "floats";
        ev.arg[0] = total;
        ev.arg_name[1] = "offset";
        ev.arg[1] = base;
        obs_->trace_event(std::move(ev));
      }
      return;
    }
    case ir::StmtKind::SpmZero:
      exec_zero(s->as<ir::SpmZero>());
      return;
    case ir::StmtKind::DmaGet:
    case ir::StmtKind::DmaPut:
      exec_dma(s->as<ir::Dma>());
      return;
    case ir::StmtKind::DmaWait: {
      const std::int64_t slot = eval_.eval(s->as<ir::DmaWait>().reply);
      if (slot < 0 || slot >= ir::kMaxReplySlots) {
        std::ostringstream os;
        os << "dma_wait on reply slot " << slot << " outside the "
           << ir::kMaxReplySlots << "-entry reply table " << loop_context();
        sanitizer_trip(&obs::SanitizerCounters::reply_slot_trips, os.str());
      }
      if (reply_done_[static_cast<std::size_t>(slot)] < 0.0) {
        const std::string& buf =
            slot_info_[static_cast<std::size_t>(slot)].buf;
        std::ostringstream os;
        os << "dma_wait on empty reply slot " << slot << " ("
           << (buf.empty() ? std::string("never issued")
                           : "last completed transfer was for buffer '" +
                                 buf + "'")
           << ") " << loop_context();
        sanitizer_trip(&obs::SanitizerCounters::reply_slot_trips, os.str());
      }
      const double done = reply_done_[static_cast<std::size_t>(slot)];
      if (obs_ != nullptr && obs_->tracing() && done > cg_.now()) {
        obs::TraceEvent ev;
        ev.name = "dma_wait";
        ev.cat = obs::Category::Dma;
        ev.tid = obs::Track::kCluster;
        ev.ts = cg_.now();
        ev.dur = done - cg_.now();
        ev.arg_name[0] = "reply";
        ev.arg[0] = slot;
        obs_->trace_event(std::move(ev));
      }
      cg_.wait_until(done);
      reply_done_[static_cast<std::size_t>(slot)] = -1.0;
      return;
    }
    case ir::StmtKind::Gemm:
      exec_gemm(s->as<ir::Gemm>());
      return;
  }
  SWATOP_UNREACHABLE("bad stmt kind");
}

void Interpreter::exec_zero(const ir::SpmZero& s) {
  const std::int64_t off = spm_base(s.buf_name) + eval_.eval(s.off);
  const std::int64_t n = eval_.eval(s.floats);
  if (n <= 0) return;
  check_overlap(off, off + n, /*writes=*/true, "spm_zero of", s.buf_name);
  const double zero_cycles =
      static_cast<double>(n) / cg_.config().vector_width;
  if (obs_ != nullptr && obs_->tracing()) {
    obs::TraceEvent ev;
    ev.name = "spm_zero " + s.buf_name;
    ev.cat = obs::Category::Compute;
    ev.tid = obs::Track::kCluster;
    ev.ts = cg_.now();
    ev.dur = zero_cycles;
    ev.arg_name[0] = "floats";
    ev.arg[0] = n;
    obs_->trace_event(std::move(ev));
  }
  // Vector stores, 4 floats per cycle on P1, all CPEs in parallel.
  cg_.advance_compute(zero_cycles);
  if (mode_ != sim::ExecMode::Functional) return;
  const sim::SimConfig& cfg = cg_.config();
  for (int r = 0; r < cfg.mesh_rows; ++r)
    for (int c = 0; c < cfg.mesh_cols; ++c)
      cg_.cluster().at(r, c).spm().fill(off, n, 0.0f);
}

void Interpreter::exec_dma(const ir::Dma& s) {
  const ir::DmaAttrs& d = s.attrs;
  const sim::SimConfig& cfg = cg_.config();
  auto t = tensors_->find(d.view.tensor);
  SWATOP_CHECK(t != tensors_->end())
      << "unbound tensor '" << d.view.tensor << "'";
  const DmaGeometry geo = evaluate_dma(d, eval_, t->second, cfg);
  const std::int64_t spm_at = spm_base(d.spm_buf) + eval_.eval(d.spm_off);
  const std::int64_t slot = eval_.eval(d.reply);
  const bool is_get = s.kind == ir::StmtKind::DmaGet;
  if (slot < 0 || slot >= ir::kMaxReplySlots) {
    std::ostringstream os;
    os << "DMA " << (is_get ? "get" : "put") << " of buffer '" << d.spm_buf
       << "' uses reply slot " << slot << " outside the "
       << ir::kMaxReplySlots << "-entry reply table " << loop_context();
    sanitizer_trip(&obs::SanitizerCounters::reply_slot_trips, os.str());
  }
  if (reply_done_[static_cast<std::size_t>(slot)] >= 0.0) {
    std::ostringstream os;
    os << "reply slot " << slot << " already in flight for buffer '"
       << slot_info_[static_cast<std::size_t>(slot)].buf
       << "' when reissued for buffer '" << d.spm_buf << "' "
       << loop_context();
    sanitizer_trip(&obs::SanitizerCounters::reply_slot_trips, os.str());
  }
  check_dma_bounds(s, geo);
  const std::int64_t spm_hi = spm_at + geo.tr * geo.tc;
  check_overlap(spm_at, spm_hi, is_get,
                is_get ? "DMA get into" : "DMA put from", d.spm_buf);
  if (!is_get && d.epi.any()) apply_epilogue(d, geo, spm_at);
  const sim::DmaCost& cost = dma_cost_cache_.get(d, geo, cg_.dma(), cfg);
  const bool resident =
      resident_ != nullptr && resident_->tensors.count(d.view.tensor) > 0;
  double done;
  if (resident) {
    // Inter-layer residency: the tensor lives distributed in the mesh's
    // SPMs, so this transfer never reaches DRAM or the DMA engine. Count
    // what an unpinned run would have priced.
    bytes_elided_ += cost.bytes_requested;
    done = cg_.now();
  } else {
    done = cg_.dma_issue_cost_at(cost);
  }
  reply_done_[static_cast<std::size_t>(slot)] = done;
  slot_info_[static_cast<std::size_t>(slot)] =
      SlotInfo{d.spm_buf, spm_at, spm_hi, is_get};

  // Elided transfers are invisible to the DMA observability too: traced /
  // per-CPE bytes stay equal to priced bytes by construction.
  if (obs_ != nullptr && !resident) {
    if (obs_->tracing()) {
      obs::TraceEvent ev;
      ev.name = (is_get ? "get " : "put ") + d.spm_buf;
      ev.cat = obs::Category::Dma;
      ev.tid = obs::Track::kCluster;
      ev.ts = cg_.now();
      ev.instant = true;
      ev.arg_name[0] = "bytes";
      ev.arg[0] = cost.bytes_requested;
      ev.arg_name[1] = "reply";
      ev.arg[1] = slot;
      obs_->trace_event(std::move(ev));
    }
    attribute_per_cpe(d, geo);
  }

  if (mode_ != sim::ExecMode::Functional) return;

  for (int rid = 0; rid < cfg.mesh_rows; ++rid) {
    for (int cid = 0; cid < cfg.mesh_cols; ++cid) {
      const CpeBlock b = cpe_block(d, geo, rid, cid);
      if (b.empty()) continue;
      const std::int64_t vr = b.rows, vc = b.cols;
      sim::Spm& spm = cg_.cluster().at(rid, cid).spm();
      if (!is_get && spm.poison_tracking()) {
        // A put drains exactly the valid columns of this CPE's tile; every
        // float it reads must have been defined by a get, zero or GEMM.
        for (std::int64_t j = 0; j < vc; ++j) {
          const std::int64_t p =
              spm.first_poisoned(spm_at + j * geo.tr, vr);
          if (p < 0) continue;
          std::ostringstream os;
          os << "DMA put from buffer '" << d.spm_buf << "' reads SPM float "
             << p << " (offset " << p - spm_base(d.spm_buf)
             << " within the buffer) on CPE (" << rid << "," << cid
             << "), which was never written by a DMA, zero-fill or GEMM "
             << loop_context();
          sanitizer_trip(&obs::SanitizerCounters::spm_poison_trips,
                         os.str());
        }
      }
      const std::int64_t sr = d.view.stride_r;
      for (std::int64_t j = 0; j < vc; ++j) {
        float* mem = mem_column(cg_.mem(), b.mem_base + j * d.view.stride_c,
                                vr, sr);
        if (is_get) {
          float* dst = spm.write_block(spm_at + j * geo.tr, vr).data();
          for (std::int64_t i = 0; i < vr; ++i) dst[i] = mem[i * sr];
        } else {
          const float* src = spm.read_block(spm_at + j * geo.tr, vr).data();
          for (std::int64_t i = 0; i < vr; ++i) mem[i * sr] = src[i];
        }
      }
    }
  }
}

void Interpreter::attribute_per_cpe(const ir::DmaAttrs& d,
                                    const DmaGeometry& geo) {
  const sim::SimConfig& cfg = cg_.config();
  for (int rid = 0; rid < cfg.mesh_rows; ++rid) {
    for (int cid = 0; cid < cfg.mesh_cols; ++cid) {
      const CpeBlock b = cpe_block(d, geo, rid, cid);
      if (b.empty()) continue;
      obs::CpeCounters& pc = obs_->cpe(rid * cfg.mesh_cols + cid);
      pc.dma_bytes +=
          b.rows * b.cols * static_cast<std::int64_t>(sizeof(float));
      pc.dma_transfers += 1;
    }
  }
}

void Interpreter::apply_epilogue(const ir::DmaAttrs& d,
                                 const DmaGeometry& geo, std::int64_t spm_at) {
  const ir::EpilogueAttrs& e = d.epi;
  const sim::SimConfig& cfg = cg_.config();

  // Residual operand: re-read of the same tile geometry from the res view,
  // priced like the get it replaces (the unfused Add pass paid it too, plus
  // a full extra read+write of the main operand).
  ResidualRead res;
  if (e.residual) {
    const auto rt = tensors_->find(e.res.tensor);
    SWATOP_CHECK(rt != tensors_->end())
        << "unbound epilogue tensor '" << e.res.tensor << "'";
    res = residual_read(d, geo, rt->second + eval_.eval(e.res.base));
    const sim::DmaCost& rc =
        dma_cost_cache_.get(res.attrs, res.geo, cg_.dma(), cfg);
    if (resident_ != nullptr && resident_->tensors.count(e.res.tensor) > 0) {
      bytes_elided_ += rc.bytes_requested;
    } else {
      cg_.charge_dma_cost_sync(rc);
      if (obs_ != nullptr) attribute_per_cpe(res.attrs, res.geo);
    }
  }

  // Bias vector: a tiny get charged once per channel range and run; the
  // vector then stays resident in SPM across the tiles that reuse it.
  sim::MainMemory::Addr bias_base = 0;
  std::int64_t ch0 = 0;
  if (e.bias) {
    const auto bt = tensors_->find("bias");
    SWATOP_CHECK(bt != tensors_->end()) << "unbound epilogue tensor 'bias'";
    bias_base = bt->second;
    ch0 = eval_.eval(e.channel0);
    if (bias_charged_.insert(ch0).second) {
      const std::int64_t nch = e.channels_on_rows ? geo.rows_p : geo.cols_p;
      sim::DmaCpeDesc bd;
      bd.mem_base = bias_base + ch0;
      bd.block = nch;
      bd.stride = 0;
      bd.total = nch;
      cg_.charge_dma_sync(std::span<const sim::DmaCpeDesc>(&bd, 1));
    }
  }

  // The elementwise tail itself: vector ops on the SPM tile, CPEs in
  // parallel.
  const int nops = (e.bias ? 1 : 0) + (e.residual ? 1 : 0) + (e.relu ? 1 : 0);
  cg_.advance_compute(static_cast<double>(nops) * geo.tr * geo.tc /
                      cfg.vector_width);

  if (mode_ != sim::ExecMode::Functional) return;
  // Bias is per channel: one float per row when channels run down the rows,
  // one float for a whole column otherwise.
  const std::int64_t bias_step = e.channels_on_rows ? 1 : 0;
  for (int rid = 0; rid < cfg.mesh_rows; ++rid) {
    for (int cid = 0; cid < cfg.mesh_cols; ++cid) {
      const CpeBlock b = cpe_block(d, geo, rid, cid);
      if (b.empty()) continue;
      const std::int64_t vr = b.rows;
      const sim::MainMemory::Addr res_col =
          e.residual ? cpe_block(res.attrs, res.geo, rid, cid).mem_base : 0;
      sim::Spm& spm = cg_.cluster().at(rid, cid).spm();
      const std::int64_t gi = b.br * geo.tr;  // global row of tile row 0
      for (std::int64_t j = 0; j < b.cols; ++j) {
        const std::int64_t gj = b.bc * geo.tc + j;
        const float* bias =
            e.bias ? mem_column(cg_.mem(),
                                bias_base + ch0 +
                                    (e.channels_on_rows ? gi : gj),
                                vr, bias_step)
                   : nullptr;
        const float* resid =
            e.residual ? mem_column(cg_.mem(), res_col + j * e.res.stride_c,
                                    vr, e.res.stride_r)
                       : nullptr;
        const std::int64_t idx = spm_at + j * geo.tr;
        const float* in = spm.read_block(idx, vr).data();
        float* out = spm.write_block(idx, vr).data();
        for (std::int64_t i = 0; i < vr; ++i) {
          float v = in[i];
          if (bias != nullptr) v += bias[i * bias_step];
          if (resid != nullptr) v += resid[i * e.res.stride_r];
          if (e.relu) v = std::max(v, 0.0f);
          out[i] = v;
        }
      }
    }
  }
}

void Interpreter::exec_gemm(const ir::Gemm& s) {
  const ir::GemmAttrs& g = s.attrs;
  SWATOP_CHECK(!g.a_buf.empty())
      << "gemm without SPM bindings -- run DMA inference first";
  prim::SpmGemmArgs args;
  args.M = eval_.eval(g.M);
  args.N = eval_.eval(g.N);
  args.K = eval_.eval(g.K);
  if (args.M == 0 || args.N == 0 || args.K == 0) return;
  args.alpha = g.alpha;
  args.beta = 1.0f;  // accumulator tiles are zeroed / re-fetched upstream
  args.a_spm = spm_base(g.a_buf) + eval_.eval(g.a_off);
  args.b_spm = spm_base(g.b_buf) + eval_.eval(g.b_off);
  args.c_spm = spm_base(g.c_buf) + eval_.eval(g.c_off);
  args.variant = isa::KernelVariant::from_index(g.variant);

  if (cg_.config().sanitize.enabled) {
    const prim::SpmGemmFootprint fp =
        prim::spm_gemm_footprint(args.M, args.N, args.K, cg_.config());
    check_overlap(args.a_spm, args.a_spm + fp.a_floats, false,
                  "gemm read of", g.a_buf);
    check_overlap(args.b_spm, args.b_spm + fp.b_floats, false,
                  "gemm read of", g.b_buf);
    check_overlap(args.c_spm, args.c_spm + fp.c_floats, true,
                  "gemm accumulation into", g.c_buf);
    if (mode_ == sim::ExecMode::Functional &&
        cg_.config().sanitize.poison_on()) {
      // The GEMM reads its whole A/B tiles (broadcast across the mesh) and
      // accumulates into the whole C tile, so all three must be defined.
      check_defined(args.a_spm, fp.a_floats, g.a_buf, "gemm");
      check_defined(args.b_spm, fp.b_floats, g.b_buf, "gemm");
      check_defined(args.c_spm, fp.c_floats, g.c_buf, "gemm");
    }
  }

  const std::uint64_t key =
      (static_cast<std::uint64_t>(args.variant.index()) << 60) ^
      (static_cast<std::uint64_t>(args.M) << 40) ^
      (static_cast<std::uint64_t>(args.N) << 20) ^
      static_cast<std::uint64_t>(args.K);
  const double t0 = cg_.now();
  if (mode_ == sim::ExecMode::Functional) {
    // prim::spm_gemm books the cycles and the kernel-attribution stats
    // (gemm_cycles, reg-comm share, per-CPE pipeline breakdown).
    prim::spm_gemm(cg_, args, mode_, db_);
  } else {
    // TimingOnly fast path: the primitive's cost and pipeline breakdown
    // only depend on the dims and the variant; memoize both in one entry.
    auto it = gemm_cost_memo_.find(key);
    if (it == gemm_cost_memo_.end()) {
      SWATOP_CHECK(
          prim::spm_gemm_valid(args.M, args.N, args.K, args.variant,
                               cg_.config()))
          << "invalid gemm dims (" << args.M << "," << args.N << ","
          << args.K << ") at runtime";
      GemmCost c;
      c.cycles = db_.spm_gemm_cycles(args.variant, args.M, args.N, args.K);
      c.pipe = db_.spm_gemm_pipe(args.variant, args.M, args.N, args.K);
      it = gemm_cost_memo_.emplace(key, c).first;
    }
    cg_.advance_compute(it->second.cycles);
    sim::CgStats& st = cg_.stats();
    st.gemm_calls += 1;
    st.flops += 2 * args.M * args.N * args.K;
    st.gemm_cycles += it->second.cycles;
    st.gemm_comm_cycles += db_.spm_gemm_comm_cycles();
    st.pipe.issued_p0 += it->second.pipe.issued_p0;
    st.pipe.issued_p1 += it->second.pipe.issued_p1;
    st.pipe.raw_stall_cycles += it->second.pipe.raw_stall_cycles;
  }

  if (obs_ != nullptr && obs_->tracing()) {
    obs::TraceEvent ev;
    ev.name = "spm_gemm";
    ev.cat = obs::Category::Compute;
    ev.tid = obs::Track::kCluster;
    ev.ts = t0;
    ev.dur = cg_.now() - t0;
    ev.arg_name[0] = "M";
    ev.arg[0] = args.M;
    ev.arg_name[1] = "N";
    ev.arg[1] = args.N;
    ev.arg_name[2] = "K";
    ev.arg[2] = args.K;
    obs_->trace_event(std::move(ev));
  }
}

}  // namespace swatop::rt
