#include "tune/replay.hpp"

#include <algorithm>
#include <cstdio>
#include <utility>
#include <vector>

#include "ir/node.hpp"
#include "tune/tuner.hpp"

namespace swatop::tune {

namespace {

/// Append one double bit-exactly (hexfloat: round-trips without rounding,
/// and two doubles with equal text are the same bits up to -0.0/NaN, which
/// never appear in the serialized fields).
void key_num(std::string& out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%a", v);
  out += buf;
  out += ';';
}

void key_int(std::string& out, std::int64_t v) {
  out += std::to_string(v);
  out += ';';
}

void key_str(std::string& out, const std::string& s) {
  out += s;
  out += ';';
}

void key_expr(std::string& out, const ir::Expr& e) {
  out += e ? ir::to_string(e) : "~";
  out += ';';
}

void key_view(std::string& out, const ir::ViewAttrs& v) {
  key_str(out, v.tensor);
  key_expr(out, v.base);
  key_int(out, v.stride_r);
  key_int(out, v.stride_c);
  key_expr(out, v.rows);
  key_expr(out, v.cols);
}

void key_epi(std::string& out, const ir::EpilogueAttrs& e) {
  key_int(out, (e.bias ? 1 : 0) | (e.residual ? 2 : 0) | (e.relu ? 4 : 0) |
                   (e.channels_on_rows ? 8 : 0));
  key_expr(out, e.channel0);
  key_view(out, e.res);
}

/// Canonical recursive serializer. Unlike ir::print (a human-readable
/// pretty-printer), this covers *every* field that can change what the
/// interpreter books: rows_to_rid, channels_on_rows, alpha, the
/// kernel variant, reduction/prefetched markers.
void key_stmt(std::string& out, const ir::StmtPtr& s) {
  if (s == nullptr) {
    out += "0;";
    return;
  }
  switch (s->kind) {
    case ir::StmtKind::Seq:
      out += "S(";
      for (const ir::StmtPtr& c : s->as<ir::Seq>().body) key_stmt(out, c);
      out += ')';
      return;
    case ir::StmtKind::For: {
      const ir::For& f = s->as<ir::For>();
      out += "F(";
      key_str(out, f.var.name());
      key_expr(out, f.extent);
      key_int(out, (f.prefetched ? 1 : 0) | (f.reduction ? 2 : 0));
      key_stmt(out, f.body);
      out += ')';
      return;
    }
    case ir::StmtKind::If: {
      const ir::If& i = s->as<ir::If>();
      out += "I(";
      key_expr(out, i.cond);
      key_stmt(out, i.then_s);
      key_stmt(out, i.else_s);
      out += ')';
      return;
    }
    case ir::StmtKind::SpmAlloc: {
      const ir::SpmAlloc& a = s->as<ir::SpmAlloc>();
      out += "A(";
      key_str(out, a.buf_name);
      key_int(out, a.buf_floats);
      key_int(out, a.double_buffered ? 1 : 0);
      out += ')';
      return;
    }
    case ir::StmtKind::SpmZero: {
      const ir::SpmZero& z = s->as<ir::SpmZero>();
      out += "Z(";
      key_str(out, z.buf_name);
      key_expr(out, z.off);
      key_expr(out, z.floats);
      out += ')';
      return;
    }
    case ir::StmtKind::DmaGet:
    case ir::StmtKind::DmaPut: {
      out += s->kind == ir::StmtKind::DmaGet ? "Dg(" : "Dp(";
      const ir::DmaAttrs& d = s->as<ir::Dma>().attrs;
      key_view(out, d.view);
      key_expr(out, d.rows_p);
      key_expr(out, d.cols_p);
      key_str(out, d.spm_buf);
      key_expr(out, d.spm_off);
      key_expr(out, d.reply);
      // The 1 (a get) repeats the kind and the 2 is always set, so keys
      // stay byte-identical to those recorded when the direction and the
      // scatter-vs-replicate choice were fields.
      key_int(out, (s->kind == ir::StmtKind::DmaGet ? 1 : 0) | 2 |
                       (d.rows_to_rid ? 4 : 0));
      key_epi(out, d.epi);
      out += ')';
      return;
    }
    case ir::StmtKind::DmaWait:
      out += "W(";
      key_expr(out, s->as<ir::DmaWait>().reply);
      out += ')';
      return;
    case ir::StmtKind::Gemm: {
      out += "G(";
      const ir::GemmAttrs& g = s->as<ir::Gemm>().attrs;
      key_expr(out, g.M);
      key_expr(out, g.N);
      key_expr(out, g.K);
      key_num(out, static_cast<double>(g.alpha));
      key_int(out, g.variant);
      key_view(out, g.a);
      key_view(out, g.b);
      key_view(out, g.c);
      key_str(out, g.a_buf);
      key_str(out, g.b_buf);
      key_str(out, g.c_buf);
      key_expr(out, g.a_off);
      key_expr(out, g.b_off);
      key_expr(out, g.c_off);
      key_epi(out, g.epi);
      out += ')';
      return;
    }
  }
}

}  // namespace

std::string replay_key(const ir::StmtPtr& program,
                       const dsl::BoundTensors& bt,
                       const sim::SimConfig& cfg) {
  std::string out;
  out.reserve(1024);
  // Machine: every parameter a booking can depend on.
  out += "m:";
  key_int(out, cfg.mesh_rows);
  key_int(out, cfg.mesh_cols);
  key_int(out, static_cast<std::int64_t>(cfg.spm_bytes));
  key_num(out, cfg.clock_ghz);
  key_num(out, cfg.dma_peak_bw_gbs);
  key_num(out, cfg.dma_latency_cycles);
  key_int(out, static_cast<std::int64_t>(cfg.dram_transaction_bytes));
  key_num(out, cfg.gls_bw_gbs);
  key_num(out, cfg.reg_comm_bw_gbs);
  key_int(out, cfg.vector_width);
  key_int(out, cfg.vmad_latency);
  key_int(out, cfg.vload_latency);
  key_int(out, cfg.vstore_latency);
  key_int(out, cfg.reg_comm_latency);
  key_int(out, cfg.sanitize.enabled ? 1 : 0);
  // Tensor binding: the resolved arena addresses (sorted by name -- the
  // map order is not canonical).
  out += "t:";
  std::vector<std::pair<std::string, sim::MainMemory::Addr>> sorted(
      bt.begin(), bt.end());
  std::sort(sorted.begin(), sorted.end());
  for (const auto& [name, addr] : sorted) {
    out += name;
    out += '=';
    key_int(out, addr);
  }
  // The lowered program.
  out += "p:";
  key_stmt(out, program);
  return out;
}

std::optional<double> ReplayExecutor::find(const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = memo_.find(key);
  if (it == memo_.end()) {
    ++stats_.misses;
    return std::nullopt;
  }
  ++stats_.hits;
  return it->second;
}

void ReplayExecutor::store(std::string key, double cycles) {
  std::lock_guard<std::mutex> lock(mu_);
  memo_.emplace(std::move(key), cycles);
}

ReplayStats ReplayExecutor::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

std::int64_t ReplayExecutor::cached() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<std::int64_t>(memo_.size());
}

double ReplayExecutor::measure(const dsl::OperatorDef& op,
                               const sched::Candidate& cand,
                               const sim::SimConfig& cfg) {
  return measure_candidate(op, cand, cfg, this);
}

}  // namespace swatop::tune
