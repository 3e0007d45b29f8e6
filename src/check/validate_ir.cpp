#include "check/validate_ir.hpp"

#include <set>
#include <sstream>
#include <utility>

#include "common/check.hpp"
#include "ir/analysis.hpp"

namespace swatop::check {

namespace ir = swatop::ir;

namespace {

struct Ctx {
  const sim::SimConfig* cfg = nullptr;
  std::vector<std::string> errors;
  std::set<std::string> allocated;
  std::vector<ir::VarId> loops;   ///< in scope, outermost first
  std::set<std::int64_t> issued;  ///< reply slots some DMA can produce
  /// Every slot a wait can wait on, with its expression (formatted only
  /// when the slot fails a check).
  std::vector<std::pair<std::int64_t, ir::Expr>> waited;

  void error(std::string msg) { errors.push_back(std::move(msg)); }
};

/// Every value `e` can take with the in-scope loop variables restricted to
/// {0, 1} -- reply expressions are affine in at most the double-buffer
/// parity `v % 2`, so this enumeration is exact for them. Empty on
/// evaluation failure (unbound variable, division by zero), which is
/// reported separately by the caller.
std::vector<std::int64_t> parity_values(const ir::Expr& e, const Ctx& c) {
  std::vector<ir::VarId> used;
  for (const ir::VarId v : c.loops)
    if (ir::uses_var(e, v)) used.push_back(v);
  if (used.size() > 10) return {};  // 2^10 cap; lowering never gets close
  std::vector<std::int64_t> out;
  const std::size_t combos = std::size_t{1} << used.size();
  ir::Env env;
  for (const ir::VarId v : c.loops) env[v] = 0;
  for (std::size_t m = 0; m < combos; ++m) {
    for (std::size_t i = 0; i < used.size(); ++i)
      env[used[i]] = static_cast<std::int64_t>((m >> i) & 1);
    try {
      out.push_back(ir::eval(e, env));
    } catch (const CheckError&) {
      return {};
    }
  }
  return out;
}

void check_buffer(Ctx& c, const std::string& buf, const char* who) {
  if (buf.empty()) {
    c.error(std::string(who) + " references an empty SPM buffer name");
    return;
  }
  if (c.allocated.count(buf) == 0)
    c.error(std::string(who) + " references SPM buffer '" + buf +
            "' with no preceding SpmAlloc");
}

void walk(const ir::StmtPtr& s, Ctx& c) {
  if (s == nullptr) return;
  switch (s->kind) {
    case ir::StmtKind::Seq:
      for (const ir::StmtPtr& ch : s->as<ir::Seq>().body) walk(ch, c);
      return;
    case ir::StmtKind::For: {
      const ir::For& f = s->as<ir::For>();
      ir::Env env0;
      for (const ir::VarId v : c.loops) env0[v] = 0;
      try {
        const std::int64_t n = ir::eval(f.extent, env0);
        if (n <= 0) {
          std::ostringstream os;
          os << "For " << f.var.name() << " extent "
             << ir::to_string(f.extent) << " evaluates to " << n
             << " <= 0 (outer variables at 0)";
          c.error(os.str());
        }
      } catch (const CheckError&) {
        c.error("For " + f.var.name() + " extent " +
                ir::to_string(f.extent) +
                " references a variable not bound by an enclosing loop");
      }
      c.loops.push_back(f.var);
      walk(f.body, c);
      c.loops.pop_back();
      return;
    }
    case ir::StmtKind::If:
      walk(s->as<ir::If>().then_s, c);
      walk(s->as<ir::If>().else_s, c);
      return;
    case ir::StmtKind::SpmAlloc: {
      const ir::SpmAlloc& a = s->as<ir::SpmAlloc>();
      if (a.buf_floats <= 0)
        c.error("SpmAlloc '" + a.buf_name + "' of " +
                std::to_string(a.buf_floats) + " floats");
      if (!c.allocated.insert(a.buf_name).second)
        c.error("duplicate SpmAlloc for buffer '" + a.buf_name + "'");
      return;
    }
    case ir::StmtKind::SpmZero:
      check_buffer(c, s->as<ir::SpmZero>().buf_name, "SpmZero");
      return;
    case ir::StmtKind::DmaGet:
    case ir::StmtKind::DmaPut: {
      const ir::DmaAttrs& d = s->as<ir::Dma>().attrs;
      const char* who =
          s->kind == ir::StmtKind::DmaGet ? "DmaGet" : "DmaPut";
      check_buffer(c, d.spm_buf, who);
      if (d.view.tensor.empty())
        c.error(std::string(who) + " of buffer '" + d.spm_buf +
                "' has no main-memory tensor");
      if (d.epi.any()) {
        if (s->kind == ir::StmtKind::DmaGet)
          c.error("DmaGet of buffer '" + d.spm_buf +
                  "' carries a fused epilogue (only a GEMM output put may)");
        if (d.epi.bias && d.epi.channel0 == nullptr)
          c.error("epilogue bias on buffer '" + d.spm_buf +
                  "' without a channel0 expression");
        if (d.epi.residual && d.epi.res.tensor.empty())
          c.error("epilogue residual on buffer '" + d.spm_buf +
                  "' without a residual tensor view");
      }
      if (d.reply == nullptr) {
        c.error(std::string(who) + " of buffer '" + d.spm_buf +
                "' has no reply slot expression");
        return;
      }
      const std::vector<std::int64_t> slots = parity_values(d.reply, c);
      if (slots.empty())
        c.error(std::string(who) + " reply expression " +
                ir::to_string(d.reply) + " is not evaluable");
      for (std::int64_t v : slots) {
        if (v < 0 || v >= ir::kMaxReplySlots) {
          std::ostringstream os;
          os << who << " of buffer '" << d.spm_buf << "' reply slot " << v
             << " outside the " << ir::kMaxReplySlots
             << "-entry reply table";
          c.error(os.str());
        }
        c.issued.insert(v);
      }
      return;
    }
    case ir::StmtKind::DmaWait: {
      const ir::Expr& reply = s->as<ir::DmaWait>().reply;
      if (reply == nullptr) {
        c.error("DmaWait with no reply slot expression");
        return;
      }
      const std::vector<std::int64_t> slots = parity_values(reply, c);
      if (slots.empty())
        c.error("DmaWait reply expression " + ir::to_string(reply) +
                " is not evaluable");
      for (std::int64_t v : slots) c.waited.emplace_back(v, reply);
      return;
    }
    case ir::StmtKind::Gemm: {
      const ir::GemmAttrs& g = s->as<ir::Gemm>().attrs;
      if (g.a_buf.empty() && g.b_buf.empty() && g.c_buf.empty()) {
        c.error("gemm without SPM bindings -- DMA inference never ran");
        return;
      }
      check_buffer(c, g.a_buf, "gemm operand A");
      check_buffer(c, g.b_buf, "gemm operand B");
      check_buffer(c, g.c_buf, "gemm operand C");
      return;
    }
  }
  c.error("unknown statement kind");
}

}  // namespace

std::vector<std::string> validate_ir(const ir::StmtPtr& root,
                                     const sim::SimConfig& cfg) {
  Ctx c;
  c.cfg = &cfg;
  if (root == nullptr) return {"program is null"};
  walk(root, c);

  for (const auto& [slot, expr] : c.waited) {
    if (slot < 0 || slot >= ir::kMaxReplySlots) {
      std::ostringstream os;
      os << "DmaWait slot " << slot << " (" << ir::to_string(expr)
         << ") outside the " << ir::kMaxReplySlots << "-entry reply table";
      c.error(os.str());
    } else if (c.issued.count(slot) == 0) {
      std::ostringstream os;
      os << "DmaWait on reply slot " << slot << " (" << ir::to_string(expr)
         << ") that no DMA in the program can issue";
      c.error(os.str());
    }
  }

  const std::int64_t footprint = ir::spm_footprint(root);
  if (footprint > cfg.spm_floats()) {
    std::ostringstream os;
    os << "SPM footprint " << footprint << " floats exceeds capacity "
       << cfg.spm_floats();
    c.error(os.str());
  }
  return std::move(c.errors);
}

void validate_ir_or_throw(const ir::StmtPtr& root,
                          const sim::SimConfig& cfg) {
  const std::vector<std::string> errors = validate_ir(root, cfg);
  if (errors.empty()) return;
  std::ostringstream os;
  os << "IR validation failed with " << errors.size() << " problem"
     << (errors.size() == 1 ? "" : "s") << ":";
  for (const std::string& e : errors) os << "\n  - " << e;
  throw CheckError(os.str());
}

}  // namespace swatop::check
