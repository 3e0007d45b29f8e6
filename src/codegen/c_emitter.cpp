#include "codegen/c_emitter.hpp"

#include <sstream>
#include <vector>

#include "common/check.hpp"
#include "common/math_util.hpp"
#include "ir/mutator.hpp"

namespace swatop::codegen {

namespace ir = swatop::ir;

namespace {

std::string emit_expr(const ir::Expr& e) {
  SWATOP_CHECK(e != nullptr);
  std::ostringstream os;
  switch (e->kind) {
    case ir::ExprKind::Const:
      os << e->value << "L";
      break;
    case ir::ExprKind::Var:
      os << e->var.name();
      break;
    case ir::ExprKind::Add:
      os << "(" << emit_expr(e->a) << " + " << emit_expr(e->b) << ")";
      break;
    case ir::ExprKind::Sub:
      os << "(" << emit_expr(e->a) << " - " << emit_expr(e->b) << ")";
      break;
    case ir::ExprKind::Mul:
      os << "(" << emit_expr(e->a) << " * " << emit_expr(e->b) << ")";
      break;
    case ir::ExprKind::FloorDiv:
      os << "(" << emit_expr(e->a) << " / " << emit_expr(e->b) << ")";
      break;
    case ir::ExprKind::Mod:
      os << "(" << emit_expr(e->a) << " % " << emit_expr(e->b) << ")";
      break;
    case ir::ExprKind::Min:
      os << "SWATOP_MIN(" << emit_expr(e->a) << ", " << emit_expr(e->b)
         << ")";
      break;
    case ir::ExprKind::Max:
      os << "SWATOP_MAX(" << emit_expr(e->a) << ", " << emit_expr(e->b)
         << ")";
      break;
    case ir::ExprKind::Select:
      os << "((" << emit_expr(e->a) << ") ? (" << emit_expr(e->b) << ") : ("
         << emit_expr(e->c) << "))";
      break;
    case ir::ExprKind::Lt:
      os << "(" << emit_expr(e->a) << " < " << emit_expr(e->b) << ")";
      break;
    case ir::ExprKind::Ge:
      os << "(" << emit_expr(e->a) << " >= " << emit_expr(e->b) << ")";
      break;
  }
  return os.str();
}

class Emitter {
 public:
  explicit Emitter(std::ostringstream& os) : os_(os) {}

  void stmt(const ir::StmtPtr& s, int depth) {
    if (s == nullptr) return;
    const std::string pad(static_cast<std::size_t>(depth) * 2, ' ');
    switch (s->kind) {
      case ir::StmtKind::Seq:
        for (const ir::StmtPtr& c : s->as<ir::Seq>().body) stmt(c, depth);
        return;
      case ir::StmtKind::For: {
        const ir::For& f = s->as<ir::For>();
        const std::string& v = f.var.name();
        os_ << pad << "for (long " << v << " = 0; " << v << " < "
            << emit_expr(f.extent) << "; ++" << v << ") {"
            << (f.prefetched ? "  /* double buffered */" : "") << "\n";
        stmt(f.body, depth + 1);
        os_ << pad << "}\n";
        return;
      }
      case ir::StmtKind::If: {
        const ir::If& i = s->as<ir::If>();
        os_ << pad << "if (" << emit_expr(i.cond) << ") {\n";
        stmt(i.then_s, depth + 1);
        if (i.else_s != nullptr &&
            !(i.else_s->is<ir::Seq>() &&
              i.else_s->as<ir::Seq>().body.empty())) {
          os_ << pad << "} else {\n";
          stmt(i.else_s, depth + 1);
        }
        os_ << pad << "}\n";
        return;
      }
      case ir::StmtKind::SpmAlloc:
        // Every allocation is a static buffer of the prologue's coalesced
        // SPM region, wherever it sits (DMA inference puts them first).
        return;
      case ir::StmtKind::SpmZero: {
        const ir::SpmZero& z = s->as<ir::SpmZero>();
        os_ << pad << "spm_zero(" << z.buf_name << " + " << emit_expr(z.off)
            << ", " << emit_expr(z.floats) << ");\n";
        return;
      }
      case ir::StmtKind::DmaGet:
      case ir::StmtKind::DmaPut: {
        const ir::DmaAttrs& d = s->as<ir::Dma>().attrs;
        if (s->kind == ir::StmtKind::DmaPut && d.epi.any()) {
          // Fused elementwise tail on the SPM tile before it drains.
          os_ << pad << "spm_epilogue(" << d.spm_buf << " + "
              << emit_expr(d.spm_off) << ", /*tile=*/" << emit_expr(d.rows_p)
              << ", " << emit_expr(d.cols_p) << ",\n"
              << pad << "    /*bias=*/"
              << (d.epi.bias ? "bias + " + emit_expr(d.epi.channel0)
                             : std::string("0"))
              << ", /*channels_on_rows=*/"
              << (d.epi.channels_on_rows ? 1 : 0) << ",\n"
              << pad << "    /*res=*/"
              << (d.epi.residual
                      ? d.epi.res.tensor + " + " + emit_expr(d.epi.res.base)
                      : std::string("0"))
              << ", /*res_stride_r=*/" << d.epi.res.stride_r
              << ", /*res_stride_c=*/" << d.epi.res.stride_c
              << ", /*relu=*/" << (d.epi.relu ? 1 : 0) << ");\n";
        }
        const char* fn =
            s->kind == ir::StmtKind::DmaGet ? "swDMA_get_2d" : "swDMA_put_2d";
        os_ << pad << fn << "(" << d.view.tensor << " + "
            << emit_expr(d.view.base) << ", " << d.spm_buf << " + "
            << emit_expr(d.spm_off) << ",\n"
            << pad << "    /*rows=*/" << emit_expr(d.view.rows)
            << ", /*cols=*/" << emit_expr(d.view.cols) << ", /*stride_r=*/"
            << d.view.stride_r << ", /*stride_c=*/" << d.view.stride_c
            << ",\n"
            << pad << "    /*tile=*/" << emit_expr(d.rows_p) << ", "
            << emit_expr(d.cols_p) << ", /*rows_to_rid=*/"
            << (d.rows_to_rid ? 1 : 0) << ", &reply["
            << emit_expr(d.reply) << "]);\n";
        return;
      }
      case ir::StmtKind::DmaWait:
        os_ << pad << "swDMAWait(&reply["
            << emit_expr(s->as<ir::DmaWait>().reply) << "], 1);\n";
        return;
      case ir::StmtKind::Gemm: {
        const ir::GemmAttrs& g = s->as<ir::Gemm>().attrs;
        os_ << pad << "spm_gemm(/*M=*/" << emit_expr(g.M) << ", /*N=*/"
            << emit_expr(g.N) << ", /*K=*/" << emit_expr(g.K) << ", "
            << g.alpha << "f,\n"
            << pad << "    " << g.a_buf << " + " << emit_expr(g.a_off)
            << ", " << g.b_buf << " + " << emit_expr(g.b_off) << ", 1.0f, "
            << g.c_buf << " + " << emit_expr(g.c_off) << ",\n"
            << pad << "    /*variant=*/SWATOP_GEMM_VARIANT_" << g.variant
            << ");\n";
        return;
      }
    }
    SWATOP_UNREACHABLE("bad stmt kind in emitter");
  }

 private:
  std::ostringstream& os_;
};

}  // namespace

std::string emit_c(const ir::StmtPtr& root, const EmitOptions& opts) {
  std::ostringstream os;
  os << "/* Generated by swATOP -- SW26010 CPE kernel (SPMD, athread). */\n"
     << "#include \"swatop_runtime.h\"\n\n"
     << "#define SWATOP_MIN(a, b) ((a) < (b) ? (a) : (b))\n"
     << "#define SWATOP_MAX(a, b) ((a) > (b) ? (a) : (b))\n\n";

  // Coalesced SPM region: one static buffer per allocation, 32-byte aligned.
  std::vector<const ir::SpmAlloc*> allocs;
  ir::visit(root, [&](const ir::StmtPtr& n) {
    if (n->is<ir::SpmAlloc>()) allocs.push_back(&n->as<ir::SpmAlloc>());
  });
  std::int64_t total = 0;
  for (const ir::SpmAlloc* a : allocs) {
    const std::int64_t one = align_up(a->buf_floats, 8);
    const std::int64_t sz = a->double_buffered ? 2 * one : one;
    os << "static __thread_local float " << a->buf_name << "[" << sz
       << "] __attribute__((aligned(32)));"
       << (a->double_buffered ? "  /* double buffered */" : "") << "\n";
    total += sz;
  }
  os << "/* coalesced SPM footprint: " << total * 4 << " bytes */\n\n";

  os << "void " << opts.kernel_name
     << "(const swatop_args_t *args) {\n"
     << "  swReplyWord reply[" << ir::kMaxReplySlots << "];\n";
  // Tensor pointers: every tensor mentioned by a DMA node.
  std::vector<std::string> tensors;
  auto add_tensor = [&](const std::string& t) {
    if (t.empty()) return;
    for (const std::string& seen : tensors)
      if (seen == t) return;
    tensors.push_back(t);
  };
  ir::visit(root, [&](const ir::StmtPtr& n) {
    if (!n->is<ir::Dma>()) return;
    const ir::DmaAttrs& d = n->as<ir::Dma>().attrs;
    add_tensor(d.view.tensor);
    if (d.epi.bias) add_tensor("bias");
    if (d.epi.residual) add_tensor(d.epi.res.tensor);
  });
  for (const std::string& t : tensors)
    os << "  float *" << t << " = args->" << t << ";\n";
  os << "\n";

  Emitter em(os);
  em.stmt(root, 1);
  os << "}\n";
  return os.str();
}

}  // namespace swatop::codegen
