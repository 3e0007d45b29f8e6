#include "ir/printer.hpp"

#include <sstream>

namespace swatop::ir {

namespace {

void print_view(std::ostringstream& os, const ViewAttrs& v) {
  os << v.tensor << "[base=" << to_string(v.base) << ", " << to_string(v.rows)
     << "x" << to_string(v.cols) << ", sr=" << v.stride_r
     << ", sc=" << v.stride_c << "]";
}

void print_rec(std::ostringstream& os, const StmtPtr& s, int depth) {
  if (s == nullptr) return;
  const std::string pad(static_cast<std::size_t>(depth) * 2, ' ');
  switch (s->kind) {
    case StmtKind::Seq:
      for (const StmtPtr& c : s->body) print_rec(os, c, depth);
      break;
    case StmtKind::For:
      os << pad << "for " << s->var.name() << " in [0, " << to_string(s->extent)
         << ")" << (s->prefetched ? "  // prefetched" : "") << " {\n";
      print_rec(os, s->for_body, depth + 1);
      os << pad << "}\n";
      break;
    case StmtKind::If:
      os << pad << "if (" << to_string(s->cond) << ") {\n";
      print_rec(os, s->then_s, depth + 1);
      if (s->else_s != nullptr) {
        os << pad << "} else {\n";
        print_rec(os, s->else_s, depth + 1);
      }
      os << pad << "}\n";
      break;
    case StmtKind::SpmAlloc:
      os << pad << "spm_alloc " << s->buf_name << "[" << s->buf_floats << "]"
         << (s->double_buffered ? " x2 (double buffered)" : "") << "\n";
      break;
    case StmtKind::SpmZero:
      os << pad << "spm_zero " << s->buf_name << " + "
         << to_string(s->zero_off) << ", " << to_string(s->zero_floats)
         << "\n";
      break;
    case StmtKind::DmaGet:
    case StmtKind::DmaPut:
      os << pad << (s->kind == StmtKind::DmaGet ? "dma_get " : "dma_put ");
      print_view(os, s->dma.view);
      os << (s->kind == StmtKind::DmaGet ? " -> " : " <- ") << s->dma.spm_buf
         << " + " << to_string(s->dma.spm_off) << " (tile "
         << to_string(s->dma.rows_p) << "x" << to_string(s->dma.cols_p)
         << ", reply " << to_string(s->dma.reply)
         << (s->dma.cache_fill ? ", cache fill" : "") << ")";
      if (s->dma.epi.any()) {
        os << "  // epilogue:";
        if (s->dma.epi.bias)
          os << " bias@" << to_string(s->dma.epi.channel0);
        if (s->dma.epi.residual) {
          os << " add ";
          print_view(os, s->dma.epi.res);
        }
        if (s->dma.epi.relu) os << " relu";
      }
      os << "\n";
      break;
    case StmtKind::DmaWait:
      os << pad << "dma_wait " << to_string(s->wait_reply) << "\n";
      break;
    case StmtKind::Gemm: {
      const GemmAttrs& g = s->gemm;
      os << pad << "gemm_op M=" << to_string(g.M) << " N=" << to_string(g.N)
         << " K=" << to_string(g.K) << " variant=" << g.variant;
      if (!g.a_buf.empty()) {
        os << " A=" << g.a_buf << "+" << to_string(g.a_off) << " B=" << g.b_buf
           << "+" << to_string(g.b_off) << " C=" << g.c_buf << "+"
           << to_string(g.c_off);
      } else {
        os << " A=";
        print_view(os, g.a);
        os << " B=";
        print_view(os, g.b);
        os << " C=";
        print_view(os, g.c);
      }
      os << "\n";
      break;
    }
    case StmtKind::Comment:
      os << pad << "// " << s->text << "\n";
      break;
  }
}

}  // namespace

std::string print(const StmtPtr& s) {
  std::ostringstream os;
  print_rec(os, s, 0);
  return os.str();
}

}  // namespace swatop::ir
