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
      for (const StmtPtr& c : s->as<Seq>().body) print_rec(os, c, depth);
      break;
    case StmtKind::For: {
      const For& f = s->as<For>();
      os << pad << "for " << f.var.name() << " in [0, " << to_string(f.extent)
         << ")" << (f.prefetched ? "  // prefetched" : "") << " {\n";
      print_rec(os, f.body, depth + 1);
      os << pad << "}\n";
      break;
    }
    case StmtKind::If: {
      const If& i = s->as<If>();
      os << pad << "if (" << to_string(i.cond) << ") {\n";
      print_rec(os, i.then_s, depth + 1);
      if (i.else_s != nullptr) {
        os << pad << "} else {\n";
        print_rec(os, i.else_s, depth + 1);
      }
      os << pad << "}\n";
      break;
    }
    case StmtKind::SpmAlloc: {
      const SpmAlloc& a = s->as<SpmAlloc>();
      os << pad << "spm_alloc " << a.buf_name << "[" << a.buf_floats << "]"
         << (a.double_buffered ? " x2 (double buffered)" : "") << "\n";
      break;
    }
    case StmtKind::SpmZero: {
      const SpmZero& z = s->as<SpmZero>();
      os << pad << "spm_zero " << z.buf_name << " + " << to_string(z.off)
         << ", " << to_string(z.floats) << "\n";
      break;
    }
    case StmtKind::DmaGet:
    case StmtKind::DmaPut: {
      const bool get = s->kind == StmtKind::DmaGet;
      const DmaAttrs& d = s->as<Dma>().attrs;
      os << pad << (get ? "dma_get " : "dma_put ");
      print_view(os, d.view);
      os << (get ? " -> " : " <- ") << d.spm_buf << " + "
         << to_string(d.spm_off) << " (tile " << to_string(d.rows_p) << "x"
         << to_string(d.cols_p) << ", reply " << to_string(d.reply)
         << (d.cache_fill ? ", cache fill" : "") << ")";
      if (d.epi.any()) {
        os << "  // epilogue:";
        if (d.epi.bias) os << " bias@" << to_string(d.epi.channel0);
        if (d.epi.residual) {
          os << " add ";
          print_view(os, d.epi.res);
        }
        if (d.epi.relu) os << " relu";
      }
      os << "\n";
      break;
    }
    case StmtKind::DmaWait:
      os << pad << "dma_wait " << to_string(s->as<DmaWait>().reply) << "\n";
      break;
    case StmtKind::Gemm: {
      const GemmAttrs& g = s->as<Gemm>().attrs;
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
  }
}

}  // namespace

std::string print(const StmtPtr& s) {
  std::ostringstream os;
  print_rec(os, s, 0);
  return os.str();
}

}  // namespace swatop::ir
